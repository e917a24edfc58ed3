#!/usr/bin/env python3
"""The full §4 study: explicit social feedback as network measurement.

Reproduces the paper's r/Starlink analysis end-to-end:

1. generate two years of r/Starlink (Jan '21 – Dec '22);
2. score every post (Fig. 5a) and extract the top-3 sentiment peaks;
3. annotate each peak with word clouds + news search — and find the
   unreported 22 Apr '22 outage (Fig. 5b);
4. run the outage-keyword monitor over negative threads (Fig. 6);
5. OCR the shared speed-test screenshots and build the monthly median
   downlink track with stability subsampling (Fig. 7);
6. compute Pos vs speed and the two conditioning exceptions (§4.2).

Run: ``python examples/starlink_sentiment_monitor.py`` (takes ~1 minute).
"""

import numpy as np

from repro.analysis import (
    annotate_peak,
    outage_keyword_series,
    pos_vs_speed,
    sentiment_timeline,
    track_speeds,
)
from repro.io.tables import format_table
from repro.social import CorpusConfig, CorpusGenerator, EventCalendar, build_news_index


def main() -> None:
    print("Generating two years of r/Starlink...")
    corpus = CorpusGenerator(CorpusConfig(seed=2024)).generate()
    stats = corpus.weekly_stats()
    print(f"  {len(corpus)} posts "
          f"({stats['posts_per_week']:.0f}/week; paper: 372/week)\n")

    # --- Fig. 5a ------------------------------------------------------------
    print("Scoring sentiment (Fig. 5a)...")
    timeline = sentiment_timeline(corpus)
    peaks = timeline.top_peaks(3)
    index = build_news_index(EventCalendar())
    rows = []
    for day, value in peaks:
        annotation = annotate_peak(corpus, index, day)
        rows.append([
            str(day),
            int(value),
            timeline.peak_polarity(day),
            annotation.headline or "(nothing in the news!)",
        ])
    print(format_table(
        ["peak day", "strong posts", "polarity", "news annotation"], rows
    ))
    print("  -> the 3rd peak is an outage no outlet ever covered (Fig. 5b)\n")

    # --- Fig. 6 ---------------------------------------------------------------
    outages = outage_keyword_series(corpus)
    spikes = outages.top_spike_days(2)
    print("Fig. 6 — outage keywords in negative threads; largest spikes:")
    for day, value in spikes:
        print(f"  {day}: {int(value)} keyword occurrences")
    transients = outages.transient_peak_days(
        spike_threshold=spikes[-1][1] * 0.3, floor=3
    )
    print(f"  plus {len(transients)} transient-outage days nobody reported\n")

    # --- Fig. 7 ---------------------------------------------------------------
    print("OCR-ing shared speed-test screenshots (Fig. 7)...")
    track = track_speeds(corpus)
    print(f"  extracted {track.n_extracted}/{track.n_shared} screenshots "
          f"({100 * track.extraction_rate:.0f}%)")
    rise = track.median.slice((2021, 1), (2021, 9)).trend()
    fall = track.median.slice((2021, 9), (2022, 12)).trend()
    print(f"  median downlink trend Jan-Sep '21: {rise:+.1f} Mbps/month")
    print(f"  median downlink trend Sep '21-Dec '22: {fall:+.1f} Mbps/month")
    print(f"  subsample stability (95%/90%): max deviation "
          f"{100 * track.max_subsample_deviation():.1f}%\n")

    # --- §4.2 fulcrum ---------------------------------------------------------
    fulcrum = pos_vs_speed(corpus, track.median)
    exc = fulcrum.exception_dec21_vs_apr21()
    inv = fulcrum.inversion_2022()
    print("§4.2 'the wheel of time':")
    print(f"  spring '21: {exc['speed_apr21']:.0f} Mbps, Pos {exc['pos_apr21']:.2f}")
    print(f"  Q4 '21    : {exc['speed_dec21']:.0f} Mbps, Pos {exc['pos_dec21']:.2f}"
          "   <- faster but unhappier (conditioned by the peak era)")
    print(f"  Mar-Dec '22: speeds {inv['speed_trend']:+.2f} Mbps/month while "
          f"Pos {inv['pos_trend']:+.3f}/month"
          "   <- users acclimatize to less")


if __name__ == "__main__":
    main()
