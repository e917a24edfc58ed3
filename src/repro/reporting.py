"""Study-report generation: the analyses as a shareable document.

Turns a call dataset (:func:`teams_report`) or a social corpus
(:func:`starlink_report`) into a plain-text study report covering the
same ground as the paper's §3 or §4 — headline numbers and per-figure
sections.  The CLI's ``analyze-teams`` and ``analyze-starlink`` print
them with ``--report``; ``usaas`` answers the §5 query.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import AnalysisError
from repro.io.tables import format_table


def _section(title: str) -> List[str]:
    return ["", title, "=" * len(title), ""]


def teams_report(dataset, min_bin_count: int = 8) -> str:
    """The §3 study over a call dataset, as text.

    Args:
        dataset: a :class:`~repro.telemetry.store.CallDataset`.
        min_bin_count: sparse-bin threshold for the curves.
    """
    from repro.engagement import CohortFilter, fig1_curves, mos_by_engagement
    from repro.engagement.compound import compound_presence_grid

    if len(dataset) == 0:
        raise AnalysisError("empty dataset")
    lines: List[str] = []
    lines += _section("Implicit user signals (paper §3)")
    cohort = CohortFilter().apply(dataset)
    pool = list(cohort.participants())
    lines.append(
        f"{len(dataset)} calls / {dataset.n_participants} sessions; "
        f"cohort filter keeps {len(cohort)} calls / {len(pool)} sessions."
    )

    lines += _section("Engagement vs network conditions (Fig. 1)")
    result = fig1_curves(pool, min_bin_count=min_bin_count)
    rows = []
    for metric in ("latency_ms", "loss_pct", "jitter_ms", "bandwidth_mbps"):
        row = [metric]
        for engagement in ("presence_pct", "cam_on_pct", "mic_on_pct"):
            try:
                row.append(result.relative_drop_pct(metric, engagement))
            except AnalysisError:
                row.append(float("nan"))
        rows.append(row)
    lines.append(format_table(
        ["condition", "presence drop %", "cam drop %", "mic drop %"], rows
    ))

    lines += _section("Compounding latency x loss (Fig. 2)")
    try:
        grid = compound_presence_grid(list(dataset.participants()))
        lines.append(
            f"Presence dips up to {grid.max_dip_pct():.0f}% in the worst "
            f"(latency, loss) cell relative to the best."
        )
    except AnalysisError as exc:
        lines.append(f"grid unavailable: {exc}")

    lines += _section("Engagement vs explicit MOS (Fig. 4)")
    try:
        mos = mos_by_engagement(dataset.participants())
        lines.append(format_table(
            ["engagement metric", "spearman r"],
            sorted(mos.correlations.items(), key=lambda kv: -kv[1]),
        ))
        lines.append(f"strongest correlate: {mos.strongest_metric()} "
                     f"over {mos.n_rated} rated sessions")
    except AnalysisError as exc:
        lines.append(f"MOS analysis unavailable: {exc}")
    return "\n".join(lines).strip() + "\n"


def starlink_report(corpus, n_peaks: int = 3) -> str:
    """The §4 study over a social corpus, as text."""
    from repro.analysis import (
        annotate_peak,
        outage_keyword_series,
        pos_vs_speed,
        sentiment_timeline,
        track_speeds,
    )
    from repro.social import EventCalendar, build_news_index

    if len(corpus) == 0:
        raise AnalysisError("empty corpus")
    lines: List[str] = []
    lines += _section("Explicit user signals (paper §4)")
    stats = corpus.weekly_stats()
    lines.append(
        f"{len(corpus)} posts; {stats['posts_per_week']:.0f} posts, "
        f"{stats['upvotes_per_week']:.0f} upvotes, "
        f"{stats['comments_per_week']:.0f} comments per week."
    )

    timeline = sentiment_timeline(corpus)
    index = build_news_index(EventCalendar())
    lines += _section(f"Top-{n_peaks} sentiment peaks (Fig. 5a)")
    rows = []
    for day, value in timeline.top_peaks(n_peaks):
        annotation = annotate_peak(corpus, index, day)
        rows.append([
            str(day), int(value), timeline.peak_polarity(day),
            annotation.headline or "(no news found)",
        ])
    lines.append(format_table(
        ["day", "strong posts", "polarity", "news"], rows
    ))

    lines += _section("Outage-keyword monitor (Fig. 6)")
    outages = outage_keyword_series(corpus)
    rows = [[str(d), int(v)] for d, v in outages.top_spike_days(3)]
    lines.append(format_table(["day", "keyword occurrences"], rows))

    shares = corpus.speed_shares()
    if shares:
        lines += _section("OCR'd downlink speeds (Fig. 7)")
        track = track_speeds(corpus)
        lines.append(
            f"{track.n_extracted}/{track.n_shared} screenshots extracted; "
            f"subsample deviation "
            f"{100 * track.max_subsample_deviation():.1f}%."
        )
        try:
            fulcrum = pos_vs_speed(corpus, track.median)
            lines.append(
                f"corr(Pos, speed) = {fulcrum.correlation():+.2f}"
            )
        except AnalysisError as exc:
            lines.append(f"fulcrum unavailable: {exc}")
    return "\n".join(lines).strip() + "\n"
