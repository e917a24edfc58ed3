#!/usr/bin/env python3
"""§5 corroboration: implicit signals confirm what social media reports.

The paper: *"User actions could be used to corroborate the user posts on
social media."*  This demo stages the 7 Jan '22 Starlink outage in both
signal families and shows USaaS matching them:

1. a Teams-like call dataset where every path degrades on the outage day
   (the incident is injected at the *network* level — nobody tells the
   behaviour engine there's an outage; the drop-off spike is emergent);
2. the r/Starlink corpus, where the same day produces an outage-keyword
   and strong-negative-sentiment spike;
3. the USaaS monitoring loop raising a drop-off alarm on the same day the
   social pipeline's keyword monitor spikes.

Run: ``python examples/outage_cross_validation.py`` (~1 minute).
"""

import datetime as dt

from repro.analysis import outage_keyword_series, sentiment_timeline
from repro.core.usaas import UsaasService, telemetry_signals, watch_metric
from repro.engagement.early_warning import DriftDetector
from repro.social import CorpusConfig, CorpusGenerator
from repro.telemetry import CallDatasetGenerator, GeneratorConfig
from repro.telemetry.meetings import MeetingScheduler

OUTAGE_DAY = dt.date(2022, 1, 7)


def main() -> None:
    print("Simulating January 2022 in both signal families...\n")

    # --- implicit side: calls, with the incident injected at the network.
    scheduler = MeetingScheduler(
        span_start=dt.date(2021, 12, 1), span_end=dt.date(2022, 1, 31)
    )
    dataset = CallDatasetGenerator(
        GeneratorConfig(n_calls=2500, seed=13,
                        outage_days={OUTAGE_DAY: 0.9}),
        scheduler=scheduler,
    ).generate()
    signals = telemetry_signals(dataset, network="starlink")

    alarms = watch_metric(
        signals, "drop_off",
        DriftDetector(direction="rise", warmup_days=21,
                      consecutive_days=1),
    )
    print("implicit side (Teams telemetry):")
    if alarms:
        for alarm in alarms[:3]:
            print(f"  drop-off alarm on {alarm.day} "
                  f"(z={alarm.z_score:+.1f}, day mean "
                  f"{alarm.day_mean:.0f}% across {alarm.n_signals} sessions)")
    else:
        print("  no alarms (unexpected!)")

    # --- explicit side: the corpus over the same window.
    corpus = CorpusGenerator(CorpusConfig(
        seed=13,
        span_start=dt.date(2021, 12, 1),
        span_end=dt.date(2022, 1, 31),
        author_pool_size=800,
    )).generate()
    timeline = sentiment_timeline(corpus)
    outages = outage_keyword_series(corpus)
    top_day, top_count = outages.top_spike_days(1)[0]
    print("\nexplicit side (r/Starlink):")
    print(f"  biggest outage-keyword day: {top_day} "
          f"({int(top_count)} occurrences)")
    print(f"  strong-negative posts that day: "
          f"{int(timeline.strong_negative[top_day])}")

    # --- the corroboration.
    print("\ncorroboration:")
    implicit_days = {a.day for a in alarms}
    if top_day in implicit_days:
        print(f"  ✓ both families independently flag {top_day} — "
              "the social report is corroborated by in-call actions")
    else:
        print(f"  implicit alarms: {sorted(implicit_days)}; "
              f"social spike: {top_day}")


if __name__ == "__main__":
    main()
