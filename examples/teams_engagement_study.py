#!/usr/bin/env python3
"""The full §3 study: implicit user actions as network measurement.

Reproduces the paper's MS Teams analysis end-to-end on a synthetic call
population:

1. generate an observational enterprise call dataset;
2. apply the paper's cohort filter (enterprise, business hours, weekdays,
   3+ participants, US-only);
3. compute the Fig. 1 engagement-vs-condition curves with the paper's
   hold-other-metrics-constant windows;
4. compute the Fig. 2 latency x loss compounding grid;
5. compute Fig. 4's engagement <-> MOS correlation on the rated subset;
6. train the §5 MOS predictor and compare feature families.

Run: ``python examples/teams_engagement_study.py`` (takes ~1 minute).
"""

import numpy as np

from repro.engagement import (
    CohortFilter,
    compound_presence_grid,
    fig1_curves,
    mos_by_engagement,
)
from repro.io.tables import format_table
from repro.prediction import ALL_FEATURES, NETWORK_FEATURES, train_test_evaluate
from repro.telemetry import CallDatasetGenerator, GeneratorConfig


def main() -> None:
    print("Generating the call dataset (1500 meetings)...")
    dataset = CallDatasetGenerator(GeneratorConfig(
        n_calls=1500, seed=2024, mos_sample_rate=0.2, decorrelate=0.65
    )).generate()
    print(f"  {len(dataset)} calls, {dataset.n_participants} sessions")

    cohort = CohortFilter().apply(dataset)
    pool = list(cohort.participants())
    print(f"  cohort filter kept {len(cohort)} calls / {len(pool)} sessions\n")

    # --- Fig. 1 -----------------------------------------------------------
    print("Fig. 1 — engagement vs network conditions "
          "(other metrics held in the paper's control windows):")
    result = fig1_curves(pool, min_bin_count=8)
    for metric in ("latency_ms", "loss_pct", "jitter_ms", "bandwidth_mbps"):
        parts = []
        for engagement in ("presence_pct", "cam_on_pct", "mic_on_pct"):
            try:
                drop = result.relative_drop_pct(metric, engagement)
                parts.append(f"{engagement.replace('_pct', '')}: -{drop:.0f}%")
            except Exception:
                parts.append(f"{engagement.replace('_pct', '')}: n/a")
        print(f"  {metric:16s} worst-bin drop  " + "  ".join(parts))

    # --- Fig. 2 -----------------------------------------------------------
    grid = compound_presence_grid(list(dataset.participants()))
    print(f"\nFig. 2 — compounding latency x loss: Presence dips up to "
          f"{grid.max_dip_pct():.0f}% in the worst cell (paper: ~50%)")

    # --- Fig. 4 -----------------------------------------------------------
    mos = mos_by_engagement(dataset.participants())
    print(f"\nFig. 4 — engagement vs MOS over {mos.n_rated} rated sessions:")
    print(format_table(
        ["engagement metric", "spearman r with MOS"],
        sorted(mos.correlations.items(), key=lambda kv: -kv[1]),
    ))
    print(f"  strongest correlate: {mos.strongest_metric()} "
          "(paper: Presence)")

    # --- §5 predictor -------------------------------------------------------
    print("\n§5 — predicting MOS for the 99%+ of sessions without ratings:")
    for name, features in (
        ("network only", NETWORK_FEATURES),
        ("network + engagement", ALL_FEATURES),
    ):
        report = train_test_evaluate(
            dataset.participants(), features=features, seed=3
        )
        print(f"  {name:22s} MAE={report.mae:.3f}  corr={report.correlation:.3f}")


if __name__ == "__main__":
    main()
