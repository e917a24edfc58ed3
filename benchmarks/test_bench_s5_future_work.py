"""S5 — the §6 future-work directions, implemented and measured.

* confounder adjustment: composition bias in the naive latency curve;
* early warning: engagement vs MOS detection latency;
* per-cohort mitigation tuning gains;
* sentiment-aware launch planning improvement;
* the paper's note that "similar trends hold for P95": engagement trends
  on P95 aggregates match those on means;
* the Pos-normalisation ablation from DESIGN.md §5.
"""

import datetime as dt

import numpy as np
import pytest

from benchmarks.conftest import emit
from benchmarks.util import timed
from repro.engagement.adjustment import composition_bias_demo
from repro.engagement.binning import engagement_curve
from repro.engagement.early_warning import detection_latency_experiment
from repro.io.tables import format_table
from repro.netsim.link import LinkProfile
from repro.netsim.tuning import MitigationTuner, tuning_gain
from repro.rng import derive
from repro.starlink.planning import LaunchPlanner, plan_outcome


class TestConfounderAdjustment:
    def test_bench_composition_bias(self, benchmark, observational_dataset):
        numbers = timed(benchmark, lambda: composition_bias_demo(
            observational_dataset.participants(), edges=(0, 120, 350)
        ))
        emit("s5_confounder_adjustment", format_table(
            ["quantity", "value %"],
            [[k, v] for k, v in numbers.items()],
            title="S5 — §6 'Are networks to blame always?': Mic On drop "
                  "over latency, raw vs platform-adjusted",
        ))
        # Network effect survives adjustment; some bias is removed.
        assert numbers["adjusted_drop_pct"] > 5
        assert numbers["composition_bias_pct"] > -5


class TestEarlyWarning:
    def test_bench_detection_latency(self, benchmark):
        def run():
            rows = []
            for trial in range(10):
                outcomes = detection_latency_experiment(
                    derive(500 + trial, "bench-ew")
                )
                rows.append((
                    outcomes["engagement"].days_to_detect,
                    outcomes["mos"].days_to_detect,
                    outcomes["engagement"].false_alarm
                    or outcomes["mos"].false_alarm,
                ))
            return rows

        rows = timed(benchmark, run)
        eng_latencies = [r[0] for r in rows if r[0] is not None]
        mos_caught = sum(1 for r in rows if r[1] is not None)
        false_alarms = sum(1 for r in rows if r[2])
        emit(
            "s5_early_warning",
            "S5 — §3.3 'early indication': detection latency over 10 trials\n"
            f"  engagement detector: median {np.median(eng_latencies):.0f} "
            f"day(s) after onset, detected {len(eng_latencies)}/10\n"
            f"  MOS detector       : detected {mos_caught}/10 within the "
            f"horizon (0.1-1% sampling)\n"
            f"  false alarms       : {false_alarms}/10",
        )
        assert len(eng_latencies) == 10
        assert np.median(eng_latencies) <= 3
        assert mos_caught < 10
        assert false_alarms == 0


class TestResourceTuning:
    def test_bench_tuning_gains(self, benchmark):
        cohorts = {
            "jittery_cable": LinkProfile(base_latency_ms=15, loss_rate=0.003,
                                         jitter_ms=14, bandwidth_mbps=3.0,
                                         burstiness=0.4),
            "clean_satellite": LinkProfile(base_latency_ms=120,
                                           loss_rate=0.002, jitter_ms=2,
                                           bandwidth_mbps=2.5,
                                           burstiness=0.3),
            "lossy_dsl": LinkProfile(base_latency_ms=40, loss_rate=0.025,
                                     jitter_ms=5, bandwidth_mbps=1.5,
                                     burstiness=0.6),
        }
        results = timed(benchmark, lambda: tuning_gain(
            cohorts, MitigationTuner(fec_budgets_pct=(1.0, 2.0, 4.0))
        ))
        emit("s5_resource_tuning", format_table(
            ["cohort", "buffer ms", "FEC %", "default QoE", "tuned QoE",
             "gain"],
            [[name, r.stack.jitter_buffer_ms, r.stack.fec_budget_pct,
              r.default_score, r.score, r.gain]
             for name, r in results.items()],
            title="S5 — §6 online resource tuning: per-cohort mitigation",
        ))
        assert results["jittery_cable"].gain > 0.05
        assert all(r.gain >= 0 for r in results.values())
        # Different cohorts genuinely want different settings.
        depths = {r.stack.jitter_buffer_ms for r in results.values()}
        assert len(depths) >= 2


class TestLaunchPlanning:
    def test_bench_planner(self, benchmark):
        candidates = [(2021, 7), (2021, 12), (2022, 2), (2022, 9)]

        def run():
            baseline = plan_outcome({})
            planned = LaunchPlanner().plan(3, candidates)
            return baseline, planned

        baseline, planned = timed(benchmark, run)
        emit("s5_launch_planning", format_table(
            ["plan", "mean satisfaction", "worst month", "extra launches"],
            [
                ["historical", baseline.mean_satisfaction,
                 baseline.min_satisfaction, "0"],
                ["+3 greedy", planned.mean_satisfaction,
                 planned.min_satisfaction, str(planned.extra_launches)],
            ],
            title="S5 — §6 deployment planning: sentiment-aware launch "
                  "allocation",
        ))
        assert planned.mean_satisfaction > baseline.mean_satisfaction


class TestP95Aggregates:
    def test_bench_p95_trends_match_mean_trends(self, benchmark,
                                                observational_dataset):
        """§3.1: "we report results using the mean but similar trends hold
        for P95 values as well"."""
        pool = list(observational_dataset.participants())
        edges = np.linspace(0, 300, 7)

        def run():
            out = {}
            for stat in ("mean", "p95"):
                curve = engagement_curve(
                    pool, "latency_ms", "mic_on_pct", edges,
                    network_stat=stat, min_bin_count=20,
                )
                finite = np.where(~np.isnan(curve.stat))[0]
                out[stat] = (
                    float(curve.stat[finite[0]]),
                    float(curve.stat[finite[-1]]),
                )
            return out

        results = timed(benchmark, run)
        emit("s5_p95_aggregates", format_table(
            ["aggregate", "first bin Mic On", "last bin Mic On"],
            [[stat, first, last] for stat, (first, last) in results.items()],
            title="S5 — mean vs P95 session aggregation (paper: similar "
                  "trends hold)",
        ))
        for stat, (first, last) in results.items():
            assert last < first, f"{stat} trend should be downward"


class TestPosNormalisationAblation:
    def test_bench_pos_vs_raw_counts(self, benchmark, bench_corpus,
                                     bench_timeline, bench_track):
        """DESIGN.md §5: the Pos ratio 'filters out edge cases'; raw
        strong-positive counts confound sentiment with posting volume."""
        from repro.analysis.fulcrum import pos_vs_speed
        from repro.core.stats import pearson
        from repro.core.timeline import MonthlySeries, align_series, month_of

        def run():
            fulcrum = pos_vs_speed(bench_corpus, bench_track.median)
            raw_counts: dict = {}
            for post in bench_corpus.speed_shares():
                s = bench_timeline.scores[post.post_id]
                if s.is_strong_positive:
                    month = month_of(post.date)
                    raw_counts[month] = raw_counts.get(month, 0) + 1
            raw_series = MonthlySeries.from_mapping(
                {m: float(v) for m, v in raw_counts.items()},
                start=bench_track.median.start, end=bench_track.median.end,
            )
            _, pos_vals, speed_vals = align_series(
                fulcrum.pos, bench_track.median
            )
            _, raw_vals, speed_vals_raw = align_series(
                raw_series, bench_track.median
            )
            return (
                pearson(pos_vals, speed_vals),
                pearson(raw_vals, speed_vals_raw),
            )

        pos_corr, raw_corr = timed(benchmark, run)
        emit(
            "s5_ablation_pos_normalisation",
            "S5 ablation — Pos normalisation (DESIGN.md §5)\n"
            f"  corr(speed, Pos ratio)           : {pos_corr:+.2f}\n"
            f"  corr(speed, raw strong-pos count): {raw_corr:+.2f}\n"
            "  (the ratio cancels posting-volume growth; raw counts mix "
            "sentiment with subreddit size)",
        )
        assert pos_corr > 0.15
