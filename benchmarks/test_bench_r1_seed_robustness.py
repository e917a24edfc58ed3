"""R1 — seed robustness: the reproduced shapes are not seed artefacts.

Every headline shape is re-checked on corpora/datasets generated from
seeds the calibration never saw.  A reproduction whose findings flip
with the random seed would be curve-fitting, not reproduction.
"""

import datetime as dt

import numpy as np
import pytest

from benchmarks.conftest import emit
from benchmarks.util import timed
from repro.analysis import pos_vs_speed, sentiment_timeline, track_speeds
from repro.io.tables import format_table
from repro.social import CorpusConfig, CorpusGenerator

FRESH_SEEDS = (101, 202)
PAPER_PEAKS = {
    dt.date(2021, 2, 9),
    dt.date(2021, 11, 24),
    dt.date(2022, 4, 22),
}


@pytest.fixture(scope="module")
def fresh_runs():
    runs = {}
    for seed in FRESH_SEEDS:
        corpus = CorpusGenerator(
            CorpusConfig(seed=seed, author_pool_size=1500)
        ).generate()
        timeline = sentiment_timeline(corpus)
        track = track_speeds(corpus, seed=seed)
        fulcrum = pos_vs_speed(corpus, track.median)
        runs[seed] = (corpus, timeline, track, fulcrum)
    return runs


class TestSeedRobustness:
    def test_bench_r1_summary(self, benchmark, fresh_runs):
        def build_rows():
            rows = []
            for seed, (corpus, timeline, track, fulcrum) in fresh_runs.items():
                peaks = {d for d, _ in timeline.top_peaks(3)}
                exc = fulcrum.exception_dec21_vs_apr21()
                inv = fulcrum.inversion_2022()
                rows.append([
                    seed,
                    "yes" if peaks == PAPER_PEAKS else "NO",
                    track.median.slice((2021, 1), (2021, 9)).trend(),
                    track.median.slice((2021, 9), (2022, 12)).trend(),
                    exc["pos_apr21"] - exc["pos_dec21"],
                    inv["pos_trend"],
                ])
            return rows

        rows = timed(benchmark, build_rows)
        emit("r1_seed_robustness", format_table(
            ["seed", "peaks match", "rise '21", "fall '21-22",
             "Pos gap (spr vs Q4 '21)", "Pos trend '22"],
            rows,
            title="R1 — headline shapes across unseen seeds",
        ))

    def test_peaks_stable(self, benchmark, fresh_runs):
        peak_sets = timed(benchmark, lambda: {
            seed: {d for d, _ in timeline.top_peaks(3)}
            for seed, (_, timeline, _, _) in fresh_runs.items()
        })
        for seed, peaks in peak_sets.items():
            assert peaks == PAPER_PEAKS, f"seed {seed}: {peaks}"

    def test_speed_shape_stable(self, benchmark, fresh_runs):
        trends = timed(benchmark, lambda: {
            seed: (
                track.median.slice((2021, 1), (2021, 9)).trend(),
                track.median.slice((2021, 9), (2022, 12)).trend(),
            )
            for seed, (_, _, track, _) in fresh_runs.items()
        })
        for seed, (rise, fall) in trends.items():
            assert rise > 0, f"seed {seed}"
            assert fall < 0, f"seed {seed}"

    def test_fulcrum_stable(self, benchmark, fresh_runs):
        results = timed(benchmark, lambda: {
            seed: (
                fulcrum.exception_dec21_vs_apr21(),
                fulcrum.inversion_2022(),
            )
            for seed, (_, _, _, fulcrum) in fresh_runs.items()
        })
        for seed, (exc, inv) in results.items():
            assert exc["speed_dec21"] > exc["speed_apr21"], f"seed {seed}"
            assert exc["pos_dec21"] < exc["pos_apr21"] - 0.05, f"seed {seed}"
            assert inv["speed_trend"] < 0, f"seed {seed}"
            assert inv["pos_trend"] > 0, f"seed {seed}"

    def test_volume_calibration_stable(self, benchmark, fresh_runs):
        stats = timed(benchmark, lambda: {
            seed: corpus.weekly_stats()["posts_per_week"]
            for seed, (corpus, _, _, _) in fresh_runs.items()
        })
        for seed, posts_per_week in stats.items():
            assert posts_per_week == pytest.approx(372, rel=0.2), f"seed {seed}"
