"""F7 — Fig. 7: OCR'd downlink speeds, launches, users, and Pos.

Paper shapes:
* ~1750 screenshots shared across providers; monthly medians are stable
  under 95 %/90 % subsampling;
* speeds rise Jan–Sep '21 (14 launches onto a small base) and decline
  almost steadily Sep '21 – Dec '22 (37 launches vs 90 K → 1 M+ users);
* the Jun–Aug '21 launch gap (+21 K users) shows as a dip;
* Pos broadly follows speed, EXCEPT: Q4 '21 beats spring '21 on speed but
  loses badly on Pos, and Mar–Dec '22 speeds fall while Pos recovers.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from benchmarks.util import timed
from repro.analysis.fulcrum import pos_vs_speed
from repro.io.tables import format_table
from repro.starlink.launches import LAUNCH_CATALOG
from repro.starlink.subscribers import SubscriberModel


@pytest.fixture(scope="module")
def fulcrum(bench_corpus, bench_track, bench_timeline):
    return pos_vs_speed(bench_corpus, bench_track.median)


class TestFig7Speeds:
    def test_bench_fig7_series(self, benchmark, bench_track, fulcrum):
        subs = SubscriberModel.reported().monthly()

        def build_rows():
            rows = []
            for month, speed in bench_track.median.items():
                if np.isnan(speed):
                    continue
                pos = fulcrum.pos[month]
                rows.append([
                    f"{month[0]}-{month[1]:02d}",
                    speed,
                    bench_track.subsampled[0.95][month],
                    bench_track.subsampled[0.90][month],
                    "-" if np.isnan(pos) else f"{pos:.2f}",
                    LAUNCH_CATALOG.launches_in(month),
                    subs[month],
                ])
            return rows

        rows = timed(benchmark, build_rows)
        emit("fig7_speeds", format_table(
            ["month", "median dl", "95% sub", "90% sub", "Pos",
             "launches", "users"],
            rows,
            title=(
                "Fig. 7 — monthly median downlink (OCR'd), stability "
                f"subsamples, Pos, launches, users "
                f"({bench_track.n_extracted}/{bench_track.n_shared} "
                f"screenshots extracted)"
            ),
        ))

    def test_report_volume_near_1750(self, benchmark, bench_track):
        n = timed(benchmark, lambda: bench_track.n_shared)
        assert n == pytest.approx(1750, rel=0.2)

    def test_rise_then_decline(self, benchmark, bench_track):
        trends = timed(benchmark, lambda: (
            bench_track.median.slice((2021, 1), (2021, 9)).trend(),
            bench_track.median.slice((2021, 9), (2022, 12)).trend(),
        ))
        assert trends[0] > 0, "speeds should rise Jan-Sep '21"
        assert trends[1] < 0, "speeds should decline Sep '21 - Dec '22"

    def test_subsample_stability(self, benchmark, bench_track):
        deviation = timed(benchmark, bench_track.max_subsample_deviation)
        emit("fig7_stability",
             f"Fig. 7 — max relative deviation of 95%/90% subsample "
             f"medians: {100 * deviation:.1f} % (paper: 'closely follow')")
        assert deviation < 0.15

    def test_provider_agreement(self, benchmark, bench_track):
        """Pooling screenshots 'across test providers' is sound."""
        agreement = timed(benchmark, bench_track.provider_agreement)
        emit("fig7_providers",
             f"Fig. 7 — worst per-provider deviation from the pooled "
             f"monthly median: {100 * agreement:.1f} % across "
             f"{sorted(bench_track.by_provider)}")
        assert agreement < 0.40


class TestFig7Fulcrum:
    def test_pos_broadly_follows_speed(self, benchmark, fulcrum):
        correlation = timed(benchmark, fulcrum.correlation)
        assert correlation > 0.15

    def test_exception_q421_vs_spring21(self, benchmark, fulcrum):
        numbers = timed(benchmark, fulcrum.exception_dec21_vs_apr21)
        emit("fig7_exception", format_table(
            ["window", "median dl", "Pos"],
            [
                ["spring '21 (Mar-May)", numbers["speed_apr21"],
                 numbers["pos_apr21"]],
                ["Q4 '21 (Oct-Dec)", numbers["speed_dec21"],
                 numbers["pos_dec21"]],
            ],
            title="Fig. 7 'wheel of time' #1 — higher speed, lower Pos "
                  "(conditioning from the Sep '21 era)",
        ))
        assert numbers["speed_dec21"] > numbers["speed_apr21"]
        assert numbers["pos_dec21"] < numbers["pos_apr21"] - 0.05

    def test_inversion_2022(self, benchmark, fulcrum):
        trends = timed(benchmark, fulcrum.inversion_2022)
        emit(
            "fig7_inversion",
            "Fig. 7 'wheel of time' #2 — Mar-Dec '22 trends\n"
            f"  speed: {trends['speed_trend']:+.3f} Mbps/month (falling)\n"
            f"  Pos  : {trends['pos_trend']:+.4f} /month (recovering)",
        )
        assert trends["speed_trend"] < 0
        assert trends["pos_trend"] > 0

    def test_ablation_cohort_conditioning(self, benchmark):
        """DESIGN.md ablation: replace the adoption-weighted (cohort)
        conditioning with a single shared expectation track.  The 2022
        Pos recovery should weaken substantially — new adopters, whose
        bars were set on arrival, are what pull sentiment back up while
        speeds keep falling."""
        from repro.analysis.fulcrum import pos_vs_speed
        from repro.analysis.speed_tracker import track_speeds
        from repro.social import CorpusConfig, CorpusGenerator

        def run():
            trends = {}
            for mode in ("cohort", "single"):
                corpus = CorpusGenerator(CorpusConfig(
                    seed=7, author_pool_size=1200, conditioning_mode=mode,
                )).generate()
                track = track_speeds(corpus)
                fulcrum = pos_vs_speed(corpus, track.median)
                trends[mode] = fulcrum.inversion_2022()["pos_trend"]
            return trends

        trends = timed(benchmark, run)
        emit(
            "fig7_ablation_conditioning",
            "Fig. 7 ablation — cohort vs single-track conditioning\n"
            f"  Pos trend Mar-Dec '22, cohort model: "
            f"{trends['cohort']:+.4f}/month\n"
            f"  Pos trend Mar-Dec '22, single track: "
            f"{trends['single']:+.4f}/month\n"
            "  (adoption-weighted expectations are what produce the "
            "paper's 2022 sentiment recovery)",
        )
        assert trends["cohort"] > trends["single"] + 0.005

    def test_jun_aug21_dip_annotation(self, benchmark, bench_track):
        """+21 K users, zero launches → the dip the paper annotates."""
        growth = SubscriberModel.reported().growth((2021, 6), (2021, 8))
        launches = LAUNCH_CATALOG.launches_between((2021, 6), (2021, 8))
        values = timed(benchmark, lambda: (
            bench_track.median[(2021, 6)], bench_track.median[(2021, 8)]
        ))
        emit(
            "fig7_dip",
            "Fig. 7 dip — Jun-Aug '21\n"
            f"  new users: {growth} (paper: ~21K), launches: {launches}\n"
            f"  median dl: {values[0]:.1f} -> {values[1]:.1f} Mbps",
        )
        assert launches == 0
        assert growth == pytest.approx(21_000, abs=2_000)
