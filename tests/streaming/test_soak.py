"""Deterministic stream soak: chaos, crashes, ledger closure, detection."""

import dataclasses

import pytest

from repro.errors import LedgerViolationError
from repro.resilience.faults import StreamFaultSpec
from repro.streaming import DegradationSpec, run_stream_soak
from repro.streaming.soak import DEFAULT_STREAM_FAULTS
from repro.verdict import Verdict

SOAK_KW = dict(seed=77, duration_s=600.0, rate_per_s=6.0)


@pytest.fixture(scope="module")
def baseline():
    return run_stream_soak(**SOAK_KW)


class TestSoakDeterminism:
    def test_rerun_is_byte_identical(self, baseline):
        again = run_stream_soak(**SOAK_KW)
        assert again.digest == baseline.digest
        assert again.counters == baseline.counters
        assert again.change_points == baseline.change_points

    def test_other_seed_differs(self, baseline):
        other = run_stream_soak(seed=78, duration_s=600.0, rate_per_s=6.0)
        assert other.digest != baseline.digest


class TestSoakLedger:
    def test_ledger_closes_under_default_chaos(self, baseline):
        assert baseline.ledger_closed
        c = baseline.counters
        assert c["emitted"] == baseline.n_deliveries
        assert c["emitted"] == (
            c["aggregated"] + c["late_dropped"]
            + c["late_side"] + c["deduped"]
        )
        assert c["deduped"] > 0  # default spec injects duplicates

    def test_ledger_closes_under_heavy_chaos(self):
        faults = StreamFaultSpec(
            base_delay_s=4.0,
            reorder_rate=0.4,
            reorder_extra_s=45.0,
            duplicate_rate=0.1,
            duplicate_delay_s=15.0,
            skew_windows=((120.0, 60.0, 12.0),),
            gap_windows=((300.0, 45.0),),
        )
        report = run_stream_soak(seed=77, duration_s=600.0, faults=faults)
        assert report.ledger_closed
        assert report.counters["late_dropped"] > 0

    def test_report_summary_and_dict(self, baseline):
        text = baseline.summary()
        assert "digest=" in text and "detected=" in text
        d = baseline.counters_dict()
        assert d["emitted"] == baseline.counters["emitted"]


class TestSoakDetection:
    def test_injected_degradations_are_detected(self, baseline):
        assert baseline.degradations  # default plan injects them
        assert baseline.detected == len(baseline.degradations)
        assert baseline.blind_rate == 0.0

    def test_experience_change_points_are_attributed(self, baseline):
        experience = [
            cp for cp in baseline.change_points if cp.role == "experience"
        ]
        assert experience
        assert any(cp.attributed_to for cp in experience)

    def test_quiet_stream_fires_nothing(self):
        report = run_stream_soak(
            seed=77, duration_s=600.0, degradations=(),
        )
        assert report.detected == 0
        assert report.blind_rate == 0.0  # nothing to miss
        assert not report.change_points


class TestSoakCrashRecovery:
    def test_crash_resume_matches_uninterrupted(self, baseline, tmp_path):
        crashed = run_stream_soak(
            **SOAK_KW,
            faults=StreamFaultSpec(
                base_delay_s=DEFAULT_STREAM_FAULTS.base_delay_s,
                reorder_rate=DEFAULT_STREAM_FAULTS.reorder_rate,
                reorder_extra_s=DEFAULT_STREAM_FAULTS.reorder_extra_s,
                duplicate_rate=DEFAULT_STREAM_FAULTS.duplicate_rate,
                duplicate_delay_s=DEFAULT_STREAM_FAULTS.duplicate_delay_s,
                crash_at_s=(150.0, 400.0),
            ),
            checkpoint_dir=tmp_path,
        )
        assert crashed.crashes == 2
        assert crashed.counters["resumes"] == 2
        assert crashed.digest == baseline.digest
        assert crashed.change_points == baseline.change_points
        assert crashed.fault_outcomes == baseline.fault_outcomes
        assert crashed.ledger_closed

    def test_crash_before_first_checkpoint_restarts_clean(self, baseline):
        crashed = run_stream_soak(
            **SOAK_KW,
            faults=StreamFaultSpec(
                base_delay_s=DEFAULT_STREAM_FAULTS.base_delay_s,
                reorder_rate=DEFAULT_STREAM_FAULTS.reorder_rate,
                reorder_extra_s=DEFAULT_STREAM_FAULTS.reorder_extra_s,
                duplicate_rate=DEFAULT_STREAM_FAULTS.duplicate_rate,
                duplicate_delay_s=DEFAULT_STREAM_FAULTS.duplicate_delay_s,
                crash_at_s=(5.0,),
            ),
        )
        assert crashed.crashes == 1
        assert crashed.digest == baseline.digest


class TestSimulatedTimePins:
    """Seed-derived figures on the soak's simulated clock, pinned
    exactly: host speed cannot move them, a detector change does."""

    def test_holdout_seed_detection_lag_and_digest(self):
        report = run_stream_soak(
            seed=20231128, duration_s=300.0, rate_per_s=8.0,
        )
        # Onset to the first in-horizon experience change point.
        lags = [
            min(
                cp.at_s - spec.at_s
                for cp in report.change_points
                if cp.role == "experience"
                and spec.at_s <= cp.at_s <= spec.at_s + spec.detect_within_s
            )
            for spec in report.degradations
        ]
        assert sum(lags) / len(lags) == 50.0
        assert report.digest == (
            "4e45ce5956daf1a36e01cb55b2fb13695fa72540815b692d26c1250a7442ada4"
        )


class TestDegradationSpec:
    def test_windows(self):
        spec = DegradationSpec(at_s=100.0, duration_s=50.0, lag_s=10.0)
        assert spec.network_active(100.0)
        assert spec.network_active(149.9)
        assert not spec.network_active(150.0)
        assert not spec.experience_active(105.0)
        assert spec.experience_active(115.0)
        assert spec.experience_active(155.0)

    def test_validation(self):
        with pytest.raises(Exception):
            DegradationSpec(at_s=-1.0, duration_s=10.0)
        with pytest.raises(Exception):
            DegradationSpec(at_s=0.0, duration_s=0.0)


class TestSoakVerdict:
    def test_detected_degradations_exit_0(self, baseline):
        assert baseline.verdict() == Verdict()

    def test_blind_detector_exits_3(self, baseline):
        blind = dataclasses.replace(baseline, detected=0)
        injected = len(baseline.degradations)
        assert blind.verdict() == Verdict(3, (
            f"detector blind: 0/{injected} injected degradations "
            f"detected (blind rate 1.00 > 0.00)",
        ))

    def test_threshold_tolerates_misses_up_to_it(self, baseline):
        blind = dataclasses.replace(baseline, detected=0)
        assert blind.verdict(blind_threshold=1.0) == Verdict()

    def test_open_ledger_raises_before_any_report(self, monkeypatch):
        from repro.streaming.pipeline import StreamCounters

        accounted = StreamCounters.accounted
        monkeypatch.setattr(StreamCounters, "accounted", property(
            lambda counters: accounted.fget(counters) + 1
        ))
        with pytest.raises(LedgerViolationError, match="emitted="):
            run_stream_soak(seed=77, duration_s=60.0, rate_per_s=2.0)
