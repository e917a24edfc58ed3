"""The pipeline behind an OnlineTrustGate: ledger, attribution, resume."""

import pytest

from repro.resilience.faults import StreamFaultSpec
from repro.streaming import run_stream_soak
from repro.streaming.detector import ChangePoint
from repro.streaming.soak import DEFAULT_STREAM_FAULTS

SOAK_KW = dict(seed=77, duration_s=600.0, rate_per_s=6.0)

#: Deliberately strict gate so the default soak traffic trips it — the
#: tests below exercise the quarantine *mechanics*, not tuning.
GATE_KW = dict(burst_limit=5, repeat_limit=3)

#: Where the gated soak's injected faults end up, by ledger bucket.
GATED_FAULT_OUTCOMES = {
    "duplicate": {"deduped": 184},
    "reorder": {"aggregated": 51, "quarantined": 843},
}


@pytest.fixture(scope="module")
def gated():
    return run_stream_soak(**SOAK_KW, gate_kwargs=GATE_KW)


class TestQuarantineLedger:
    def test_quarantined_bucket_closes_the_ledger(self, gated):
        c = gated.counters
        assert c["quarantined"] > 0
        assert gated.ledger_closed
        assert c["emitted"] == (
            c["aggregated"] + c["late_dropped"] + c["late_side"]
            + c["deduped"] + c["quarantined"]
        )

    def test_ungated_soak_quarantines_nothing(self):
        report = run_stream_soak(**SOAK_KW)
        assert report.counters.get("quarantined", 0) == 0

    def test_gated_rerun_is_byte_identical(self, gated):
        again = run_stream_soak(**SOAK_KW, gate_kwargs=GATE_KW)
        assert again.digest == gated.digest
        assert again.counters == gated.counters
        assert again.change_points == gated.change_points


class TestFaultAttribution:
    def test_outcomes_use_ledger_buckets(self, gated):
        buckets = {"aggregated", "late_dropped", "late_side",
                   "deduped", "quarantined"}
        assert gated.fault_outcomes
        for kind, outcome in gated.fault_outcomes.items():
            assert set(outcome) <= buckets, kind
            assert all(n > 0 for n in outcome.values())

    def test_duplicates_land_in_dedup_or_quarantine(self, gated):
        # Every injected duplicate is either recognised by the dedup
        # stage or screened earlier by the gate — never aggregated
        # twice.
        dup = gated.fault_outcomes["duplicate"]
        assert "aggregated" not in dup

    def test_counters_dict_carries_per_kind_counters(self, gated):
        merged = gated.counters_dict()
        for kind, outcome in gated.fault_outcomes.items():
            for bucket, n in outcome.items():
                assert merged[f"fault.{kind}.{bucket}"] == n


class TestSuspectChangePoints:
    def test_gate_labels_attack_adjacent_shifts(self, gated):
        # The strict gate quarantines densely, so some change points
        # fire inside a quarantine burst and some in quiet stretches.
        flags = [cp.suspect for cp in gated.change_points]
        assert any(flags)

    def test_ungated_soak_never_suspects(self):
        report = run_stream_soak(**SOAK_KW)
        assert all(not cp.suspect for cp in report.change_points)

    def test_suspect_survives_dict_roundtrip(self, gated):
        for cp in gated.change_points:
            assert ChangePoint.from_dict(cp.to_dict()) == cp

    def test_suspect_named_in_summary(self, gated):
        suspect = next(cp for cp in gated.change_points if cp.suspect)
        assert "[suspect: attack burst]" in suspect.summary()


class TestGateCheckpointing:
    def test_crash_resume_with_gate_is_byte_identical(self, gated, tmp_path):
        crashed = run_stream_soak(
            **SOAK_KW,
            gate_kwargs=GATE_KW,
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
        assert crashed.digest == gated.digest
        # Suspect labels survive the resume: the gate's quarantine
        # history rides the checkpoint.
        assert crashed.change_points == gated.change_points
        assert crashed.counters["quarantined"] == (
            gated.counters["quarantined"]
        )
        assert crashed.fault_outcomes == gated.fault_outcomes
        assert gated.fault_outcomes == GATED_FAULT_OUTCOMES
        assert crashed.ledger_closed
