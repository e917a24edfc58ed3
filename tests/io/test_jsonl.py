"""Tests for JSONL helpers."""

import datetime as dt

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.io.jsonl import salvage_jsonl, write_jsonl


def read_back(path):
    """The records of a file that must read back without a bad line."""
    result = salvage_jsonl(path)
    assert result.clean
    return list(result.records)


class TestRoundTrip:
    def test_basic(self, tmp_path):
        path = tmp_path / "x.jsonl"
        records = [{"a": 1}, {"b": [1, 2]}, "plain", 42]
        assert write_jsonl(path, records) == 4
        assert read_back(path) == records

    def test_dates_serialised(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"day": dt.date(2022, 4, 22)}])
        assert read_back(path) == [{"day": "2022-04-22"}]

    def test_numpy_scalars_serialised(self, tmp_path):
        path = tmp_path / "n.jsonl"
        write_jsonl(path, [{"v": np.float64(1.5), "i": np.int64(3)}])
        assert read_back(path) == [{"v": 1.5, "i": 3}]

    def test_unserialisable_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with pytest.raises(TypeError):
            write_jsonl(path, [{"f": object()}])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert len(read_back(path)) == 2


class TestSalvage:
    def _mixed_file(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"ok": 1}\n'
            'not json at all\n'
            '{"ok": 2}\n'
            '{"truncated": \n'
            '\n'
            '{"ok": 3}\n'
        )
        return path

    def test_salvage_keeps_good_lines_and_counts_bad(self, tmp_path):
        from repro.io.jsonl import salvage_jsonl

        result = salvage_jsonl(self._mixed_file(tmp_path))
        assert result.records == ({"ok": 1}, {"ok": 2}, {"ok": 3})
        assert result.n_bad == 2
        assert [line for line, _ in result.bad_lines] == [2, 4]
        assert not result.clean

    def test_salvage_quarantines_raw_lines(self, tmp_path):
        from repro.io.jsonl import salvage_jsonl

        quarantine = tmp_path / "bad.quarantine"
        result = salvage_jsonl(self._mixed_file(tmp_path), quarantine=quarantine)
        assert result.quarantine_path == str(quarantine)
        assert quarantine.read_text().splitlines() == [
            "not json at all",
            '{"truncated": ',
        ]

    def test_salvage_clean_file(self, tmp_path):
        from repro.io.jsonl import salvage_jsonl, write_jsonl

        path = tmp_path / "clean.jsonl"
        write_jsonl(path, [{"i": i} for i in range(3)])
        result = salvage_jsonl(path, quarantine=tmp_path / "q")
        assert result.clean
        assert result.quarantine_path is None
        assert not (tmp_path / "q").exists()

    def test_salvage_ceiling_rejects_garbage_files(self, tmp_path):
        from repro.io.jsonl import salvage_jsonl

        path = tmp_path / "garbage.jsonl"
        path.write_text("junk\nmore junk\n{\"ok\": 1}\n")
        with pytest.raises(SchemaError, match="ceiling"):
            salvage_jsonl(path, max_bad_fraction=0.5)

    def test_salvage_of_fault_injected_export(self, tmp_path):
        """End-to-end: chaos-corrupted JSONL -> salvage recovers the rest."""
        from repro.io.jsonl import salvage_jsonl, write_jsonl
        from repro.resilience import FaultPlan, FaultSpec

        path = tmp_path / "export.jsonl"
        write_jsonl(path, [{"i": i, "pad": "x" * 40} for i in range(40)])
        plan = FaultPlan(seed=21)
        corrupted = plan.corrupt_jsonl_lines(
            "export", path.read_text().splitlines(),
            FaultSpec(corrupt_rate=0.25),
        )
        path.write_text("\n".join(corrupted) + "\n")

        result = salvage_jsonl(path)
        assert 0 < result.n_bad < 40
        assert len(result.records) == 40 - result.n_bad
        # Determinism: the same seed corrupts the same lines.
        assert result.n_bad == len(
            [a for a in plan.log if a == ("export", "corrupt")]
        )


class TestAtomicWrite:
    def test_write_jsonl_is_atomic(self, tmp_path):
        from repro.io.jsonl import write_jsonl

        path = tmp_path / "out.jsonl"
        write_jsonl(path, [{"a": 1}])
        with pytest.raises(TypeError):
            write_jsonl(path, [{"a": 1}, {"bad": object()}])
        assert read_back(path) == [{"a": 1}]
        assert not (tmp_path / "out.jsonl.tmp").exists()


@pytest.mark.chaos
class TestTornWriteSalvage:
    """A mid-write crash can tear the final line — even mid-character."""

    def _export_bytes(self, records) -> bytes:
        import json

        return "".join(json.dumps(r) + "\n" for r in records).encode("utf-8")

    def test_torn_final_line_is_quarantined(self, tmp_path):
        from repro.io.jsonl import salvage_jsonl
        from repro.resilience import FaultPlan

        records = [{"i": i, "pad": "x" * 30} for i in range(20)]
        data = self._export_bytes(records)
        path = tmp_path / "torn.jsonl"
        plan = FaultPlan(seed=5)
        cut = plan.torn_write("export", path, data)
        assert 0 < cut < len(data)
        assert ("export", "torn") in plan.log

        result = salvage_jsonl(path, quarantine=tmp_path / "torn.bad")
        # Every fully-written line survives; only the torn tail is lost.
        n_complete = data[:cut].count(b"\n")
        assert len(result.records) >= n_complete
        assert result.records[:n_complete] == tuple(records[:n_complete])
        assert result.n_bad <= 1

    def test_torn_multibyte_character_does_not_raise(self, tmp_path):
        """The regression: text-mode reads died with UnicodeDecodeError."""
        from repro.io.jsonl import salvage_jsonl

        good = b'{"i": 0}\n{"i": 1}\n'
        # "é" is the two bytes c3 a9 in UTF-8; cutting after c3 leaves a
        # torn multibyte character at EOF.
        torn = '{"word": "café"}'.encode("utf-8")[:-3]
        assert torn.endswith(b"\xc3")
        path = tmp_path / "torn.jsonl"
        path.write_bytes(good + torn)

        result = salvage_jsonl(path, quarantine=tmp_path / "torn.bad")
        assert result.records == ({"i": 0}, {"i": 1})
        assert result.n_bad == 1
        assert "undecodable" in result.bad_lines[0][1] or "invalid JSON" in result.bad_lines[0][1]
        assert (tmp_path / "torn.bad").exists()

    def test_torn_write_is_deterministic(self, tmp_path):
        from repro.resilience import FaultPlan

        data = self._export_bytes([{"i": i} for i in range(50)])
        cuts = []
        for run in range(2):
            path = tmp_path / f"torn-{run}.jsonl"
            cuts.append(FaultPlan(seed=9).torn_write("export", path, data))
        assert cuts[0] == cuts[1]
        assert (tmp_path / "torn-0.jsonl").read_bytes() == (
            tmp_path / "torn-1.jsonl"
        ).read_bytes()


class TestTailOnlySalvage:
    """salvage_jsonl(tail_only=True): the append-only journal contract."""

    def test_torn_tail_accepted(self, tmp_path):
        from repro.io.jsonl import salvage_jsonl

        path = tmp_path / "log.jsonl"
        path.write_text('{"ok": 1}\n{"ok": 2}\n{"torn": ')
        result = salvage_jsonl(path, tail_only=True)
        assert list(result.records) == [{"ok": 1}, {"ok": 2}]
        assert result.n_bad == 1

    def test_clean_file_accepted(self, tmp_path):
        from repro.io.jsonl import salvage_jsonl, write_jsonl

        path = tmp_path / "log.jsonl"
        write_jsonl(path, [{"ok": 1}, {"ok": 2}])
        result = salvage_jsonl(path, tail_only=True)
        assert result.n_bad == 0

    def test_mid_file_damage_refused(self, tmp_path):
        """A bad line followed by a good one cannot be a torn tail."""
        from repro.io.jsonl import salvage_jsonl

        path = tmp_path / "log.jsonl"
        path.write_text('{"ok": 1}\nnot json\n{"ok": 2}\n')
        with pytest.raises(SchemaError, match="not a torn tail"):
            salvage_jsonl(path, tail_only=True)

    def test_default_mode_still_tolerates_mid_file_damage(self, tmp_path):
        from repro.io.jsonl import salvage_jsonl

        path = tmp_path / "log.jsonl"
        path.write_text('{"ok": 1}\nnot json\n{"ok": 2}\n')
        result = salvage_jsonl(path)  # tail_only defaults off
        assert list(result.records) == [{"ok": 1}, {"ok": 2}]
        assert result.n_bad == 1
