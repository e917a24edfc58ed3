"""Journal torn-tail recovery: the append-only crash model end-to-end."""

import json

import pytest

from repro.errors import SchemaError
from repro.streaming import StreamJournal
from repro.streaming.operators import Emission
from tests.faults import torn_write


def emissions(n, start=0):
    return [
        Emission(
            at_s=float(start + i) * 10.0, operator="win_mean",
            metric="latency_ms", value=40.0 + i, count=5, role="network",
        )
        for i in range(n)
    ]


class TestAppendRecover:
    def test_round_trip(self, tmp_path):
        journal = StreamJournal(tmp_path / "j.jsonl")
        batch = emissions(5)
        assert journal.append(batch) == 5
        assert journal.appended == 5
        assert StreamJournal(journal.path).recover() == batch

    def test_recover_missing_file_is_empty(self, tmp_path):
        assert StreamJournal(tmp_path / "absent.jsonl").recover() == []

    def test_torn_append_regression(self, tmp_path):
        """A torn append tears the 6th record mid-line; recovery
        quarantines exactly that tail and the journal keeps appending."""
        path = tmp_path / "j.jsonl"
        journal = StreamJournal(path)
        good = emissions(5)
        journal.append(good)

        sixth = emissions(1, start=5)[0]
        line = (json.dumps(sixth.to_dict()) + "\n").encode()
        torn_write(path, line, seed=41, append=True)

        quarantine = tmp_path / "torn.bad"
        fresh = StreamJournal(path)
        recovered = fresh.recover(quarantine=quarantine)
        assert recovered == good
        assert fresh.recovered_bad == 1
        assert quarantine.exists()

        # after repair the file is clean: append + recover again works
        fresh.append([sixth])
        assert StreamJournal(path).recover() == good + [sixth]

    def test_mid_file_corruption_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = StreamJournal(path)
        journal.append(emissions(3))
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]  # damage an interior line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="not a torn tail"):
            StreamJournal(path).recover()

    def test_rewrite_truncates_atomically(self, tmp_path):
        journal = StreamJournal(tmp_path / "j.jsonl")
        journal.append(emissions(8))
        kept = emissions(3)
        assert journal.rewrite(kept) == 3
        assert StreamJournal(journal.path).recover() == kept
