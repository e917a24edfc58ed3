"""Tier-1 smoke run of the end-to-end benchmark.

Runs each ``perfbench`` workload through the command ``BENCHMARK.json``
names, for one second on seed 1, and pins its output digest; ``report``
and ``ingest`` also run on the holdout seed 20231128.  The ``report`` and ``ingest``
digests do not depend on ``--seconds``; the ``serve`` digest does (an
open loop replays more queries in a longer run), so the run length is
part of the pin.  Scratch files go to the git-ignored ``.bench_build/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

DIGESTS = {
    "report": "ce8b0e208cc44f4d6b4305865ba7056ad690127cc3be04c68a8608e64d22dd97",
    "ingest": "a26901d49bd04abd7d9a239f1eb6c040953315cc94372e73b0715878018e85e1",
    "serve": "0311de52e7bec5c144c91d91608437c781ed28d7cfb172fe9eb74bac1f221952",
}
HOLDOUT_SEED = 20231128
HOLDOUT_REPORT = "f37841c47c9156b34048dd72042355b809ba3146b71196b54ee0349fac0b7dc3"
HOLDOUT_INGEST = "ed04cb148c5c48600f4820139ec83baabad618706bec7295b9b5e0880b7614ec"


def _assert_pinned(workload, seed, digest):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "0",
        ],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert f"digest sha256:{digest}" in lines


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_workload_is_correct_and_pinned(workload):
    _assert_pinned(workload, 1, DIGESTS[workload])


def test_report_holdout_seed_is_pinned():
    _assert_pinned("report", HOLDOUT_SEED, HOLDOUT_REPORT)


def test_ingest_holdout_seed_is_pinned():
    _assert_pinned("ingest", HOLDOUT_SEED, HOLDOUT_INGEST)
