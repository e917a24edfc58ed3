"""Tier-1 smoke run of the end-to-end benchmark.

Runs each ``perfbench`` workload through the command ``BENCHMARK.json``
names, for one second on seed 1, and pins its output digest.  The
``report`` and ``ingest`` digests do not depend on ``--seconds``; the
``serve`` digest does (an open loop replays more queries in a longer
run), so the run length is part of the pin.  Scratch files go to the
git-ignored ``.bench_build/``.
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


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_workload_is_correct_and_pinned(workload):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert f"digest sha256:{DIGESTS[workload]}" in lines
