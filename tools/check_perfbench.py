#!/usr/bin/env python3
"""Fail when a change's perfbench runs regressed against its parent's.

Each of the two directories holds one JSON file per benchmark run,
named ``<workload>*.json`` (``report-01.json``, ``serve-seed7.json``,
...): the last line of standard output of one
``perfbench/run.py --trace 0`` run.  For every workload and every
``end_to_end`` metric in ``BENCHMARK.json`` the gate prints each side's
median, quartiles and run count, then compares the medians against the
metric's ``bound`` (the share by which it may worsen).

A file name present in both directories makes the two runs one
parent/change pair (save alternating runs as ``ingest-01.json`` ...
on each side).  For each metric the gate also prints how many pairs
the change won; a tie counts for neither side.  Pair wins are printed
only: they never change the exit code.

Usage::

    python tools/check_perfbench.py PARENT_DIR CHANGE_DIR

Exit codes: 0 ok, including a missing or empty directory and a workload
without runs on both sides (nothing to compare); 1 regression: a change
median worse than the parent's by more than its bound, a run with
``correct: false``, or a larger failed share on the change than on the
parent; 2 malformed input: a file that is not a perfbench summary, or a
run without a metric the benchmark declares.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"


class MalformedRun(ValueError):
    """A run file or the benchmark spec cannot be read as declared."""


def load_runs(
    directory: Path, workload: str, metrics: List[str]
) -> Dict[str, dict]:
    """Every ``<workload>*.json`` summary in ``directory``, validated,
    keyed by file name."""
    runs = {}
    for path in sorted(directory.glob(f"{workload}*.json")):
        try:
            run = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise MalformedRun(f"{path}: {exc}") from exc
        if not isinstance(run, dict) or not isinstance(run.get("metrics"), dict):
            raise MalformedRun(f"{path}: not a perfbench summary object")
        if not isinstance(run.get("correct"), bool) or not all(
            isinstance(run.get(key), int) for key in ("attempted", "failed")
        ):
            raise MalformedRun(f"{path}: needs correct, attempted and failed")
        for name in metrics:
            value = run["metrics"].get(name, {})
            if not isinstance(value, dict) or not isinstance(
                value.get("value"), (int, float)
            ):
                raise MalformedRun(f"{path}: no value for metric {name!r}")
        runs[path.name] = run
    return runs


def spread(values: List[float]) -> Tuple[float, float, float]:
    """Median and first/third quartiles (``statistics.quantiles``, n=4)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def failed_share(runs: List[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def pair_wins(parent: Dict[str, dict], change: Dict[str, dict],
              name: str, better: str) -> Tuple[int, int]:
    """(pairs the change won on ``name``, pairs): a pair is a file name
    on both sides, and a tie is no win."""
    pairs = sorted(parent.keys() & change.keys())
    won = 0
    for key in pairs:
        before = parent[key]["metrics"][name]["value"]
        after = change[key]["metrics"][name]["value"]
        if (after > before) if better == "higher" else (after < before):
            won += 1
    return won, len(pairs)


def compare(workload: str, parent: Dict[str, dict], change: Dict[str, dict],
            bounds: List[dict]) -> List[str]:
    """Print one workload's table; returns its failures."""
    failures = []
    print(f"{workload}: parent {len(parent)} runs, change {len(change)} runs")
    print(f"  {'metric':16s} {'parent median [q1, q3]':>38s} "
          f"{'change median [q1, q3]':>38s} {'worse':>8s} {'bound':>6s} "
          f"{'won':>7s}")
    for spec in bounds:
        name = spec["name"]
        sides = [
            spread([float(r["metrics"][name]["value"]) for r in runs.values()])
            for runs in (parent, change)
        ]
        won, pairs = pair_wins(parent, change, name, spec["better"])
        (before, *_), (after, *_) = sides
        worse = (after - before) / before if before else 0.0
        if spec["better"] == "higher":
            worse = -worse
        verdict = "ok"
        if worse > spec["bound"]:
            verdict = "REGRESSION"
            failures.append(
                f"{workload} {name}: {before:.4g} -> {after:.4g} "
                f"({worse:+.1%} worse, bound {spec['bound']:.0%})"
            )
        cells = [
            f"{m:.4f} [{q1:.4f}, {q3:.4f}] n={len(runs)}"
            for (m, q1, q3), runs in zip(sides, (parent, change))
        ]
        print(f"  {name:16s} {cells[0]:>38s} {cells[1]:>38s} "
              f"{worse:+8.1%} {spec['bound']:6.0%} {f'{won}/{pairs}':>7s}  "
              f"{verdict}")
    for side, runs in (("parent", parent), ("change", change)):
        wrong = sum(1 for r in runs.values() if not r["correct"])
        if wrong:
            failures.append(f"{workload}: {wrong} {side} run(s) not correct")
    shares = [failed_share(list(runs.values())) for runs in (parent, change)]
    print(f"  {'failed share':16s} {shares[0]:38.4f} {shares[1]:38.4f}")
    if shares[1] > shares[0]:
        failures.append(
            f"{workload}: failed share {shares[0]:.4f} -> {shares[1]:.4f}"
        )
    return failures


def load_spec(path: Path) -> Tuple[List[str], List[dict]]:
    """Workload names and ``end_to_end`` bounds from ``BENCHMARK.json``."""
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
        workloads = [str(w["name"]) for w in spec["workloads"]]
        bounds = [
            {"name": str(b["name"]), "bound": float(b["bound"]),
             "better": b.get("better", "lower")}
            for b in spec["end_to_end"]
        ]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise MalformedRun(f"{path}: {exc}") from exc
    return workloads, bounds


def check(parent_dir: Path, change_dir: Path, spec_path: Path = SPEC) -> int:
    for directory in (parent_dir, change_dir):
        if not directory.is_dir() or not any(directory.glob("*.json")):
            print(f"{directory}: no perfbench runs; nothing to compare")
            return 0
    try:
        workloads, bounds = load_spec(spec_path)
        metrics = [b["name"] for b in bounds]
        sides = {
            w: (load_runs(parent_dir, w, metrics), load_runs(change_dir, w, metrics))
            for w in workloads
        }
    except MalformedRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures: List[str] = []
    for workload, (parent, change) in sides.items():
        if not parent or not change:
            print(f"{workload}: {len(parent)} parent and {len(change)} "
                  f"change runs; nothing to compare")
            continue
        failures += compare(workload, parent, change, bounds)
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("ok: every change median within its bound")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: check_perfbench.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    return check(Path(args[0]), Path(args[1]))


if __name__ == "__main__":
    sys.exit(main())
