"""Shared driver for the repo's AST lints, with one exemption table.

Each per-file lint (``check_clock_discipline.py``,
``check_no_bare_except.py``, ``check_unused_imports.py``) supplies a
``check_file`` for its rule; this module decides where the rule
applies and walks a tree with it.  Every module under a ``repro``
package is covered by every rule, so a new package is covered the day
it lands.  The only way out is a row in :data:`EXEMPTIONS`, which names
the module (for unused imports, one binding) and says why.  The
whole-tree reachability lint (``check_reachable.py``) reads its
``"reachable"`` rows, which name one def or method each, from the same
table.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, List, Optional, Tuple

Violation = Tuple[Path, int, str]

#: rule -> module path under ``repro`` (or ``"<module>:<name>"`` /
#: ``"<module>:<Class>.<method>"``) -> why the rule skips it.
EXEMPTIONS = {
    "clock": {
        "resilience/clock.py":
            "the sanctioned seam: the Clock implementations themselves",
        "io/locks.py":
            "a stale lock's age is measured against the lock file's "
            "mtime, which is wall-clock time",
        "perf/cache.py":
            "the artifact sidecar's created_unix stamp records "
            "wall-clock creation time",
    },
    "strict-swallow": {
        "io/jsonl.py":
            "best-effort unlink of the temp file after a failed write; "
            "the destination is untouched",
        "io/locks.py":
            "best-effort unlink of a lock file a waiting peer may "
            "already have broken as stale",
        "telemetry/generator.py":
            "a sweep-id parse miss falls through to a typed ConfigError",
    },
    # Keyed "<module>:<name>" (a top-level def) or
    # "<module>:<Class>.<method>": defs no entry point reaches that stay
    # (tools/check_reachable.py).
    "reachable": {
        "streaming/journal.py:StreamJournal.recover":
            "reads the journal back after a crash, repairing a torn tail; "
            "the journal is to become the durable emission log that "
            "resume reads",
        "io/jsonl.py:salvage_jsonl":
            "torn-tail recovery behind StreamJournal.recover; the journal "
            "is to become the durable emission log that resume reads",
        "io/jsonl.py:SalvageResult":
            "the result type of salvage_jsonl",
        "io/jsonl.py:write_jsonl":
            "StreamJournal.recover rewrites the salvaged journal with it",
        "netsim/queueing.py:simulate_queue":
            "the discrete-event reference the tests check "
            "BottleneckQueue's closed form against",
        "netsim/vectorized.py:condition_blocks":
            "single-call form of the block engine the vectorized "
            "generator runs; the block equivalence tests drive it",
        "netsim/vectorized.py:loss_pct_block":
            "single-call form of the block loss draw; the block "
            "statistics tests drive it",
        "integrity/trust.py:score_signal_units":
            "public form of signal_unit_scores; tests pin it against "
            "the record oracle",
        "core/usaas/correlator.py:correlate_series":
            "public form of correlate_daily; tests pin it against the "
            "record oracle",
    },
    # Keyed "<module>:<name>": import bindings the module never reads
    # that stay (tools/check_unused_imports.py).
    "unused-import": {},
}


def repro_module(path: Path) -> Optional[str]:
    """``path`` relative to its innermost ``repro`` package, or None."""
    parts = Path(path).parts
    if not parts[-1:] or not parts[-1].endswith(".py"):
        return None
    if "repro" not in parts[:-1]:
        return None
    top = len(parts) - 1 - parts[-2::-1].index("repro")
    return "/".join(parts[top:])


def covers(rule: str, path: Path) -> bool:
    """Whether ``rule`` applies to ``path``: under ``repro``, not exempt."""
    module = repro_module(path)
    return module is not None and module not in EXEMPTIONS[rule]


def check_tree(
    check_file: Callable[[Path], List[Violation]], root: Path,
) -> List[Violation]:
    violations: List[Violation] = []
    for path in sorted(Path(root).rglob("*.py")):
        violations.extend(check_file(path))
    return violations


def main(
    check_file: Callable[[Path], List[Violation]], argv: List[str],
) -> int:
    """Lint ``argv[1]`` (default ``src``): 0 clean, 1 violations, 2 no path."""
    root = Path(argv[1]) if len(argv) > 1 else Path("src")
    if not root.exists():
        print(f"no such directory: {root}", file=sys.stderr)
        return 2
    violations = check_tree(check_file, root)
    for path, line, message in violations:
        print(f"{path}:{line}: {message}")
    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    return 0
