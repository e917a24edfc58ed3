"""Shared driver for the repo's AST lints, with one coverage table.

Each lint (``check_clock_discipline.py``, ``check_no_bare_except.py``)
supplies a ``check_file`` for its rule; this module decides where the
rule applies and walks a tree with it.  Every module under a ``repro``
package is covered by every rule, so a new package is covered the day
it lands.  The only way out is a row in :data:`EXEMPTIONS`, which names
the module and says why.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, List, Optional, Tuple

Violation = Tuple[Path, int, str]

#: rule -> module path under ``repro`` -> why the rule skips it.
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
