#!/usr/bin/env python
"""AST lint: forbid silent exception swallowing in ``src/``.

Two patterns are banned everywhere:

* bare ``except:`` — catches ``KeyboardInterrupt``/``SystemExit`` and
  hides programming errors;
* ``except Exception:`` (or ``except BaseException:``) whose handler
  body is only ``pass``/``...`` — the classic silent swallow that turns
  a broken source into a silently wrong answer.

Inside the fault-handling subsystems — ``repro/perf/`` and
``repro/resilience/`` — in ``repro/core/`` (whose columnar USaaS answer
path promises results float-identical to its record-loop oracles), and
in any ``vectorized*.py`` module under ``repro`` (the block engines,
whose byte-identity contract a swallowed failure would corrupt
silently) the rule is stricter: *any* except
handler whose body only swallows (``pass``/``...``) is flagged, however
narrow the caught type.  That code's whole job is to observe failures; a
handler there must at minimum count, log, or re-route what it caught
(``continue``/``return`` with a recorded outcome are fine — a bare
``pass`` is not).

The resilience layer exists precisely so code never needs these: route
failures through ``repro.errors`` types and the health ledger instead.

Run directly (``python tools/check_no_bare_except.py [root]``) or via
the test that wires it into tier-1.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Tuple

Violation = Tuple[Path, int, str]

_BROAD = {"Exception", "BaseException"}

#: Directory suffixes (as contiguous path parts) where the strict rule
#: applies: any swallow-only handler is a violation, narrow types too.
STRICT_DIRS = (
    ("repro", "perf"),
    ("repro", "resilience"),
    ("repro", "prediction"),
    ("repro", "integrity"),
    ("repro", "core"),
)

#: File stems under ``repro`` that are strict wherever they live: the
#: vectorized block engines promise byte-identical columns per seed, and
#: a swallowed exception there degrades silently into wrong numbers.
STRICT_FILE_STEMS = ("vectorized",)


def _is_strict(path: Path) -> bool:
    parts = Path(path).parts
    for suffix in STRICT_DIRS:
        n = len(suffix)
        for i in range(len(parts) - n):
            if parts[i:i + n] == suffix:
                return True
    return (
        "repro" in parts[:-1]
        and any(parts[-1].startswith(stem) for stem in STRICT_FILE_STEMS)
        and parts[-1].endswith(".py")
    )


def _is_swallow(body: List[ast.stmt]) -> bool:
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis)
        for stmt in body
    )


def _broad_names(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _BROAD
    if isinstance(node, ast.Tuple):
        return any(_broad_names(el) for el in node.elts)
    return False


def check_file(path: Path) -> List[Violation]:
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as exc:
        return [(path, exc.lineno or 0, f"syntax error: {exc.msg}")]
    violations: List[Violation] = []
    strict = _is_strict(path)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            violations.append(
                (path, node.lineno, "bare 'except:' is forbidden")
            )
        elif _broad_names(node.type) and _is_swallow(node.body):
            violations.append(
                (path, node.lineno,
                 "'except Exception: pass' silently swallows failures")
            )
        elif strict and _is_swallow(node.body):
            violations.append(
                (path, node.lineno,
                 "handler silently swallows a failure in a fault-handling "
                 "module; count, log, or re-route it")
            )
    return violations


def check_tree(root: Path) -> List[Violation]:
    violations: List[Violation] = []
    for path in sorted(root.rglob("*.py")):
        violations.extend(check_file(path))
    return violations


def main(argv: List[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path("src")
    if not root.exists():
        print(f"no such directory: {root}", file=sys.stderr)
        return 2
    violations = check_tree(root)
    for path, line, message in violations:
        print(f"{path}:{line}: {message}")
    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
