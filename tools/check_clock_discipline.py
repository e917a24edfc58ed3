#!/usr/bin/env python
"""AST lint: time must flow through the injected Clock in covered code.

Determinism in the resilience / serving / USaaS stack rests on one rule:
the *only* place allowed to read the wall clock or block the process is
:mod:`repro.resilience.clock` (the sanctioned seam — ``MonotonicClock``
wraps ``time.monotonic``/``time.sleep``; ``ManualClock`` replaces them
in tests and soaks).  Everything else takes a ``Clock`` and calls
``clock.now()`` / ``clock.sleep()``.

A single stray ``time.time()`` in a covered module silently breaks
byte-identical replays — the failure shows up as flaky soak counters
far from the offending line — so the rule is enforced structurally:

* coverage: every module under a ``repro`` package, except the
  ``"clock"`` rows of the shared table in ``tools/ast_lint.py`` (the
  seam itself, plus the two modules that must compare against file
  timestamps), each listed with its reason;
* banned calls: ``time.time``, ``time.monotonic``, ``time.sleep``,
  ``time.perf_counter`` and ``time.monotonic_ns`` — whether reached via
  ``import time``, ``import time as t``, or ``from time import sleep``
  (aliases included).

Run directly (``python tools/check_clock_discipline.py [root]``) or via
the tier-1 test that wires it in (``tests/test_clock_discipline.py``).
"""

from __future__ import annotations

import ast
import functools
import sys
from pathlib import Path
from typing import Dict, List, Set

# The shared driver sits next to this script; make it importable when
# the script is loaded by path rather than run from its directory.
if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
import ast_lint  # noqa: E402
from ast_lint import Violation  # noqa: E402

#: Attributes of the ``time`` module that read the wall clock or block.
BANNED_ATTRS = (
    "time", "monotonic", "sleep", "perf_counter",
    "monotonic_ns", "perf_counter_ns", "time_ns",
)


class _ClockVisitor(ast.NodeVisitor):
    """Track aliases of ``time`` and its banned members, flag call sites."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.violations: List[Violation] = []
        self.module_aliases: Set[str] = set()       # names bound to time
        self.member_aliases: Dict[str, str] = {}    # name -> time.<member>

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "time":
                self.module_aliases.add(alias.asname or "time")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in BANNED_ATTRS:
                    self.member_aliases[alias.asname or alias.name] = (
                        alias.name
                    )
        self.generic_visit(node)

    def _flag(self, node: ast.AST, member: str) -> None:
        self.violations.append((
            self.path, node.lineno,
            f"direct time.{member}() bypasses the injected Clock; "
            f"take a repro.resilience.clock.Clock and use clock.now() / "
            f"clock.sleep() instead",
        ))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.module_aliases
            and func.attr in BANNED_ATTRS
        ):
            self._flag(node, func.attr)
        elif isinstance(func, ast.Name) and func.id in self.member_aliases:
            self._flag(node, self.member_aliases[func.id])
        self.generic_visit(node)


def check_file(path: Path) -> List[Violation]:
    if not ast_lint.covers("clock", path):
        return []
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as exc:
        return [(path, exc.lineno or 0, f"syntax error: {exc.msg}")]
    visitor = _ClockVisitor(path)
    visitor.visit(tree)
    return visitor.violations


check_tree = functools.partial(ast_lint.check_tree, check_file)
main = functools.partial(ast_lint.main, check_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
