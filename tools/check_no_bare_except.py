#!/usr/bin/env python
"""AST lint: forbid silent exception swallowing in ``src/``.

Two patterns are banned everywhere:

* bare ``except:`` — catches ``KeyboardInterrupt``/``SystemExit`` and
  hides programming errors;
* ``except Exception:`` (or ``except BaseException:``) whose handler
  body is only ``pass``/``...`` — the classic silent swallow that turns
  a broken source into a silently wrong answer.

Inside every module under a ``repro`` package the rule is stricter:
*any* except handler whose body only swallows (``pass``/``...``) is
flagged, however narrow the caught type.  A handler there must at
minimum count, log, or re-route what it caught (``continue``/``return``
with a recorded outcome are fine — a bare ``pass`` is not).  The only
modules spared are the ``"strict-swallow"`` rows of the shared table
in ``tools/ast_lint.py``, each a best-effort cleanup or a parse miss
that falls through to a raise, listed with its reason.

The resilience layer exists precisely so code never needs these: route
failures through ``repro.errors`` types and the health ledger instead.

Run directly (``python tools/check_no_bare_except.py [root]``) or via
the test that wires it into tier-1.
"""

from __future__ import annotations

import ast
import functools
import sys
from pathlib import Path
from typing import List

# The shared driver sits next to this script; make it importable when
# the script is loaded by path rather than run from its directory.
if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
import ast_lint  # noqa: E402
from ast_lint import Violation  # noqa: E402

_BROAD = {"Exception", "BaseException"}


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
    strict = ast_lint.covers("strict-swallow", path)
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
                 "handler silently swallows a failure in a repro module; "
                 "count, log, or re-route it")
            )
    return violations


check_tree = functools.partial(ast_lint.check_tree, check_file)
main = functools.partial(ast_lint.main, check_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
