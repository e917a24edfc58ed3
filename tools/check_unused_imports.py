#!/usr/bin/env python
"""AST lint: every name a module under ``repro`` imports is read there.

An import binds a name: ``import a.b`` binds ``a``, ``import a as b``
and ``from m import a as b`` bind ``b``.  The binding is read when the
module names it anywhere outside a binding target: code, decorators,
defaults, annotations, and the names inside string annotations
(``Optional["Report"]``, which is how ``TYPE_CHECKING`` imports are
used).  Three kinds of import count as read without that: names listed
in the module's ``__all__``, every import of an ``__init__.py`` (a
package re-exports them), and ``from __future__`` imports.  Star
imports bind nothing this lint can see.

A binding nothing reads is a leftover: the code that used it went and
the import stayed.  The only way to keep one is a ``"unused-import"``
row (``"<module>:<name>"``, with a reason) in the shared table of
``tools/ast_lint.py``.

Run directly (``python tools/check_unused_imports.py [root]``) or via
the test that wires it into tier-1.
"""

from __future__ import annotations

import ast
import functools
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set

# The shared driver sits next to this script; make it importable when
# the script is loaded by path rather than run from its directory.
if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
import ast_lint  # noqa: E402
from ast_lint import Violation  # noqa: E402


def _bindings(tree: ast.Module) -> Dict[str, int]:
    """Name -> line of every import binding in the module, the last one winning."""
    bound: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [a for a in (args.vararg, args.kwarg) if a is not None]
            ):
                if arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _string_names(annotation: ast.expr) -> Iterator[str]:
    """Names inside the string constants of an annotation, nested ones too."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id
            yield from _string_names(parsed.body)


def _exported(tree: ast.Module) -> Set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    names: Set[str] = set()
    for node in tree.body:
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
            else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            value = node.value
            if isinstance(value, (ast.List, ast.Tuple)):
                names.update(
                    el.value for el in value.elts
                    if isinstance(el, ast.Constant) and isinstance(el.value, str)
                )
    return names


def _read(tree: ast.Module) -> Set[str]:
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        read.update(_string_names(annotation))
    return read | _exported(tree)


def check_file(path: Path) -> List[Violation]:
    path = Path(path)
    module = ast_lint.repro_module(path)
    if module is None or path.name == "__init__.py":
        return []
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as exc:
        return [(path, exc.lineno or 0, f"syntax error: {exc.msg}")]
    exempt = ast_lint.EXEMPTIONS["unused-import"]
    read = _read(tree)
    return [
        (path, line, f"import binds {name!r}, which the module never reads")
        for name, line in sorted(_bindings(tree).items(), key=lambda kv: (kv[1], kv[0]))
        if name not in read and f"{module}:{name}" not in exempt
    ]


check_tree = functools.partial(ast_lint.check_tree, check_file)
main = functools.partial(ast_lint.main, check_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
