#!/usr/bin/env python
"""AST lint: an entry point reaches every def under ``src/repro``.

Code that no entry point runs still costs every reader, and it drifts:
nothing notices when it stops agreeing with the path that does run.
The entry points are ``src/repro/cli.py`` and every module under
``perfbench/``, ``benchmarks/`` and ``examples/``.  Tests are not
entry points: a def only a test calls is reported.

The scan works on names:

* roots: every name, attribute and string constant in the entry-point
  files, the names they import included, and in the module-level code
  of each ``src/repro`` module.  There, ``import`` lines (and with them
  a package ``__init__``'s re-exports) and ``__all__`` do not count;
* top-level defs (functions and classes) are reached when reached code
  uses their name in any of those ways;
* a method (or a class nested in a class) is reached only when its
  class is, and then only by an attribute access (``x.name``,
  ``super().name``, ``Cls.name``), a string constant equal to its name
  (``getattr(x, "name")``, ``attrgetter("name")``) or a bare name in
  its own class body (an alias, ``other = name``).  A bare name
  anywhere else is a local or a global, never a method.  Dunder
  methods are reached with their class;
* a reached def's names (decorators, signature, body; for a class, its
  bases and the statements of its body that are not methods) are then
  used too.  This repeats to a fixpoint.

Because any use of a name reaches every def of that name, the scan
under-reports: a dead def that shares its name with a live one (a
method with a live attribute of the same name, say), or that is named
in a type hint of live code, is not found.  What it does report is a
def that no entry point can run.

Top-level defs and the methods of reached classes are reported.  The
one way out is a row in the ``"reachable"`` table of
``tools/ast_lint.py``, keyed ``"<module>:<name>"`` for a top-level def
and ``"<module>:<Class>.<method>"`` for a method, giving the reason
the def stays.  A row whose def is gone or now reached is reported as
stale.

Run directly (``python tools/check_reachable.py [repo]``; 0 clean,
1 violations, 2 no ``src/repro`` under the path) or via the tier-1 test
that wires it in (``tests/test_reachable.py``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

# The shared driver sits next to this script; make it importable when
# the script is loaded by path rather than run from its directory.
if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
import ast_lint  # noqa: E402
from ast_lint import Violation  # noqa: E402

#: Entry-point directories, relative to the repo root.
ENTRY_DIRS = ("perfbench", "benchmarks", "examples")
#: Entry-point modules under ``src/repro``.
ENTRY_MODULES = ("cli.py",)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IMPORTS = (ast.Import, ast.ImportFrom)


class _Def:
    """A top-level function or class (``owner`` None), or a method."""

    __slots__ = ("path", "key", "name", "node", "owner")

    def __init__(self, path: Path, key: str, node: ast.AST,
                 owner: Optional["_Def"]) -> None:
        self.path = path
        self.key = key
        self.name = node.name
        self.node = node
        self.owner = owner


def _is_all(stmt: ast.stmt) -> bool:
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AugAssign)
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _uses(nodes: Iterable[ast.AST],
          imports: bool = False) -> Tuple[Set[str], Set[str]]:
    """The bare names used under ``nodes`` (with ``imports``, the names
    ``from`` imports bind too), and the attribute names and string
    constants."""
    names: Set[str] = set()
    attrs: Set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, _IMPORTS):
            if imports and isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names, attrs


def _class_body(node: ast.ClassDef) -> List[ast.stmt]:
    return [s for s in node.body if not isinstance(s, _DEFS)]


def _own_parts(d: _Def) -> List[ast.AST]:
    """What reaching ``d`` reaches: a function whole, a class but for
    its methods."""
    node = d.node
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords,
                *_class_body(node)]
    return [node]


def _class_defs(path: Path, key: str, node: ast.ClassDef,
                owner: _Def) -> Iterable[_Def]:
    for stmt in node.body:
        if isinstance(stmt, _DEFS):
            d = _Def(path, f"{key}.{stmt.name}", stmt, owner)
            yield d
            if isinstance(stmt, ast.ClassDef):
                yield from _class_defs(path, d.key, stmt, d)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def scan(repo: Path) -> Tuple[Dict[str, _Def], Set[str]]:
    """Every def under ``src/repro`` by key, and the keys reached."""
    repo = Path(repo)
    package = repo / "src" / "repro"
    defs: Dict[str, _Def] = {}
    names: Set[str] = set()       # bare names used and not yet resolved
    attrs: Set[str] = set()       # attributes and strings, likewise
    seen_names: Set[str] = set()
    seen_attrs: Set[str] = set()

    def use(nodes: Iterable[ast.AST], imports: bool = False) -> None:
        used_names, used_attrs = _uses(nodes, imports)
        names.update(used_names - seen_names)
        attrs.update(used_attrs - seen_attrs)

    entries = {package / name for name in ENTRY_MODULES}
    for sub in ENTRY_DIRS:
        entries.update((repo / sub).rglob("*.py"))
    for path in sorted(entries):
        if path.is_file():
            use(_parse(path).body, imports=True)
    for path in sorted(package.rglob("*.py")):
        if path in entries:
            continue
        module = ast_lint.repro_module(path)
        tree = _parse(path)
        use(s for s in tree.body if not isinstance(s, _DEFS) and not _is_all(s))
        for stmt in tree.body:
            if isinstance(stmt, _DEFS):
                d = _Def(path, f"{module}:{stmt.name}", stmt, None)
                defs[d.key] = d
                if isinstance(stmt, ast.ClassDef):
                    for m in _class_defs(path, d.key, stmt, d):
                        defs[m.key] = m

    by_name: Dict[str, List[_Def]] = {}
    for d in defs.values():
        by_name.setdefault(d.name, []).append(d)
    reached: Set[str] = set()
    waiting: Dict[str, List[_Def]] = {}   # class key -> methods named so far

    def reach(d: _Def) -> None:
        if d.key in reached:
            return
        reached.add(d.key)
        use(_own_parts(d))
        for m in waiting.pop(d.key, ()):
            reach(m)
        if isinstance(d.node, ast.ClassDef):
            aliases = _uses(_class_body(d.node))[0]
            for stmt in d.node.body:
                if isinstance(stmt, _DEFS) and (
                        _is_dunder(stmt.name) or stmt.name in aliases):
                    reach(defs[f"{d.key}.{stmt.name}"])

    while names or attrs:
        is_attr = bool(attrs)
        name = (attrs if is_attr else names).pop()
        (seen_attrs if is_attr else seen_names).add(name)
        for d in by_name.get(name, ()):
            if d.owner is None:
                reach(d)
            elif not is_attr:
                continue   # a bare name is never a method
            elif d.owner.key in reached:
                reach(d)
            else:
                waiting.setdefault(d.owner.key, []).append(d)
    return defs, reached


def check_repo(
    repo: Path, exemptions: Optional[Mapping[str, str]] = None,
) -> List[Violation]:
    """Unreached top-level defs and methods of reached classes, and
    stale exemption rows."""
    if exemptions is None:
        exemptions = ast_lint.EXEMPTIONS["reachable"]
    defs, reached = scan(repo)
    violations: List[Violation] = []
    for key, d in defs.items():
        if key in reached or key in exemptions:
            continue
        if d.owner is None or d.owner.key in reached:
            violations.append((
                d.path, d.node.lineno,
                f"{key} is reached by no entry point; delete it, or add "
                f"a \"reachable\" row in tools/ast_lint.py saying why "
                f"it stays",
            ))
    for key in exemptions:
        d = defs.get(key)
        if d is None:
            violations.append((
                Path(ast_lint.__file__), 0,
                f"stale \"reachable\" row {key}: no such top-level def or method",
            ))
        elif key in reached:
            violations.append((
                d.path, d.node.lineno,
                f"stale \"reachable\" row {key}: an entry point now "
                f"reaches it",
            ))
    return sorted(violations, key=lambda v: (str(v[0]), v[1], v[2]))


def main(argv: List[str]) -> int:
    """Lint ``argv[1]`` (default: this repo): 0 clean, 1 violations,
    2 no ``src/repro`` there."""
    repo = (Path(argv[1]) if len(argv) > 1
            else Path(__file__).resolve().parent.parent)
    if not (repo / "src" / "repro").is_dir():
        print(f"no src/repro under: {repo}", file=sys.stderr)
        return 2
    violations = check_repo(repo)
    for path, line, message in violations:
        print(f"{path}:{line}: {message}")
    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
