"""Documentation integrity tests: the docs must not drift from the code."""

import ast
import importlib
import os
import py_compile
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: A backticked span that starts with a repository path, optionally
#: followed by pytest-style ``::Name`` parts (then anything, such as
#: command arguments, up to the closing backtick).
REPO_PATH = re.compile(
    r"`((?:tools|tests|benchmarks|perfbench|examples|docs|src)/[\w./-]*)"
    r"((?:::\w+)*)[^`\n]*`"
)

#: The prose docs a reader copies commands from.
DOCS = [
    "README.md",
    *sorted(f"docs/{p.name}" for p in (ROOT / "docs").glob("*.md")),
    ".claude/skills/verify/SKILL.md",
]

#: A fenced-code line that calls the CLI: ``python -m repro.cli ...``,
#: optionally after ``$ `` or ``PYTHONPATH=... ``, or a bare ``repro ...``
#: (no console script installs one).
CLI_CALL = re.compile(
    r"^\s*(?:\$ )?(?:PYTHONPATH=\S+ )?(python -m repro\.cli|repro)(?=\s|$)"
)


def quoted_cli_calls(text):
    """``(line number, program, argv)`` for each CLI call in a fenced
    block; ``\\`` continuations are joined and ``# comments`` dropped."""
    lines = text.splitlines()
    fenced = False
    i = 0
    while i < len(lines):
        start, line = i + 1, lines[i]
        i += 1
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        while line.endswith("\\") and i < len(lines):
            line = line[:-1] + lines[i]
            i += 1
        match = CLI_CALL.match(line) if fenced else None
        if match:
            argv = shlex.split(line[match.end():], comments=True)
            yield start, match.group(1), argv


def unparseable(calls):
    """The calls ``build_parser().parse_args`` rejects, as messages."""
    from repro.cli import build_parser

    broken = []
    for lineno, program, argv in calls:
        if program == "repro":
            broken.append(f"{lineno}: no `repro` executable; use "
                          f"`python -m repro.cli`")
            continue
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code != 0:
                broken.append(f"{lineno}: {shlex.join(argv)}")
    return broken


def design_section(text, number):
    """The body of DESIGN.md's ``## <number>.`` section."""
    return re.search(
        rf"^## {number}\. [^\n]*\n(.*?)(?=^## |\Z)", text, re.M | re.S,
    ).group(1)


def inventory_modules(text):
    """Every module DESIGN.md names, as a fully qualified path."""
    dotted = r"[a-z_]+(?:\.[a-z_]+)*"
    modules = set(re.findall(r"`(repro(?:\.[a-z_]+)+)`", text))
    # §3: each bullet names a package, then modules relative to it.
    for package, body in re.findall(
        rf"^- `(repro(?:\.[a-z_]+)*)`(.*?)(?=^- |^#|\Z)",
        design_section(text, 3), re.M | re.S,
    ):
        modules.update(
            f"{package}.{name}"
            for name in re.findall(rf"(?<!`)`({dotted})`(?!`)", body)
        )
    # §4: the Modules column, relative to ``repro``.
    for cell in re.findall(
        r"^\|[^|\n]*\|[^|\n]*\|[^|\n]*\|([^|\n]*)\|[^|\n]*\|$",
        design_section(text, 4), re.M,
    ):
        for entry in cell.split(","):
            name = re.sub(r"\(.*?\)", "", entry).strip()
            if re.fullmatch(dotted, name):
                modules.add(f"repro.{name}")
    return modules


class TestDesignIndex:
    def test_every_bench_target_exists(self):
        """DESIGN.md's experiment index must point at real files."""
        text = (ROOT / "DESIGN.md").read_text()
        targets = set(re.findall(r"`benchmarks/(test_bench_[a-z0-9_]+\.py)`", text))
        assert targets, "no bench targets found in DESIGN.md"
        for target in targets:
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_every_bench_file_is_indexed(self):
        """Conversely: no orphan benchmark without a DESIGN.md row."""
        text = (ROOT / "DESIGN.md").read_text()
        for path in (ROOT / "benchmarks").glob("test_bench_*.py"):
            assert path.name in text, f"{path.name} missing from DESIGN.md"

    def test_inventory_modules_exist(self):
        """Module paths named in the DESIGN inventory must import: the
        fully qualified ones anywhere, §3's bare names relative to their
        bullet's package and §4's Modules column relative to ``repro``."""
        modules = inventory_modules((ROOT / "DESIGN.md").read_text())
        assert modules
        missing = []
        for module in sorted(modules):
            try:
                importlib.import_module(module)
            except ImportError:
                missing.append(module)
        assert missing == []


class TestReadme:
    def test_referenced_files_exist(self):
        text = (ROOT / "README.md").read_text()
        for rel in re.findall(r"\]\(((?:docs|examples)/[A-Za-z_./]+)\)", text):
            assert (ROOT / rel).exists(), rel

    @pytest.mark.parametrize("doc", ["DESIGN.md", "EXPERIMENTS.md", *DOCS])
    def test_backticked_repo_paths_exist(self, doc):
        """Each backticked path names a file or directory in the repo,
        and each ``::Name`` after it a class or function in that file."""
        stale = []
        for rel, names in REPO_PATH.findall((ROOT / doc).read_text()):
            path = ROOT / rel
            if not path.exists():
                stale.append(rel)
                continue
            for name in filter(None, names.split("::")):
                if not re.search(
                    rf"^\s*(?:class|def) {name}\b", path.read_text(), re.M,
                ):
                    stale.append(rel + names)
        assert stale == []

    def test_example_table_matches_directory(self):
        text = (ROOT / "README.md").read_text()
        for path in (ROOT / "examples").glob("*.py"):
            assert path.name in text, f"{path.name} missing from README"


class TestQuotedCommands:
    """Every CLI command a doc quotes still parses; none is run."""

    @pytest.mark.parametrize("doc", DOCS)
    def test_quoted_cli_commands_parse(self, doc):
        calls = quoted_cli_calls((ROOT / doc).read_text())
        assert unparseable(calls) == []

    def test_scanner_joins_drops_and_flags(self):
        text = "\n".join([
            "python -m repro.cli cache stats  # outside a fence",
            "```bash",
            "$ PYTHONPATH=src python -m repro.cli cache stats \\",
            "    --cache-dir d  # a comment",
            "python -m repro.cli cache stats",
            "repro cache stats --cache-dir d",
            "```",
        ])
        calls = list(quoted_cli_calls(text))
        assert calls == [
            (3, "python -m repro.cli", ["cache", "stats", "--cache-dir", "d"]),
            (5, "python -m repro.cli", ["cache", "stats"]),
            (6, "repro", ["cache", "stats", "--cache-dir", "d"]),
        ]
        assert unparseable(calls) == [
            "5: cache stats",
            "6: no `repro` executable; use `python -m repro.cli`",
        ]


class TestExamples:
    @pytest.mark.parametrize("script", sorted(
        (ROOT / "examples").glob("*.py"), key=lambda p: p.name,
        ), ids=lambda p: p.name)
    def test_examples_compile(self, script):
        py_compile.compile(str(script), doraise=True)

    def test_at_least_five_examples(self):
        assert len(list((ROOT / "examples").glob("*.py"))) >= 5

    def test_substrate_tour_runs(self):
        """The one example over the netsim classes, run end to end."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, str(ROOT / "examples" / "substrate_tour.py")],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode == 0, done.stderr


def repro_imports(source):
    """``(module, name)`` per ``repro`` import in ``source``; ``name``
    is None for ``import repro...``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif (
            isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "repro"
        ):
            for alias in node.names:
                yield node.module, alias.name


def unresolved(module, name):
    """Whether ``from module import name`` (or ``import module``) fails."""
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return True
    if name is None or hasattr(imported, name):
        return False
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return True
    return False


class TestEntryPointImports:
    """``examples/`` and ``benchmarks/`` are entry points that tier-1
    does not run, so a ``src/`` deletion that breaks one of their
    imports must fail here."""

    @pytest.mark.parametrize("script", sorted(
        [*(ROOT / "examples").glob("*.py"),
         *(ROOT / "benchmarks").glob("*.py")],
        key=lambda p: (p.parent.name, p.name),
    ), ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_repro_imports_resolve(self, script):
        missing = [
            f"{module}:{name}"
            for module, name in repro_imports(script.read_text())
            if unresolved(module, name)
        ]
        assert missing == []


class TestDocstrings:
    def test_every_public_module_documented(self):
        import importlib
        import pkgutil

        import repro

        undocumented = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            if not (module.__doc__ or "").strip():
                undocumented.append(info.name)
        assert undocumented == []
