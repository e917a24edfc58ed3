"""Tier-1 wiring for the bare-except lint (tools/check_no_bare_except.py)."""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "check_no_bare_except.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_no_bare_except", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_tree_is_clean():
    tool = _load_tool()
    violations = tool.check_tree(REPO / "src")
    assert violations == [], "\n".join(
        f"{p}:{line}: {msg}" for p, line, msg in violations
    )


def test_detects_bare_except(tmp_path):
    tool = _load_tool()
    bad = tmp_path / "bad.py"
    bad.write_text("try:\n    x()\nexcept:\n    handle()\n")
    violations = tool.check_file(bad)
    assert len(violations) == 1
    assert "bare" in violations[0][2]


def test_detects_silent_swallow(tmp_path):
    tool = _load_tool()
    bad = tmp_path / "bad.py"
    bad.write_text("try:\n    x()\nexcept Exception:\n    pass\n")
    violations = tool.check_file(bad)
    assert len(violations) == 1
    assert "swallows" in violations[0][2]


def test_allows_narrow_and_handled(tmp_path):
    tool = _load_tool()
    ok = tmp_path / "ok.py"
    ok.write_text(
        "try:\n    x()\nexcept OSError:\n    pass\n"
        "try:\n    y()\nexcept Exception as exc:\n    log(exc)\n"
    )
    assert tool.check_file(ok) == []


def test_cli_entrypoint(tmp_path):
    tool = _load_tool()
    (tmp_path / "bad.py").write_text("try:\n    x()\nexcept:\n    pass\n")
    assert tool.main(["prog", str(tmp_path)]) == 1
    (tmp_path / "bad.py").write_text("x = 1\n")
    assert tool.main(["prog", str(tmp_path)]) == 0
    assert tool.main(["prog", str(tmp_path / "missing")]) == 2


def test_strict_dirs_flag_narrow_swallow(tmp_path):
    """In the strict packages, even narrow swallows are banned."""
    tool = _load_tool()
    for subdir in (("repro", "perf"), ("repro", "resilience"),
                   ("repro", "prediction")):
        target = tmp_path.joinpath(*subdir)
        target.mkdir(parents=True, exist_ok=True)
        bad = target / "x.py"
        bad.write_text("try:\n    x()\nexcept OSError:\n    pass\n")
        violations = tool.check_file(bad)
        assert len(violations) == 1, subdir
        assert "swallows" in violations[0][2]


def test_core_usaas_is_strict(tmp_path):
    """The columnar answer path promises float-identical results, so a
    narrow swallow under repro/core/usaas is flagged too."""
    tool = _load_tool()
    target = tmp_path / "repro" / "core" / "usaas"
    target.mkdir(parents=True)
    bad = target / "service.py"
    bad.write_text("try:\n    x()\nexcept KeyError:\n    pass\n")
    violations = tool.check_file(bad)
    assert len(violations) == 1
    assert "swallows" in violations[0][2]


def test_vectorized_modules_are_strict_anywhere_under_repro(tmp_path):
    """vectorized*.py under repro is strict wherever it lives: the block
    engines' byte-identity contract makes silent swallows wrong-numbers
    bugs, not robustness."""
    tool = _load_tool()
    for subdir, name in (
        (("repro", "netsim"), "vectorized.py"),
        (("repro", "social"), "vectorized_corpus.py"),
    ):
        target = tmp_path.joinpath(*subdir)
        target.mkdir(parents=True, exist_ok=True)
        bad = target / name
        bad.write_text("try:\n    x()\nexcept OSError:\n    pass\n")
        violations = tool.check_file(bad)
        assert len(violations) == 1, (subdir, name)
        assert "swallows" in violations[0][2]
    outside = tmp_path / "scripts"
    outside.mkdir(exist_ok=True)
    ok = outside / "vectorized.py"
    ok.write_text("try:\n    x()\nexcept OSError:\n    pass\n")
    assert tool.check_file(ok) == []


def test_strict_rule_does_not_apply_elsewhere(tmp_path):
    """Outside a repro package, and in the table's exempt modules, a
    narrow swallow is allowed."""
    tool = _load_tool()
    swallow = "try:\n    x()\nexcept OSError:\n    pass\n"
    outside = tmp_path / "scripts"
    outside.mkdir()
    (outside / "x.py").write_text(swallow)
    assert tool.check_file(outside / "x.py") == []
    target = tmp_path / "repro" / "io"
    target.mkdir(parents=True)
    (target / "jsonl.py").write_text(swallow)
    assert tool.check_file(target / "jsonl.py") == []


def test_every_module_under_repro_is_strict_by_default(tmp_path):
    """A package nobody listed anywhere is strict the day it lands."""
    tool = _load_tool()
    for subdir in (("repro", "io"), ("repro", "telemetry"),
                   ("repro", "brand_new_pkg")):
        target = tmp_path.joinpath(*subdir)
        target.mkdir(parents=True, exist_ok=True)
        bad = target / "x.py"
        bad.write_text("try:\n    x()\nexcept OSError:\n    pass\n")
        assert len(tool.check_file(bad)) == 1, subdir


def test_strict_dirs_allow_handled_narrow_excepts(tmp_path):
    """Counting / logging / re-routing the failure satisfies the rule."""
    tool = _load_tool()
    target = tmp_path / "repro" / "perf"
    target.mkdir(parents=True)
    ok = target / "x.py"
    ok.write_text(
        "try:\n    x()\nexcept OSError:\n    races += 1\n"
        "try:\n    y()\nexcept ValueError as exc:\n    log(exc)\n"
    )
    assert tool.check_file(ok) == []
