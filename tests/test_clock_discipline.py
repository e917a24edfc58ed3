"""Tier-1 wiring for the clock lint (tools/check_clock_discipline.py)."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "check_clock_discipline.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_clock_discipline",
                                                  TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _covered(tmp_path, source, subdir=("repro", "serving")):
    target = tmp_path.joinpath(*subdir)
    target.mkdir(parents=True, exist_ok=True)
    path = target / "x.py"
    path.write_text(source)
    return path


def test_src_tree_is_clean():
    tool = _load_tool()
    violations = tool.check_tree(REPO / "src")
    assert violations == [], "\n".join(
        f"{p}:{line}: {msg}" for p, line, msg in violations
    )


def test_detects_module_attribute_calls(tmp_path):
    tool = _load_tool()
    for call in ("time.time()", "time.monotonic()", "time.sleep(1)",
                 "time.perf_counter()"):
        path = _covered(tmp_path, f"import time\nx = {call}\n")
        violations = tool.check_file(path)
        assert len(violations) == 1, call
        assert "injected Clock" in violations[0][2]


def test_detects_aliased_imports(tmp_path):
    tool = _load_tool()
    path = _covered(tmp_path, "import time as t\nt.sleep(1)\n")
    assert len(tool.check_file(path)) == 1
    path = _covered(tmp_path, "from time import sleep\nsleep(1)\n")
    assert len(tool.check_file(path)) == 1
    path = _covered(tmp_path, "from time import monotonic as now\nnow()\n")
    assert len(tool.check_file(path)) == 1


def test_every_covered_package_is_checked(tmp_path):
    tool = _load_tool()
    for subdir in (("repro", "serving"), ("repro", "resilience"),
                   ("repro", "streaming"), ("repro", "prediction"),
                   ("repro", "core", "usaas")):
        path = _covered(tmp_path, "import time\ntime.time()\n", subdir)
        assert len(tool.check_file(path)) == 1, subdir


def test_cluster_modules_are_covered_anywhere_under_repro(tmp_path):
    """Coverage follows the ``repro`` package, not module names: a
    cluster*.py file is checked at any depth under it, in a package the
    lint has never seen as much as in ``repro.serving``."""
    tool = _load_tool()
    for subdir, name in (
        (("repro", "serving"), "cluster.py"),
        (("repro", "serving"), "cluster_soak.py"),
        (("repro",), "cluster.py"),
        (("repro", "future_pkg"), "cluster_router.py"),
    ):
        target = tmp_path.joinpath(*subdir)
        target.mkdir(parents=True, exist_ok=True)
        path = target / name
        path.write_text("import time\ntime.time()\n")
        assert len(tool.check_file(path)) == 1, (subdir, name)


def test_vectorized_modules_are_covered_anywhere_under_repro(tmp_path):
    """vectorized*.py promises byte-identical output per seed, so the
    block engines stay covered wherever they live."""
    tool = _load_tool()
    for subdir, name in (
        (("repro", "netsim"), "vectorized.py"),
        (("repro", "telemetry"), "vectorized.py"),
        (("repro", "social"), "vectorized.py"),
        (("repro", "future_pkg"), "vectorized_corpus.py"),
    ):
        target = tmp_path.joinpath(*subdir)
        target.mkdir(parents=True, exist_ok=True)
        path = target / name
        path.write_text("import time\ntime.time()\n")
        assert len(tool.check_file(path)) == 1, (subdir, name)


def test_cluster_stem_outside_repro_is_not_covered(tmp_path):
    tool = _load_tool()
    target = tmp_path / "scripts"
    target.mkdir(parents=True)
    path = target / "cluster.py"
    path.write_text("import time\ntime.time()\n")
    assert tool.check_file(path) == []


def test_clock_seam_is_exempt(tmp_path):
    """repro/resilience/clock.py is the one sanctioned wall-clock user."""
    tool = _load_tool()
    target = tmp_path / "repro" / "resilience"
    target.mkdir(parents=True)
    seam = target / "clock.py"
    seam.write_text("import time\n\ndef now():\n    return time.monotonic()\n")
    assert tool.check_file(seam) == []


def test_exempt_module_may_use_time(tmp_path):
    """Only the table's exemptions escape the rule: io/locks.py compares
    a lock file's mtime against wall time."""
    tool = _load_tool()
    target = tmp_path / "repro" / "io"
    target.mkdir(parents=True)
    exempt = target / "locks.py"
    exempt.write_text("import time\ntime.time()\n")
    assert tool.check_file(exempt) == []


def test_every_module_under_repro_is_covered_by_default(tmp_path):
    """A package nobody listed anywhere is covered the day it lands."""
    tool = _load_tool()
    for subdir in (("repro",), ("repro", "telemetry"),
                   ("repro", "brand_new_pkg", "deep")):
        path = _covered(tmp_path, "import time\ntime.time()\n", subdir)
        assert len(tool.check_file(path)) == 1, subdir


def test_clock_methods_are_not_flagged(tmp_path):
    """clock.sleep()/clock.now() on an injected Clock are the fix, not
    a violation — only the *time module's* attributes are banned."""
    tool = _load_tool()
    path = _covered(
        tmp_path,
        "def f(clock):\n    clock.sleep(1)\n    return clock.now()\n",
    )
    assert tool.check_file(path) == []


def test_cli_entrypoint(tmp_path):
    tool = _load_tool()
    _covered(tmp_path, "import time\ntime.time()\n")
    assert tool.main(["prog", str(tmp_path)]) == 1
    _covered(tmp_path, "x = 1\n")
    assert tool.main(["prog", str(tmp_path)]) == 0
    assert tool.main(["prog", str(tmp_path / "missing")]) == 2
