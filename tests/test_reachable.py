"""Tier-1 wiring for the reachability lint (tools/check_reachable.py)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "check_reachable.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_reachable", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(tmp_path, modules, entry="run()\n"):
    """A repo with ``src/repro/<name>.py`` per module and one example."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro.lib import dead, run\n__all__ = ['dead', 'run']\n"
    )
    for name, source in modules.items():
        (package / name).write_text(source)
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.lib import run\n" + entry
    )
    return tmp_path


LIB = """\
import os


def run():
    return helper() + Tool().go()


def helper():
    return 1


def dead():
    return helper()


class Tool:
    def __init__(self):
        self.n = 0

    def go(self):
        return self.n
"""


def _messages(violations):
    return [message for _, _, message in violations]


def test_repo_passes():
    tool = _load_tool()
    violations = tool.check_repo(REPO)
    assert violations == [], "\n".join(
        f"{p}:{line}: {msg}" for p, line, msg in violations
    )


def test_command_line_exits_zero_on_the_repo():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(REPO)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_dead_def_reported_by_name(tmp_path):
    """Re-exports and ``__all__`` do not reach ``dead``; the entry point
    reaches ``run``, and through it ``helper`` and ``Tool``."""
    tool = _load_tool()
    repo = _tree(tmp_path, {"lib.py": LIB})
    messages = _messages(tool.check_repo(repo, exemptions={}))
    assert len(messages) == 1
    assert messages[0].startswith("lib.py:dead is reached by no entry point")


def test_exemption_silences_a_dead_def(tmp_path):
    tool = _load_tool()
    repo = _tree(tmp_path, {"lib.py": LIB})
    assert tool.check_repo(repo, exemptions={"lib.py:dead": "kept"}) == []


def test_stale_exemption_rows_fail(tmp_path):
    tool = _load_tool()
    repo = _tree(tmp_path, {"lib.py": LIB})
    messages = _messages(tool.check_repo(repo, exemptions={
        "lib.py:dead": "kept",
        "lib.py:gone": "deleted since",
        "lib.py:helper": "now reached",
    }))
    assert len(messages) == 2
    assert any("stale" in m and "lib.py:gone" in m
               and "no such top-level def" in m for m in messages)
    assert any("stale" in m and "lib.py:helper" in m
               and "now reaches it" in m for m in messages)


def test_module_level_code_is_a_root(tmp_path):
    tool = _load_tool()
    repo = _tree(tmp_path, {
        "lib.py": LIB,
        "registry.py": "def plugin():\n    return 2\n\nTABLE = [plugin]\n",
    })
    exemptions = {"lib.py:dead": "kept"}
    assert tool.check_repo(repo, exemptions=exemptions) == []


def test_tests_are_not_entry_points(tmp_path):
    tool = _load_tool()
    repo = _tree(tmp_path, {"lib.py": LIB})
    (repo / "tests").mkdir()
    (repo / "tests" / "test_lib.py").write_text(
        "from repro.lib import dead\n\ndef test_dead():\n    dead()\n"
    )
    messages = _messages(tool.check_repo(repo, exemptions={}))
    assert [m.split(" ")[0] for m in messages] == ["lib.py:dead"]


def test_missing_package_is_a_usage_error(tmp_path):
    assert _load_tool().main(["check_reachable.py", str(tmp_path)]) == 2


METHODS = """\
from operator import attrgetter


def run():
    tool = Tool()
    idle = 0
    return [tool.go(), getattr(tool, "by_getattr")(), attrgetter("by_attrgetter")(tool)(), idle]


def dead():
    return 0


class Tool:
    def __init__(self):
        self.n = 0

    def __len__(self):
        return self.n

    def go(self):
        return self.alias()

    def by_getattr(self):
        return 1

    def by_attrgetter(self):
        return 2

    def aliased(self):
        return 3

    alias = aliased

    def unused(self):
        return 4

    def idle(self):
        return 5
"""


def _reported(tool, repo, exemptions=None):
    exemptions = {"lib.py:dead": "kept"} if exemptions is None else exemptions
    return [m.split(" ")[0] for m in _messages(
        tool.check_repo(repo, exemptions=exemptions))]


def test_dead_method_of_a_live_class_is_reported(tmp_path):
    tool = _load_tool()
    repo = _tree(tmp_path, {"lib.py": METHODS})
    assert "lib.py:Tool.unused" in _reported(tool, repo)


def test_a_bare_name_does_not_reach_a_method(tmp_path):
    """``idle`` is a local variable in ``run``, not an attribute."""
    tool = _load_tool()
    repo = _tree(tmp_path, {"lib.py": METHODS})
    assert "lib.py:Tool.idle" in _reported(tool, repo)


def test_getattr_attrgetter_and_aliases_reach_methods(tmp_path):
    tool = _load_tool()
    repo = _tree(tmp_path, {"lib.py": METHODS})
    assert sorted(_reported(tool, repo)) == [
        "lib.py:Tool.idle", "lib.py:Tool.unused",
    ]
    _, reached = tool.scan(repo)
    assert {"lib.py:Tool.go", "lib.py:Tool.by_getattr",
            "lib.py:Tool.by_attrgetter", "lib.py:Tool.aliased"} <= reached


def test_dunders_are_reached_with_their_class(tmp_path):
    tool = _load_tool()
    repo = _tree(tmp_path, {"lib.py": METHODS})
    _, reached = tool.scan(repo)
    assert {"lib.py:Tool.__init__", "lib.py:Tool.__len__"} <= reached


def test_methods_of_an_unreached_class_are_not_reported(tmp_path):
    """The class is reported (or exempted) as a whole."""
    tool = _load_tool()
    repo = _tree(tmp_path, {
        "lib.py": LIB + "\n\nclass Spare:\n    def spin(self):\n        return 1\n",
    })
    assert _reported(tool, repo) == ["lib.py:Spare"]


def test_method_row_silences_a_method(tmp_path):
    tool = _load_tool()
    repo = _tree(tmp_path, {"lib.py": METHODS})
    exemptions = {
        "lib.py:dead": "kept",
        "lib.py:Tool.unused": "kept",
        "lib.py:Tool.idle": "kept",
    }
    assert tool.check_repo(repo, exemptions=exemptions) == []


def test_stale_method_rows_fail(tmp_path):
    tool = _load_tool()
    repo = _tree(tmp_path, {"lib.py": METHODS})
    messages = _messages(tool.check_repo(repo, exemptions={
        "lib.py:dead": "kept",
        "lib.py:Tool.unused": "kept",
        "lib.py:Tool.idle": "kept",
        "lib.py:Tool.gone": "deleted since",
        "lib.py:Tool.go": "now reached",
    }))
    assert len(messages) == 2
    assert any("stale" in m and "lib.py:Tool.gone" in m
               and "no such" in m for m in messages)
    assert any("stale" in m and "lib.py:Tool.go" in m
               and "now reaches it" in m for m in messages)
