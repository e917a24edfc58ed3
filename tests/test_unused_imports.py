"""Tier-1 wiring for the unused-import lint (tools/check_unused_imports.py)."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "check_unused_imports.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_unused_imports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(tmp_path, source, *parts, name="x.py"):
    target = tmp_path.joinpath("repro", *parts)
    target.mkdir(parents=True, exist_ok=True)
    path = target / name
    path.write_text(source)
    return path


def _names(violations):
    return [message.split("'")[1] for _, _, message in violations]


def test_src_tree_is_clean():
    tool = _load_tool()
    violations = tool.check_tree(REPO / "src")
    assert violations == [], "\n".join(
        f"{p}:{line}: {msg}" for p, line, msg in violations
    )


def test_every_kind_of_binding_is_reported(tmp_path):
    tool = _load_tool()
    path = _module(tmp_path, (
        "import os\n"
        "import numpy as np\n"
        "import xml.dom\n"
        "from typing import Dict, List as L\n"
        "from . import sibling\n"
        "from dataclasses import *\n"
    ), "pkg")
    violations = tool.check_file(path)
    assert _names(violations) == ["os", "np", "xml", "Dict", "L", "sibling"]
    assert [line for _, line, _ in violations] == [1, 2, 3, 4, 4, 5]


def test_reads_anywhere_count(tmp_path):
    tool = _load_tool()
    path = _module(tmp_path, (
        "import functools, os, xml.dom, numpy as np\n"
        "from typing import TYPE_CHECKING, Dict, List, Optional\n"
        "from dataclasses import field\n"
        "if TYPE_CHECKING:\n"
        "    from m import Report, Row\n"
        "@functools.lru_cache\n"
        "def f(a: 'Optional[Report]', b=field) -> 'List[\"Row\"]':\n"
        "    x: Dict = {}\n"
        "    return f'{os.sep}' + str(xml.dom) + str(np)\n"
    ), "pkg")
    assert tool.check_file(path) == []


def test_a_rebinding_is_not_a_read(tmp_path):
    tool = _load_tool()
    path = _module(tmp_path, "import os\nos = 1\n", "pkg")
    assert _names(tool.check_file(path)) == ["os"]


def test_a_name_only_in_a_plain_string_is_not_read(tmp_path):
    tool = _load_tool()
    path = _module(tmp_path, "import os\nWHAT = 'os'\n", "pkg")
    assert _names(tool.check_file(path)) == ["os"]


def test_all_init_and_future_count_as_read(tmp_path):
    tool = _load_tool()
    exported = _module(tmp_path, (
        "from __future__ import annotations\n"
        "from m import a, b\n"
        "__all__ = ['a']\n"
    ), "pkg")
    assert _names(tool.check_file(exported)) == ["b"]
    init = _module(tmp_path, "from m import a, b\n", "pkg", name="__init__.py")
    assert tool.check_file(init) == []


def test_only_modules_under_repro_are_checked(tmp_path):
    tool = _load_tool()
    outside = tmp_path / "scripts"
    outside.mkdir()
    (outside / "x.py").write_text("import os\n")
    assert tool.check_file(outside / "x.py") == []


def test_an_exemption_row_keeps_one_binding(tmp_path, monkeypatch):
    tool = _load_tool()
    path = _module(tmp_path, "import os\nimport sys\n", "pkg")
    monkeypatch.setitem(
        tool.ast_lint.EXEMPTIONS["unused-import"], "pkg/x.py:os", "why"
    )
    assert _names(tool.check_file(path)) == ["sys"]


def test_cli_entrypoint(tmp_path):
    tool = _load_tool()
    path = _module(tmp_path, "import os\n", "pkg")
    assert tool.main(["prog", str(tmp_path)]) == 1
    path.write_text("import os\nprint(os)\n")
    assert tool.main(["prog", str(tmp_path)]) == 0
    assert tool.main(["prog", str(tmp_path / "missing")]) == 2

