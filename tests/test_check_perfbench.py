"""Unit tests for tools/check_perfbench.py, the perfbench regression gate.

Absent or empty input is a clean pass with a clear message, a file that
exists but is not a perfbench summary is broken state and fails with
exit 2, and only a median that worsens beyond its bound (or a wrong or
failing run) fails with exit 1.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "check_perfbench.py"

SPEC = {
    "workloads": [{"name": "report"}, {"name": "ingest"}],
    "end_to_end": [
        {"name": "busy_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
        {"name": "records_per_s", "better": "higher", "bound": 0.25},
    ],
}
BASE = {"busy_s": 1.0, "peak_rss_mb": 200.0, "records_per_s": 1000.0}


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_perfbench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summary(values=None, correct=True, attempted=10, failed=0):
    """One run's summary line: BASE with ``values`` overriding it."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": "x"}
            for name, value in dict(BASE, **(values or {})).items()
        },
    }


def _runs(directory, workload, summaries):
    directory.mkdir(exist_ok=True)
    for i, summary in enumerate(summaries):
        path = directory / f"{workload}-{i:02d}.json"
        path.write_text(
            summary if isinstance(summary, str) else json.dumps(summary)
        )
    return directory


@pytest.fixture()
def spec(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(SPEC))
    return path


def _noisy(busy_by_run):
    """One run per busy_s value, every other metric at BASE."""
    return [_summary({"busy_s": busy}) for busy in busy_by_run]


def test_missing_dir_exits_0(tmp_path, spec, capsys):
    tool = _load_tool()
    change = _runs(tmp_path / "change", "report", _noisy([1.0]))
    assert tool.check(tmp_path / "absent", change, spec) == 0
    assert "nothing to compare" in capsys.readouterr().out


def test_empty_dir_exits_0(tmp_path, spec, capsys):
    tool = _load_tool()
    parent = _runs(tmp_path / "parent", "report", _noisy([1.0]))
    (tmp_path / "change").mkdir()
    assert tool.check(parent, tmp_path / "change", spec) == 0
    assert "nothing to compare" in capsys.readouterr().out


def test_workload_on_one_side_only_exits_0(tmp_path, spec, capsys):
    tool = _load_tool()
    parent = _runs(tmp_path / "parent", "report", _noisy([1.0]))
    change = _runs(tmp_path / "change", "ingest", _noisy([1.0]))
    assert tool.check(parent, change, spec) == 0
    out = capsys.readouterr().out
    assert "report: 1 parent and 0 change runs; nothing to compare" in out
    assert "ingest: 0 parent and 1 change runs; nothing to compare" in out


def test_malformed_json_exits_2(tmp_path, spec):
    tool = _load_tool()
    parent = _runs(tmp_path / "parent", "report", _noisy([1.0]))
    change = _runs(tmp_path / "change", "report", ["{truncated"])
    assert tool.check(parent, change, spec) == 2


def test_non_object_summary_exits_2(tmp_path, spec):
    tool = _load_tool()
    parent = _runs(tmp_path / "parent", "report", ["[1, 2, 3]"])
    change = _runs(tmp_path / "change", "report", _noisy([1.0]))
    assert tool.check(parent, change, spec) == 2


def test_missing_metric_exits_2(tmp_path, spec):
    tool = _load_tool()
    partial = _summary()
    del partial["metrics"]["peak_rss_mb"]
    parent = _runs(tmp_path / "parent", "report", _noisy([1.0]))
    change = _runs(tmp_path / "change", "report", [partial])
    assert tool.check(parent, change, spec) == 2


def test_regression_detected(tmp_path, spec, capsys):
    tool = _load_tool()
    parent = _runs(tmp_path / "parent", "report", _noisy([0.98, 1.0, 1.02]))
    change = _runs(tmp_path / "change", "report", _noisy([1.28, 1.3, 1.32]))
    assert tool.check(parent, change, spec) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_drop_in_a_higher_is_better_metric_detected(tmp_path, spec):
    tool = _load_tool()
    parent = _runs(tmp_path / "parent", "report", [_summary()] * 3)
    change = _runs(tmp_path / "change", "report",
                   [_summary({"records_per_s": 700.0})] * 3)
    assert tool.check(parent, change, spec) == 1


def test_noise_inside_the_bound_passes(tmp_path, spec, capsys):
    tool = _load_tool()
    parent = _runs(tmp_path / "parent", "report",
                   _noisy([0.9, 0.95, 1.0, 1.05, 1.1]))
    change = _runs(tmp_path / "change", "report",
                   _noisy([1.0, 1.05, 1.1, 1.15, 1.2]))
    assert tool.check(parent, change, spec) == 0
    out = capsys.readouterr().out
    # Median and quartiles with the run count, for both sides.
    assert "1.0000 [0.9250, 1.0750] n=5" in out
    assert "1.1000 [1.0250, 1.1750] n=5" in out


def test_improvement_passes(tmp_path, spec):
    tool = _load_tool()
    parent = _runs(tmp_path / "parent", "report", _noisy([1.0, 1.0]))
    change = _runs(tmp_path / "change", "report", _noisy([0.6, 0.62]))
    assert tool.check(parent, change, spec) == 0


def test_incorrect_run_fails(tmp_path, spec):
    tool = _load_tool()
    parent = _runs(tmp_path / "parent", "report", [_summary()] * 2)
    change = _runs(tmp_path / "change", "report",
                   [_summary(), _summary(correct=False)])
    assert tool.check(parent, change, spec) == 1


def test_larger_failed_share_fails(tmp_path, spec):
    tool = _load_tool()
    parent = _runs(tmp_path / "parent", "report", [_summary(failed=1)] * 2)
    change = _runs(tmp_path / "change", "report", [_summary(failed=2)] * 2)
    assert tool.check(parent, change, spec) == 1
    same = _runs(tmp_path / "same", "report", [_summary(failed=1)] * 2)
    assert tool.check(parent, same, spec) == 0


def _won(out, metric):
    """The ``won`` cell of ``metric``'s row."""
    row = next(line for line in out.splitlines()
               if line.strip().startswith(metric))
    return row.split()[-2]


def test_pair_wins_counted_ties_for_neither_side(tmp_path, spec, capsys):
    tool = _load_tool()
    parent = _runs(tmp_path / "parent", "report", [
        _summary({"busy_s": b, "records_per_s": r})
        for b, r in ((1.0, 1000.0), (1.0, 1000.0), (1.0, 1000.0),
                     (1.0, 1000.0), (1.0, 1000.0))
    ])
    change = _runs(tmp_path / "change", "report", [
        _summary({"busy_s": b, "records_per_s": r})
        for b, r in ((0.9, 1100.0), (0.8, 1000.0), (0.95, 900.0),
                     (1.1, 1200.0), (1.0, 1001.0))
    ])
    assert tool.check(parent, change, spec) == 0
    out = capsys.readouterr().out
    assert _won(out, "busy_s") == "3/5"  # one loss, one tie
    assert _won(out, "peak_rss_mb") == "0/5"  # all ties
    assert _won(out, "records_per_s") == "3/5"  # higher is better


def test_pairs_need_the_same_file_name(tmp_path, spec, capsys):
    tool = _load_tool()
    parent = _runs(tmp_path / "parent", "report", _noisy([1.0, 1.0]))
    change = tmp_path / "change"
    change.mkdir()
    for i in range(2):
        (change / f"report-seed{i}.json").write_text(
            json.dumps(_summary({"busy_s": 0.5}))
        )
    (change / "report-01.json").write_text(
        json.dumps(_summary({"busy_s": 0.5}))
    )
    assert tool.check(parent, change, spec) == 0
    assert _won(capsys.readouterr().out, "busy_s") == "1/1"


def test_losing_every_pair_inside_the_bound_still_exits_0(
    tmp_path, spec, capsys,
):
    tool = _load_tool()
    parent = _runs(tmp_path / "parent", "report", _noisy([1.0] * 4))
    change = _runs(tmp_path / "change", "report", _noisy([1.1] * 4))
    assert tool.check(parent, change, spec) == 0
    assert _won(capsys.readouterr().out, "busy_s") == "0/4"


def test_cli_reads_the_repository_benchmark(tmp_path):
    tool = _load_tool()
    assert tool.SPEC == REPO / "BENCHMARK.json"
    assert tool.main([]) == 2
    assert tool.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
