"""Tests for the content-addressed artifact cache."""

import dataclasses
import datetime as dt
import json

import pytest

from repro.errors import ConfigError
from repro.perf import ArtifactCache, config_fingerprint
from repro.telemetry import GeneratorConfig


@dataclasses.dataclass(frozen=True)
class FakeConfig:
    n: int = 3
    day: dt.date = dt.date(2022, 1, 1)
    workers: int = 1


def _jsonl_io(build_value):
    """(build, load, dump) adapters for a list-of-ints artifact."""
    from repro.io.jsonl import write_jsonl

    def load(path):
        with open(path, encoding="utf-8") as f:
            return [json.loads(line) for line in f]

    return (
        lambda: list(build_value),
        load,
        lambda value, path: write_jsonl(path, value),
    )


class TestFingerprint:
    def test_stable(self):
        assert config_fingerprint("x", FakeConfig()) == config_fingerprint(
            "x", FakeConfig()
        )

    def test_sensitive_to_config_kind_and_schema(self):
        base = config_fingerprint("x", FakeConfig())
        assert config_fingerprint("x", FakeConfig(n=4)) != base
        assert config_fingerprint("y", FakeConfig()) != base
        assert config_fingerprint("x", FakeConfig(), schema_version="99") != base

    def test_workers_is_execution_only(self):
        """``workers`` is excluded from the artifact identity."""
        assert config_fingerprint("x", FakeConfig(workers=1)) == (
            config_fingerprint("x", FakeConfig(workers=8))
        )

    def test_nested_dataclasses_and_dates_fingerprint(self):
        # GeneratorConfig holds BehaviorParams / QoeModel / date mappings.
        config = GeneratorConfig(
            n_calls=5, outage_days={dt.date(2022, 2, 2): 0.5}
        )
        assert config_fingerprint("calls", config) == config_fingerprint(
            "calls", GeneratorConfig(
                n_calls=5, outage_days={dt.date(2022, 2, 2): 0.5}
            )
        )


class TestLoadOrBuild:
    def test_miss_builds_then_hit_loads(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        build, load, dump = _jsonl_io([1, 2, 3])
        first = cache.load_or_build("nums", FakeConfig(), build, load, dump)
        second = cache.load_or_build("nums", FakeConfig(), build, load, dump)
        assert first == second == [1, 2, 3]
        assert cache.misses == 1 and cache.hits == 1

    def test_config_change_misses(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        build, load, dump = _jsonl_io([1])
        cache.load_or_build("nums", FakeConfig(n=1), build, load, dump)
        cache.load_or_build("nums", FakeConfig(n=2), build, load, dump)
        assert cache.misses == 2 and cache.hits == 0
        assert cache.stats().entries == 2

    def test_corrupted_entry_evicted_and_rebuilt(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        build, load, dump = _jsonl_io([7, 8])
        cache.load_or_build("nums", FakeConfig(), build, load, dump)
        path = cache.path_for("nums", FakeConfig())
        path.write_text("{not json at all\n", encoding="utf-8")
        value = cache.load_or_build("nums", FakeConfig(), build, load, dump)
        assert value == [7, 8]
        assert cache.evictions == 1
        # Entry was rewritten: the next call is a clean hit again.
        assert cache.load_or_build(
            "nums", FakeConfig(), build, load, dump
        ) == [7, 8]
        assert cache.hits == 1

    def test_invalid_kind_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(ConfigError):
            cache.path_for("../escape", FakeConfig())


class TestMaintenance:
    def test_invalidate_by_kind_and_all(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        build, load, dump = _jsonl_io([1])
        cache.load_or_build("calls", FakeConfig(), build, load, dump)
        cache.load_or_build("corpus", FakeConfig(), build, load, dump)
        assert cache.invalidate(kind="calls") == 1
        assert cache.stats().by_kind == {"corpus": 1}
        assert cache.invalidate() == 1
        assert cache.stats().entries == 0

    def test_stats_on_missing_root(self, tmp_path):
        stats = ArtifactCache(tmp_path / "nonexistent").stats()
        assert stats.entries == 0
        assert "0 entries" in stats.summary()
