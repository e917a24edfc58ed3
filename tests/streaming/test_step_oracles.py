"""The emission digest and the detector step equal their oracles.

``tests/streaming/oracle.py`` keeps :func:`emissions_digest` as it ran
through ``JSONEncoder(sort_keys=True)`` per emission, and the
detector's per-emission step as it ran before it was trimmed.  The
digest must be the same hex string for any field values, the
encoder's non-finite tokens and escapes included; the detector must
return the same change points and end in the same state.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.detector import OnlineChangePointDetector
from repro.streaming.operators import Emission
from repro.streaming.pipeline import emissions_digest
from tests.streaming import oracle

EDGE_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310,
    2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
    0.1, 1 / 3, 1e16, 123456789.0, -2.5,
)
EDGE_STRINGS = (
    "", "win_mean", 'say "hi"', "back\\slash", "tab\tnew\nline\r",
    "\x00\x01\x1f\x7f", "é", "naïve “quotes”", "中文", "😡", "\ud800",
)


def emission(at_s=1.0, operator="win_mean", metric="m", value=1.0,
             count=1, role="network"):
    return Emission(at_s, operator, metric, value, count, role)


class TestEmissionsDigest:
    def test_edge_floats(self):
        log = [
            emission(at_s=a, value=v) for a in EDGE_FLOATS for v in EDGE_FLOATS
        ]
        assert emissions_digest(log) == oracle.emissions_digest(log)
        for e in log:
            assert emissions_digest([e]) == oracle.emissions_digest([e])

    def test_edge_strings(self):
        log = [
            emission(operator=a, metric=b, role=b + a)
            for a in EDGE_STRINGS for b in EDGE_STRINGS
        ]
        assert emissions_digest(log) == oracle.emissions_digest(log)
        for e in log:
            assert emissions_digest([e]) == oracle.emissions_digest([e])

    def test_other_types_go_through_the_encoder(self):
        log = [
            emission(at_s=3, value=np.float64(0.5)),
            emission(value=np.float64("nan"), count=True),
            emission(count=2 ** 70, role=None),
            emission(at_s=False, metric=None),
        ]
        assert emissions_digest(log) == oracle.emissions_digest(log)

    def test_unserializable_fields_fail_alike(self):
        bad = [emission(count=np.int64(3))]
        with pytest.raises(TypeError):
            oracle.emissions_digest(bad)
        with pytest.raises(TypeError):
            emissions_digest(bad)

    def test_empty_log(self):
        assert emissions_digest([]) == oracle.emissions_digest([])

    @given(st.lists(st.builds(
        Emission,
        st.floats(), st.text(max_size=8), st.text(max_size=8),
        st.floats(), st.integers(), st.text(max_size=8),
    ), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_any_emissions(self, log):
        assert emissions_digest(log) == oracle.emissions_digest(log)


#: (metric, operator, role) triples the detector streams cycle through.
SERIES = (
    ("latency_ms", "win_mean", "network"),
    ("latency_ms", "decay_mean", "network"),
    ("mos", "win_mean", "experience"),
    ("sentiment_polarity", "decay_mean", "experience"),
)

#: Mostly-flat values with rare jumps make level shifts fire.
VALUES = st.one_of(
    st.sampled_from([1.0, 1.0, 1.0, 1.001, 5.0, -2.0, 0.0]),
    st.floats(-1e3, 1e3),
)

streams = st.lists(
    st.tuples(st.integers(0, len(SERIES) - 1), st.sampled_from([0.0, 10.0, 60.0]),
              VALUES),
    max_size=150,
)


def as_emissions(steps):
    at_s = 0.0
    out = []
    for series, gap, value in steps:
        at_s += gap
        metric, operator, role = SERIES[series]
        out.append(Emission(at_s, operator, metric, value, 1, role))
    return out


def detectors(**kwargs):
    params = dict(reference_n=4, test_n=2, min_gap_s=30.0,
                  attribution_horizon_s=200.0)
    params.update(kwargs)
    return (OnlineChangePointDetector(**params),
            oracle.ReferenceChangePointDetector(**params))


def assert_same_run(log, resume_at=None, **kwargs):
    new, ref = detectors(**kwargs)
    for i, e in enumerate(log):
        if i == resume_at:
            state = new.state_dict()
            new, _ = detectors(**kwargs)
            new.load_state(state)
        assert new.on_emission(e) == ref.on_emission(e)
    assert new.state_dict() == ref.state_dict()
    return ref.change_points


class TestDetectorStep:
    @given(streams)
    @settings(max_examples=200, deadline=None)
    def test_random_streams(self, steps):
        assert_same_run(as_emissions(steps))

    @given(streams, st.integers(0, 150))
    @settings(max_examples=100, deadline=None)
    def test_resumed_streams(self, steps, resume_at):
        assert_same_run(as_emissions(steps), resume_at=resume_at)

    def test_shifts_fire_and_attribute(self):
        steps = []
        for level in (1.0, 5.0, 1.0, 40.0):
            steps += [(0, 10.0, level), (2, 0.0, level / 2)] * 8
        cps = assert_same_run(as_emissions(steps), z_threshold=3.0)
        assert {cp.role for cp in cps} == {"network", "experience"}
        assert any(cp.attributed_to for cp in cps)
