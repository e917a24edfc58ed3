"""The column store of ``SignalSeries``: rows written by ``extend_columns``.

``extend_columns`` writes rows straight into the store, and a row's
``Signal`` is built only when it is iterated.  The property below
drives random interleavings of ``append``, ``extend_columns``,
``filter`` views and ``concat_series`` and pins two things against
oracles: every store column, vocabulary and attr code equals what
``_Columns.extend`` builds over the same rows as ``Signal`` objects,
and iteration equals the per-row construction
(``tests/usaas/oracle.py::extend_columns_records``).
"""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signals import (
    ExplicitSignal,
    ImplicitSignal,
    SignalKind,
    SignalSeries,
    _Columns,
    concat_series,
)
from repro.errors import SchemaError

from tests.usaas.oracle import extend_columns_records, filter_records

KINDS = (SignalKind.IMPLICIT, SignalKind.EXPLICIT)
NETWORKS = ("starlink", "fiber", "5g")
METRICS = ("presence", "rating", "cam_on")
SERVICES = (None, "teams", "zoom")
ATTR_KEYS = ("country", "platform", "user")
ATTR_WORDS = ("a", "b", "c")
#: Appended to every ``(words, index)`` column and never indexed: an
#: unused word must not reach a vocabulary.
DECOY = "never-indexed"
ZONES = (
    None,
    dt.timezone.utc,
    dt.timezone(dt.timedelta(hours=-5)),
    dt.timezone(dt.timedelta(hours=9, minutes=30)),
)

stamps = st.builds(
    lambda t, zone: t.replace(tzinfo=zone),
    st.datetimes(dt.datetime(2021, 12, 30), dt.datetime(2022, 1, 3)),
    st.sampled_from(ZONES),
)
values = st.floats(-1e3, 1e3, allow_nan=False)
weights = st.floats(0, 1e3, allow_nan=False)


@st.composite
def column_batch(draw):
    """``extend_columns`` keyword arguments: units of one or more rows, in any row order."""
    sizes = draw(st.lists(st.integers(1, 3), max_size=4))
    unit = np.repeat(np.arange(len(sizes)), sizes)
    pos = np.arange(len(unit)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    order = np.array(draw(st.permutations(range(len(unit)))), dtype=np.int64)
    unit, pos = unit[order], pos[order]
    n = len(unit)

    def column(words):
        shape = draw(st.sampled_from(("scalar", "unit", "position", "row")))
        if shape == "scalar":
            return draw(st.sampled_from(words))
        index = {"unit": unit, "position": pos, "row": np.arange(n)}[shape]
        size = int(index.max()) + 1 if n else 0
        per = draw(st.lists(st.sampled_from(words), min_size=size, max_size=size))
        return per + [DECOY], index

    keys = draw(st.lists(st.sampled_from(ATTR_KEYS), unique=True, max_size=3))
    return dict(
        kind=column(KINDS),
        timestamps=(draw(st.lists(stamps, min_size=len(sizes), max_size=len(sizes))), unit),
        network=column(NETWORKS),
        metric=column(METRICS),
        values=draw(st.lists(values, min_size=n, max_size=n)),
        service=column(SERVICES),
        weight=draw(st.one_of(weights, st.lists(weights, min_size=n, max_size=n))),
        attrs={key: column(ATTR_WORDS) for key in keys},
    )


@st.composite
def signal_batch(draw):
    """``Signal`` objects to ``append``, naive and aware, with and without attrs."""
    make = draw(st.sampled_from((ImplicitSignal, ExplicitSignal)))
    return [
        make(
            draw(stamps), draw(st.sampled_from(NETWORKS)),
            draw(st.sampled_from(METRICS)), draw(values),
            service=draw(st.sampled_from(SERVICES)), weight=draw(weights),
            **draw(st.dictionaries(
                st.sampled_from(ATTR_KEYS), st.sampled_from(ATTR_WORDS), max_size=3,
            )),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]


operations = st.lists(st.one_of(
    st.tuples(st.just("append"), signal_batch()),
    st.tuples(st.just("columns"), column_batch()),
    st.tuples(st.just("filter"), st.one_of(
        st.builds(dict, metric=st.sampled_from(METRICS)),
        st.builds(dict, kind=st.sampled_from(KINDS)),
        st.builds(dict, platform=st.sampled_from(ATTR_WORDS)),
        st.builds(dict, service=st.sampled_from(SERVICES[1:])),
    )),
    st.tuples(st.just("concat"), st.one_of(signal_batch(), column_batch())),
), max_size=8)


def _apply(series, expected, op, arg):
    """One operation on the series and on its oracle row list."""
    if op == "append":
        series.extend(arg)
        return series, expected + arg
    if op == "columns":
        assert series.extend_columns(**arg) == len(arg["values"])
        return series, expected + extend_columns_records(**arg)
    if op == "filter":
        return series.filter(**arg), filter_records(expected, **arg)
    other = SignalSeries()
    if isinstance(arg, list):
        other.extend(arg)
        rows = arg
    else:
        other.extend_columns(**arg)
        rows = extend_columns_records(**arg)
    return concat_series([series, other]), expected + rows


def _assert_store_equals(store, oracle):
    assert store.n == oracle.n
    for name, col in oracle.cols.items():
        if name != "signal":
            assert store.cols[name].dtype == col.dtype, name
            assert store.cols[name].tobytes() == col.tobytes(), name
    assert {k: v.words for k, v in store.vocab.items()} == {
        k: v.words for k, v in oracle.vocab.items()
    }
    assert {k: v.words for k, v in store.attr_vocab.items()} == {
        k: v.words for k, v in oracle.attr_vocab.items()
    }
    assert {k: v.tobytes() for k, v in store.attrs.items()} == {
        k: v.tobytes() for k, v in oracle.attrs.items()
    }


def _assert_rows_equal(series, oracle):
    """A view's rows decode to the oracle store's rows (codes index other vocabularies)."""
    for name in ("micros", "aware", "day", "value", "weight"):
        assert series._col(name).tobytes() == oracle.cols[name].tobytes(), name
    for name, vocab in oracle.vocab.items():
        codes, words = series._field(name)
        assert [words.words[c] for c in codes.tolist()] == [
            vocab.words[c] for c in oracle.cols[name].tolist()
        ], name
    for key in ATTR_KEYS:
        codes, words = series._attr(key)
        want = oracle.attrs.get(key, np.full(oracle.n, -1))
        vocab = oracle.attr_vocab.get(key)
        assert [None if c < 0 else words.words[c] for c in codes.tolist()] == [
            None if c < 0 else vocab.words[c] for c in want.tolist()
        ], key


class TestStoreEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(first=st.one_of(signal_batch(), column_batch()), ops=operations)
    def test_interleavings_match_the_oracles(self, first, ops):
        series, expected = _apply(
            SignalSeries(), [], "append" if isinstance(first, list) else "columns",
            first,
        )
        appended = {id(s) for s in (first if isinstance(first, list) else ())}
        for op, arg in ops:
            series, expected = _apply(series, expected, op, arg)
            if op in ("append", "concat") and isinstance(arg, list):
                appended |= {id(s) for s in arg}
            oracle = _Columns()
            oracle.extend(expected)
            if series._rows is None:  # an owning series: its whole store
                _assert_store_equals(series._store(), oracle)
            else:
                _assert_rows_equal(series, oracle)
        got = list(series)
        assert got == expected
        # Appended rows come back as the very objects appended; built
        # rows are kept, so a second pass yields the same objects.
        assert all(g is w for g, w in zip(got, expected) if id(w) in appended)
        assert all(a is b for a, b in zip(got, series))

    def test_zero_rows_append_nothing(self):
        series = SignalSeries()
        n = series.extend_columns(
            SignalKind.IMPLICIT, ([], []), "", "", [], weight=-1.0,
            attrs={"user": (["u"], [])},
        )
        assert n == 0 and len(series) == 0
        _assert_store_equals(series._store(), _Columns())


class TestBuiltRows:
    def _pair(self, n):
        base = dt.datetime(2022, 3, 1, 9)
        return [base + dt.timedelta(hours=i) for i in range(n)], list(range(n))

    def test_rows_share_one_attrs_tuple_per_combination(self):
        series = SignalSeries()
        series.extend_columns(
            SignalKind.IMPLICIT, (self._pair(2)[0], [0, 0, 1, 1, 1, 0]),
            "starlink", (list(METRICS), [0, 1, 0, 1, 2, 2]), [1.0] * 6,
            attrs={"user": (["u1", "u2"], [0, 0, 1, 1, 1, 0]), "platform": "ios"},
        )
        signals = list(series)
        assert [s.attrs for s in signals[:3]] == [
            (("platform", "ios"), ("user", "u1")),
        ] * 2 + [(("platform", "ios"), ("user", "u2"))]
        assert len({id(s.attrs) for s in signals}) == 2

    def test_checks_report_the_first_failing_row(self):
        stamps, unit = self._pair(2)
        cases = (
            # (network words, weights, message): row 0 fails first.
            (["starlink", ""], [-1.0, 1.0], r"weight must be non-negative, got -1.0"),
            (["", "starlink"], [-1.0, 1.0], "signal requires a network"),
            (["starlink", ""], [1.0, -2.0], "signal requires a network"),
        )
        for networks, weight, message in cases:
            series = SignalSeries()
            with pytest.raises(SchemaError, match=message):
                series.extend_columns(
                    SignalKind.IMPLICIT, (stamps, unit), (networks, unit),
                    "presence", [1.0, 2.0], weight=weight,
                )
        with pytest.raises(SchemaError, match="signal requires a metric name"):
            SignalSeries().extend_columns(
                SignalKind.IMPLICIT, (stamps, unit), "starlink",
                (["presence", ""], unit), [1.0, 2.0],
            )

    def test_failed_checks_append_nothing(self):
        stamps, unit = self._pair(2)
        series = SignalSeries([ImplicitSignal(stamps[0], "starlink", "presence", 1.0)])
        view = series.filter(metric="presence")
        for target in (series, view):
            before = list(target)
            for bad in (
                dict(weight=[1.0, -1.0]),
                dict(metric=(["presence"], [0, 1])),
                dict(attrs={"user": (["u"], [0])}),
                dict(values=[1.0]),
            ):
                args = dict(
                    kind=SignalKind.IMPLICIT, timestamps=(stamps, unit),
                    network="starlink", metric="presence", values=[1.0, 2.0],
                )
                with pytest.raises(SchemaError):
                    target.extend_columns(**{**args, **bad})
                assert list(target) == before
        assert view._rows is not None  # still a view: nothing was copied out

    def test_index_past_the_words_is_rejected(self):
        stamps, unit = self._pair(2)
        with pytest.raises(
            SchemaError, match=r"extend_columns: attrs\[user\] indexes past its 1 words"
        ):
            SignalSeries().extend_columns(
                SignalKind.IMPLICIT, (stamps, unit), "starlink", "presence",
                [1.0, 2.0], attrs={"user": (["u"], [0, 1])},
            )
        with pytest.raises(SchemaError, match="timestamps indexes past"):
            SignalSeries().extend_columns(
                SignalKind.IMPLICIT, (stamps, [0, -1]), "starlink", "presence",
                [1.0, 2.0],
            )
