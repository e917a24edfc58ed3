"""The unified user-signal model at the heart of USaaS (§5).

The paper's framework consumes two families of user feedback:

* **implicit** signals — in-session user actions captured privately by an
  application (mute, camera-off, drop-off, session duration), and
* **explicit** signals — feedback users volunteer, either in-app (star
  ratings → MOS) or offline on social media (posts, speed-test shares).

Both are normalised here into :class:`Signal` records carrying a timestamp,
a source network/service, a named metric and a value, so the correlator can
join them without caring where they came from.
"""

from __future__ import annotations

import datetime as dt
import enum
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SchemaError


class SignalKind(enum.Enum):
    """Whether a user produced the signal deliberately."""

    IMPLICIT = "implicit"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class Signal:
    """One observation of user feedback.

    Attributes:
        kind: implicit (action) vs explicit (volunteered feedback).
        timestamp: when the signal was produced.
        network: the access network it pertains to (e.g. ``"starlink"``).
        service: the networked service, if any (e.g. ``"teams"``).
        metric: the signal's name (e.g. ``"presence"``, ``"sentiment_pos"``).
        value: numeric value of the signal.
        weight: aggregation weight (e.g. upvotes for a social post).
        attrs: free-form dimensions (platform, country, ...) used for
            cohorting; values must be strings to stay hashable/groupable.
    """

    kind: SignalKind
    timestamp: dt.datetime
    network: str
    metric: str
    value: float
    service: Optional[str] = None
    weight: float = 1.0
    attrs: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.network:
            raise SchemaError("signal requires a network")
        if not self.metric:
            raise SchemaError("signal requires a metric name")
        if self.weight < 0:
            raise SchemaError(f"weight must be non-negative, got {self.weight}")

    @property
    def date(self) -> dt.date:
        return self.timestamp.date()


def ImplicitSignal(
    timestamp: dt.datetime,
    network: str,
    metric: str,
    value: float,
    service: Optional[str] = None,
    weight: float = 1.0,
    **attrs: str,
) -> Signal:
    """Convenience constructor for implicit (user-action) signals."""
    return Signal(
        kind=SignalKind.IMPLICIT,
        timestamp=timestamp,
        network=network,
        metric=metric,
        value=value,
        service=service,
        weight=weight,
        attrs=tuple(sorted(attrs.items())),
    )


def ExplicitSignal(
    timestamp: dt.datetime,
    network: str,
    metric: str,
    value: float,
    service: Optional[str] = None,
    weight: float = 1.0,
    **attrs: str,
) -> Signal:
    """Convenience constructor for explicit (volunteered) signals."""
    return Signal(
        kind=SignalKind.EXPLICIT,
        timestamp=timestamp,
        network=network,
        metric=metric,
        value=value,
        service=service,
        weight=weight,
        attrs=tuple(sorted(attrs.items())),
    )


#: Signal fields held as code columns over a vocabulary of their store.
_FIELDS = ("kind", "network", "service", "metric")
#: Every field of :class:`Signal`, in declaration order.
_SIGNAL_FIELDS = tuple(f.name for f in fields(Signal))
_EPOCH = dt.datetime(1970, 1, 1)
_EPOCH_UTC = _EPOCH.replace(tzinfo=dt.timezone.utc)
_US = dt.timedelta(microseconds=1)
_DAY_US = 86_400_000_000

#: A column of :meth:`SignalSeries.extend_columns`: one value shared by
#: every row, or a dictionary-encoded pair ``(words, index)`` in which
#: row ``i`` holds ``words[index[i]]``.
Column = Union[object, Tuple[Sequence[object], Sequence[int]]]


def _micros(when: dt.datetime) -> Tuple[int, bool]:
    """Microseconds since 1970 and awareness: UTC when aware, wall clock when naive."""
    if when.utcoffset() is None:
        return (when - _EPOCH) // _US, False
    return (when - _EPOCH_UTC) // _US, True


def _stamp_columns(stamps: Sequence[dt.datetime]) -> Dict[str, np.ndarray]:
    """The ``micros``, ``aware`` and ``day`` columns (see :class:`_Columns`) of ``stamps``."""
    offsets = [t.utcoffset() for t in stamps]
    micros = np.array([
        (t - (_EPOCH if o is None else _EPOCH_UTC)) // _US
        for t, o in zip(stamps, offsets)
    ], dtype=np.int64)
    aware = np.array([o is not None for o in offsets], dtype=bool)
    wall = micros
    if aware.any():
        wall = micros + np.array(
            [0 if o is None else o // _US for o in offsets], dtype=np.int64
        )
    return {
        "micros": micros,
        "aware": aware,
        "day": wall // _DAY_US + _EPOCH.toordinal(),
    }


def _lookup(words: Sequence[object], codes: np.ndarray) -> List[object]:
    """``[words[c] for c in codes]``, gathered by numpy."""
    table = np.empty(len(words), dtype=object)
    table[:] = words
    return table[codes].tolist()


class _Vocab:
    """The distinct values of one column, coded in order of arrival."""

    __slots__ = ("index", "words")

    def __init__(self) -> None:
        self.index: Dict[object, int] = {}
        self.words: List[object] = []

    def code(self, word: object) -> int:
        """The word's code; -2, which no row holds, for an unseen word."""
        return self.index.get(word, -2)

    def add(self, word: object) -> int:
        code = self.index.setdefault(word, len(self.index))
        if code == len(self.words):
            self.words.append(word)
        return code

    def encode(self, words: Iterable[object]) -> np.ndarray:
        index = self.index
        codes = [index.setdefault(w, len(index)) for w in words]
        if len(index) > len(self.words):
            self.words = list(index)
        return np.array(codes, dtype=np.int64)

    def encode_at(self, words: Sequence[object], index: np.ndarray) -> np.ndarray:
        """Codes of ``words[index[i]]`` per row ``i``; unseen words arrive in row order.

        Each used entry of ``words`` is looked up once, however many rows
        repeat it, and the vocabulary grows exactly as :meth:`encode`
        over the per-row words would grow it.
        """
        used, first = np.unique(index, return_index=True)
        used = used[np.argsort(first)]
        lut = np.zeros(len(words), dtype=np.int64)
        lut[used] = self.encode([words[i] for i in used.tolist()])
        return lut[index]

    def present(self, codes: np.ndarray) -> np.ndarray:
        """The codes that occur in ``codes`` (-1 = absent), ascending."""
        return np.flatnonzero(
            np.bincount(codes + 1, minlength=len(self.words) + 1)[1:]
        )

    def copy(self) -> "_Vocab":
        vocab = _Vocab()
        vocab.index, vocab.words = dict(self.index), list(self.words)
        return vocab

    def remap(self, other: "_Vocab", codes: np.ndarray) -> np.ndarray:
        """Codes over ``other`` (-1 = absent) recoded over this vocabulary."""
        used = other.present(codes)
        lut = np.full(len(other.words) + 1, -1, dtype=np.int64)
        lut[used + 1] = self.encode([other.words[c] for c in used.tolist()])
        return lut[codes + 1]


class _Columns:
    """Struct-of-arrays over the rows of one signal series.

    ``cols`` holds, per row: ``signal``, the row's ``Signal`` object or,
    until one is built, its timestamp; ``micros`` (int64, see
    :func:`_micros`), ``aware``, ``day`` (the ordinal of
    ``timestamp.date()``, the signal's own wall clock), float64
    ``value`` and ``weight``, and one code column per field of
    :data:`_FIELDS`.  ``attrs`` holds one code column per attr key, -1
    where a row lacks the key.  Every vocabulary belongs to this store,
    so nothing shared across the process grows with the data.  Rows are
    only ever appended, so a row index stays valid as the store grows.
    """

    def __init__(self) -> None:
        self.n = 0
        self.cols: Dict[str, np.ndarray] = {
            "signal": np.empty(0, dtype=object),
            "micros": np.empty(0, dtype=np.int64),
            "aware": np.empty(0, dtype=bool),
            "day": np.empty(0, dtype=np.int64),
            "value": np.empty(0),
            "weight": np.empty(0),
            **{name: np.empty(0, dtype=np.int64) for name in _FIELDS},
        }
        self.vocab = {name: _Vocab() for name in _FIELDS}
        self.attrs: Dict[str, np.ndarray] = {}
        self.attr_vocab: Dict[str, _Vocab] = {}

    def _attr_vocab(self, key: str) -> _Vocab:
        if key not in self.attr_vocab:
            self.attr_vocab[key] = _Vocab()
        return self.attr_vocab[key]

    def extend(self, signals: List[Signal]) -> None:
        """Append one row per signal."""
        objects = np.empty(len(signals), dtype=object)
        objects[:] = signals
        columns = {
            "signal": objects,
            **_stamp_columns([s.timestamp for s in signals]),
            "value": np.array([s.value for s in signals], dtype=float),
            "weight": np.array([s.weight for s in signals], dtype=float),
        }
        for name, words in zip(_FIELDS, (
            [s.kind for s in signals],
            [s.network for s in signals],
            [s.service for s in signals],
            [s.metric for s in signals],
        )):
            columns[name] = self.vocab[name].encode(words)
        # Decompose each distinct attrs tuple once; rows share the result.
        combos = _Vocab()
        combo = combos.encode([s.attrs for s in signals])
        per_key: Dict[str, List[int]] = {}
        for j, pairs in enumerate(combos.words):
            for key, word in pairs:
                if key not in per_key:
                    per_key[key] = [-1] * len(combos.words)
                if per_key[key][j] < 0:  # the first pair per key wins
                    per_key[key][j] = self._attr_vocab(key).add(word)
        self._push(columns, {
            key: np.array(lut, dtype=np.int64)[combo]
            for key, lut in per_key.items()
        })

    def extend_encoded(
        self,
        stamps: Sequence[dt.datetime],
        unit: np.ndarray,
        categorical: Dict[str, Tuple[Sequence[object], np.ndarray]],
        value: np.ndarray,
        weight: np.ndarray,
        attrs: Dict[str, Tuple[Sequence[object], np.ndarray]],
    ) -> None:
        """Append row ``i`` at ``stamps[unit[i]]``, with dictionary-encoded fields and attrs.

        Builds no ``Signal``: each timestamp is converted, and each word
        coded, once per entry of its ``words`` rather than once per row.
        The columns, codes and vocabularies equal what :meth:`extend`
        builds over the same rows as ``Signal`` objects.
        """
        objects = np.empty(len(stamps), dtype=object)
        objects[:] = stamps
        columns = {"signal": objects[unit], "value": value, "weight": weight}
        for name, col in _stamp_columns(stamps).items():
            columns[name] = col[unit]
        for name, (words, index) in categorical.items():
            columns[name] = self.vocab[name].encode_at(words, index)
        self._push(columns, {
            key: self._attr_vocab(key).encode_at(words, index)
            for key, (words, index) in attrs.items()
        })

    def signals(self, rows: np.ndarray) -> List[Signal]:
        """The ``Signal`` of each of ``rows``.

        Rows not built yet are built from their columns, and the new
        objects replace their timestamps in the ``signal`` column.
        """
        objects = self.cols["signal"]
        out = objects[rows].tolist()
        todo = [i for i, o in enumerate(out) if not isinstance(o, Signal)]
        if todo:
            at = rows[todo]
            built = self._build(at, [out[i] for i in todo])
            objects[at] = built
            for i, signal in zip(todo, built):
                out[i] = signal
        return out

    def _build(self, rows: np.ndarray, stamps: List[dt.datetime]) -> List[Signal]:
        """New ``Signal`` objects for ``rows``, read off the columns."""
        kind, network, service, metric = (
            _lookup(self.vocab[name].words, self.cols[name][rows])
            for name in _FIELDS
        )
        built: List[Signal] = []
        for values in zip(
            kind, stamps, network, metric, self.cols["value"][rows].tolist(),
            service, self.cols["weight"][rows].tolist(), self._attr_tuples(rows),
        ):
            signal = object.__new__(Signal)  # validated when the row was appended
            signal.__dict__.update(zip(_SIGNAL_FIELDS, values))
            built.append(signal)
        return built

    def _attr_tuples(self, rows: np.ndarray) -> List[Tuple[Tuple[str, str], ...]]:
        """Each row's ``(key, word)`` pairs sorted by key, one tuple per distinct combination."""
        keys = sorted(self.attrs)
        if not keys:
            return [()] * len(rows)
        codes = np.stack([self.attrs[key][rows] for key in keys], axis=1)
        combos, combo = np.unique(codes, axis=0, return_inverse=True)
        pairs = [
            tuple(
                (key, self.attr_vocab[key].words[c])
                for key, c in zip(keys, row) if c >= 0
            )
            for row in combos.tolist()
        ]
        return [pairs[c] for c in combo.reshape(-1).tolist()]

    def extend_from(self, series: "SignalSeries") -> None:
        """Append the rows of ``series``, recoding them over this store's vocabularies."""
        src = series._store()
        rows = np.arange(src.n) if series._rows is None else series._rows
        first = self.n == 0
        if first:  # adopt copies of the first part's vocabularies and codes
            self.vocab = {name: src.vocab[name].copy() for name in _FIELDS}
            self.attr_vocab = {k: v.copy() for k, v in src.attr_vocab.items()}

        def recode(vocab: _Vocab, theirs: _Vocab, codes: np.ndarray) -> np.ndarray:
            return codes if first else vocab.remap(theirs, codes)

        columns = {
            name: src.cols[name][rows]
            for name in ("signal", "micros", "aware", "day", "value")
        }
        columns["weight"] = series._col("weight")
        for name in _FIELDS:
            columns[name] = recode(
                self.vocab[name], src.vocab[name], src.cols[name][rows]
            )
        self._push(columns, {
            key: recode(self._attr_vocab(key), vocab, src.attrs[key][rows])
            for key, vocab in src.attr_vocab.items()
        })

    def _push(
        self, columns: Dict[str, np.ndarray], attrs: Dict[str, np.ndarray]
    ) -> None:
        n_new = len(columns["value"])
        for key in attrs:
            if key not in self.attrs:
                self.attrs[key] = np.full(self.n, -1, dtype=np.int64)
        for key, codes in self.attrs.items():
            new = attrs.get(key)
            if new is None:
                new = np.full(n_new, -1, dtype=np.int64)
            self.attrs[key] = np.concatenate([codes, new])
        for name, col in columns.items():
            self.cols[name] = np.concatenate([self.cols[name], col])
        self.n += n_new


def _require_signal(signal: object) -> None:
    if not isinstance(signal, Signal):
        raise SchemaError(f"expected Signal, got {type(signal).__name__}")


class SignalSeries:
    """An append-only collection of signals with simple filtering.

    This is the in-memory exchange format between signal *sources*
    (telemetry adapters, social adapters) and the USaaS correlator.

    Rows live in a struct-of-arrays store (:class:`_Columns`).  Rows
    appended as ``Signal`` objects are encoded at the next read, and
    come back from iteration as those same objects.  Rows appended by
    :meth:`extend_columns` go straight into the store, and their
    ``Signal`` objects are built only when the series, or a view of it,
    is iterated.  :meth:`filter` returns a *view*: row indices into the
    same columns.  A view keeps its rows when its parent grows, and
    appending to a view first copies its signals out, as appending to
    any filtered series always did.  Methods with a leading underscore
    are the columnar interface of ``repro.core.usaas`` and
    ``repro.integrity``.
    """

    def __init__(self, signals: Iterable[Signal] = ()) -> None:
        self._columns = _Columns()
        # An owning series' appended Signals that the store has not encoded yet.
        self._pending: List[Signal] = list(signals)
        for signal in self._pending:
            _require_signal(signal)
        # A view's row indices into ``_columns``; None for an owning series.
        self._rows: Optional[np.ndarray] = None
        # A view's weights when they differ from its rows' (bias correction).
        self._weight: Optional[np.ndarray] = None
        # A view's gathered Signals, once iterated.
        self._signals: Optional[List[Signal]] = None

    @classmethod
    def _view(
        cls,
        columns: _Columns,
        rows: np.ndarray,
        weight: Optional[np.ndarray] = None,
    ) -> "SignalSeries":
        view = cls.__new__(cls)
        view._columns = columns
        view._pending = []
        view._rows = rows
        view._weight = weight
        view._signals = None
        return view

    def __len__(self) -> int:
        if self._rows is None:
            return self._columns.n + len(self._pending)
        return len(self._rows)

    def __iter__(self) -> Iterator[Signal]:
        if self._rows is None:
            rows = np.arange(self._columns.n)
            return iter(self._columns.signals(rows) + self._pending)
        if self._signals is None:
            signals = self._columns.signals(self._rows)
            weights = self._col("weight").tolist()
            self._signals = [
                s if s.weight == w else replace(s, weight=w)
                for s, w in zip(signals, weights)
            ]
        return iter(self._signals)

    def _own(self) -> List[Signal]:
        """The pending rows to append to, copying a view's signals out first."""
        if self._rows is not None:
            self._pending = list(self)
            self._columns = _Columns()
            self._rows = self._weight = self._signals = None
        return self._pending

    def append(self, signal: Signal) -> None:
        _require_signal(signal)
        self._own().append(signal)

    def extend(self, signals: Iterable[Signal]) -> None:
        for signal in signals:
            self.append(signal)

    def extend_columns(
        self,
        kind: Column,
        timestamps: Tuple[Sequence[dt.datetime], Sequence[int]],
        network: Column,
        metric: Column,
        values: Sequence[float],
        service: Column = None,
        weight: Union[float, Sequence[float]] = 1.0,
        attrs: Optional[Dict[str, Column]] = None,
    ) -> int:
        """Bulk-append rows given as columns, the analogue of N :meth:`append` calls.

        ``timestamps`` is a pair ``(stamps, unit)``: one timestamp per
        *unit* (a session, a post) and, per row, the index of its unit;
        its length sets the row count.  ``kind``, ``network``,
        ``metric``, ``service`` and each value of ``attrs`` (attr key →
        column) is a :data:`Column`: a scalar shared by every row, or a
        ``(words, index)`` pair, such as per-unit words with ``unit`` or
        per-position words with each row's position in its unit.
        ``values`` and ``weight`` hold one float per row; ``weight`` may
        be a scalar.  A row's attrs are its ``(key, word)`` pairs sorted
        by key, as the ``ImplicitSignal``/``ExplicitSignal``
        constructors sort them.

        Every check runs before anything is appended: the lengths, then
        the checks of :meth:`Signal.__post_init__` with its messages,
        reported for the first failing row.  The rows go straight into
        the column store, each timestamp and word converted once; a
        row's ``Signal`` is built only when it is iterated.  Returns the
        number of rows appended.
        """
        n = len(timestamps[1])

        def sized(name: str, col: np.ndarray) -> np.ndarray:
            if len(col) != n:
                raise SchemaError(
                    f"extend_columns: {name} has length {len(col)}, "
                    f"expected {n}"
                )
            return col

        def pair(name: str, col: Column) -> Tuple[Sequence[object], np.ndarray]:
            if not isinstance(col, tuple):
                return [col], np.zeros(n, dtype=np.int64)
            words, index = col
            index = sized(name, np.asarray(index, dtype=np.int64))
            if n and (index.min() < 0 or index.max() >= len(words)):
                raise SchemaError(
                    f"extend_columns: {name} indexes past its {len(words)} words"
                )
            return words, index

        stamps, unit = pair("timestamps", timestamps)
        categorical = {
            name: pair(name, col)
            for name, col in (("kind", kind), ("network", network), ("metric", metric))
        }
        value_col = sized("values", np.asarray(values, dtype=float))
        categorical["service"] = pair("service", service)
        scalar_weight = isinstance(weight, (int, float))
        weights = (
            np.full(n, float(weight)) if scalar_weight
            else sized("weight", np.asarray(weight, dtype=float))
        )
        attr_cols = {
            key: pair(f"attrs[{key}]", col) for key, col in (attrs or {}).items()
        }

        def first(bad: np.ndarray) -> int:
            """The first row flagged in ``bad``; ``n`` when there is none."""
            return int(np.argmax(bad)) if bad.any() else n

        def empty(words: Sequence[object], index: np.ndarray) -> np.ndarray:
            return np.array([not w for w in words], dtype=bool)[index]

        # The checks of Signal.__post_init__, for the first failing row.
        row, message = min(
            (first(empty(*categorical["network"])), "signal requires a network"),
            (first(empty(*categorical["metric"])), "signal requires a metric name"),
            (first(weights < 0), None),
            key=lambda failure: failure[0],
        )
        if row < n:
            raise SchemaError(message or (
                "weight must be non-negative, got "
                f"{weight if scalar_weight else weight[row]}"
            ))
        if n:
            self._own()
            self._store().extend_encoded(
                stamps, unit, categorical, value_col, weights, attr_cols
            )
        return n

    # -- the columnar interface --------------------------------------------

    def _store(self) -> _Columns:
        """The columns, first extended by the rows appended since the last read."""
        if self._pending:
            self._columns.extend(self._pending)
            self._pending = []
        return self._columns

    def _col(self, name: str) -> np.ndarray:
        """Column ``name`` of :class:`_Columns`, one entry per row of this series."""
        if name == "weight" and self._weight is not None:
            return self._weight
        col = self._store().cols[name]
        return col if self._rows is None else col[self._rows]

    def _field(self, name: str) -> Tuple[np.ndarray, _Vocab]:
        """Codes of field ``name`` (one of :data:`_FIELDS`) and their vocabulary."""
        return self._col(name), self._store().vocab[name]

    def _attr(self, key: str) -> Tuple[np.ndarray, _Vocab]:
        """Codes of attr ``key`` (-1 = absent) and their vocabulary."""
        store = self._store()
        if key not in store.attrs:
            return np.full(len(self), -1, dtype=np.int64), _Vocab()
        codes = store.attrs[key]
        return (codes if self._rows is None else codes[self._rows]), store.attr_vocab[key]

    def _take(
        self, index: np.ndarray, weight: Optional[np.ndarray] = None
    ) -> "SignalSeries":
        """A view of the rows at positions ``index``, optionally reweighted."""
        store = self._store()
        rows = index if self._rows is None else self._rows[index]
        if weight is None and self._weight is not None:
            weight = self._weight[index]
        return SignalSeries._view(store, rows, weight)

    def _day_groups(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per row a day group, numbered in order of first appearance, and each group's day ordinal."""
        day = self._col("day")
        if not len(day):
            return day, day
        offset = day - day.min()
        first = np.full(int(offset.max()) + 1, len(day))
        np.minimum.at(first, offset, np.arange(len(day)))
        seen = np.flatnonzero(first < len(day))
        by_first = seen[np.argsort(first[seen])]
        group = np.empty(len(first), dtype=np.int64)
        group[by_first] = np.arange(len(by_first))
        return group[offset], by_first + day.min()

    def _daily(self) -> Tuple[np.ndarray, np.ndarray]:
        """Day ordinals in order of first appearance and their weighted means.

        ``np.bincount`` adds each bin's weights in row order, so every
        sum is the left-to-right one of the record loop, bit for bit.
        """
        groups, days = self._day_groups()
        value, weight = self._col("value"), self._col("weight")
        sums = np.bincount(groups, weights=value * weight, minlength=len(days))
        totals = np.bincount(groups, weights=weight, minlength=len(days))
        kept = totals > 0
        return days[kept], sums[kept] / totals[kept]

    # -- reads ---------------------------------------------------------------

    def filter(
        self,
        kind: Optional[SignalKind] = None,
        network: Optional[str] = None,
        service: Optional[str] = None,
        metric: Optional[str] = None,
        start: Optional[dt.datetime] = None,
        end: Optional[dt.datetime] = None,
        **attrs: str,
    ) -> "SignalSeries":
        """Return the subset matching every provided criterion.

        Comparing a naive bound with an aware timestamp (or the reverse)
        raises ``TypeError``, for the rows the earlier criteria keep.
        """
        keep = np.ones(len(self), dtype=bool)
        for name, word in zip(_FIELDS, (kind, network, service, metric)):
            if word is not None:
                codes, vocab = self._field(name)
                keep &= codes == vocab.code(word)
        for bound, within in ((start, np.greater_equal), (end, np.less_equal)):
            if bound is not None:
                micros, aware = _micros(bound)
                if (keep & (self._col("aware") != aware)).any():
                    raise TypeError(
                        "can't compare offset-naive and offset-aware datetimes"
                    )
                keep &= within(self._col("micros"), micros)
        for key, word in attrs.items():
            codes, vocab = self._attr(key)
            keep &= codes == (-1 if word is None else vocab.code(word))
        return self._take(np.flatnonzero(keep))

    def metrics(self) -> List[str]:
        """Distinct metric names, sorted."""
        codes, vocab = self._field("metric")
        return sorted(vocab.words[c] for c in vocab.present(codes).tolist())

    def values(self) -> List[float]:
        return self._col("value").tolist()

    def weighted_mean(self) -> float:
        """Weight-aware mean of signal values (sums taken left to right)."""
        if len(self) == 0:
            raise SchemaError("cannot average an empty signal series")
        weight = self._col("weight")
        total_weight = _sequential_sum(weight)
        if total_weight == 0:
            raise SchemaError("all signals have zero weight")
        return _sequential_sum(self._col("value") * weight) / total_weight


def _sequential_sum(x: np.ndarray) -> float:
    """``sum(x)`` added left to right like Python's ``sum`` (``np.sum`` adds pairwise)."""
    return float(np.bincount(np.zeros(len(x), dtype=np.intp), weights=x, minlength=1)[0])


def concat_series(parts: Sequence[SignalSeries]) -> SignalSeries:
    """One series of every row of ``parts`` in order, built from their columns.

    The result owns new columns and vocabularies.  Iterating it yields
    the parts' ``Signal`` objects where they were built, and builds the
    rest from its own columns.
    """
    columns = _Columns()
    for part in parts:
        if len(part):
            columns.extend_from(part)
    return SignalSeries._view(columns, np.arange(columns.n))
