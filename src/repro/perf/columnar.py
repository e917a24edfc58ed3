"""Columnar (struct-of-arrays) query layer over the record datasets.

The §3/§4 analyses consume frozen dataclasses record by record; at the
ROADMAP's target scale the *read* path, not the generator, becomes the
bottleneck.  This module converts a :class:`~repro.telemetry.store.CallDataset`
and a Reddit corpus into numpy column blocks **once** — lazily, memoized
on the dataset object, and optionally persisted through the
content-addressed :class:`~repro.perf.cache.ArtifactCache` — so every
engagement curve, signal export and timeline reads contiguous arrays
with zero per-record ``getattr`` loops.

The contract (property-tested in ``tests/perf/test_columnar.py``): the
columns are the *same* float64 values the records carry, so every
analysis built on them is float-for-float identical to a record-at-a-time
loop over the same records (kept in ``tests/`` as oracles).
See ``docs/performance.md`` §6 for the cache-key contract.
"""

from __future__ import annotations

import base64
import datetime as dt
import json
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.timeline import month_of
from repro.errors import SchemaError
from repro.nlp.sentiment import STRONG_THRESHOLD, SentimentAnalyzer, SentimentScores
from repro.telemetry.schema import (
    AGGREGATES,
    ENGAGEMENT_METRICS,
    NETWORK_METRICS,
    ParticipantRecord,
)
from repro.telemetry.store import CallDataset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.cache import ArtifactCache

#: Bump when the on-disk column serialisation changes; persisted blocks
#: from other versions then fail to load and are rebuilt by the cache.
COLUMNS_SCHEMA = 1

#: Attribute used to memoize built columns on the source dataset object.
_MEMO_ATTR = "_columnar_cache"


# -- serialisation helpers -------------------------------------------------


def _encode_f64(arr: np.ndarray) -> str:
    return base64.b64encode(
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
    ).decode("ascii")


def _decode_f64(data: str, n: int, name: str) -> np.ndarray:
    arr = np.frombuffer(base64.b64decode(data), dtype="<f8").copy()
    if len(arr) != n:
        raise SchemaError(f"column {name!r}: expected {n} values, got {len(arr)}")
    return arr


def _encode_i64(arr: np.ndarray) -> str:
    return base64.b64encode(
        np.ascontiguousarray(arr, dtype="<i8").tobytes()
    ).decode("ascii")


def _decode_i64(data: str, n: int, name: str) -> np.ndarray:
    arr = np.frombuffer(base64.b64decode(data), dtype="<i8").copy()
    if len(arr) != n:
        raise SchemaError(f"column {name!r}: expected {n} values, got {len(arr)}")
    return arr


def _encode_bool(arr: np.ndarray) -> str:
    return base64.b64encode(
        np.ascontiguousarray(arr.astype(np.uint8)).tobytes()
    ).decode("ascii")


def _decode_bool(data: str, n: int, name: str) -> np.ndarray:
    arr = np.frombuffer(base64.b64decode(data), dtype=np.uint8)
    if len(arr) != n:
        raise SchemaError(f"column {name!r}: expected {n} values, got {len(arr)}")
    return arr.astype(bool)


def _check_len(name: str, seq: Sequence, n: int) -> Sequence:
    if len(seq) != n:
        raise SchemaError(f"column {name!r}: expected {n} values, got {len(seq)}")
    return seq


# -- participant columns ---------------------------------------------------


@dataclass
class ParticipantColumns:
    """Struct-of-arrays view of participant sessions (plus call start).

    One row per participant session, in dataset order (calls in order,
    participants within each call in order) — the exact order
    :meth:`CallDataset.participants` yields.  Float columns hold the
    identical float64 values the records carry; ``rating`` uses NaN for
    the unrated majority.
    """

    call_id: List[str]
    user_id: List[str]
    platform: List[str]
    country: List[str]
    call_start: List[Optional[dt.datetime]]
    session_duration_s: np.ndarray
    presence_pct: np.ndarray
    cam_on_pct: np.ndarray
    mic_on_pct: np.ndarray
    conditioning: np.ndarray
    dropped_early: np.ndarray
    rating: np.ndarray
    network: Dict[str, Dict[str, np.ndarray]]

    def __len__(self) -> int:
        return len(self.call_id)

    def metric(self, name: str, stat: str = "mean") -> np.ndarray:
        """Column analogue of :meth:`ParticipantRecord.metric`."""
        try:
            return self.network[name][stat]
        except KeyError:
            raise SchemaError(f"no aggregate {name!r}/{stat!r}") from None

    def engagement_values(self, name: str) -> np.ndarray:
        """Engagement column; ``dropped_early`` maps to 0/100, i.e.
        ``100.0 * float(p.dropped_early)`` per record."""
        if name == "dropped_early":
            return self.dropped_early * 100.0
        if name not in ENGAGEMENT_METRICS:
            raise SchemaError(f"unknown engagement metric {name!r}")
        return getattr(self, name)

    def window_mask(self, windows: Iterable) -> np.ndarray:
        """Row mask for sessions inside every condition window.

        Windows are duck-typed (``.metric`` / ``.stat`` / ``.low`` /
        ``.high``) so this layer stays independent of
        :mod:`repro.engagement.cohort`; the comparisons are the exact
        ones :meth:`ConditionWindow.contains` performs.
        """
        mask = np.ones(len(self), dtype=bool)
        for w in windows:
            arr = self.metric(w.metric, w.stat)
            mask &= (arr >= w.low) & (arr <= w.high)
        return mask

    # -- construction ----------------------------------------------------

    @classmethod
    def from_dataset(cls, dataset: CallDataset) -> "ParticipantColumns":
        records: List[ParticipantRecord] = []
        starts: List[Optional[dt.datetime]] = []
        for call in dataset:
            for p in call.participants:
                records.append(p)
                starts.append(call.start)
        return cls.from_records(records, call_starts=starts)

    @classmethod
    def from_records(
        cls,
        records: Sequence[ParticipantRecord],
        call_starts: Optional[Sequence[Optional[dt.datetime]]] = None,
    ) -> "ParticipantColumns":
        n = len(records)
        if call_starts is None:
            call_starts = [None] * n
        elif len(call_starts) != n:
            raise SchemaError(
                f"call_starts has length {len(call_starts)}, expected {n}"
            )
        network: Dict[str, Dict[str, np.ndarray]] = {}
        for m in NETWORK_METRICS:
            network[m] = {
                s: np.fromiter(
                    (p.network[m][s] for p in records), dtype=float, count=n
                )
                for s in AGGREGATES
            }
        return cls(
            call_id=[p.call_id for p in records],
            user_id=[p.user_id for p in records],
            platform=[p.platform for p in records],
            country=[p.country for p in records],
            call_start=list(call_starts),
            session_duration_s=np.fromiter(
                (p.session_duration_s for p in records), dtype=float, count=n
            ),
            presence_pct=np.fromiter(
                (p.presence_pct for p in records), dtype=float, count=n
            ),
            cam_on_pct=np.fromiter(
                (p.cam_on_pct for p in records), dtype=float, count=n
            ),
            mic_on_pct=np.fromiter(
                (p.mic_on_pct for p in records), dtype=float, count=n
            ),
            conditioning=np.fromiter(
                (p.conditioning for p in records), dtype=float, count=n
            ),
            dropped_early=np.fromiter(
                (p.dropped_early for p in records), dtype=bool, count=n
            ),
            rating=np.fromiter(
                (
                    np.nan if p.rating is None else float(p.rating)
                    for p in records
                ),
                dtype=float,
                count=n,
            ),
            network=network,
        )

    # -- persistence -----------------------------------------------------

    def to_jsonl(self, path) -> None:
        from repro.io.jsonl import atomic_writer

        n = len(self)
        with atomic_writer(path) as f:
            f.write(json.dumps(
                {"_columnar": "participants", "schema": COLUMNS_SCHEMA, "n": n}
            ) + "\n")

            def col(name: str, kind: str, data) -> None:
                f.write(json.dumps(
                    {"name": name, "kind": kind, "data": data}
                ) + "\n")

            col("call_id", "str", self.call_id)
            col("user_id", "str", self.user_id)
            col("platform", "str", self.platform)
            col("country", "str", self.country)
            col("call_start", "dt", [
                None if t is None else t.isoformat() for t in self.call_start
            ])
            for name in (
                "session_duration_s", "presence_pct", "cam_on_pct",
                "mic_on_pct", "conditioning", "rating",
            ):
                col(name, "f64", _encode_f64(getattr(self, name)))
            col("dropped_early", "bool", _encode_bool(self.dropped_early))
            for m in NETWORK_METRICS:
                for s in AGGREGATES:
                    col(f"network:{m}:{s}", "f64",
                        _encode_f64(self.network[m][s]))

    @classmethod
    def from_jsonl(cls, path) -> "ParticipantColumns":
        header, columns = _read_columns(path, "participants")

        def str_col(name: str) -> List[str]:
            return list(_check_len(name, columns[name], n))

        try:
            n = int(header["n"])
            network: Dict[str, Dict[str, np.ndarray]] = {}
            for m in NETWORK_METRICS:
                network[m] = {
                    s: _decode_f64(
                        columns[f"network:{m}:{s}"], n, f"network:{m}:{s}"
                    )
                    for s in AGGREGATES
                }
            return cls(
                call_id=str_col("call_id"),
                user_id=str_col("user_id"),
                platform=str_col("platform"),
                country=str_col("country"),
                call_start=[
                    None if t is None else dt.datetime.fromisoformat(t)
                    for t in _check_len("call_start", columns["call_start"], n)
                ],
                session_duration_s=_decode_f64(
                    columns["session_duration_s"], n, "session_duration_s"
                ),
                presence_pct=_decode_f64(columns["presence_pct"], n, "presence_pct"),
                cam_on_pct=_decode_f64(columns["cam_on_pct"], n, "cam_on_pct"),
                mic_on_pct=_decode_f64(columns["mic_on_pct"], n, "mic_on_pct"),
                conditioning=_decode_f64(columns["conditioning"], n, "conditioning"),
                dropped_early=_decode_bool(
                    columns["dropped_early"], n, "dropped_early"
                ),
                rating=_decode_f64(columns["rating"], n, "rating"),
                network=network,
            )
        except KeyError as exc:
            raise SchemaError(f"{path}: missing column {exc}") from exc


# -- sentiment block -------------------------------------------------------


@dataclass
class SentimentBlock:
    """Per-post sentiment as columns, shared by every §4 analysis.

    ``scores`` keeps the exact :class:`SentimentScores` objects (for the
    per-post dict the timeline exposes); the float64 columns are read
    off them, so they hold the identical values and masks computed here
    match per-record property checks bit for bit.
    """

    scores: List[SentimentScores]
    positive: np.ndarray = field(init=False)
    negative: np.ndarray = field(init=False)
    neutral: np.ndarray = field(init=False)
    strong_positive: np.ndarray = field(init=False)
    strong_negative: np.ndarray = field(init=False)
    negative_dominant: np.ndarray = field(init=False)
    polarity: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.scores)
        self.positive = np.fromiter(
            (s.positive for s in self.scores), dtype=float, count=n
        )
        self.negative = np.fromiter(
            (s.negative for s in self.scores), dtype=float, count=n
        )
        self.neutral = np.fromiter(
            (s.neutral for s in self.scores), dtype=float, count=n
        )
        # Same comparisons as SentimentScores.is_strong_* and the outage
        # monitor's `negative <= max(positive, neutral)` reject filter.
        self.strong_positive = self.positive >= STRONG_THRESHOLD
        self.strong_negative = self.negative >= STRONG_THRESHOLD
        self.negative_dominant = (
            (self.negative > self.positive) & (self.negative > self.neutral)
        )
        self.polarity = self.positive - self.negative

    def __len__(self) -> int:
        return len(self.scores)


# -- corpus columns --------------------------------------------------------


@dataclass
class CorpusColumns:
    """Struct-of-arrays view of a social corpus, plus the shared per-day
    index and (lazily) the shared sentiment block.

    One row per post, in corpus order (sorted by ``created``).  The four
    §4 analyses (sentiment timeline, outage monitor, speed tracker,
    fulcrum) all read this one block instead of re-scanning the corpus.
    """

    span_start: dt.date
    span_end: dt.date
    post_id: List[str]
    author: List[str]
    topic: List[str]
    full_text: List[str]
    created: List[dt.datetime]
    day_index: np.ndarray
    month: List[Tuple[int, int]]
    popularity: np.ndarray
    speed_indices: np.ndarray
    posts: Optional[List[Any]] = None
    _sentiment: Optional[SentimentBlock] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.post_id)

    @property
    def n_days(self) -> int:
        return (self.span_end - self.span_start).days + 1

    def speed_share_posts(self) -> List[Any]:
        """The posts carrying speed tests, in corpus order — the columnar
        equivalent of :meth:`RedditCorpus.speed_shares`."""
        if self.posts is None:
            raise SchemaError(
                "corpus columns loaded without posts; attach_posts() first"
            )
        return [self.posts[i] for i in self.speed_indices.tolist()]

    def attach_posts(self, posts: Sequence[Any]) -> None:
        """Re-attach post objects after a cache load (columns persist,
        posts come from the corpus the caller already holds)."""
        if len(posts) != len(self):
            raise SchemaError(
                f"cannot attach {len(posts)} posts to {len(self)} columns"
            )
        self.posts = list(posts)

    def sentiment(self, analyzer: Optional[Any] = None) -> SentimentBlock:
        """Score every post once and share the block.

        With the default analyzer (``None``) the block is memoized on
        this object, so the timeline, the outage monitor, the fulcrum
        and the USaaS social export all reuse one scoring pass.  An
        explicit analyzer — anything with ``score_many``, such as a
        configured :class:`SentimentAnalyzer` or a fallback chain —
        scores fresh.
        """
        if analyzer is None:
            if self._sentiment is None:
                self._sentiment = SentimentBlock(
                    SentimentAnalyzer().score_many(self.full_text)
                )
            return self._sentiment
        return SentimentBlock(analyzer.score_many(self.full_text))

    # -- construction ----------------------------------------------------

    @classmethod
    def from_corpus(cls, corpus) -> "CorpusColumns":
        posts = list(corpus)
        start = corpus.config.span_start
        end = corpus.config.span_end
        n = len(posts)
        created = [p.created for p in posts]
        day_index = np.fromiter(
            ((c.date() - start).days for c in created), dtype=np.int64, count=n
        )
        return cls(
            span_start=start,
            span_end=end,
            post_id=[p.post_id for p in posts],
            author=[p.author for p in posts],
            topic=[p.topic for p in posts],
            full_text=[p.full_text for p in posts],
            created=created,
            day_index=day_index,
            month=[month_of(c.date()) for c in created],
            popularity=np.fromiter(
                (p.popularity for p in posts), dtype=float, count=n
            ),
            speed_indices=np.fromiter(
                (i for i, p in enumerate(posts) if p.speed_test is not None),
                dtype=np.int64,
            ),
            posts=posts,
        )

    # -- persistence -----------------------------------------------------

    def to_jsonl(self, path) -> None:
        from repro.io.jsonl import atomic_writer

        with atomic_writer(path) as f:
            f.write(json.dumps({
                "_columnar": "corpus",
                "schema": COLUMNS_SCHEMA,
                "n": len(self),
                "span_start": self.span_start.isoformat(),
                "span_end": self.span_end.isoformat(),
            }) + "\n")

            def col(name: str, kind: str, data) -> None:
                f.write(json.dumps(
                    {"name": name, "kind": kind, "data": data}
                ) + "\n")

            col("post_id", "str", self.post_id)
            col("author", "str", self.author)
            col("topic", "str", self.topic)
            col("full_text", "str", self.full_text)
            col("created", "dt", [t.isoformat() for t in self.created])
            col("popularity", "f64", _encode_f64(self.popularity))
            col("speed_indices", "i64", _encode_i64(self.speed_indices))

    @classmethod
    def from_jsonl(cls, path) -> "CorpusColumns":
        header, columns = _read_columns(path, "corpus")
        try:
            n = int(header["n"])
            start = dt.date.fromisoformat(header["span_start"])
            end = dt.date.fromisoformat(header["span_end"])
            created = [
                dt.datetime.fromisoformat(t)
                for t in _check_len("created", columns["created"], n)
            ]
            return cls(
                span_start=start,
                span_end=end,
                post_id=list(_check_len("post_id", columns["post_id"], n)),
                author=list(_check_len("author", columns["author"], n)),
                topic=list(_check_len("topic", columns["topic"], n)),
                full_text=list(_check_len("full_text", columns["full_text"], n)),
                created=created,
                day_index=np.fromiter(
                    ((c.date() - start).days for c in created),
                    dtype=np.int64, count=n,
                ),
                month=[month_of(c.date()) for c in created],
                popularity=_decode_f64(columns["popularity"], n, "popularity"),
                speed_indices=np.frombuffer(
                    base64.b64decode(columns["speed_indices"]), dtype="<i8"
                ).copy(),
                posts=None,
            )
        except KeyError as exc:
            raise SchemaError(f"{path}: missing column {exc}") from exc


def _read_columns(path, expected: str) -> Tuple[dict, Dict[str, Any]]:
    """Parse a columnar JSONL file into (header, {name: data})."""
    header: Optional[dict] = None
    columns: Dict[str, Any] = {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise SchemaError(f"{path}:{line_no}: bad JSON: {exc}") from exc
            if header is None:
                if record.get("_columnar") != expected:
                    raise SchemaError(
                        f"{path}: not a {expected!r} columnar file"
                    )
                if record.get("schema") != COLUMNS_SCHEMA:
                    raise SchemaError(
                        f"{path}: columnar schema {record.get('schema')!r}, "
                        f"expected {COLUMNS_SCHEMA}"
                    )
                header = record
                continue
            try:
                columns[record["name"]] = record["data"]
            except KeyError as exc:
                raise SchemaError(
                    f"{path}:{line_no}: column record missing {exc}"
                ) from exc
    if header is None:
        raise SchemaError(f"{path}: missing columnar header line")
    return header, columns


# -- factories (memoized + cacheable) --------------------------------------


ParticipantSource = Union[CallDataset, "ParticipantColumns",
                          Iterable[ParticipantRecord]]


def participant_columns(
    source: ParticipantSource,
    cache: Optional["ArtifactCache"] = None,
    config: Any = None,
) -> ParticipantColumns:
    """Columns for a dataset — built once, memoized on the dataset.

    ``source`` may be a :class:`CallDataset` (memoized on the object,
    invalidated by :meth:`CallDataset.append`), already-built
    :class:`ParticipantColumns` (returned as-is), or any iterable of
    participant records (built ad hoc, no memo).  With ``cache`` and the
    generating ``config``, the block is persisted through the artifact
    cache under kind ``participant-columns`` — ``config`` must be the
    config that produced ``source`` (same fingerprint contract as the
    dataset entry itself).
    """
    if isinstance(source, ParticipantColumns):
        return source
    if isinstance(source, CallDataset):
        token = source.n_participants
        memo = source.__dict__.get(_MEMO_ATTR)
        if memo is not None and memo[0] == token:
            return memo[1]
        if cache is not None and config is not None:
            cols = cache.load_or_build(
                "participant-columns",
                config,
                build=lambda: ParticipantColumns.from_dataset(source),
                load=ParticipantColumns.from_jsonl,
                dump=lambda c, path: c.to_jsonl(path),
            )
        else:
            cols = ParticipantColumns.from_dataset(source)
        source.__dict__[_MEMO_ATTR] = (token, cols)
        return cols
    return ParticipantColumns.from_records(list(source))


def corpus_columns(corpus, cache: Optional["ArtifactCache"] = None) -> CorpusColumns:
    """Columns for a corpus — built once, memoized on the corpus object.

    ``corpus`` is duck-typed (iteration in sorted-post order plus a
    ``config`` with the span) so this layer does not import
    :mod:`repro.social`.  With ``cache``, the block persists under kind
    ``corpus-columns`` keyed by the corpus config; on a cache hit the
    post objects are re-attached from the corpus in hand.
    """
    if isinstance(corpus, CorpusColumns):
        return corpus
    token = len(corpus)
    memo = getattr(corpus, _MEMO_ATTR, None)
    if memo is not None and memo[0] == token:
        return memo[1]
    if cache is not None:
        cols = cache.load_or_build(
            "corpus-columns",
            corpus.config,
            build=lambda: CorpusColumns.from_corpus(corpus),
            load=CorpusColumns.from_jsonl,
            dump=lambda c, path: c.to_jsonl(path),
        )
        if cols.posts is None:
            cols.attach_posts(corpus.posts())
    else:
        cols = CorpusColumns.from_corpus(corpus)
    corpus.__dict__[_MEMO_ATTR] = (token, cols)
    return cols
