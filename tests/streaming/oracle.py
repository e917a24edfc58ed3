"""Oracles for the stream exports and the per-record stream stages.

:func:`telemetry_stream_records` and :func:`social_stream_records` are
the per-call and per-post loops that
:func:`~repro.telemetry.streams.telemetry_stream` and
:func:`~repro.social.streams.social_stream` ran before they read the
column blocks.  Each one walks the dataset's records and scores every
post with ``analyzer.score``, so no columnar code runs inside an oracle.

:class:`FingerprintDedupFilter`, :class:`ReferenceTrustGate`,
:class:`ReferenceWindowAggregate` and :class:`ReferenceDecayedAggregate`
are the pipeline stages as they ran before the per-delivery path was
trimmed: dedup hashes every delivery and keys on the hex digest, the
gate keeps a dict per key and compares ``f"{metric}:{value!r}"``
tokens, and each operator folds one record per ``on_record`` call.
Both string keys follow the escaped-separator rule of
:func:`~repro.streaming.records.record_fingerprint`.

:class:`HorizonDedupFilter` is the dedup stage as it was before it
learned to forget at the watermark: it remembers every fingerprint for
``horizon_s`` seconds behind the watermark.

:func:`batch_window_aggregates` recomputes every complete sliding
window from the full record list, the batch answer the incremental
:class:`~repro.streaming.operators.SlidingWindowAggregate` must equal.

:func:`emissions_digest` is the digest as it ran before it wrote each
emission's JSON line itself: ``to_dict()`` through a sorted-key
``JSONEncoder`` per emission.  :class:`ReferenceChangePointDetector`
is the detector's per-emission step as it ran before it looked up the
metric's tail once and summed the variance terms from a list.

They live here only so tests can pin the code in ``src/`` against
them; nothing in ``src/`` calls them.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import math
import re
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.usaas.privacy import scrub_author
from repro.integrity.online import SUSPECT_HISTORY_CAP, OnlineTrustGate
from repro.nlp.sentiment import SentimentAnalyzer
from repro.social.corpus import RedditCorpus
from repro.streaming.detector import (
    STD_FLOOR,
    ChangePoint,
    OnlineChangePointDetector,
)
from repro.streaming.operators import (
    DecayedAggregate,
    Emission,
    SlidingWindowAggregate,
)
from repro.streaming.records import StreamRecord
from repro.telemetry.schema import NETWORK_METRICS
from repro.telemetry.store import CallDataset


def telemetry_stream_records(
    dataset: CallDataset,
    epoch: Optional[dt.datetime] = None,
) -> List[StreamRecord]:
    """Flatten a call dataset into event-time-ordered stream records."""
    calls = list(dataset)
    if not calls:
        return []
    if epoch is None:
        epoch = min(call.start for call in calls)
    records: List[StreamRecord] = []
    for call in calls:
        t = (call.start - epoch).total_seconds()
        for p in call.participants:
            key = scrub_author(p.user_id)
            for metric in NETWORK_METRICS:
                records.append(StreamRecord(
                    event_time_s=t,
                    source="telemetry",
                    metric=metric,
                    value=float(p.metric(metric)),
                    key=key,
                    role="network",
                ))
            if p.rating is not None:
                records.append(StreamRecord(
                    event_time_s=t,
                    source="telemetry",
                    metric="rating",
                    value=float(p.rating),
                    key=key,
                    role="experience",
                ))
    records.sort(key=lambda r: (r.event_time_s, r.metric, r.key))
    return records


def social_stream_records(
    corpus: RedditCorpus,
    epoch: Optional[dt.datetime] = None,
    analyzer: Optional[SentimentAnalyzer] = None,
) -> List[StreamRecord]:
    """Flatten a social corpus into event-time-ordered stream records."""
    posts = list(corpus)
    if not posts:
        return []
    if epoch is None:
        epoch = min(post.created for post in posts)
    analyzer = analyzer or SentimentAnalyzer()
    records: List[StreamRecord] = []
    for post in posts:
        t = (post.created - epoch).total_seconds()
        key = scrub_author(post.author)
        records.append(StreamRecord(
            event_time_s=t,
            source="social",
            metric="sentiment_polarity",
            value=float(analyzer.score(post.full_text).polarity),
            key=key,
            role="experience",
        ))
        if post.speed_test is not None:
            records.append(StreamRecord(
                event_time_s=t,
                source="social",
                metric="reported_downlink_mbps",
                value=float(post.speed_test.download_mbps),
                key=key,
                role="network",
            ))
    records.sort(key=lambda r: (r.event_time_s, r.metric, r.key))
    return records


class FingerprintDedupFilter:
    """Duplicate detector keyed on each delivery's SHA-256 fingerprint.

    Same interface and state layout as
    :class:`~repro.streaming.dedup.DedupFilter`, so a pipeline can run
    either one.
    """

    def __init__(self) -> None:
        self._seen: Dict[str, float] = {}
        self._order: Deque[Tuple[float, str]] = deque()
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._seen)

    def seen(self, record: StreamRecord) -> bool:
        fp = record.fingerprint
        if fp in self._seen:
            return True
        self._seen[fp] = record.event_time_s
        self._order.append((record.event_time_s, fp))
        return False

    def evict(self, watermark_s: float) -> int:
        order = self._order
        dropped = 0
        while order and order[0][0] < watermark_s:
            del self._seen[order.popleft()[1]]
            dropped += 1
        self.evicted += dropped
        return dropped

    def state_dict(self) -> Dict[str, Any]:
        return {
            "entries": [[t, fp] for t, fp in self._order],
            "evicted": self.evicted,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self._order = deque(
            (float(t), str(fp)) for t, fp in state.get("entries", [])
        )
        self._seen = {fp: t for t, fp in self._order}
        self.evicted = int(state.get("evicted", 0))


class HorizonDedupFilter(FingerprintDedupFilter):
    """Horizon-bounded duplicate detector (the old dedup rule).

    Forgets a fingerprint only once the watermark is ``horizon_s``
    past its event time.
    """

    def __init__(self, horizon_s: float) -> None:
        super().__init__()
        self.horizon_s = float(horizon_s)

    def evict(self, watermark_s: float) -> int:
        cutoff = watermark_s - self.horizon_s
        dropped = 0
        while self._order and self._order[0][0] < cutoff:
            _, fp = self._order.popleft()
            self._seen.pop(fp, None)
            dropped += 1
        self.evicted += dropped
        return dropped


def _gate_escape(field: str) -> str:
    return field.replace("\\", "\\\\").replace("/", "\\/")


#: A :func:`_gate_escape`-joined ``source/key``: the source ends at the
#: first unescaped ``/``.
_GATE_KEY = re.compile(r"((?:[^\\/]|\\.)*)/(.*)", re.S)
_GATE_ESCAPED = re.compile(r"\\(.)", re.S)


def _gate_split(text: str) -> Tuple[str, str]:
    """The ``(source, key)`` that :func:`_gate_escape` joined."""
    source, key = _GATE_KEY.fullmatch(text).groups()
    return _GATE_ESCAPED.sub(r"\1", source), _GATE_ESCAPED.sub(r"\1", key)


class ReferenceTrustGate(OnlineTrustGate):
    """The gate's per-record state machine: one dict per escaped
    ``source/key`` string and a ``metric:repr(value)`` token per
    payload.  ``burst_active`` is the gate's own; the checkpoint
    columns are split out of those strings."""

    def observe(self, record) -> bool:
        self.observed += 1
        t = float(record.event_time_s)
        key = f"{_gate_escape(record.source)}/{_gate_escape(record.key)}"
        state = self._keys.get(key)
        if state is None:
            state = {"times": deque(), "token": "", "run": 0}
            self._keys[key] = state
        else:
            self._keys.move_to_end(key)
        while len(self._keys) > self.max_keys:
            self._keys.popitem(last=False)
        times: Deque[float] = state["times"]
        times.append(t)
        while times and times[0] < t - self.window_s:
            times.popleft()
        token = f"{record.metric}:{record.value!r}"
        if token == state["token"]:
            state["run"] += 1
        else:
            state["token"] = token
            state["run"] = 1
        verdict = (
            len(times) > self.burst_limit
            or state["run"] > self.repeat_limit
        )
        if verdict:
            self.quarantined += 1
            self._recent_quarantined.append(t)
            while len(self._recent_quarantined) > SUSPECT_HISTORY_CAP:
                self._recent_quarantined.popleft()
        return verdict

    def state_dict(self) -> Dict[str, Any]:
        units = [_gate_split(key) for key in self._keys]
        states = list(self._keys.values())
        # A float's repr holds no ":", so a token's last one ends the
        # metric.
        payloads = [state["token"].rpartition(":") for state in states]
        return {
            "source": [source for source, _ in units],
            "key": [key for _, key in units],
            "metric": [metric for metric, _, _ in payloads],
            "value": [float(value) for _, _, value in payloads],
            "run": [state["run"] for state in states],
            "n_times": [len(state["times"]) for state in states],
            "times": [t for state in states for t in state["times"]],
            "recent_quarantined": list(self._recent_quarantined),
            "observed": self.observed,
            "quarantined": self.quarantined,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        times = iter(state.get("times", []))
        self._keys = OrderedDict()
        for source, key, metric, value, run, n_times in zip(
            state.get("source", []), state.get("key", []),
            state.get("metric", []), state.get("value", []),
            state.get("run", []), state.get("n_times", []),
        ):
            unit = f"{_gate_escape(source)}/{_gate_escape(key)}"
            self._keys[unit] = {
                "times": deque(float(next(times)) for _ in range(n_times)),
                "token": f"{metric}:{float(value)!r}",
                "run": int(run),
            }
        self._recent_quarantined = deque(
            float(t) for t in state.get("recent_quarantined", [])
        )
        self.observed = int(state.get("observed", 0))
        self.quarantined = int(state.get("quarantined", 0))


class ReferenceWindowAggregate(SlidingWindowAggregate):
    """Sliding-window means folded one ``on_record`` call per record."""

    def on_record(self, record: StreamRecord) -> None:
        metric = record.metric
        cells = self._windows.get(metric)
        if cells is None:
            self._roles.setdefault(metric, record.role)
            cells = self._windows[metric] = {}
        t = record.event_time_s
        value = record.value
        slide_s = self.slide_s
        top_s = t + self.window_s
        k = math.floor(t / slide_s) + 1
        while k * slide_s <= top_s:
            cell = cells.get(k)
            if cell is None:
                cells[k] = [0.0 + value, 1.0]
            else:
                cell[0] += value
                cell[1] += 1.0
            k += 1

    def process(
        self, records: List[StreamRecord], watermark_s: float
    ) -> List[Emission]:
        for record in records:
            self.on_record(record)
        return self.on_watermark(watermark_s, inclusive=False)


class ReferenceDecayedAggregate(DecayedAggregate):
    """Decayed means folded one ``on_record`` call per record, with each
    grid sample emitted once the scan passes it."""

    def on_record(self, record: StreamRecord) -> None:
        self._roles.setdefault(record.metric, record.role)
        t = record.event_time_s
        cell = self._state.get(record.metric)
        if cell is None:
            self._state[record.metric] = [record.value, 1.0, t, 1.0]
        else:
            gap = max(0.0, t - cell[2])
            decay = 0.5 ** (gap / self.half_life_s)
            cell[0] = cell[0] * decay + record.value
            cell[1] = cell[1] * decay + 1.0
            cell[2] = t
            cell[3] += 1.0
        if self._next_sample_s is None:
            self._next_sample_s = (
                math.floor(t / self.sample_every_s) + 1
            ) * self.sample_every_s

    def process(
        self, records: List[StreamRecord], watermark_s: float
    ) -> List[Emission]:
        emissions: List[Emission] = []
        i = 0
        if self._next_sample_s is None and records:
            t0 = records[0].event_time_s
            self._next_sample_s = (
                math.floor(t0 / self.sample_every_s) + 1
            ) * self.sample_every_s
        while True:
            s = self._next_sample_s
            if s is None or s >= watermark_s:
                break
            while i < len(records) and records[i].event_time_s <= s:
                self.on_record(records[i])
                i += 1
            for metric in sorted(self._state):
                cell = self._state[metric]
                emissions.append(Emission(
                    at_s=s,
                    operator=self.name,
                    metric=metric,
                    value=cell[0] / cell[1],
                    count=int(cell[3]),
                    role=self._roles.get(metric, "network"),
                ))
            self._next_sample_s = s + self.sample_every_s
        while i < len(records):
            self.on_record(records[i])
            i += 1
        return emissions


def batch_window_aggregates(
    records: Iterable[StreamRecord],
    window_s: float,
    slide_s: float,
) -> Dict[Tuple[str, float], Tuple[float, int]]:
    """Batch recompute of every complete window.

    Scans the *full* record list and returns
    ``(metric, window_end_s) -> (mean, count)`` for exactly the windows
    the incremental operator would close by the final watermark (window
    ends at or before the last event time).
    """
    sums: Dict[Tuple[str, int], List[float]] = {}
    max_t = float("-inf")
    for record in records:
        t = record.event_time_s
        max_t = max(max_t, t)
        k = math.floor(t / slide_s) + 1
        while k * slide_s <= t + window_s:
            cell = sums.setdefault((record.metric, k), [0.0, 0.0])
            cell[0] += record.value
            cell[1] += 1.0
            k += 1
    return {
        (metric, k * slide_s): (cell[0] / cell[1], int(cell[1]))
        for (metric, k), cell in sums.items()
        if k * slide_s <= max_t
    }


def emissions_digest(emissions: List[Emission]) -> str:
    """SHA-256 over one sorted-key JSON line per emission."""
    encode = json.JSONEncoder(sort_keys=True).encode
    blob = "".join([encode(e.to_dict()) + "\n" for e in emissions])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ReferenceChangePointDetector(OnlineChangePointDetector):
    """The detector stepping through ``_window`` and generator sums."""

    def _window(self, metric: str) -> Deque[Tuple[float, float]]:
        tail = self._tails.get(metric)
        if tail is None:
            tail = deque(maxlen=self.reference_n + self.test_n)
            self._tails[metric] = tail
        return tail

    def on_emission(self, emission: Emission) -> Optional[ChangePoint]:
        self.emissions_seen += 1
        metric = f"{emission.metric}:{emission.operator}"
        self._roles.setdefault(metric, emission.role)
        tail = self._window(metric)
        tail.append((emission.at_s, emission.value))
        if len(tail) < self.reference_n + self.test_n:
            return None
        last_cp = self._last_cp_s.get(metric)
        if last_cp is not None and emission.at_s - last_cp < self.min_gap_s:
            return None
        values = [v for _, v in tail]
        ref = values[: self.reference_n]
        test = values[self.reference_n:]
        ref_mean = sum(ref) / len(ref)
        ref_var = sum((v - ref_mean) ** 2 for v in ref) / len(ref)
        ref_std = max(ref_var ** 0.5, STD_FLOOR)
        test_mean = sum(test) / len(test)
        z = (test_mean - ref_mean) / ref_std
        if abs(z) < self.z_threshold:
            return None
        scale = max(abs(ref_mean), ref_std)
        if abs(test_mean - ref_mean) < self.min_shift_frac * scale:
            return None
        role = self._roles[metric]
        attributed_to: Optional[str] = None
        attributed_at: Optional[float] = None
        if role == "experience":
            attributed_to, attributed_at = self._attribute(emission.at_s)
        cp = ChangePoint(
            at_s=emission.at_s,
            metric=metric,
            role=role,
            z_score=z,
            reference_mean=ref_mean,
            test_mean=test_mean,
            shift_at_s=tail[self.reference_n][0],
            attributed_to=attributed_to,
            attributed_at_s=attributed_at,
        )
        self.change_points.append(cp)
        self._last_cp_s[metric] = emission.at_s
        return cp
