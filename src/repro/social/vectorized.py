"""Block-vectorized corpus generation — days born columnar.

The record path (:class:`~repro.social.corpus.CorpusGenerator`) renders
one post at a time: ~25 small RNG calls, a ``str.format`` pair and a
:class:`~repro.social.schema.Post` object per post.  This module renders
**whole days at once** and emits :class:`~repro.perf.columnar.CorpusColumns`
directly — per-day array draws, precompiled-template text, no record
objects.

Per-day draw order
------------------

Every day keeps its own substream (``derive(seed, "day", iso_date)``),
exactly like the record path, so no day's draws depend on any other
day.  The first two draws *byte-match* the record path —
the day's post count and its verbosity-weighted author sample are the
identical ``rng.poisson`` / ``rng.choice`` calls — after which draws
happen in documented block order:

1.  post count ``rng.poisson(base * multiplier)`` (identical to record);
2.  author sample ``rng.choice(len(active), n, p)`` (identical);
3.  topic uniforms ``rng.random(n)`` (inverse-CDF over the day's mix);
4.  replacement uniforms ``rng.random(k_swap)`` for speed/outage posts
    whose author lacks served hardware;
5.  sentiment noise ``rng.normal(0, 0.22, n)``;
6.  the speed-test block for the day's share posts: download normals,
    upload uniforms, latency normals, provider uniforms, share noise;
7.  popularity normals (upvotes, then comments);
8.  outage-confirmation counts ``rng.poisson(expected, k_outage)``;
9.  text draws: template uniforms, vocabulary gate + pick uniforms,
    then the nine slot index arrays in fixed order (place, pos, pos2,
    mpos, neg, neg2, mneg, feel, noun);
10. created times (hour, then minute integers).

Equivalence contract
--------------------

Outputs are **statistically equivalent** to the record path — same
processes, same parameters, same per-day substreams; daily post counts
and author identity match it exactly — but not byte-identical beyond
those first two draws (documented order above, inverse-CDF categorical
draws; subscriber swap-ins are re-drawn in block order, so a swapped
post's final author can differ).  Within the vectorized path, output
is byte-identical across runs and cache round-trips (pinned by tests).
Two scope cuts, both documented: outage me-too *comment texts* are not
rendered (``full_text`` never includes comments; ``n_comments`` still
reflects the confirmation flood, so ``popularity`` matches the
process), and ``posts`` stays ``None`` — consumers that need record
objects (thread text, speed-share records) use the record path.
"""

from __future__ import annotations

import datetime as dt
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.timeline import month_of
from repro.perf.columnar import CorpusColumns
from repro.rng import derive
from repro.social.corpus import (
    CorpusConfig,
    CorpusGenerator,
    _strongest_event,
    _TOPIC_NAMES,
)
from repro.social.reports import _PROVIDER_WEIGHTS, _SPREAD_SIGMA
from repro.social.textgen import (
    CompiledTemplate,
    _BANDS,
    _MILD_NEG,
    _MILD_POS,
    _NEG_FEEL,
    _NEG_NOUN,
    _PLACES,
    _STRONG_NEG,
    _STRONG_POS,
    _TEMPLATES,
    _nearest_band,
    compile_template,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.cache import ArtifactCache

_TOPIC_IDX = {name: i for i, name in enumerate(_TOPIC_NAMES)}
_EXPERIENCE = _TOPIC_IDX["experience_report"]
_SPEED = _TOPIC_IDX["speed_test_share"]
_OUTAGE = _TOPIC_IDX["outage_report"]
_QUESTION = _TOPIC_IDX["question"]
_SETUP = _TOPIC_IDX["setup_story"]
_EVENT = _TOPIC_IDX["event_reaction"]
_ROAMING = _TOPIC_IDX["roaming"]

#: The nine vocabulary slots drawn per post, in draw order.
_SLOT_VOCAB: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("place", _PLACES),
    ("pos", _STRONG_POS),
    ("pos2", _STRONG_POS),
    ("mpos", _MILD_POS),
    ("neg", _STRONG_NEG),
    ("neg2", _STRONG_NEG),
    ("mneg", _MILD_NEG),
    ("feel", _NEG_FEEL),
    ("noun", _NEG_NOUN),
)


def _render_cols(
    parts: CompiledTemplate, cols: Dict[str, List[str]], i: int
) -> str:
    """Render one compiled template row against per-day slot columns."""
    out: List[str] = []
    for literal, field in parts:
        if literal:
            out.append(literal)
        if field is not None:
            out.append(cols[field][i])
    return "".join(out)


class VectorizedCorpusEngine:
    """Batch engine producing :class:`CorpusColumns` from a corpus config.

    Mirrors :class:`CorpusGenerator`'s world model — it *reuses* the
    generator's hoisted ingredients (author pool, outage index, volume
    curve, satisfaction track) so the two paths can never drift apart —
    and replaces the per-post loop with the block draw order documented
    in the module docstring.
    """

    def __init__(
        self,
        config: CorpusConfig = CorpusConfig(),
        generator: Optional[CorpusGenerator] = None,
    ) -> None:
        self._gen = generator if generator is not None else CorpusGenerator(config)
        cfg = self._gen._config
        self._config = cfg
        span_start = cfg.span_start

        authors = self._gen._pool.active_on(cfg.span_end)
        self._handles = [a.handle for a in authors]
        self._countries = [a.country for a in authors]
        self._joined = np.array(
            [(a.joined - span_start).days for a in authors], dtype=np.int64
        )
        self._verbosity = np.array([a.verbosity for a in authors])
        self._optimism = np.array([a.optimism for a in authors])
        self._extremity = np.array([a.extremity for a in authors])
        self._is_subscriber = np.array(
            [a.is_subscriber for a in authors], dtype=bool
        )
        self._waiting = np.array(
            [a.waiting_preorder for a in authors], dtype=bool
        )
        # Per-author service-start day offset (beyond-span for countries
        # the footprint never serves) — `served` becomes one comparison.
        never = (cfg.span_end - span_start).days + 2
        service = self._gen._footprint.service_start
        self._serve_start = np.array(
            [
                (service[a.country] - span_start).days
                if a.country in service else never
                for a in authors
            ],
            dtype=np.int64,
        )

        # (topic, band) -> compiled template group, with the record
        # path's nearest-band fallback resolved once up front.
        self._templates: List[
            List[List[Tuple[CompiledTemplate, CompiledTemplate]]]
        ] = []
        for topic in _TOPIC_NAMES:
            bands = _TEMPLATES[topic]
            row = []
            for band in _BANDS:
                use = band if band in bands else _nearest_band(band, bands)
                row.append(
                    [
                        (compile_template(t), compile_template(b))
                        for t, b in bands[use]
                    ]
                )
            self._templates.append(row)

        weights = np.array([w for _, w in _PROVIDER_WEIGHTS])
        self._provider_cdf = np.cumsum(weights / weights.sum())
        self._provider_names = [
            n.replace("_", " ").title() for n, _ in _PROVIDER_WEIGHTS
        ]

    @property
    def config(self) -> CorpusConfig:
        return self._config

    # -- entry point -----------------------------------------------------

    def generate_columns(
        self, cache: Optional["ArtifactCache"] = None
    ) -> CorpusColumns:
        """Build (or load) the corpus as one columns block.

        With ``cache``, the block persists under kind
        ``corpus-columns-vec`` — distinct from the record-derived
        ``corpus-columns`` kind, because the two paths are
        statistically, not byte, equivalent.  ``posts`` is always
        ``None`` on this path.
        """
        if cache is not None:
            return cache.load_or_build(
                "corpus-columns-vec",
                self._config,
                build=self._build,
                load=CorpusColumns.from_jsonl,
                dump=lambda cols, path: cols.to_jsonl(path),
            )
        return self._build()

    def _build(self) -> CorpusColumns:
        days = list(self._gen._base_volume.items())
        return _sorted_by_created(self._simulate_days(days))

    def _simulate_days(
        self, items: Sequence[Tuple[dt.date, float]]
    ) -> CorpusColumns:
        post_id: List[str] = []
        author: List[str] = []
        topic: List[str] = []
        full_text: List[str] = []
        created: List[dt.datetime] = []
        month: List[Tuple[int, int]] = []
        day_chunks: List[np.ndarray] = []
        pop_chunks: List[np.ndarray] = []
        speed_chunks: List[np.ndarray] = []
        for day, base in items:
            piece = self._day_columns(day, base)
            if piece is None:
                continue
            post_id.extend(piece["post_id"])
            author.extend(piece["author"])
            topic.extend(piece["topic"])
            full_text.extend(piece["full_text"])
            created.extend(piece["created"])
            month.extend(piece["month"])
            day_chunks.append(piece["day_index"])
            pop_chunks.append(piece["popularity"])
            speed_chunks.append(piece["speed_mask"])
        if day_chunks:
            day_index = np.concatenate(day_chunks)
            popularity = np.concatenate(pop_chunks)
            speed_indices = np.flatnonzero(np.concatenate(speed_chunks))
        else:
            day_index = np.empty(0, dtype=np.int64)
            popularity = np.empty(0)
            speed_indices = np.empty(0, dtype=np.int64)
        return CorpusColumns(
            span_start=self._config.span_start,
            span_end=self._config.span_end,
            post_id=post_id,
            author=author,
            topic=topic,
            full_text=full_text,
            created=created,
            day_index=day_index,
            month=month,
            popularity=popularity,
            speed_indices=speed_indices,
            posts=None,
        )

    # -- one day ---------------------------------------------------------

    def _day_columns(
        self, day: dt.date, base: float
    ) -> Optional[Dict[str, object]]:
        cfg = self._config
        gen = self._gen
        rng = derive(cfg.seed, "day", day.isoformat())
        events = gen._calendar.active_on(day)
        outages_today = gen._outages_by_day.get(day, [])
        multiplier = gen._calendar.volume_multiplier(day)
        for outage in outages_today:
            if not outage.is_headline:
                multiplier += 2.0 * outage.severity

        # 1-2. Post count and author sample: identical record-path draws.
        n = int(rng.poisson(base * multiplier))
        if n == 0:
            return None
        day_off = (day - cfg.span_start).days
        active = np.flatnonzero(self._joined <= day_off)
        weights = self._verbosity[active]
        author_idx = active[
            rng.choice(len(active), size=n, p=weights / weights.sum())
        ]

        # 3. Topics (inverse CDF over the day's weighted mix).
        topic_weights = gen._topic_weights(day, events, outages_today)
        topic_weights["speed_test_share"] = gen._share_rate * sum(
            v for k, v in topic_weights.items() if k != "speed_test_share"
        ) / max(1e-9, (1 - gen._share_rate))
        topic_p = np.array([topic_weights[t] for t in _TOPIC_NAMES])
        topic_cdf = np.cumsum(topic_p / topic_p.sum())
        topic_idx = np.minimum(
            topic_cdf.searchsorted(rng.random(n), side="right"),
            len(_TOPIC_NAMES) - 1,
        )

        # 4. First-hand gating: swap in served subscribers for
        # speed/outage posts, downgrade unserved experience reports.
        served = self._serve_start[author_idx] <= day_off
        first_hand = self._is_subscriber[author_idx] & served
        need_sub = (
            (topic_idx == _SPEED) | (topic_idx == _OUTAGE)
        ) & ~first_hand
        k_swap = int(need_sub.sum())
        if k_swap:
            u = rng.random(k_swap)
            pool = np.flatnonzero(
                (self._joined <= day_off)
                & self._is_subscriber
                & (self._serve_start <= day_off)
            )
            if len(pool) == 0:
                pool = np.flatnonzero(
                    (self._joined <= day_off) & self._is_subscriber
                )
            cum = np.cumsum(self._verbosity[pool])
            author_idx[need_sub] = pool[
                np.minimum(
                    cum.searchsorted(u * cum[-1], side="right"),
                    len(pool) - 1,
                )
            ]
        topic_idx = np.where(
            (topic_idx == _EXPERIENCE) & ~first_hand, _QUESTION, topic_idx
        )

        # 5. Sentiment targets (record formulas, masked by topic).
        month = month_of(day)
        sat = (
            gen._satisfaction[month]
            if month in gen._satisfaction else 0.5
        )
        if np.isnan(sat):
            sat = 0.5
        opt = self._optimism[author_idx]
        noise = rng.normal(0.0, 0.22, n)
        community = 1.6 * (float(sat) - 0.5)
        sentiment = (community + 0.35 * opt + noise) * (
            1.0 + 0.6 * self._extremity[author_idx]
        )
        qs = (topic_idx == _QUESTION) | (topic_idx == _SETUP)
        sentiment = np.where(qs, 0.05 + 0.105 * opt + 0.5 * noise, sentiment)
        sentiment = np.where(
            topic_idx == _ROAMING, 0.55 + 0.35 * opt + noise, sentiment
        )
        strongest = _strongest_event(day, events)
        event_base = strongest.sentiment if strongest is not None else 0.0
        event_shift = np.where(
            self._waiting[author_idx]
            & (strongest is not None and strongest.key == "delivery_delay_email"),
            event_base - 0.25,
            event_base,
        )
        sentiment = np.where(
            topic_idx == _EVENT, event_shift + 0.35 * opt + 0.6 * noise,
            sentiment,
        )
        out_mask = topic_idx == _OUTAGE
        severity = max((o.severity for o in outages_today), default=0.05)
        outage_base = -0.45 - 0.5 * min(1.0, severity * 1.2)
        sentiment = np.where(
            out_mask, outage_base + 0.15 * opt + 0.5 * noise, sentiment
        )
        sentiment = np.minimum(1.0, np.maximum(-1.0, sentiment))

        # 6. The day's speed tests (shared draws, sentiment overwrite).
        speed_mask = topic_idx == _SPEED
        speed_rows = np.flatnonzero(speed_mask)
        k_speed = len(speed_rows)
        dl_col = ["80"] * n
        ul_col = ["12"] * n
        lat_col = ["40"] * n
        provider_col = ["Speedtest"] * n
        if k_speed:
            median = (
                gen._speeds[month] if month in gen._speeds else 60.0
            )
            dl = np.minimum(
                350.0,
                np.maximum(
                    1.0,
                    median * np.exp(rng.normal(0.0, _SPREAD_SIGMA, k_speed)),
                ),
            )
            ul = np.maximum(0.5, dl * rng.uniform(0.08, 0.2, k_speed))
            lat = np.round(
                np.minimum(
                    150.0,
                    np.maximum(
                        18.0,
                        np.exp(
                            np.log(38.0)
                            + 0.3 * rng.standard_normal(k_speed)
                        ),
                    ),
                )
            ).astype(np.int64)
            provider = np.minimum(
                self._provider_cdf.searchsorted(
                    rng.random(k_speed), side="right"
                ),
                len(self._provider_names) - 1,
            )
            dl_r = np.round(dl, 1)
            ul_r = np.round(ul, 1)
            share = np.minimum(
                1.0,
                np.maximum(
                    -1.0,
                    3.0 * (float(sat) - 0.52) + 0.55 * np.log(dl_r / median),
                ),
            )
            sentiment[speed_rows] = np.minimum(
                1.0,
                np.maximum(
                    -1.0,
                    share
                    + 0.25 * opt[speed_rows]
                    + rng.normal(0.0, 0.28, k_speed),
                ),
            )
            for j, row in enumerate(speed_rows.tolist()):
                dl_col[row] = str(float(dl_r[j]))
                ul_col[row] = str(float(ul_r[j]))
                lat_col[row] = str(int(lat[j]))
                provider_col[row] = self._provider_names[int(provider[j])]

        # 7. Popularity (lognormal via bulk standard normals).
        heat = 1.0 + 0.8 * np.abs(sentiment) + 0.25 * (multiplier - 1.0)
        upvotes = np.floor(
            np.exp(
                np.log(cfg.upvotes_per_post * heat)
                - 0.5
                + rng.standard_normal(n)
            )
        ).astype(np.int64)
        comments = np.floor(
            np.exp(
                np.log(cfg.comments_per_post * heat)
                - 0.6
                + 1.1 * rng.standard_normal(n)
            )
        ).astype(np.int64)

        # 8. Outage-confirmation floods raise comment counts (the
        # me-too texts themselves are a record-path-only detail).
        k_outage = int(out_mask.sum())
        if outages_today and k_outage:
            worst = max(outages_today, key=lambda o: o.severity)
            expected = worst.severity * worst.duration_h**2.0 * 1.2
            comments[out_mask] = np.maximum(
                comments[out_mask], rng.poisson(expected, k_outage)
            )

        # 9. Text: template picks, vocabulary, slot indices, then a
        # render pass over precompiled parts.
        band_idx = (
            (sentiment > -0.45).astype(np.int64)
            + (sentiment > -0.15)
            + (sentiment >= 0.15)
            + (sentiment >= 0.45)
        )
        template_u = rng.random(n)
        vocab_gate = rng.random(n)
        vocab_pick = rng.random(n)
        slot_cols: Dict[str, List[str]] = {}
        for name, vocab in _SLOT_VOCAB:
            idx = rng.integers(0, len(vocab), n)
            slot_cols[name] = [vocab[i] for i in idx.tolist()]

        vocabulary = (
            strongest.vocabulary
            if strongest is not None else ()
        )
        vocab_col = ["update"] * n
        if vocabulary:
            uses_vocab = (topic_idx == _EVENT) | (topic_idx == _ROAMING)
            for row in np.flatnonzero(uses_vocab).tolist():
                if vocab_gate[row] < 0.6:
                    vocab_col[row] = str(vocabulary[0])
                else:
                    vocab_col[row] = str(
                        vocabulary[int(vocab_pick[row] * len(vocabulary))]
                    )
        slot_cols["vocab"] = vocab_col
        slot_cols["country"] = [
            self._countries[a] for a in author_idx.tolist()
        ]
        slot_cols["dl"] = dl_col
        slot_cols["ul"] = ul_col
        slot_cols["lat"] = lat_col
        slot_cols["provider"] = provider_col

        full_text: List[str] = []
        topics = topic_idx.tolist()
        bands = band_idx.tolist()
        t_u = template_u.tolist()
        for i in range(n):
            options = self._templates[topics[i]][bands[i]]
            title_parts, body_parts = options[int(t_u[i] * len(options))]
            title = _render_cols(title_parts, slot_cols, i)
            body = _render_cols(body_parts, slot_cols, i)
            full_text.append(f"{title}. {body}")

        # 10. Created times.
        hours = rng.integers(0, 24, n).tolist()
        minutes = rng.integers(0, 60, n).tolist()
        created = [
            dt.datetime(day.year, day.month, day.day, h, m)
            for h, m in zip(hours, minutes)
        ]

        return {
            "post_id": [f"t3_{day:%Y%m%d}-{i:05d}" for i in range(1, n + 1)],
            "author": [self._handles[a] for a in author_idx.tolist()],
            "topic": [_TOPIC_NAMES[t] for t in topics],
            "full_text": full_text,
            "created": created,
            "month": [month] * n,
            "day_index": np.full(n, day_off, dtype=np.int64),
            "popularity": (upvotes + comments).astype(float),
            "speed_mask": speed_mask,
        }


def _sorted_by_created(cols: CorpusColumns) -> CorpusColumns:
    """Reorder a day-ordered block into corpus order (stable by ``created``).

    The record path sorts posts by timestamp with Python's stable sort;
    same-minute ties keep day-generation order, which is exactly what a
    stable argsort over minute offsets reproduces.
    """
    n = len(cols)
    minutes = cols.day_index * 1440 + np.fromiter(
        ((c.hour * 60 + c.minute) for c in cols.created),
        dtype=np.int64,
        count=n,
    )
    order = np.argsort(minutes, kind="stable")
    if np.array_equal(order, np.arange(n)):
        return cols
    inverse = np.empty_like(order)
    inverse[order] = np.arange(n)
    picks = order.tolist()
    return CorpusColumns(
        span_start=cols.span_start,
        span_end=cols.span_end,
        post_id=[cols.post_id[i] for i in picks],
        author=[cols.author[i] for i in picks],
        topic=[cols.topic[i] for i in picks],
        full_text=[cols.full_text[i] for i in picks],
        created=[cols.created[i] for i in picks],
        day_index=cols.day_index[order],
        month=[cols.month[i] for i in picks],
        popularity=cols.popularity[order],
        speed_indices=np.sort(inverse[cols.speed_indices]),
        posts=None,
    )
