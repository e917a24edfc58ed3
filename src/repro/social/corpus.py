"""The corpus generator: two years of r/Starlink, day by day.

For each day the generator:

1. computes the post volume — a base rate that grows with the subscriber
   curve, times the event calendar's multiplier, times transient-outage
   boosts;
2. samples posting authors (verbosity-weighted, §6 bias built in);
3. assigns each post a topic from a day-dependent mix (outage days tilt
   toward outage reports, event windows toward reactions, the roaming
   discovery opens the roaming topic);
4. targets each post's sentiment from the world state (monthly
   conditioned satisfaction, event polarity, personal optimism) and
   renders it through the template engine;
5. draws popularity (upvotes / comments) with heavy tails, boosted for
   strong feelings and big days — which is what makes the §4.1 trend
   miner's popularity weighting meaningful.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.timeline import DailySeries, MonthlySeries, month_of
from repro.errors import ConfigError
from repro.rng import DEFAULT_SEED, derive
from repro.social.authors import Author, AuthorPool, SubscriberPool
from repro.social.events import Event, EventCalendar
from repro.social.reports import sample_speed_test, share_sentiment
from repro.social.schema import Post, SpeedTestShare
from repro.social.textgen import TextGenerator, outage_comment
from repro.starlink.capacity import CapacityModel
from repro.starlink.coverage import Outage, OutageProcess
from repro.starlink.footprint import DEFAULT_FOOTPRINT, Footprint
from repro.starlink.perception import PerceptionModel
from repro.starlink.subscribers import SubscriberModel

if TYPE_CHECKING:
    from repro.perf.cache import ArtifactCache
    from repro.perf.columnar import CorpusColumns


@dataclass(frozen=True)
class CorpusConfig:
    """Corpus generation knobs (defaults match the paper's §4.1 stats).

    ``workers`` must be 1; any other value raises ``ConfigError``.  The
    day loop runs in-process, each day on its own RNG substream
    (``derive(seed, "day", iso_date)``).  The field is excluded from
    the artifact identity.
    """

    seed: int = DEFAULT_SEED
    span_start: dt.date = dt.date(2021, 1, 1)
    span_end: dt.date = dt.date(2022, 12, 31)
    posts_per_week: float = 372.0
    upvotes_per_post: float = 22.0
    comments_per_post: float = 15.3
    speed_share_count: int = 1750
    author_pool_size: int = 4000
    conditioning_mode: str = "cohort"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers != 1:
            raise ConfigError("workers must be 1 (generation is in-process)")
        if self.conditioning_mode not in ("cohort", "single"):
            raise ConfigError(
                f"conditioning_mode must be 'cohort' or 'single', "
                f"got {self.conditioning_mode!r}"
            )
        if self.span_end < self.span_start:
            raise ConfigError("span_end precedes span_start")
        if self.posts_per_week <= 0:
            raise ConfigError("posts_per_week must be positive")
        if self.upvotes_per_post <= 0 or self.comments_per_post <= 0:
            raise ConfigError("popularity targets must be positive")
        if self.speed_share_count < 0:
            raise ConfigError("speed_share_count must be >= 0")


class RedditCorpus:
    """The generated corpus with the query surface the analyses need."""

    def __init__(self, posts: List[Post], config: CorpusConfig) -> None:
        self._posts = sorted(posts, key=lambda p: p.created)
        self._config = config

    def __len__(self) -> int:
        return len(self._posts)

    def __iter__(self) -> Iterator[Post]:
        return iter(self._posts)

    @property
    def config(self) -> CorpusConfig:
        return self._config

    def posts(self) -> List[Post]:
        return list(self._posts)

    def _query_index(
        self,
    ) -> Tuple[Dict[dt.date, List[Post]], List[Post]]:
        """Lazily built (by-day, speed-share) index over the posts.

        Memoized with the same token discipline as the columnar layer's
        per-object memo (``repro.perf.columnar``): the cached index is
        keyed by ``len(self._posts)``, so any hypothetical change in the
        post list invalidates both memos consistently.
        """
        token = len(self._posts)
        memo = self.__dict__.get("_query_index_cache")
        if memo is not None and memo[0] == token:
            return memo[1]
        by_day: Dict[dt.date, List[Post]] = {}
        speed: List[Post] = []
        for post in self._posts:
            by_day.setdefault(post.date, []).append(post)
            if post.speed_test is not None:
                speed.append(post)
        index = (by_day, speed)
        self.__dict__["_query_index_cache"] = (token, index)
        return index

    def posts_on(self, day: dt.date) -> List[Post]:
        return list(self._query_index()[0].get(day, []))

    def speed_shares(self) -> List[Post]:
        return list(self._query_index()[1])

    def weekly_stats(self) -> Dict[str, float]:
        """Average posts / upvotes / comments per week (§4.1 numbers)."""
        n_weeks = ((self._config.span_end - self._config.span_start).days + 1) / 7
        return {
            "posts_per_week": len(self._posts) / n_weeks,
            "upvotes_per_week": sum(p.upvotes for p in self._posts) / n_weeks,
            "comments_per_week": sum(p.n_comments for p in self._posts) / n_weeks,
        }

    def daily_counts(self) -> DailySeries:
        series = DailySeries.zeros(self._config.span_start, self._config.span_end)
        for post in self._posts:
            series.add(post.date)
        return series

    # --- persistence ---------------------------------------------------

    def to_jsonl(self, path) -> None:
        """Write one JSON object per post (plus a header with the config).

        The write is atomic (tmp sibling + ``os.replace``), so a crashed
        export cannot leave a truncated corpus behind.
        """
        import json

        from repro.io.jsonl import atomic_writer

        from repro.social.schema import post_to_record

        with atomic_writer(path) as f:
            f.write(json.dumps({
                "_header": True,
                "seed": self._config.seed,
                "span_start": self._config.span_start.isoformat(),
                "span_end": self._config.span_end.isoformat(),
            }) + "\n")
            for p in self._posts:
                f.write(json.dumps(post_to_record(p)) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "RedditCorpus":
        import json

        from repro.errors import SchemaError
        from repro.social.schema import post_from_record

        posts: List[Post] = []
        config: Optional[CorpusConfig] = None
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise SchemaError(f"{path}:{line_no}: bad JSON: {exc}") from exc
                if record.get("_header"):
                    config = CorpusConfig(
                        seed=record["seed"],
                        span_start=dt.date.fromisoformat(record["span_start"]),
                        span_end=dt.date.fromisoformat(record["span_end"]),
                    )
                    continue
                try:
                    posts.append(post_from_record(record))
                except (KeyError, ValueError, SchemaError) as exc:
                    raise SchemaError(
                        f"{path}:{line_no}: bad record: {exc}"
                    ) from exc
        if config is None:
            raise SchemaError(f"{path}: missing corpus header line")
        return cls(posts, config)


# Topic mix before day-dependent tilts (outages, events, roaming).
# Hoisted to module level so the day loop copies instead of rebuilding.
_BASE_TOPIC_WEIGHTS: Dict[str, float] = {
    "experience_report": 0.20,
    "speed_test_share": 0.0,  # injected separately, see generate()
    "outage_report": 0.02,
    "question": 0.38,
    "setup_story": 0.14,
    "event_reaction": 0.0,
    "roaming": 0.0,
}
_TOPIC_NAMES: Tuple[str, ...] = tuple(_BASE_TOPIC_WEIGHTS)


class CorpusGenerator:
    """Deterministic corpus generation from a :class:`CorpusConfig`."""

    def __init__(
        self,
        config: CorpusConfig = CorpusConfig(),
        capacity: Optional[CapacityModel] = None,
        perception: Optional[PerceptionModel] = None,
        calendar: Optional[EventCalendar] = None,
        outage_process: Optional[OutageProcess] = None,
        footprint: Optional[Footprint] = None,
    ) -> None:
        self._config = config
        self._capacity = capacity or CapacityModel()
        self._perception = perception or PerceptionModel()
        self._calendar = calendar or EventCalendar()
        self._footprint = footprint or DEFAULT_FOOTPRINT
        self._outages = outage_process or OutageProcess(
            span_start=config.span_start,
            span_end=config.span_end,
            seed=config.seed,
        )
        self._textgen = TextGenerator()
        self._speeds: MonthlySeries = self._capacity.median_downlink_mbps()
        self._subscribers = SubscriberModel.reported().monthly()
        # Adoption-weighted ("wheel of time") satisfaction: the community
        # mood each month is the cohort mix's mood, not one shared track.
        # ``conditioning_mode="single"`` is the DESIGN.md ablation: one
        # shared expectation track for everyone, which loses the 2022 Pos
        # recovery (new adopters are what pull sentiment back up).
        if config.conditioning_mode == "cohort":
            self._satisfaction: MonthlySeries = (
                self._perception.cohort_satisfaction(
                    self._speeds, self._subscribers
                )
            )
        else:
            self._satisfaction = self._perception.satisfaction(self._speeds)
        # Per-day-independent ingredients, hoisted out of the day loop:
        # the author pool, the outage pool (indexed by day instead of
        # scanned per day), the base volume curve and the speed-share
        # rate are all deterministic in the config alone.
        self._pool = AuthorPool(
            size=config.author_pool_size,
            seed=config.seed,
            span_start=config.span_start,
            span_end=config.span_end,
        )
        self._outages_by_day: Dict[dt.date, List[Outage]] = {}
        for outage in self._outages.generate():
            self._outages_by_day.setdefault(outage.date, []).append(outage)
        self._base_volume = self._base_daily_volume()
        n_days = len(self._base_volume)
        self._share_rate = config.speed_share_count / max(
            1.0, config.posts_per_week * n_days / 7.0
        )

    # -- day-level ingredients -------------------------------------------

    def _volume_shape(self, day: dt.date) -> float:
        """Unnormalised base-volume shape.

        The subreddit grows with the service, but far sub-linearly — the
        early community was already large relative to the tiny subscriber
        base (enthusiasts without hardware).  A 60/40 constant/sqrt blend
        gives roughly 1.6x growth over the span.
        """
        month = month_of(day)
        subs = self._subscribers.get(month)
        if subs is None:
            subs = min(self._subscribers.values())
        max_subs = max(self._subscribers.values())
        return 0.6 + 0.4 * float(np.sqrt(subs / max_subs))

    def _base_daily_volume(self) -> Dict[dt.date, float]:
        """Per-day base post counts normalised to the weekly target."""
        days = []
        current = self._config.span_start
        one = dt.timedelta(days=1)
        while current <= self._config.span_end:
            days.append(current)
            current += one
        shape = np.array([self._volume_shape(d) for d in days])
        target_total = self._config.posts_per_week * len(days) / 7.0
        scale = target_total / shape.sum()
        return {d: float(s * scale) for d, s in zip(days, shape)}

    def _topic_weights(
        self,
        day: dt.date,
        events: List[Event],
        outages: List[Outage],
    ) -> Dict[str, float]:
        weights = dict(_BASE_TOPIC_WEIGHTS)
        for event in events:
            intensity = event.intensity_on(day)
            if event.kind == "outage":
                weights["outage_report"] += 2.2 * intensity
            elif event.key.startswith(("roaming", "portability")):
                weights["roaming"] += 0.9 * intensity
            else:
                weights["event_reaction"] += 2.5 * intensity
        for outage in outages:
            if not outage.is_headline:
                weights["outage_report"] += 2.5 * outage.severity
        return weights

    def _sentiment_target(
        self,
        rng: np.random.Generator,
        author: Author,
        topic: str,
        day: dt.date,
        events: List[Event],
        outages: List[Outage],
    ) -> float:
        month = month_of(day)
        sat = self._satisfaction[month] if month in self._satisfaction else 0.5
        if np.isnan(sat):
            sat = 0.5
        community = 1.6 * (sat - 0.5)
        personal = 0.35 * author.optimism
        noise = float(rng.normal(0, 0.22))
        if topic == "outage_report":
            severity = max((o.severity for o in outages), default=0.05)
            base = -0.45 - 0.5 * min(1.0, severity * 1.2)
            return float(np.clip(base + 0.15 * author.optimism + noise * 0.5, -1, 1))
        if topic == "event_reaction":
            reacting_to = _strongest_event(day, events)
            base = reacting_to.sentiment if reacting_to else 0.0
            if reacting_to and reacting_to.key == "delivery_delay_email":
                # Waiting customers take it personally.
                if author.waiting_preorder:
                    base -= 0.25
            return float(np.clip(base + personal + noise * 0.6, -1, 1))
        if topic == "roaming":
            return float(np.clip(0.55 + personal + noise, -1, 1))
        if topic in ("question", "setup_story"):
            return float(np.clip(0.05 + 0.3 * personal + noise * 0.5, -1, 1))
        # experience_report
        raw = community + personal + noise
        # §6 bias: extreme-poster personalities amplify their feelings.
        raw *= 1.0 + 0.6 * author.extremity
        return float(np.clip(raw, -1, 1))

    def _popularity(
        self,
        rng: np.random.Generator,
        sentiment: float,
        day_multiplier: float,
    ) -> Tuple[int, int]:
        heat = 1.0 + 0.8 * abs(sentiment) + 0.25 * (day_multiplier - 1.0)
        upvotes = int(
            rng.lognormal(np.log(self._config.upvotes_per_post * heat) - 0.5, 1.0)
        )
        comments = int(
            rng.lognormal(np.log(self._config.comments_per_post * heat) - 0.6, 1.1)
        )
        return max(0, upvotes), max(0, comments)

    # -- main loop ---------------------------------------------------------

    def generate(
        self, cache: Optional["ArtifactCache"] = None
    ) -> RedditCorpus:
        """Generate the full corpus (deterministic in the config).

        Each day is rendered independently on its own RNG substream.
        With ``cache``, the corpus is loaded from (or persisted to) the
        content-addressed artifact cache instead of resimulating.
        """
        if cache is not None:
            return cache.load_or_build(
                "corpus",
                self._config,
                build=self._generate,
                # The JSONL header only carries seed + span, so re-attach
                # the full config the caller actually asked for.
                load=lambda path: RedditCorpus(
                    RedditCorpus.from_jsonl(path).posts(), self._config
                ),
                dump=lambda corpus, path: corpus.to_jsonl(path),
            )
        return self._generate()

    def generate_columns(
        self, cache: Optional["ArtifactCache"] = None
    ) -> "CorpusColumns":
        """Columnar fast path: whole days rendered as array blocks.

        Delegates to :class:`repro.social.vectorized.VectorizedCorpusEngine`
        built on *this* generator's world model (author pool, outage
        index, volume curve), so the two paths share every ingredient.
        Statistically — not byte — equivalent to :meth:`generate`; daily
        post counts and the initial author samples match it
        draw-for-draw.  With
        ``cache``, persists under the distinct ``corpus-columns-vec``
        kind.  The returned columns carry ``posts=None``.
        """
        from repro.social.vectorized import VectorizedCorpusEngine

        engine = VectorizedCorpusEngine(self._config, generator=self)
        return engine.generate_columns(cache=cache)

    def _generate(self) -> RedditCorpus:
        posts: List[Post] = []
        for day, base in self._base_volume.items():
            posts.extend(self._generate_day(day, base))
        return RedditCorpus(posts, self._config)

    def _generate_day(self, day: dt.date, base: float) -> List[Post]:
        """Render one day of the corpus on its own RNG substream.

        Post ids are day-scoped (``t3_<yyyymmdd>-<n>``) so that a day's
        output — ids included — never depends on any other day's volume.
        """
        rng = derive(self._config.seed, "day", day.isoformat())
        events = self._calendar.active_on(day)
        outages_today = self._outages_by_day.get(day, [])
        multiplier = self._calendar.volume_multiplier(day)
        for outage in outages_today:
            if not outage.is_headline:
                multiplier += 2.0 * outage.severity
        n_posts = int(rng.poisson(base * multiplier))
        if n_posts == 0:
            return []
        authors = self._pool.sample(rng, day, n_posts)
        weights = self._topic_weights(day, events, outages_today)
        weights["speed_test_share"] = self._share_rate * sum(
            v for k, v in weights.items() if k != "speed_test_share"
        ) / max(1e-9, (1 - self._share_rate))
        topic_p = np.array([weights[t] for t in _TOPIC_NAMES])
        topic_p = topic_p / topic_p.sum()

        def served(author: Author) -> bool:
            return self._footprint.is_available(author.country, day)

        posts: List[Post] = []
        # Built at the day's first swap, so a day without one never
        # needs an active subscriber.
        swap_pool: Optional[SubscriberPool] = None
        for index, author in enumerate(authors, 1):
            topic = str(rng.choice(_TOPIC_NAMES, p=topic_p))
            first_hand = author.is_subscriber and served(author)
            if topic in ("speed_test_share", "outage_report") and not first_hand:
                # Only hardware owners in served countries can run a
                # speed test or report an outage they experience; swap
                # one in so share volume stays on target.
                if swap_pool is None:
                    swap_pool = self._pool.subscribers_on(day, served)
                author = swap_pool.sample(rng)
            if topic == "experience_report" and not first_hand:
                topic = "question"
            posts.append(
                self._make_post(
                    rng, f"t3_{day:%Y%m%d}-{index:05d}", day, author, topic,
                    events, outages_today, multiplier,
                )
            )
        return posts

    def _make_post(
        self,
        rng: np.random.Generator,
        post_id: str,
        day: dt.date,
        author: Author,
        topic: str,
        events: List[Event],
        outages_today: List[Outage],
        multiplier: float,
    ) -> Post:
        sentiment = self._sentiment_target(
            rng, author, topic, day, events, outages_today
        )
        month = month_of(day)
        context: Dict[str, object] = {"country": author.country}
        speed_test: Optional[SpeedTestShare] = None

        if topic == "speed_test_share":
            median = self._speeds[month] if month in self._speeds else 60.0
            speed_test = sample_speed_test(rng, median)
            sat = self._satisfaction[month]
            if np.isnan(sat):
                sat = 0.5
            sentiment = share_sentiment(
                speed_test.download_mbps, median, float(sat)
            ) + 0.25 * author.optimism + float(rng.normal(0, 0.28))
            sentiment = float(np.clip(sentiment, -1, 1))
            context.update(
                dl=speed_test.download_mbps,
                ul=speed_test.upload_mbps,
                lat=int(speed_test.latency_ms),
                provider=speed_test.provider.replace("_", " ").title(),
            )

        vocabulary: Tuple[str, ...] = ()
        if topic in ("event_reaction", "roaming"):
            reacting_to = _strongest_event(day, events)
            if reacting_to is not None:
                vocabulary = reacting_to.vocabulary

        title, text = self._textgen.generate(
            rng, topic, sentiment, vocabulary=vocabulary, context=context
        )
        upvotes, n_comments = self._popularity(rng, sentiment, multiplier)

        comment_texts: Tuple[str, ...] = ()
        if topic == "outage_report" and outages_today:
            outage = max(outages_today, key=lambda o: o.severity)
            # Big outages draw a flood of me-too confirmations whose
            # volume grows super-linearly with duration (people keep
            # checking back and re-reporting while it stays down).
            expected = outage.severity * outage.duration_h**2.0 * 1.2
            n_confirm = int(rng.poisson(expected))
            countries = _confirmation_countries(rng, outage, self._footprint)
            comment_texts = tuple(
                outage_comment(rng, countries[int(rng.integers(0, len(countries)))])
                for _ in range(n_confirm)
            )
            n_comments = max(n_comments, len(comment_texts))

        return Post(
            post_id=post_id,
            created=dt.datetime.combine(
                day, dt.time(int(rng.integers(0, 24)), int(rng.integers(0, 60)))
            ),
            author=author.handle,
            title=title,
            text=text,
            upvotes=upvotes,
            n_comments=n_comments,
            topic=topic,
            speed_test=speed_test,
            comment_texts=comment_texts,
        )


def _strongest_event(day: dt.date, events: List[Event]) -> Optional[Event]:
    best, best_weight = None, 0.0
    for event in events:
        weight = event.volume_boost * event.intensity_on(day)
        if weight > best_weight:
            best, best_weight = event, weight
    return best


def _confirmation_countries(
    rng: np.random.Generator,
    outage: Outage,
    footprint: Footprint,
) -> List[str]:
    """Countries able to confirm an outage: served ones on that day."""
    served = footprint.available_countries(outage.date)
    n = min(len(served), outage.countries_affected)
    picked = list(rng.choice(served, size=n, replace=False)) if n else ["US"]
    # US reports dominate (the paper counts ~190 from the US alone).
    return ["US"] * max(1, n // 2) + [str(c) for c in picked]
