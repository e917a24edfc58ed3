"""Record-at-a-time oracles for the columnar USaaS paths.

These are the per-``Signal`` loops that ``SignalSeries``,
``BiasCorrector``, ``PrivacyGuard``, ``correlate_series``,
``score_signal_units``, ``watch_metric`` and ``UsaasService`` ran before
their reads moved onto columns, plus the per-record signal exports
(:func:`telemetry_signals_records`, :func:`social_signals_records`) that
``telemetry_signals`` / ``social_signals`` replaced, and the per-row
``Signal`` construction that ``SignalSeries.extend_columns`` replaced
(:func:`extend_columns_records`).  They live here only so tests can pin
the columnar results ``==`` against them; nothing in ``src/`` calls
them.  Each one takes and returns plain records or
lists of ``Signal`` objects, so no columnar code runs inside an oracle.
"""

from __future__ import annotations

import datetime as dt
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.signals import (
    ExplicitSignal,
    ImplicitSignal,
    Signal,
    SignalKind,
    SignalSeries,
)
from repro.core.stats import pearson, trimmed_mean
from repro.core.usaas.correlator import CorrelationFinding
from repro.core.usaas.insights import Insight, confidence_from
from repro.core.usaas.monitoring import Alarm
from repro.core.usaas.privacy import PrivacyGuard, is_scrubbed, scrub_author
from repro.core.usaas.query import UsaasQuery
from repro.core.usaas.service import (
    ComparisonReport,
    GatherResult,
    MetricComparison,
    UsaasReport,
    UsaasService,
)
from repro.core.usaas.summarize import summarize_insights
from repro.engagement.early_warning import DriftDetector
from repro.errors import (
    AnalysisError,
    PrivacyError,
    QueryError,
    SchemaError,
)
from repro.integrity.report import build_section
from repro.integrity.trust import (
    BURST_DAY_POSTS,
    FRAUD_CONSTANT_FRAC,
    FRAUD_MIN_RATINGS,
    TrustScore,
    contamination_estimate,
)
from repro.nlp.sentiment import SentimentAnalyzer


def telemetry_signals_records(
    dataset, network: str, service: str = "teams", network_of=None
) -> SignalSeries:
    """Per-participant export; ``network_of(p)`` overrides ``network``."""
    series = SignalSeries()
    for call in dataset:
        for p in call.participants:
            net = network_of(p) if network_of is not None else network
            author = scrub_author(p.user_id)
            common = dict(
                service=service,
                platform=p.platform,
                country=p.country,
                user=author,
            )
            ts = call.start
            series.append(ImplicitSignal(ts, net, "presence", p.presence_pct, **common))
            series.append(ImplicitSignal(ts, net, "cam_on", p.cam_on_pct, **common))
            series.append(ImplicitSignal(ts, net, "mic_on", p.mic_on_pct, **common))
            series.append(
                ImplicitSignal(ts, net, "drop_off", 100.0 * p.dropped_early, **common)
            )
            if p.rating is not None:
                series.append(
                    ExplicitSignal(ts, net, "rating", float(p.rating), **common)
                )
    return series


def social_signals_records(
    corpus,
    network: str = "starlink",
    analyzer=None,
    service_of_topic=None,
) -> SignalSeries:
    """Per-post export, scoring each post with ``analyzer.score``."""
    analyzer = analyzer or SentimentAnalyzer()
    series = SignalSeries()
    for post in corpus:
        s = analyzer.score(post.full_text)
        service = (service_of_topic or {}).get(post.topic)
        series.append(
            ExplicitSignal(
                post.created,
                network,
                "sentiment_polarity",
                s.polarity,
                service=service,
                weight=max(1.0, post.popularity),
                user=scrub_author(post.author),
                topic=post.topic,
            )
        )
        if post.speed_test is not None:
            series.append(
                ExplicitSignal(
                    post.created,
                    network,
                    "reported_downlink_mbps",
                    post.speed_test.download_mbps,
                    user=scrub_author(post.author),
                    topic=post.topic,
                )
            )
    return series


def extend_columns_records(
    kind, timestamps, network, metric, values, service=None, weight=1.0,
    attrs=None,
) -> List[Signal]:
    """``SignalSeries.extend_columns`` arguments as ``Signal`` objects, row by row."""
    stamps, unit = timestamps
    n = len(unit)

    def per_row(col):
        if isinstance(col, tuple):
            words, index = col
            return [words[i] for i in index]
        return [col] * n

    weights = [weight] * n if isinstance(weight, (int, float)) else list(weight)
    attrs = attrs or {}
    attr_words = [per_row(col) for col in attrs.values()]
    return [
        Signal(
            kind=kind_i, timestamp=stamps[unit_i], network=network_i,
            metric=metric_i, value=value_i, service=service_i,
            weight=weight_i,
            attrs=tuple(sorted(zip(attrs, [words[i] for words in attr_words]))),
        )
        for i, (kind_i, unit_i, network_i, metric_i, value_i, service_i, weight_i)
        in enumerate(zip(
            per_row(kind), unit, per_row(network), per_row(metric), values,
            per_row(service), weights,
        ))
    ]


def signal_attr(signal: Signal, key: str) -> Optional[str]:
    """A signal's ``key`` attribute (the first pair per key), or None."""
    for k, v in signal.attrs:
        if k == key:
            return v
    return None


def filter_records(
    signals,
    kind=None,
    network=None,
    service=None,
    metric=None,
    start=None,
    end=None,
    **attrs,
) -> List[Signal]:
    def keep(s: Signal) -> bool:
        if kind is not None and s.kind is not kind:
            return False
        if network is not None and s.network != network:
            return False
        if service is not None and s.service != service:
            return False
        if metric is not None and s.metric != metric:
            return False
        if start is not None and s.timestamp < start:
            return False
        if end is not None and s.timestamp > end:
            return False
        return all(signal_attr(s, k) == v for k, v in attrs.items())

    return [s for s in signals if keep(s)]


def weighted_mean_records(signals: List[Signal]) -> float:
    if not signals:
        raise SchemaError("cannot average an empty signal series")
    total_weight = sum(s.weight for s in signals)
    if total_weight == 0:
        raise SchemaError("all signals have zero weight")
    return sum(s.value * s.weight for s in signals) / total_weight


def daily_mean_records(signals: List[Signal]) -> Dict[dt.date, float]:
    sums: Dict[dt.date, float] = {}
    weights: Dict[dt.date, float] = {}
    for s in signals:
        sums[s.date] = sums.get(s.date, 0.0) + s.value * s.weight
        weights[s.date] = weights.get(s.date, 0.0) + s.weight
    return {day: sums[day] / weights[day] for day in sums if weights[day] > 0}


def bias_records(corrector, signals: List[Signal]) -> List[Signal]:
    signals = list(signals)
    if not signals:
        return []
    if corrector.per_author_daily_cap > 0:
        seen: Dict[Tuple[str, object], int] = {}
        kept: List[Signal] = []
        for signal in signals:
            key = (signal_attr(signal, "user") or "?", signal.date)
            seen[key] = seen.get(key, 0) + 1
            if seen[key] <= corrector.per_author_daily_cap:
                kept.append(signal)
        signals = kept
    if corrector.weight_cap_quantile < 1 and signals:
        weights = np.array([s.weight for s in signals])
        cap = max(float(np.quantile(weights, corrector.weight_cap_quantile)), 1.0)
        signals = [
            Signal(
                kind=s.kind, timestamp=s.timestamp, network=s.network,
                metric=s.metric, value=s.value, service=s.service,
                weight=min(s.weight, cap), attrs=s.attrs,
            )
            for s in signals
        ]
    return signals


def distinct_users_records(signals: List[Signal]) -> int:
    return len({signal_attr(s, "user") for s in signals if signal_attr(s, "user")})


def check_records(guard: PrivacyGuard, signals, context: str = "aggregate") -> None:
    users = distinct_users_records(signals)
    if users < guard.min_users:
        raise PrivacyError(
            f"{context}: only {users} distinct users "
            f"(floor is {guard.min_users})"
        )


def assert_scrubbed_records(signals) -> None:
    for signal in signals:
        user = signal_attr(signal, "user")
        if user and not is_scrubbed(user):
            raise PrivacyError(
                f"signal at {signal.timestamp} carries raw identifier"
            )


def _joined(a_daily, b_daily, lag_days):
    xs: List[float] = []
    ys: List[float] = []
    lag = dt.timedelta(days=lag_days)
    for day, value in a_daily.items():
        shifted = day + lag
        if shifted in b_daily:
            xs.append(value)
            ys.append(b_daily[shifted])
    return np.asarray(xs), np.asarray(ys)


def correlate_records(
    a, b, metric_a, metric_b, max_lag_days=3, min_overlap_days=10
) -> CorrelationFinding:
    if max_lag_days < 0:
        raise AnalysisError("max_lag_days must be >= 0")
    a_daily = daily_mean_records(filter_records(a, metric=metric_a))
    b_daily = daily_mean_records(filter_records(b, metric=metric_b))
    if not a_daily or not b_daily:
        raise AnalysisError(f"no data for {metric_a!r} or {metric_b!r}")
    best: Optional[CorrelationFinding] = None
    for lag in range(-max_lag_days, max_lag_days + 1):
        xs, ys = _joined(a_daily, b_daily, lag)
        if len(xs) < min_overlap_days:
            continue
        r = pearson(xs, ys)
        if best is None or abs(r) > abs(best.correlation):
            best = CorrelationFinding(
                metric_a=metric_a, metric_b=metric_b, correlation=r,
                best_lag_days=lag, n_days=len(xs),
            )
    if best is None:
        raise AnalysisError(
            f"fewer than {min_overlap_days} overlapping days between "
            f"{metric_a!r} and {metric_b!r} at every lag"
        )
    return best


def watch_metric_records(
    signals, metric, detector=None, rearm=True
) -> List[Alarm]:
    subset = filter_records(signals, metric=metric)
    if len(subset) == 0:
        raise AnalysisError(f"no signals carry metric {metric!r}")
    by_day: Dict[dt.date, List[float]] = {}
    for signal in subset:
        by_day.setdefault(signal.date, []).append(signal.value)

    detector = detector or DriftDetector()
    alarms: List[Alarm] = []
    previously_alarmed = False
    for day in sorted(by_day):
        values = by_day[day]
        z = detector.observe(values)
        if detector.has_alarmed and not previously_alarmed:
            alarms.append(Alarm(
                day=day,
                metric=metric,
                z_score=float(z) if z is not None else float("nan"),
                day_mean=float(sum(values) / len(values)),
                n_signals=len(values),
            ))
            if rearm:
                detector._alarmed = False
                detector._streak = 0
            else:
                previously_alarmed = True
    return alarms


def score_signal_units_records(signals) -> Dict[str, TrustScore]:
    per_user: Dict[str, Dict[str, object]] = {}
    for s in signals:
        unit = signal_attr(s, "user")
        if unit is None:
            continue
        entry = per_user.setdefault(unit, {"ratings": [], "days": {}})
        if s.metric == "rating":
            entry["ratings"].append(int(round(s.value)))
        days = entry["days"]
        days[s.date] = days.get(s.date, 0) + 1
    scores: Dict[str, TrustScore] = {}
    for unit in sorted(per_user):
        ratings = per_user[unit]["ratings"]
        days = per_user[unit]["days"]
        burst_peak = max(days.values())
        bias = 0.0
        flags = []
        if len(ratings) >= FRAUD_MIN_RATINGS:
            bias = max(
                sum(1 for r in ratings if r == extreme) / len(ratings)
                for extreme in (1, 5)
            )
            if bias >= FRAUD_CONSTANT_FRAC:
                flags.append("rating_fraud")
        if burst_peak >= BURST_DAY_POSTS:
            flags.append("burst")
        trust = 0.0 if "rating_fraud" in flags else 0.5 if flags else 1.0
        scores[unit] = TrustScore(
            unit=unit, n_items=sum(days.values()), duplicate_ratio=0.0,
            burst_peak=burst_peak, rating_bias=bias, flags=tuple(flags),
            trust=trust,
        )
    return scores


class OracleService(UsaasService):
    """``UsaasService`` with every read step on the record loops above."""

    def _record_pool(self, gathered: GatherResult, query) -> List[Signal]:
        merged: List[Signal] = []
        for series in gathered.series:
            merged.extend(filter_records(
                series, network=query.network,
                start=query.start, end=query.end,
            ))
        return merged

    def answer(self, query: UsaasQuery, deadline=None) -> UsaasReport:
        if query.kind != "insights":
            raise QueryError(
                f"UsaasService.answer handles only insights queries; "
                f"kind={query.kind!r} must be submitted to a UsaasServer "
                f"configured with a prediction engine"
            )
        if len(self._registry) == 0:
            raise QueryError("no signal sources registered")
        gathered = self._gather(deadline)
        pool = self._record_pool(gathered, query)
        guard = (
            PrivacyGuard(query.min_users)
            if query.min_users is not None
            else self._privacy
        )
        assert_scrubbed_records(pool)
        check_records(guard, pool, context=f"query({query.network})")
        pool = bias_records(self._bias, pool)

        implicit = filter_records(
            pool, kind=SignalKind.IMPLICIT, service=query.service
        )
        explicit = filter_records(pool, kind=SignalKind.EXPLICIT)

        insights: List[Insight] = []
        correlations: List[CorrelationFinding] = []

        for metric in query.implicit_metrics:
            subset = filter_records(implicit, metric=metric)
            if len(subset) == 0 or distinct_users_records(subset) < guard.min_users:
                continue
            mean = weighted_mean_records(subset)
            insights.append(Insight(
                kind="level",
                statement=(
                    f"{metric} on {query.network}"
                    f"{' for ' + query.service if query.service else ''} "
                    f"averages {mean:.1f} over {len(subset)} sessions"
                ),
                confidence=confidence_from(len(subset), 0.5),
                evidence=(("mean", float(mean)), ("n", float(len(subset)))),
            ))
            if query.breakdown:
                insights.extend(self._breakdown_insights(
                    subset, metric, query.breakdown, guard
                ))

        for implicit_metric in query.implicit_metrics:
            for explicit_metric in query.explicit_metrics:
                try:
                    finding = correlate_records(
                        implicit, explicit, implicit_metric, explicit_metric
                    )
                except AnalysisError:
                    continue
                correlations.append(finding)
                if finding.strength == "negligible":
                    continue
                direction = "tracks" if finding.correlation > 0 else "moves against"
                lag_note = (
                    f" (explicit feedback trails by {finding.best_lag_days}d)"
                    if finding.best_lag_days > 0 else ""
                )
                insights.append(Insight(
                    kind="correlation",
                    statement=(
                        f"{explicit_metric} {direction} {implicit_metric} "
                        f"(r={finding.correlation:+.2f}, "
                        f"{finding.n_days} days){lag_note}"
                    ),
                    confidence=confidence_from(
                        finding.n_days, finding.correlation
                    ),
                    evidence=(
                        ("r", finding.correlation),
                        ("lag_days", float(finding.best_lag_days)),
                        ("n_days", float(finding.n_days)),
                    ),
                ))

        sentiment = filter_records(explicit, metric="sentiment_polarity")
        if len(sentiment) > 0:
            daily = daily_mean_records(sentiment)
            daily = {
                day: mean for day, mean in daily.items()
                if distinct_users_records(
                    [s for s in sentiment if s.date == day]
                ) >= guard.min_users
            }
            if daily:
                worst_day = min(daily, key=lambda d: daily[d])
                if daily[worst_day] < -0.2:
                    insights.append(Insight(
                        kind="anomaly",
                        statement=(
                            f"explicit sentiment bottomed out on "
                            f"{worst_day.isoformat()} "
                            f"(mean polarity {daily[worst_day]:+.2f})"
                        ),
                        confidence=confidence_from(
                            len(sentiment), daily[worst_day]
                        ),
                        evidence=(("polarity", daily[worst_day]),),
                    ))

        integrity = self._integrity_section(explicit)
        integrity_downgraded = integrity is not None and integrity.downgraded

        summary = summarize_insights(insights, query.network)
        if gathered.degraded:
            notes = []
            if gathered.failed:
                notes.append(f"failed: {', '.join(gathered.failed)}")
            if gathered.stale:
                notes.append(f"stale: {', '.join(gathered.stale)}")
            summary += (
                f"\n[degraded] {len(gathered.survivors)}/"
                f"{len(self._registry)} sources served this answer "
                f"({'; '.join(notes)})"
            )
        if integrity_downgraded:
            summary += (
                f"\n[degraded] integrity: "
                f"{integrity.n_flagged}/{integrity.n_units} contributors "
                f"flagged (est. contamination "
                f"{integrity.contamination_estimate:.1%}); naive "
                f"{integrity.naive_value:.3f} vs robust "
                f"{integrity.robust_value:.3f} — trust the robust figure"
            )
        return UsaasReport(
            query=query,
            insights=tuple(insights),
            correlations=tuple(correlations),
            summary=summary,
            n_implicit=len(implicit),
            n_explicit=len(explicit),
            source_health=gathered.health,
            degraded=gathered.degraded or integrity_downgraded,
            integrity=integrity,
        )

    def _integrity_section(self, explicit):
        scores = score_signal_units_records(explicit)
        if not scores:
            return None
        subset = filter_records(explicit, metric="rating")
        statistic_target = "rating"
        if len(subset) == 0:
            subset = filter_records(explicit, metric="sentiment_polarity")
            statistic_target = "sentiment_polarity"
        if len(subset) == 0:
            return None
        values: List[float] = []
        kept: List[float] = []
        for signal in subset:
            unit = signal_attr(signal, "user")
            trust = scores[unit].trust if unit in scores else 1.0
            values.append(signal.value)
            if trust > 0:
                kept.append(signal.value)
        if not kept:
            return None
        flags = sorted({
            flag for score in scores.values() for flag in score.flags
        })
        return build_section(
            n_units=len(scores),
            n_flagged=sum(1 for s in scores.values() if s.trust < 1.0),
            contamination=contamination_estimate(scores),
            naive_value=float(np.mean(values)),
            robust_value=float(trimmed_mean(np.array(kept, dtype=float))),
            statistic=f"trimmed_mean[{statistic_target}]",
            flags=tuple(flags),
        )

    def _breakdown_insights(
        self, subset, metric, attribute, guard, min_group_size=20
    ):
        groups: Dict[str, List[Signal]] = {}
        for signal in subset:
            value = signal_attr(signal, attribute)
            if value is not None:
                groups.setdefault(value, []).append(signal)
        insights: List[Insight] = []
        for name, members in sorted(groups.items(), key=lambda g: g[0]):
            values = [s.value for s in members]
            if len(values) < min_group_size:
                continue
            if distinct_users_records(members) < guard.min_users:
                continue
            mean = float(np.mean(values))
            insights.append(Insight(
                kind="level",
                statement=(
                    f"{metric} for {attribute}={name} averages "
                    f"{mean:.1f} over {len(values)} sessions"
                ),
                confidence=confidence_from(len(values), 0.4),
                evidence=(("mean", mean), ("n", float(len(values)))),
            ))
        return insights

    def compare(
        self, network_a, network_b, service=None,
        metrics=("presence", "cam_on", "mic_on"),
    ) -> ComparisonReport:
        if network_a == network_b:
            raise QueryError("compare needs two distinct networks")
        rows: List[MetricComparison] = []
        pools = {}
        gathered = self._gather()
        for network in (network_a, network_b):
            query = UsaasQuery(network=network, service=service,
                               implicit_metrics=metrics)
            pool = self._record_pool(gathered, query)
            assert_scrubbed_records(pool)
            check_records(self._privacy, pool, context=f"compare({network})")
            pools[network] = filter_records(
                bias_records(self._bias, pool),
                kind=SignalKind.IMPLICIT, service=service,
            )
        for metric in metrics:
            values_a = [s.value for s in filter_records(pools[network_a], metric=metric)]
            values_b = [s.value for s in filter_records(pools[network_b], metric=metric)]
            if len(values_a) < 2 or len(values_b) < 2:
                continue
            mean_a, mean_b = float(np.mean(values_a)), float(np.mean(values_b))
            pooled_sd = float(np.sqrt(
                (np.var(values_a, ddof=1) + np.var(values_b, ddof=1)) / 2
            ))
            effect = (mean_a - mean_b) / pooled_sd if pooled_sd > 0 else 0.0
            rows.append(MetricComparison(
                metric=metric, mean_a=mean_a, mean_b=mean_b,
                n_a=len(values_a), n_b=len(values_b),
                effect_size=float(effect),
            ))
        if not rows:
            raise AnalysisError("no metric had enough data on both networks")
        return ComparisonReport(
            network_a=network_a, network_b=network_b, metrics=tuple(rows)
        )
