"""The USaaS facade: query in, privacy-safe insights out.

Fig. 8 of the paper: network changes produce implicit and explicit user
signals; USaaS collects both, finds correlations, and shares user-centric
insights back with network and service providers.  :class:`UsaasService`
is that loop:

    service = UsaasService()
    service.register_source("teams", lambda: telemetry_signals(...))
    service.register_source("reddit", lambda: social_signals(...))
    report = service.answer(UsaasQuery(network="starlink", service="teams"))
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.core.signals import SignalKind, SignalSeries, concat_series
from repro.core.usaas.bias import BiasCorrector
from repro.core.usaas.correlator import CorrelationFinding, correlate_daily
from repro.core.usaas.insights import Insight, confidence_from
from repro.core.usaas.privacy import PrivacyGuard
from repro.core.usaas.query import UsaasQuery
from repro.core.usaas.registry import SignalSourceRegistry
from repro.core.usaas.summarize import summarize_insights
from repro.errors import (
    AnalysisError,
    DegradedServiceError,
    PrivacyError,
    QueryError,
)
from repro.resilience.clock import Clock
from repro.resilience.executor import ResilienceConfig, SourceExecutor
from repro.resilience.health import SourceHealth

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.integrity.report import IntegritySection
    from repro.serving.deadline import Deadline


@dataclass(frozen=True)
class UsaasReport:
    """Everything returned for one query.

    ``source_health`` is a point-in-time snapshot per registered source;
    ``degraded`` is True when at least one source failed or was served
    stale — the insights then cover only the surviving feeds — **or**
    when the integrity check downgraded confidence (contaminated
    contributions moved the naive aggregate away from its robust twin).
    ``integrity`` carries that check's evidence (None when the answer
    had no explicit signals to score).
    """

    query: UsaasQuery
    insights: Tuple[Insight, ...]
    correlations: Tuple[CorrelationFinding, ...]
    summary: str
    n_implicit: int
    n_explicit: int
    source_health: Tuple[SourceHealth, ...] = ()
    degraded: bool = False
    integrity: Optional["IntegritySection"] = None

    def health_table(self) -> str:
        """Fixed-width per-source health table (CLI / log friendly)."""
        from repro.resilience.health import health_table

        return health_table(iter(self.source_health))

    def integrity_table(self) -> str:
        """Fixed-width trust/integrity table ('' without explicit data)."""
        if self.integrity is None:
            return ""
        return self.integrity.table()


@dataclass(frozen=True)
class GatherResult:
    """Guarded-gather outcome: merged pool + per-source accounting."""

    pool: SignalSeries
    health: Tuple[SourceHealth, ...]
    degraded: bool
    survivors: Tuple[str, ...]
    failed: Tuple[str, ...]
    stale: Tuple[str, ...]


class UsaasService:
    """Registry + privacy + bias + correlation, behind one ``answer()``.

    Ingestion is fault-isolated: each registered source runs behind a
    retry policy and circuit breaker (see :mod:`repro.resilience`), so
    one raising or hanging feed degrades the answer instead of aborting
    it.  ``resilience`` tunes that behaviour; ``clock`` injects time for
    deterministic tests.
    """

    def __init__(
        self,
        privacy: Optional[PrivacyGuard] = None,
        bias: Optional[BiasCorrector] = None,
        resilience: Optional[ResilienceConfig] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self._registry = SignalSourceRegistry()
        self._privacy = privacy or PrivacyGuard()
        self._bias = bias or BiasCorrector()
        self._executor = SourceExecutor(resilience or ResilienceConfig(), clock)

    @property
    def registry(self) -> SignalSourceRegistry:
        return self._registry

    @property
    def executor(self) -> SourceExecutor:
        return self._executor

    def source_health(self) -> Tuple[SourceHealth, ...]:
        """Current per-source health snapshot (accumulated across queries)."""
        return self._executor.ledger.snapshot()

    def register_source(self, name: str, source) -> None:
        self._registry.register(name, source)

    # -- query execution -------------------------------------------------

    def _gather(
        self, query: UsaasQuery, deadline: Optional["Deadline"] = None
    ) -> GatherResult:
        """Pull every source through the guard stack; never raises for a
        failing source — degradation is decided by the caller's config.

        ``deadline`` (the serving layer's per-query budget) is passed
        into every fetch: once it expires, remaining sources fail fast
        instead of burning their full retry schedules, so a late answer
        degrades rather than running arbitrarily long."""
        parts: List[SignalSeries] = []
        survivors: List[str] = []
        failed: List[str] = []
        stale: List[str] = []
        for name in self._registry.names():
            outcome = self._executor.fetch(self._registry, name, deadline)
            if outcome.usable:
                survivors.append(name)
                if outcome.stale:
                    stale.append(name)
                parts.append(outcome.series.filter(
                    network=query.network,
                    start=query.start,
                    end=query.end,
                ))
            else:
                failed.append(name)
        config = self._executor.config
        if failed and config.strict:
            raise DegradedServiceError(
                f"strict mode: source(s) failed: {', '.join(failed)}"
            )
        if len(survivors) < config.min_sources:
            raise DegradedServiceError(
                f"only {len(survivors)} of {len(self._registry)} sources "
                f"survived (min_sources={config.min_sources}); "
                f"failed: {', '.join(failed) or 'none'}"
            )
        return GatherResult(
            pool=concat_series(parts),
            health=self._executor.ledger.snapshot(),
            degraded=bool(failed or stale),
            survivors=tuple(survivors),
            failed=tuple(failed),
            stale=tuple(stale),
        )

    def answer(
        self,
        query: UsaasQuery,
        deadline: Optional["Deadline"] = None,
    ) -> UsaasReport:
        """Run a query end to end.

        ``deadline`` bounds ingestion time (see
        :class:`repro.serving.Deadline`): expired budgets cut retries
        and backoff short so the answer degrades instead of overrunning.

        Raises:
            QueryError: no sources registered.
            PrivacyError: the matching population is below the floor
                (a single level, breakdown group or anomaly day below
                it is withheld from the report instead).
            DegradedServiceError: fewer than ``min_sources`` sources
                survived ingestion (or any failed under ``strict``).
        """
        if query.kind != "insights":
            raise QueryError(
                f"UsaasService.answer handles only insights queries; "
                f"kind={query.kind!r} must be submitted to a UsaasServer "
                f"configured with a prediction engine"
            )
        if len(self._registry) == 0:
            raise QueryError("no signal sources registered")
        gathered = self._gather(query, deadline)
        pool = gathered.pool
        guard = (
            PrivacyGuard(query.min_users)
            if query.min_users is not None
            else self._privacy
        )
        guard.assert_scrubbed(pool)
        guard.check(pool, context=f"query({query.network})")
        pool = self._bias.apply(pool)

        implicit = pool.filter(kind=SignalKind.IMPLICIT, service=query.service)
        explicit = pool.filter(kind=SignalKind.EXPLICIT)
        by_metric = {m: implicit.filter(metric=m) for m in query.implicit_metrics}
        # Daily means per (side, metric), shared by every pair they join.
        implicit_daily = {m: subset._daily() for m, subset in by_metric.items()}
        explicit_daily = {
            m: explicit.filter(metric=m)._daily() for m in query.explicit_metrics
        }

        insights: List[Insight] = []
        correlations: List[CorrelationFinding] = []

        # Level insights for each requested implicit metric; an aggregate
        # below the privacy floor is withheld (with its breakdown).
        for metric in query.implicit_metrics:
            subset = by_metric[metric]
            if len(subset) == 0 or not guard.covers(subset):
                continue
            mean = subset.weighted_mean()
            insights.append(
                Insight(
                    kind="level",
                    statement=(
                        f"{metric} on {query.network}"
                        f"{' for ' + query.service if query.service else ''} "
                        f"averages {mean:.1f} over {len(subset)} sessions"
                    ),
                    confidence=confidence_from(len(subset), 0.5),
                    evidence=(("mean", float(mean)), ("n", float(len(subset)))),
                )
            )
            if query.breakdown:
                insights.extend(self._breakdown_insights(
                    subset, metric, query.breakdown, guard
                ))

        # Cross-signal correlations: every implicit x explicit pair.
        for implicit_metric in query.implicit_metrics:
            for explicit_metric in query.explicit_metrics:
                try:
                    finding = correlate_daily(
                        implicit_daily[implicit_metric],
                        explicit_daily[explicit_metric],
                        implicit_metric,
                        explicit_metric,
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
                insights.append(
                    Insight(
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
                    )
                )

        # Anomaly insight: worst explicit-sentiment day among the days
        # whose sentiment reaches the privacy floor.
        sentiment = explicit.filter(metric="sentiment_polarity")
        groups, group_days = sentiment._day_groups()
        covered = group_days[
            guard.covered_groups(sentiment, groups, len(group_days))
        ]
        days, means = sentiment._daily()
        eligible = np.flatnonzero(np.isin(days, covered))
        if len(eligible):
            worst = int(eligible[np.argmin(means[eligible])])  # first of equal minima
            polarity = float(means[worst])
            if polarity < -0.2:
                worst_day = dt.date.fromordinal(int(days[worst]))
                insights.append(
                    Insight(
                        kind="anomaly",
                        statement=(
                            f"explicit sentiment bottomed out on "
                            f"{worst_day.isoformat()} "
                            f"(mean polarity {polarity:+.2f})"
                        ),
                        confidence=confidence_from(len(sentiment), polarity),
                        evidence=(("polarity", polarity),),
                    )
                )

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

    def _integrity_section(
        self, explicit: SignalSeries
    ) -> Optional["IntegritySection"]:
        """Trust-score explicit contributors; None without explicit data.

        Scores every ``user``-attributed explicit signal
        (:func:`repro.integrity.trust.score_signal_units`), then compares
        the naive mean of the primary explicit aggregate (ratings when
        present, else sentiment polarity) against its trust-weighted
        trimmed mean.  A divergence or contamination estimate above the
        documented thresholds downgrades the answer's confidence.
        """
        from repro.core.stats import trimmed_mean
        from repro.integrity.report import build_section
        from repro.integrity.trust import signal_unit_scores

        scores = signal_unit_scores(explicit)
        if not scores.units:
            return None
        metric, vocab = explicit._field("metric")
        for statistic_target in ("rating", "sentiment_polarity"):
            rows = metric == vocab.code(statistic_target)
            if rows.any():
                break
        else:
            return None
        unit = scores.unit_of_row[rows]
        trust = np.where(unit >= 0, scores.trust[unit], 1.0)
        values = explicit._col("value")[rows]
        kept = values[trust > 0]
        if not len(kept):
            return None
        flagged = int(scores.n_items[scores.trust == 0.0].sum())
        return build_section(
            n_units=len(scores.units),
            n_flagged=int((scores.trust < 1.0).sum()),
            contamination=flagged / int(scores.n_items.sum()),
            naive_value=float(np.mean(values)),
            robust_value=float(trimmed_mean(kept)),
            statistic=f"trimmed_mean[{statistic_target}]",
            flags=tuple(sorted(
                flag for flag, hit in (
                    ("rating_fraud", scores.rating_fraud.any()),
                    ("burst", scores.burst.any()),
                ) if hit
            )),
        )

    def _breakdown_insights(
        self,
        subset: SignalSeries,
        metric: str,
        attribute: str,
        guard: PrivacyGuard,
        min_group_size: int = 20,
    ) -> List[Insight]:
        """Per-attribute-value level insights (with size and privacy floors)."""
        codes, vocab = subset._attr(attribute)
        values = subset._col("value")
        n_words = len(vocab.words)  # rows without the attribute: one more group
        covered = guard.covered_groups(
            subset, np.where(codes >= 0, codes, n_words), n_words + 1
        )
        insights: List[Insight] = []
        for name, code in sorted(
            (vocab.words[c], c) for c in vocab.present(codes).tolist()
        ):
            group = values[codes == code]
            if len(group) < min_group_size or not covered[code]:
                continue
            mean = float(np.mean(group))
            insights.append(
                Insight(
                    kind="level",
                    statement=(
                        f"{metric} for {attribute}={name} averages "
                        f"{mean:.1f} over {len(group)} sessions"
                    ),
                    confidence=confidence_from(len(group), 0.4),
                    evidence=(("mean", mean), ("n", float(len(group)))),
                )
            )
        return insights

    def compare(
        self,
        network_a: str,
        network_b: str,
        service: Optional[str] = None,
        metrics: Tuple[str, ...] = ("presence", "cam_on", "mic_on"),
    ) -> "ComparisonReport":
        """The paper's worked comparison, generalised: network A vs B.

        For each implicit metric, reports both means and a standardised
        effect size (Cohen's d); positive deltas mean network A is higher.
        """
        if network_a == network_b:
            raise QueryError("compare needs two distinct networks")
        rows: List[MetricComparison] = []
        pools = {}
        for network in (network_a, network_b):
            query = UsaasQuery(network=network, service=service,
                               implicit_metrics=metrics)
            pool = self._gather(query).pool
            self._privacy.assert_scrubbed(pool)
            self._privacy.check(pool, context=f"compare({network})")
            pools[network] = self._bias.apply(pool).filter(
                kind=SignalKind.IMPLICIT, service=service
            )
        for metric in metrics:
            values_a = pools[network_a].filter(metric=metric)._col("value")
            values_b = pools[network_b].filter(metric=metric)._col("value")
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


@dataclass(frozen=True)
class MetricComparison:
    """One metric's A-vs-B comparison (positive effect = A higher)."""

    metric: str
    mean_a: float
    mean_b: float
    n_a: int
    n_b: int
    effect_size: float

    @property
    def magnitude(self) -> str:
        d = abs(self.effect_size)
        if d >= 0.8:
            return "large"
        if d >= 0.5:
            return "medium"
        if d >= 0.2:
            return "small"
        return "negligible"


@dataclass(frozen=True)
class ComparisonReport:
    """Full A-vs-B comparison across metrics."""

    network_a: str
    network_b: str
    metrics: Tuple[MetricComparison, ...]

    def worst_gap(self) -> MetricComparison:
        """The metric where A trails B the most (most negative effect)."""
        return min(self.metrics, key=lambda m: m.effect_size)

    def summary(self) -> str:
        lines = [f"{self.network_a} vs {self.network_b}:"]
        for m in self.metrics:
            direction = "ahead" if m.effect_size > 0 else "behind"
            lines.append(
                f"  {m.metric}: {m.mean_a:.1f} vs {m.mean_b:.1f} "
                f"({self.network_a} {direction}, d={m.effect_size:+.2f}, "
                f"{m.magnitude})"
            )
        return "\n".join(lines)


