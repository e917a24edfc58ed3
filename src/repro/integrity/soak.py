"""Deterministic ε-contamination soak: does trust-weighting actually hold?

The experiment the integrity layer exists for, run end to end with no
wall clock and no live RNG: generate one clean call dataset and one
clean social corpus, then for each ε in the grid inject a seeded
rating-fraud campaign and a brigade flood
(:meth:`~repro.resilience.faults.FaultPlan.data_faults`) and compare

* the **naive mean** — breakdown point 0, the thing most dashboards
  ship — against
* the **trust-weighted mean** — fraud-flagged raters and ring authors
  down-weighted to zero by :mod:`repro.integrity.trust` — and the
  trimmed mean / median-of-means reference estimators,

all measured as deviation from the clean-run aggregate.  The contract
(also the CLI exit code):

* ``0`` — trust-weighted aggregates stayed within the documented bound
  at every ε **and** the naive mean broke the bound at the top ε (the
  attack was real and the defense held);
* ``2`` — a trust-weighted aggregate escaped the bound (hard violation:
  the defense failed), or the stream boundary leaked a malformed record;
* ``3`` — the naive mean never broke, or the trust layer flagged
  nothing under attack / flagged clean data (the experiment is not
  demonstrating anything — attack too weak or detection ineffective).

The stream-boundary fault kind is exercised through
:func:`~repro.integrity.online.parse_stream_dicts` so malformed and
dropped records land in reason-bucketed quarantine counters.  Every
number in :meth:`IntegritySoakReport.counters_dict` is a pure function
of the seed.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.rng import DEFAULT_SEED, derive
from repro.verdict import Verdict

__all__ = ["EpsOutcome", "IntegritySoakReport", "run_integrity_soak"]

#: Trust-weighted MOS must stay within this absolute deviation of the
#: clean-run mean at every ε (documented in docs/integrity.md).
MOS_BOUND = 0.25

#: Trust-weighted mean sentiment polarity bound, same contract.
POLARITY_BOUND = 0.05

#: Clean-run contamination estimates above this are false positives.
FALSE_POSITIVE_TOLERANCE = 0.02


@dataclass(frozen=True)
class EpsOutcome:
    """All aggregates for one contamination level."""

    eps: float
    # -- telemetry / ratings ------------------------------------------
    n_rated: int
    n_fraud_flagged: int
    rating_contamination: float
    mos_naive: float
    mos_trimmed: float
    mos_mom: float
    mos_trust: float
    mos_naive_dev: float
    mos_trust_dev: float
    # -- social / sentiment -------------------------------------------
    n_posts: int
    n_injected: int
    n_flagged_authors: int
    post_contamination: float
    polarity_naive: float
    polarity_trust: float
    polarity_naive_dev: float
    polarity_trust_dev: float


@dataclass(frozen=True)
class IntegritySoakReport:
    """Closed-books summary of one ε-contamination sweep."""

    seed: int
    eps_grid: Tuple[float, ...]
    mos_bound: float
    polarity_bound: float
    clean_mos: float
    clean_polarity: float
    rows: Tuple[EpsOutcome, ...]
    boundary_parsed: int
    boundary_dropped: int
    boundary_quarantined: Dict[str, int]
    violations: Tuple[str, ...]
    ineffective: Tuple[str, ...]

    @property
    def exit_code(self) -> int:
        if self.violations:
            return 2
        if self.ineffective:
            return 3
        return 0

    def verdict(self) -> Verdict:
        """The exit code, with one stderr line per violation and miss."""
        return Verdict(self.exit_code, tuple(
            [f"integrity violation: {v}" for v in self.violations]
            + [f"sweep ineffective: {miss}" for miss in self.ineffective]
        ))

    def counters_dict(self) -> Dict[str, object]:
        """Flat, rounded, deterministic-per-seed counter map."""
        out: Dict[str, object] = {
            "seed": self.seed,
            "clean_mos": round(self.clean_mos, 6),
            "clean_polarity": round(self.clean_polarity, 6),
            "boundary_parsed": self.boundary_parsed,
            "boundary_dropped": self.boundary_dropped,
        }
        for reason, count in sorted(self.boundary_quarantined.items()):
            out[f"boundary.{reason}"] = count
        for row in self.rows:
            tag = f"eps={row.eps:g}"
            out[f"{tag}.n_rated"] = row.n_rated
            out[f"{tag}.n_fraud_flagged"] = row.n_fraud_flagged
            out[f"{tag}.rating_contamination"] = round(
                row.rating_contamination, 6
            )
            out[f"{tag}.mos_naive"] = round(row.mos_naive, 6)
            out[f"{tag}.mos_trimmed"] = round(row.mos_trimmed, 6)
            out[f"{tag}.mos_mom"] = round(row.mos_mom, 6)
            out[f"{tag}.mos_trust"] = round(row.mos_trust, 6)
            out[f"{tag}.n_posts"] = row.n_posts
            out[f"{tag}.n_injected"] = row.n_injected
            out[f"{tag}.n_flagged_authors"] = row.n_flagged_authors
            out[f"{tag}.post_contamination"] = round(
                row.post_contamination, 6
            )
            out[f"{tag}.polarity_naive"] = round(row.polarity_naive, 6)
            out[f"{tag}.polarity_trust"] = round(row.polarity_trust, 6)
        return out

    def table(self) -> str:
        """Fixed-width ε sweep table (the CLI prints this)."""
        header = (
            f"{'eps':>5}  {'mos naive':>10}  {'mos trust':>10}  "
            f"{'pol naive':>10}  {'pol trust':>10}  "
            f"{'fraud':>5}  {'rings':>5}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.eps:>5g}  "
                f"{row.mos_naive:>10.4f}  {row.mos_trust:>10.4f}  "
                f"{row.polarity_naive:>10.4f}  "
                f"{row.polarity_trust:>10.4f}  "
                f"{row.n_fraud_flagged:>5}  {row.n_flagged_authors:>5}"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        state = {0: "OK", 2: "VIOLATION", 3: "INEFFECTIVE"}[self.exit_code]
        top = self.rows[-1]
        return (
            f"integrity soak [{state}]: eps_max={top.eps:g} "
            f"naive_mos_dev={top.mos_naive_dev:+.3f} "
            f"trust_mos_dev={top.mos_trust_dev:+.3f} "
            f"(bound {self.mos_bound}); "
            f"naive_pol_dev={top.polarity_naive_dev:+.3f} "
            f"trust_pol_dev={top.polarity_trust_dev:+.3f} "
            f"(bound {self.polarity_bound}); "
            f"boundary quarantined="
            f"{sum(self.boundary_quarantined.values())}"
        )


def _boundary_records(seed: int, n: int) -> Tuple[Dict[str, object], ...]:
    """Seeded well-formed stream dicts for the boundary fault kind."""
    rng = derive(seed, "integrity.soak", "boundary")
    records = []
    t = 0.0
    for i in range(n):
        t += float(rng.uniform(0.05, 0.4))
        records.append({
            "event_time_s": round(t, 3),
            "source": "telemetry",
            "metric": "latency_ms",
            "value": round(float(rng.normal(120.0, 15.0)), 3),
            "key": f"user-{i % 50:03d}",
        })
    return tuple(records)


def run_integrity_soak(
    seed: int = DEFAULT_SEED,
    eps_grid: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    n_calls: int = 240,
    mos_sample_rate: float = 0.3,
    corpus_weeks: int = 4,
    mos_bound: float = MOS_BOUND,
    polarity_bound: float = POLARITY_BOUND,
    fraud_rating: int = 1,
    boundary_records: int = 400,
) -> IntegritySoakReport:
    """Run the ε-contamination sweep; see the module docstring for the
    contract.  Pure function of its arguments — byte-identical per seed.
    """
    from repro.errors import ConfigError
    from repro.integrity.estimators import robust_mos, robust_polarity
    from repro.integrity.online import parse_stream_dicts
    from repro.integrity.trust import (
        contamination_estimate,
        post_weights,
        rated_weights,
        score_authors,
        score_raters,
    )
    from repro.nlp.sentiment import SentimentAnalyzer
    from repro.resilience.faults import DataFaultSpec, FaultPlan
    from repro.social.corpus import CorpusConfig, CorpusGenerator
    from repro.telemetry.generator import CallDatasetGenerator, GeneratorConfig

    if not eps_grid:
        raise ConfigError("eps_grid must be non-empty")
    eps_grid = tuple(float(e) for e in eps_grid)
    if any(not 0 <= e <= 0.5 for e in eps_grid):
        raise ConfigError("every eps must be in [0, 0.5]")
    if list(eps_grid) != sorted(eps_grid):
        raise ConfigError("eps_grid must be ascending")

    # -- clean artifacts (generated once, shared across the sweep) -----
    dataset = CallDatasetGenerator(GeneratorConfig(
        n_calls=n_calls, seed=seed, mos_sample_rate=mos_sample_rate,
    )).generate()
    span_start = dt.date(2021, 1, 1)
    corpus_config = CorpusConfig(
        seed=seed,
        span_start=span_start,
        span_end=span_start + dt.timedelta(days=7 * corpus_weeks - 1),
    )
    corpus = CorpusGenerator(corpus_config).generate()
    analyzer = SentimentAnalyzer()

    clean_mos = robust_mos(dataset, "mean")
    clean_polarity = robust_polarity(corpus, analyzer, "mean")

    rows = []
    violations = []
    ineffective = []
    for eps in eps_grid:
        plan = FaultPlan(seed=seed)
        spec = DataFaultSpec(
            brigade_fraction=eps,
            fraud_fraction=eps,
            fraud_rating=fraud_rating,
            drift_fraction=eps / 2,
        )
        injector = plan.data_faults(f"eps-{eps:g}", spec)
        tainted_calls = injector.contaminate_calls(dataset)
        tainted_corpus = injector.contaminate_corpus(corpus)

        # Ratings: naive vs reference estimators vs trust-weighted.
        rater_scores = score_raters(tainted_calls.dataset)
        rating_weights = rated_weights(tainted_calls.dataset, rater_scores)
        mos_naive = robust_mos(tainted_calls.dataset, "mean")
        mos_trimmed = robust_mos(tainted_calls.dataset, "trimmed_mean")
        mos_mom = robust_mos(tainted_calls.dataset, "median_of_means")
        mos_trust = robust_mos(
            tainted_calls.dataset, "mean", weights=rating_weights
        )

        # Sentiment: naive vs trust-weighted polarity.
        author_scores = score_authors(tainted_corpus.corpus.posts())
        pw = post_weights(tainted_corpus.corpus, author_scores)
        polarity_naive = robust_polarity(
            tainted_corpus.corpus, analyzer, "mean"
        )
        polarity_trust = robust_polarity(
            tainted_corpus.corpus, analyzer, "mean", weights=pw
        )

        n_rated = int(rating_weights.shape[0])
        row = EpsOutcome(
            eps=eps,
            n_rated=n_rated,
            n_fraud_flagged=sum(
                1 for s in rater_scores.values() if s.trust == 0.0
            ),
            rating_contamination=contamination_estimate(rater_scores),
            mos_naive=mos_naive,
            mos_trimmed=mos_trimmed,
            mos_mom=mos_mom,
            mos_trust=mos_trust,
            mos_naive_dev=mos_naive - clean_mos,
            mos_trust_dev=mos_trust - clean_mos,
            n_posts=len(tainted_corpus.corpus),
            n_injected=tainted_corpus.n_injected,
            n_flagged_authors=sum(
                1 for s in author_scores.values() if s.trust == 0.0
            ),
            post_contamination=contamination_estimate(author_scores),
            polarity_naive=polarity_naive,
            polarity_trust=polarity_trust,
            polarity_naive_dev=polarity_naive - clean_polarity,
            polarity_trust_dev=polarity_trust - clean_polarity,
        )
        rows.append(row)

        if abs(row.mos_trust_dev) > mos_bound:
            violations.append(
                f"eps={eps:g}: trust-weighted MOS deviated "
                f"{row.mos_trust_dev:+.4f} (bound {mos_bound})"
            )
        if abs(row.polarity_trust_dev) > polarity_bound:
            violations.append(
                f"eps={eps:g}: trust-weighted polarity deviated "
                f"{row.polarity_trust_dev:+.4f} (bound {polarity_bound})"
            )
        if eps == 0.0:
            if row.rating_contamination > FALSE_POSITIVE_TOLERANCE:
                ineffective.append(
                    f"clean run flagged {row.rating_contamination:.3f} "
                    f"of ratings (false positives)"
                )
            if row.post_contamination > FALSE_POSITIVE_TOLERANCE:
                ineffective.append(
                    f"clean run flagged {row.post_contamination:.3f} "
                    f"of posts (false positives)"
                )

    top = rows[-1]
    if top.eps > 0:
        if abs(top.mos_naive_dev) <= mos_bound:
            ineffective.append(
                f"naive MOS held at eps={top.eps:g} "
                f"({top.mos_naive_dev:+.4f} within {mos_bound}) — "
                f"attack too weak to demonstrate anything"
            )
        if abs(top.polarity_naive_dev) <= polarity_bound:
            ineffective.append(
                f"naive polarity held at eps={top.eps:g} "
                f"({top.polarity_naive_dev:+.4f} within {polarity_bound})"
            )
        if top.n_fraud_flagged == 0:
            ineffective.append(
                f"no raters flagged at eps={top.eps:g} "
                f"(rating-fraud detection ineffective)"
            )
        if top.n_flagged_authors == 0:
            ineffective.append(
                f"no authors flagged at eps={top.eps:g} "
                f"(brigade detection ineffective)"
            )

    # -- stream-boundary fault kind ------------------------------------
    eps_max = eps_grid[-1]
    boundary_plan = FaultPlan(seed=seed)
    mangled = boundary_plan.data_faults(
        "boundary",
        DataFaultSpec(malform_rate=eps_max / 2, drop_rate=eps_max / 4),
    ).mangle_stream(_boundary_records(seed, boundary_records))
    boundary = parse_stream_dicts(mangled.records)
    if eps_max > 0 and boundary.n_quarantined != mangled.malformed:
        violations.append(
            f"boundary ledger leak: {mangled.malformed} malformed but "
            f"{boundary.n_quarantined} quarantined"
        )

    return IntegritySoakReport(
        seed=seed,
        eps_grid=eps_grid,
        mos_bound=mos_bound,
        polarity_bound=polarity_bound,
        clean_mos=clean_mos,
        clean_polarity=clean_polarity,
        rows=tuple(rows),
        boundary_parsed=len(boundary.records),
        boundary_dropped=mangled.dropped,
        boundary_quarantined=dict(boundary.quarantined),
        violations=tuple(violations),
        ineffective=tuple(ineffective),
    )
