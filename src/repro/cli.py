"""Command-line interface: the reproduction as a toolbox.

Subcommands mirror the two data pipelines and the analyses on top:

* ``generate-calls`` / ``generate-corpus`` — produce datasets (JSONL)
  in-process, optionally persisted through the content-addressed
  artifact cache (``--cache-dir``);
* ``analyze-teams`` — the §3 summary over a call dataset;
* ``analyze-starlink`` — the §4 summary over a social corpus;
* ``usaas`` — answer the §5 query over both;
* ``cache`` — inspect (``stats``) or drop (``invalidate``) cached
  artifacts.

Usage::

    python -m repro.cli generate-calls --n-calls 500 --out calls.jsonl
    python -m repro.cli generate-calls --n-calls 500 \\
        --cache-dir ~/.cache/repro --out calls.jsonl
    python -m repro.cli cache stats --cache-dir ~/.cache/repro
    python -m repro.cli analyze-teams --calls calls.jsonl
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys
from typing import List, Optional

from repro.rng import DEFAULT_SEED


def _open_cache(args: argparse.Namespace):
    """The ArtifactCache named by ``--cache-dir`` (None when absent)."""
    if getattr(args, "cache_dir", None) is None:
        return None
    from repro.perf import ArtifactCache

    return ArtifactCache(args.cache_dir)


def _cmd_generate_calls(args: argparse.Namespace) -> int:
    from repro.telemetry import CallDatasetGenerator, GeneratorConfig

    config = GeneratorConfig(
        n_calls=args.n_calls, seed=args.seed,
        mos_sample_rate=args.mos_sample_rate,
    )
    cache = _open_cache(args)
    gen = CallDatasetGenerator(config)
    if args.engine == "vectorized":
        columns = gen.generate_columns(cache=cache)
        columns.to_jsonl(args.out)
        print(f"wrote {len(columns)} participant rows (columns) to {args.out}")
        if cache is not None:
            print(f"cache: {cache.stats().summary()}")
        return 0
    dataset = gen.generate(cache=cache)
    dataset.to_jsonl(args.out)
    print(f"wrote {len(dataset)} calls / {dataset.n_participants} sessions "
          f"to {args.out}")
    if cache is not None:
        print(f"cache: {cache.stats().summary()}")
    return 0


def _cmd_generate_corpus(args: argparse.Namespace) -> int:
    from repro.social import CorpusConfig, CorpusGenerator

    config = CorpusConfig(
        seed=args.seed,
        span_start=dt.date.fromisoformat(args.start),
        span_end=dt.date.fromisoformat(args.end),
        author_pool_size=args.authors,
    )
    cache = _open_cache(args)
    corpus = CorpusGenerator(config).generate(cache=cache)
    corpus.to_jsonl(args.out)
    print(f"wrote {len(corpus)} posts to {args.out}")
    if cache is not None:
        print(f"cache: {cache.stats().summary()}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.perf import ArtifactCache

    cache = ArtifactCache(args.cache_dir)
    if args.cache_command == "stats":
        print(cache.stats().summary())
        return 0
    dropped = cache.invalidate(kind=args.kind)
    what = f"{args.kind} entries" if args.kind else "entries"
    print(f"invalidated {dropped} {what} under {cache.root}")
    return 0


def _cmd_analyze_teams(args: argparse.Namespace) -> int:
    from repro.engagement import CohortFilter, fig1_curves, mos_by_engagement
    from repro.telemetry.store import CallDataset

    dataset = CallDataset.from_jsonl(args.calls)
    if args.report:
        from repro.reporting import teams_report

        print(teams_report(dataset, min_bin_count=args.min_bin_count))
        return 0
    cohort = CohortFilter().apply(dataset)
    pool = list(cohort.participants())
    print(f"{len(dataset)} calls loaded; cohort keeps {len(cohort)} calls "
          f"/ {len(pool)} sessions")

    result = fig1_curves(
        pool, use_control_windows=not args.no_controls,
        min_bin_count=args.min_bin_count,
    )
    print("\nengagement drop from best to worst bin (%):")
    for metric in ("latency_ms", "loss_pct", "jitter_ms", "bandwidth_mbps"):
        parts = []
        for engagement in ("presence_pct", "cam_on_pct", "mic_on_pct"):
            try:
                drop = result.relative_drop_pct(metric, engagement)
                parts.append(f"{engagement.replace('_pct', '')}={drop:.0f}%")
            except Exception:
                parts.append(f"{engagement.replace('_pct', '')}=n/a")
        print(f"  {metric:16s} " + "  ".join(parts))

    try:
        mos = mos_by_engagement(dataset.participants())
        print(f"\nMOS correlations over {mos.n_rated} rated sessions:")
        for name, r in sorted(mos.correlations.items(), key=lambda kv: -kv[1]):
            print(f"  {name:14s} spearman r = {r:+.2f}")
    except Exception as exc:
        print(f"\nMOS analysis skipped: {exc}")
    return 0


def _cmd_analyze_starlink(args: argparse.Namespace) -> int:
    from repro.analysis import (
        annotate_peak,
        outage_keyword_series,
        sentiment_timeline,
        track_speeds,
    )
    from repro.social import EventCalendar, build_news_index
    from repro.social.corpus import RedditCorpus

    corpus = RedditCorpus.from_jsonl(args.posts)
    if args.report:
        from repro.reporting import starlink_report

        print(starlink_report(corpus, n_peaks=args.peaks))
        return 0
    print(f"{len(corpus)} posts loaded "
          f"({corpus.weekly_stats()['posts_per_week']:.0f}/week)")

    timeline = sentiment_timeline(corpus)
    index = build_news_index(EventCalendar())
    print("\ntop sentiment peaks:")
    for day, value in timeline.top_peaks(args.peaks):
        annotation = annotate_peak(corpus, index, day)
        news = annotation.headline or "(no news found)"
        print(f"  {day}  {int(value):4d} strong posts "
              f"({timeline.peak_polarity(day)})  {news}")

    outages = outage_keyword_series(corpus)
    print("\noutage-keyword spikes:")
    for day, value in outages.top_spike_days(2):
        print(f"  {day}  {int(value)} occurrences")

    if corpus.speed_shares():
        track = track_speeds(corpus)
        print(f"\nspeed tracking: {track.n_extracted}/{track.n_shared} "
              f"screenshots extracted; "
              f"subsample deviation {100 * track.max_subsample_deviation():.1f}%")
    return 0


def _soak_command(run, accounting_exit: int = 2):
    """The one ending every soak command shares.

    ``run(args)`` returns ``(payload, text, verdict)``.  The command
    prints ``payload`` as JSON (``--json``) or ``text``, then the
    verdict's lines on stderr, and exits with its code; a run with no
    report (``payload`` None) prints only its verdict.  A ledger that
    fails to close mid-run is the command's accounting exit.
    """

    def command(args: argparse.Namespace) -> int:
        import json

        from repro.errors import LedgerViolationError
        from repro.verdict import Verdict

        try:
            payload, text, verdict = run(args)
        except LedgerViolationError as exc:
            payload, text, verdict = None, "", Verdict(
                accounting_exit, (f"accounting violation: {exc}",)
            )
        if payload is not None:
            print(json.dumps(payload, indent=2, sort_keys=True)
                  if args.json else text)
        for line in verdict.lines:
            print(line, file=sys.stderr)
        return verdict.exit_code

    return command


def _usaas_stream_soak(args: argparse.Namespace):
    """Deterministic streaming-ingestion soak with arrival chaos."""
    import dataclasses

    from repro.streaming import StreamConfig, run_stream_soak
    from repro.streaming.soak import DEFAULT_STREAM_FAULTS

    faults = dataclasses.replace(
        DEFAULT_STREAM_FAULTS,
        reorder_rate=args.reorder_rate,
        duplicate_rate=args.duplicate_rate,
        crash_at_s=tuple(args.crash_at or ()),
    )
    if args.no_faults:
        faults = dataclasses.replace(
            faults, base_delay_s=0.0, reorder_rate=0.0, duplicate_rate=0.0,
        )
    config = StreamConfig(
        seed=args.seed,
        allowed_lateness_s=args.allowed_lateness_s,
        dedup_horizon_s=max(
            args.allowed_lateness_s, StreamConfig().dedup_horizon_s
        ),
        late_policy=args.late_policy,
    )
    report = run_stream_soak(
        seed=args.seed,
        duration_s=args.duration_s,
        rate_per_s=args.rate_per_s,
        faults=faults,
        config=config,
        checkpoint_dir=args.checkpoint_dir,
        journal_path=args.journal,
    )
    text = [
        f"seed {args.seed}: {args.rate_per_s:.1f} records/s for "
        f"{args.duration_s:.1f}s (simulated), {report.crashes} crash(es)",
        report.summary(),
    ] + ["  " + cp.summary() for cp in report.change_points]
    return (report.counters_dict(), "\n".join(text),
            report.verdict(args.blind_threshold))


def _usaas_integrity_soak(args: argparse.Namespace):
    """Deterministic ε-contamination sweep over the aggregation paths."""
    from repro.integrity import run_integrity_soak

    report = run_integrity_soak(
        seed=args.seed,
        n_calls=args.n_calls,
        mos_sample_rate=args.mos_sample_rate,
        corpus_weeks=args.corpus_weeks,
    )
    text = "\n".join([
        f"seed {args.seed}: eps sweep "
        f"{', '.join(f'{e:g}' for e in report.eps_grid)} over "
        f"{args.n_calls} calls / {args.corpus_weeks} corpus week(s)",
        report.table(),
        report.summary(),
    ])
    return report.counters_dict(), text, report.verdict()


def _usaas_predict(args: argparse.Namespace):
    """Fit the columnar MOS predictor and grade it against ground truth."""
    import numpy as np

    from repro.errors import InsufficientRatingsError
    from repro.prediction import (
        CoalescerConfig,
        ColumnarMosPredictor,
        emodel_prior_mos,
        evaluate_ground_truth,
        run_prediction_soak,
        synthetic_prediction_server,
    )
    from repro.resilience.faults import Arrival
    from repro.rng import derive
    from repro.telemetry.generator import GeneratorConfig
    from repro.telemetry.vectorized import VectorizedCallEngine
    from repro.verdict import Verdict

    config = GeneratorConfig(
        seed=args.seed,
        n_calls=args.n_calls,
        mos_sample_rate=args.mos_sample_rate,
    )
    cols, truth = VectorizedCallEngine(config).generate_with_ground_truth()
    model = ColumnarMosPredictor(l2=args.l2)
    try:
        model.fit_columns(cols)
    except InsufficientRatingsError as exc:
        return None, "", Verdict(2, (
            f"cannot fit the MOS predictor: {exc}",
        ))

    predictions = model.predict_columns(cols)
    report_model = evaluate_ground_truth(predictions, truth, cols.platform)
    report_prior = evaluate_ground_truth(
        emodel_prior_mos(cols), truth, cols.platform
    )
    payload = {
        "seed": args.seed,
        "sessions": len(cols),
        "rated": int(np.isfinite(cols.rating).sum()),
        "model": report_model.as_dict(),
        "emodel_prior": report_prior.as_dict(),
        "weights": {k: round(v, 9) for k, v in model.weights().items()},
    }
    text = [
        f"seed {args.seed}: {len(cols)} sessions, {payload['rated']} rated "
        f"({100 * args.mos_sample_rate:.1f}% prompted)",
        "model vs experienced QoE:",
        report_model.table(),
        f"E-model prior MAE {report_prior.mae:.4f} "
        f"(bias {report_prior.bias:+.4f})",
    ]
    if not args.soak_queries:
        return payload, "\n".join(text), Verdict()
    rng = derive(args.seed, "prediction", "cli-soak")
    at_s = np.cumsum(
        rng.exponential(1.0 / args.arrival_rate_per_s, args.soak_queries)
    )
    arrivals = [
        Arrival(
            at_s=float(t),
            priority=("interactive", "batch", "batch")[i % 3],
            deadline_s=args.deadline_s,
        )
        for i, t in enumerate(at_s)
    ]
    server, _, _ = synthetic_prediction_server(
        cols, model, seed=args.seed,
        coalescer=CoalescerConfig(
            max_batch=args.max_batch, max_delay_s=args.max_delay_s
        ),
    )
    soak = run_prediction_soak(server, arrivals)
    payload["soak"] = soak.counters_dict()
    text.append(soak.summary())
    return payload, "\n".join(text), soak.verdict()


def _cmd_usaas(args: argparse.Namespace) -> int:
    from repro.core.usaas import (
        UsaasQuery,
        UsaasService,
        social_signals,
        telemetry_signals,
    )
    from repro.errors import (
        DeadlineExceededError,
        DegradedServiceError,
        PrivacyError,
        QueryRejectedError,
    )
    from repro.resilience import ResilienceConfig
    from repro.social.corpus import RedditCorpus
    from repro.telemetry.store import CallDataset

    config = ResilienceConfig(min_sources=args.min_sources, strict=args.strict)
    service = UsaasService(resilience=config)
    cache = _open_cache(args)
    if args.calls:
        service.register_source(
            "telemetry",
            lambda: telemetry_signals(
                CallDataset.from_jsonl(args.calls), network=args.network
            ),
        )
    elif cache is not None:
        # No explicit dataset: simulate the default one through the
        # artifact cache, so repeated queries hit warm cache instead of
        # resimulating.
        from repro.telemetry import CallDatasetGenerator, GeneratorConfig

        service.register_source(
            "telemetry",
            lambda: telemetry_signals(
                CallDatasetGenerator(GeneratorConfig()).generate(cache=cache),
                network=args.network,
            ),
        )
    if args.posts:
        service.register_source(
            "social",
            lambda: social_signals(
                RedditCorpus.from_jsonl(args.posts), network=args.network
            ),
        )
    elif cache is not None:
        from repro.social import CorpusConfig, CorpusGenerator

        service.register_source(
            "social",
            lambda: social_signals(
                CorpusGenerator(CorpusConfig()).generate(cache=cache),
                network=args.network,
            ),
        )
    query = UsaasQuery(network=args.network, service=args.service)
    serving = (
        args.deadline_s is not None
        or args.priority != "interactive"
        or args.max_pending is not None
    )
    try:
        if serving:
            # The overload-safe path: admission control + deadline
            # budget around the same answer() call.
            from repro.serving import UsaasServer

            server = UsaasServer(
                service,
                max_pending=args.max_pending or 16,
            )
            report = server.serve(
                query, priority=args.priority, deadline_s=args.deadline_s
            )
        else:
            report = service.answer(query)
    except (QueryRejectedError, DeadlineExceededError) as exc:
        # Soft refusal: the query was shed or its budget ran out.  The
        # service itself is still up — distinct exit code from hard
        # degradation so callers can retry with backoff.
        print(f"query not served: {exc}", file=sys.stderr)
        return 3
    except DegradedServiceError as exc:
        # Hard degradation: too few sources survived to answer at all.
        print(f"degraded service: {exc}", file=sys.stderr)
        from repro.resilience import health_table

        print(health_table(iter(service.source_health())), file=sys.stderr)
        return 2
    except PrivacyError as exc:
        # The surviving pool is below the privacy floor: the query cannot
        # be answered as asked, and a retry would hit the same floor.
        print(f"query refused: {exc}", file=sys.stderr)
        return 2
    print(report.summary)
    print(f"\n({report.n_implicit} implicit + {report.n_explicit} explicit "
          f"signals)")
    if report.source_health:
        print("\nsource health:")
        print(report.health_table())
    integrity_table = report.integrity_table()
    if integrity_table:
        print("\ntrust:")
        print(integrity_table)
    return 0


#: The priority classes a soak's load spike draws arrivals from.
_PRIORITY_MIX = (("interactive", 0.6), ("batch", 0.3), ("monitoring", 0.1))


def _usaas_soak(args: argparse.Namespace):
    """Deterministic overload soak against a synthetic USaaS service."""
    from repro.core.usaas import UsaasQuery
    from repro.resilience import FaultPlan, ManualClock
    from repro.resilience.faults import LoadSpikeSpec
    from repro.serving import UsaasServer, run_soak
    from repro.serving.soak import (
        estimated_service_time_s,
        synthetic_soak_service,
    )

    clock = ManualClock()
    plan = FaultPlan(seed=args.seed, clock=clock)
    service = synthetic_soak_service(
        plan, slow_s=args.slow_s, include_flaky=args.include_flaky
    )
    rate = args.overload / estimated_service_time_s(args.slow_s)
    arrivals = plan.load_spikes("soak", LoadSpikeSpec(
        rate_per_s=rate,
        duration_s=args.duration_s,
        priority_mix=_PRIORITY_MIX,
        deadline_s=args.deadline_s,
    ))
    server = UsaasServer(
        service,
        max_pending=args.max_pending,
        shed_policy=args.shed_policy,
    )
    query = UsaasQuery(network="starlink", service="teams")
    report = run_soak(server, arrivals, query_for=lambda arrival: query)
    text = "\n".join([
        f"seed {args.seed}: {args.overload:.1f}x capacity for "
        f"{args.duration_s:.1f}s (simulated)",
        report.summary(),
        "",
        report.metrics.table(),
    ])
    return report.counters_dict(), text, report.verdict()


def _cmd_plan_launches(args: argparse.Namespace) -> int:
    from repro.starlink.planning import LaunchPlanner, plan_outcome

    candidates = []
    for spec in args.candidates.split(","):
        year, month = spec.strip().split("-")
        candidates.append((int(year), int(month)))
    baseline = plan_outcome({})
    planner = LaunchPlanner(objective=args.objective)
    planned = planner.plan(args.budget, candidates)
    print(f"baseline: mean satisfaction {baseline.mean_satisfaction:.3f}, "
          f"worst month {baseline.min_satisfaction:.3f}")
    print(f"planned (+{args.budget} launches): "
          f"{planned.extra_launches}")
    print(f"          mean satisfaction {planned.mean_satisfaction:.3f}, "
          f"worst month {planned.min_satisfaction:.3f}")
    return 0


def _cmd_tune_mitigation(args: argparse.Namespace) -> int:
    from repro.netsim.link import LinkProfile
    from repro.netsim.tuning import MitigationTuner

    profile = LinkProfile(
        base_latency_ms=args.latency,
        loss_rate=args.loss,
        jitter_ms=args.jitter,
        bandwidth_mbps=args.bandwidth,
        burstiness=args.burstiness,
    )
    tuner = MitigationTuner(
        fec_budgets_pct=(1.0, 2.0, 4.0), objective=args.objective
    )
    result = tuner.tune(profile)
    print(f"path: {profile}")
    print(f"recommendation: jitter buffer "
          f"{result.stack.jitter_buffer_ms:.0f} ms, FEC budget "
          f"{result.stack.fec_budget_pct:.0f}%")
    print(f"predicted {result.objective} quality: "
          f"{result.default_score:.3f} -> {result.score:.3f} "
          f"({result.gain:+.3f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Flags shared across subcommands, each defined once.
    seed_flag = argparse.ArgumentParser(add_help=False)
    seed_flag.add_argument("--seed", type=int, default=DEFAULT_SEED)
    soak_flags = argparse.ArgumentParser(add_help=False,
                                         parents=[seed_flag])
    soak_flags.add_argument("--json", action="store_true",
                            help="emit the report as stable JSON")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolbox for 'Don't Forget the User' "
                    "(HotNets '23)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-calls", parents=[seed_flag],
                       help="simulate a call dataset")
    p.add_argument("--n-calls", type=int, default=500)
    p.add_argument("--mos-sample-rate", type=float, default=0.005)
    p.add_argument("--engine", choices=("record", "vectorized"),
                   default="record",
                   help="record = per-call objects (reference path); "
                        "vectorized = block simulation emitting columns "
                        "JSONL (~10x faster, statistically equivalent)")
    p.add_argument("--cache-dir",
                   help="content-addressed artifact cache directory; "
                        "matching configs load instead of resimulating")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate_calls)

    p = sub.add_parser("generate-corpus", parents=[seed_flag],
                       help="simulate an r/Starlink corpus")
    p.add_argument("--start", default="2021-01-01")
    p.add_argument("--end", default="2022-12-31")
    p.add_argument("--authors", type=int, default=4000)
    p.add_argument("--cache-dir",
                   help="content-addressed artifact cache directory; "
                        "matching configs load instead of resimulating")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate_corpus)

    p = sub.add_parser("cache", help="inspect or drop cached artifacts")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "entry counts, bytes and session hit/miss counters"),
        ("invalidate", "drop cached artifacts (all, or one --kind)"),
    ):
        cp = cache_sub.add_parser(name, help=help_text)
        cp.add_argument("--cache-dir", required=True)
        if name == "invalidate":
            cp.add_argument("--kind",
                            choices=("calls", "corpus",
                                     "participant-columns-vec"),
                            help="only drop artifacts of this kind")
        cp.set_defaults(fn=_cmd_cache)

    p = sub.add_parser("analyze-teams", help="run the §3 analyses")
    p.add_argument("--calls", required=True)
    p.add_argument("--no-controls", action="store_true",
                   help="skip the hold-other-metrics-constant windows")
    p.add_argument("--min-bin-count", type=int, default=8)
    p.add_argument("--report", action="store_true",
                   help="emit the full §3 study report instead")
    p.set_defaults(fn=_cmd_analyze_teams)

    p = sub.add_parser("analyze-starlink", help="run the §4 analyses")
    p.add_argument("--posts", required=True)
    p.add_argument("--peaks", type=int, default=3)
    p.add_argument("--report", action="store_true",
                   help="emit the full §4 study report instead")
    p.set_defaults(fn=_cmd_analyze_starlink)

    p = sub.add_parser("plan-launches",
                       help="sentiment-aware launch planning (§6)")
    p.add_argument("--budget", type=int, default=3)
    p.add_argument("--candidates", default="2021-7,2021-12,2022-2,2022-9",
                   help="comma-separated YYYY-M months")
    p.add_argument("--objective", choices=("mean", "worst_month"),
                   default="mean")
    p.set_defaults(fn=_cmd_plan_launches)

    p = sub.add_parser("tune-mitigation",
                       help="per-cohort mitigation tuning (§6)")
    p.add_argument("--latency", type=float, default=30.0)
    p.add_argument("--loss", type=float, default=0.005)
    p.add_argument("--jitter", type=float, default=8.0)
    p.add_argument("--bandwidth", type=float, default=2.5)
    p.add_argument("--burstiness", type=float, default=0.4)
    p.add_argument("--objective",
                   choices=("overall", "interactivity", "video"),
                   default="overall")
    p.set_defaults(fn=_cmd_tune_mitigation)

    p = sub.add_parser(
        "usaas", help="answer a §5 USaaS query",
        epilog="exit codes: 0 = served; 2 = hard degradation (too few "
               "sources survived) or query refused (the matching pool "
               "is below the privacy floor); 3 = shed or deadline "
               "exceeded (the service is up but refused this query — "
               "retry with backoff)",
    )
    p.add_argument("--calls", help="call dataset JSONL (implicit signals)")
    p.add_argument("--posts", help="corpus JSONL (explicit signals)")
    p.add_argument("--network", default="starlink")
    p.add_argument("--service", default=None)
    p.add_argument("--min-sources", type=int, default=1,
                   help="fewest surviving sources before the query "
                        "hard-fails (exit 2)")
    p.add_argument("--strict", action="store_true",
                   help="treat any source failure as hard degradation")
    p.add_argument("--cache-dir",
                   help="simulate default datasets through the artifact "
                        "cache when --calls/--posts are not given")
    p.add_argument("--deadline-s", type=float, default=None,
                   metavar="SECONDS",
                   help="per-query deadline budget; retries and backoff "
                        "are clamped to it and exceeding it exits 3")
    p.add_argument("--max-pending", type=int, default=None, metavar="N",
                   help="bounded admission queue in front of the query "
                        "(engages the serving path; default 16)")
    p.add_argument("--priority",
                   choices=("interactive", "batch", "monitoring"),
                   default="interactive",
                   help="priority class for admission/shedding")
    p.set_defaults(fn=_cmd_usaas)
    usaas_sub = p.add_subparsers(required=False)
    sp = usaas_sub.add_parser(
        "soak", parents=[soak_flags],
        help="deterministic overload soak on a synthetic service",
        description="Drive a synthetic USaaS service through a seeded "
                    "load spike on a simulated clock: every arrival, "
                    "retry, backoff and deadline expiry is derived from "
                    "--seed, so the same invocation always produces "
                    "byte-identical counters.",
        epilog="exit codes: 0 = every query accounted; 2 = accounting "
               "violation or drain left work behind (a bug, not load)",
    )
    sp.add_argument("--overload", type=float, default=5.0, metavar="X",
                    help="arrival rate as a multiple of capacity")
    sp.add_argument("--duration-s", type=float, default=4.0,
                    help="spike duration in simulated seconds")
    sp.add_argument("--deadline-s", type=float, default=1.0,
                    help="per-query deadline budget (simulated seconds)")
    sp.add_argument("--max-pending", type=int, default=8,
                    help="bounded admission queue")
    sp.add_argument("--shed-policy", choices=("reject", "lifo", "priority"),
                    default="priority")
    sp.add_argument("--slow-s", type=float, default=0.05,
                    help="simulated per-source fetch latency")
    sp.add_argument("--include-flaky", action="store_true",
                    help="add an always-failing source so answers are "
                         "degraded and retries burn deadline budget")
    sp.set_defaults(fn=_soak_command(_usaas_soak))
    ssp = usaas_sub.add_parser(
        "stream-soak", parents=[soak_flags],
        help="deterministic streaming-ingestion soak with arrival chaos",
        description="Mangle a seeded synthetic measurement stream "
                    "(delay, reorder, duplicate, optional crashes) and "
                    "drive it through the watermark/checkpoint pipeline "
                    "on a simulated clock.  Injected network "
                    "degradations must be answered by experience "
                    "change points; every delivery must land in "
                    "exactly one ledger bucket.  Same --seed, same "
                    "bytes — crashes included.",
        epilog="exit codes: 0 = ledger closed and the detector caught "
               "the injected degradations; 2 = accounting violation "
               "(a delivery was lost or double-counted — a bug, not "
               "chaos); 3 = detector blind — more degradations were "
               "missed than --blind-threshold allows",
    )
    ssp.add_argument("--duration-s", type=float, default=600.0,
                     help="stream span in simulated seconds")
    ssp.add_argument("--rate-per-s", type=float, default=8.0,
                     help="records per simulated second")
    ssp.add_argument("--reorder-rate", type=float, default=0.25,
                     help="fraction of deliveries picking up an extra "
                          "reordering delay")
    ssp.add_argument("--duplicate-rate", type=float, default=0.05,
                     help="fraction of records delivered twice")
    ssp.add_argument("--crash-at", action="append", type=float,
                     metavar="SECONDS",
                     help="crash the consumer at this simulated instant "
                          "and resume from the latest checkpoint "
                          "(repeatable)")
    ssp.add_argument("--no-faults", action="store_true",
                     help="clean transport: no delay, reorder or "
                          "duplication")
    ssp.add_argument("--allowed-lateness-s", type=float, default=30.0,
                     help="watermark lag; records older than this are "
                          "late")
    ssp.add_argument("--late-policy", choices=("drop", "side"),
                     default="drop",
                     help="drop late records or keep them on a side "
                          "channel (counted either way)")
    ssp.add_argument("--blind-threshold", type=float, default=0.0,
                     help="max tolerated fraction of injected "
                          "degradations the detector may miss before "
                          "exit 3")
    ssp.add_argument("--checkpoint-dir",
                     help="where operator state snapshots go (a temp "
                          "dir is used when crashes are scheduled "
                          "without one)")
    ssp.add_argument("--journal", metavar="PATH",
                     help="append-only emission journal (JSONL)")
    ssp.set_defaults(fn=_soak_command(_usaas_stream_soak))
    ip = usaas_sub.add_parser(
        "integrity-soak", parents=[soak_flags],
        help="deterministic eps-contamination sweep of the trust-weighted "
             "aggregates",
        description="Inject seeded adversarial data faults — review "
                    "brigades, bot author rings, rating-fraud campaigns, "
                    "sensor drift, malformed stream records — at each "
                    "contamination level eps, then aggregate the "
                    "contaminated data both ways: the naive mean versus "
                    "the trust-weighted robust estimators.  The sweep "
                    "proves the robust path holds its documented error "
                    "bound where the naive mean breaks, and checks the "
                    "stream boundary quarantines every malformed record.  "
                    "Same --seed, same bytes.",
        epilog="exit codes: 0 = trust-weighted aggregates held their "
               "bounds at every eps and the naive mean broke at the top "
               "eps; 2 = a robust aggregate escaped its bound, or the "
               "stream boundary leaked a malformed record (a bug, not "
               "contamination); 3 = the sweep proved nothing — the "
               "attack was too weak to break the naive mean, or trust "
               "scoring flagged nothing under attack / flagged clean "
               "contributors at eps=0",
    )
    ip.add_argument("--n-calls", type=int, default=240,
                    help="simulated meetings per eps level")
    ip.add_argument("--mos-sample-rate", type=float, default=0.3,
                    help="fraction of sessions prompted for a rating")
    ip.add_argument("--corpus-weeks", type=int, default=4,
                    help="span of the synthetic social corpus")
    ip.set_defaults(fn=_soak_command(_usaas_integrity_soak))
    pp = usaas_sub.add_parser(
        "predict", parents=[soak_flags],
        help="fit the columnar MOS predictor and grade it against "
             "simulator ground truth",
        description="Simulate a call dataset (vectorized engine), fit "
                    "ridge regression on the sparse rating column, and "
                    "compare its per-platform MAE/bias against the "
                    "experienced-QoE ground truth the simulator knows "
                    "— alongside the training-free E-model prior used "
                    "as the deadline fallback.  With --soak-queries, "
                    "also drive the micro-batching predict_mos serving "
                    "path on a simulated clock and close the books.",
        epilog="exit codes: 0 = fitted and (if soaked) every "
               "prediction served, degraded or shed within the ladder's "
               "bounds; 2 = too few rated sessions to fit — raise "
               "--mos-sample-rate or --n-calls; 3 = serving invariant "
               "violated (accounting open, or an answer overran its "
               "deadline by more than one batch cost)",
    )
    pp.add_argument("--n-calls", type=int, default=400,
                    help="simulated meetings to train/evaluate on")
    pp.add_argument("--mos-sample-rate", type=float, default=0.3,
                    help="fraction of sessions prompted for a rating "
                         "(the paper's real-world rate is ~0.005; "
                         "training needs more)")
    pp.add_argument("--l2", type=float, default=1.0,
                    help="ridge regularisation strength")
    pp.add_argument("--soak-queries", type=int, default=0,
                    help="also run a predict_mos serving soak with this "
                         "many queries (0 = skip)")
    pp.add_argument("--arrival-rate-per-s", type=float, default=200.0,
                    help="soak arrival rate (queries per simulated "
                         "second)")
    pp.add_argument("--deadline-s", type=float, default=0.05,
                    help="per-query deadline budget in the soak")
    pp.add_argument("--max-batch", type=int, default=16,
                    help="coalescer flush size")
    pp.add_argument("--max-delay-s", type=float, default=0.01,
                    help="coalescer age bound (simulated seconds)")
    pp.set_defaults(fn=_soak_command(_usaas_predict, accounting_exit=3))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.errors import ConfigError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        # A flag value argparse accepted but a config rejected is a
        # usage error like any other: one line and exit 2.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
