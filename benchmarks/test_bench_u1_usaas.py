"""U1 — §5 USaaS end-to-end: "how do Starlink users perceive Teams?"

The paper's worked example: USaaS filters online user actions and MOS on
MS Teams pertaining to Starlink, plus offline social feedback on the
same, and correlates them.  The benchmark wires two synthetic deployments
(a degraded "starlink" cohort and a clean "fiber" cohort) plus the Reddit
corpus into the service and checks the report distinguishes them.
"""

import datetime as dt

import pytest

from benchmarks.conftest import BENCH_SEED, emit
from benchmarks.util import timed
from repro.core.usaas import (
    UsaasQuery,
    UsaasService,
    social_signals,
    telemetry_signals,
)
from repro.netsim.link import LinkProfile
from repro.telemetry import CallDatasetGenerator, GeneratorConfig
from repro.telemetry.generator import focal_participants


@pytest.fixture(scope="module")
def service(bench_corpus, bench_timeline):
    gen = CallDatasetGenerator(
        GeneratorConfig(n_calls=0, seed=BENCH_SEED, mos_sample_rate=0.2)
    )
    starlink_profile = LinkProfile(
        base_latency_ms=45, loss_rate=0.012, jitter_ms=10.0,
        bandwidth_mbps=2.8, burstiness=0.6,
    )
    fiber_profile = LinkProfile(
        base_latency_ms=12, loss_rate=0.0004, jitter_ms=1.0,
        bandwidth_mbps=4.0, burstiness=0.1,
    )
    starlink_calls = gen.generate_sweep(
        starlink_profile, "latency", [45.0], calls_per_value=120,
        focal_only=False,
    )
    fiber_calls = gen.generate_sweep(
        fiber_profile, "latency", [12.0], calls_per_value=120,
        focal_only=False,
    )
    svc = UsaasService()
    svc.register_source(
        "teams-starlink",
        lambda: telemetry_signals(starlink_calls, network="starlink"),
    )
    svc.register_source(
        "teams-fiber",
        lambda: telemetry_signals(fiber_calls, network="fiber"),
    )
    svc.register_source(
        "reddit",
        lambda: social_signals(bench_corpus),
    )
    return svc


class TestU1:
    def test_bench_u1_report(self, benchmark, service):
        report = timed(benchmark, lambda: service.answer(
            UsaasQuery(network="starlink", service="teams")
        ))
        emit("u1_usaas", report.summary + (
            f"\n  implicit signals: {report.n_implicit}"
            f"\n  explicit signals: {report.n_explicit}"
        ))
        assert report.insights
        assert report.n_implicit > 0 and report.n_explicit > 0

    def test_starlink_worse_than_fiber_on_teams(self, benchmark, service):
        reports = timed(benchmark, lambda: {
            net: service.answer(UsaasQuery(network=net, service="teams"))
            for net in ("starlink", "fiber")
        })

        def presence_level(report):
            for insight in report.insights:
                if insight.kind == "level" and insight.statement.startswith(
                    "presence"
                ):
                    return insight.evidence_dict()["mean"]
            raise AssertionError("no presence level insight")

        assert presence_level(reports["starlink"]) < presence_level(
            reports["fiber"]
        )

    def test_outage_anomaly_surfaces(self, benchmark, service):
        report = timed(benchmark, lambda: service.answer(
            UsaasQuery(network="starlink")
        ))
        anomalies = [i for i in report.insights if i.kind == "anomaly"]
        assert anomalies
        assert any("2022" in i.statement for i in anomalies)

    def test_network_comparison(self, benchmark, service):
        """The generalised worked example: starlink vs fiber, by metric."""
        comparison = timed(benchmark, lambda: service.compare(
            "starlink", "fiber", service="teams"
        ))
        emit("u1_comparison", comparison.summary())
        worst = comparison.worst_gap()
        assert worst.effect_size < 0  # starlink trails the fiber control
        assert len(comparison.metrics) == 3

    def test_privacy_floor_respected(self, benchmark, service):
        from repro.errors import PrivacyError

        def run():
            try:
                service.answer(
                    UsaasQuery(network="starlink", min_users=10**9)
                )
            except PrivacyError:
                return True
            return False

        assert timed(benchmark, run)
