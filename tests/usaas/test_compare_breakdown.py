"""Tests for USaaS breakdown queries and A-vs-B comparison."""

import datetime as dt

import pytest

from repro.core.signals import ImplicitSignal, SignalSeries
from repro.core.usaas import (
    UsaasQuery,
    UsaasService,
    telemetry_signals,
)
from repro.core.usaas.privacy import scrub_author
from repro.errors import AnalysisError, PrivacyError, QueryError
from repro.netsim.link import LinkProfile
from repro.resilience.clock import ManualClock
from repro.telemetry import CallDatasetGenerator, GeneratorConfig
from tests.usaas.oracle import OracleService

DAY = dt.datetime(2022, 3, 1, 9)


@pytest.fixture(scope="module")
def two_network_service():
    gen = CallDatasetGenerator(GeneratorConfig(n_calls=0, seed=17))
    degraded = LinkProfile(base_latency_ms=260, loss_rate=0.02,
                           jitter_ms=10, bandwidth_mbps=1.5, burstiness=0.5)
    clean = LinkProfile(base_latency_ms=12, loss_rate=0.0004,
                        jitter_ms=1, bandwidth_mbps=4.0, burstiness=0.1)
    bad_calls = gen.generate_sweep(degraded, "latency", [260.0],
                                   calls_per_value=60, focal_only=False)
    good_calls = gen.generate_sweep(clean, "latency", [12.0],
                                    calls_per_value=60, focal_only=False)
    service = UsaasService()
    service.register_source(
        "bad", lambda: telemetry_signals(bad_calls, network="degraded-isp")
    )
    service.register_source(
        "good", lambda: telemetry_signals(good_calls, network="clean-isp")
    )
    return service


class TestBreakdown:
    def test_breakdown_adds_per_group_levels(self, two_network_service):
        report = two_network_service.answer(UsaasQuery(
            network="degraded-isp", service="teams", breakdown="platform",
        ))
        breakdown_levels = [
            i for i in report.insights
            if i.kind == "level" and "platform=" in i.statement
        ]
        assert len(breakdown_levels) >= 2
        platforms = {i.statement.split("platform=")[1].split()[0]
                     for i in breakdown_levels}
        assert "windows_pc" in platforms

    def test_no_breakdown_no_group_levels(self, two_network_service):
        report = two_network_service.answer(UsaasQuery(
            network="degraded-isp", service="teams",
        ))
        assert not any("platform=" in i.statement for i in report.insights)

    def test_small_groups_suppressed(self, two_network_service):
        """The privacy-minded size floor hides thin groups."""
        report = two_network_service.answer(UsaasQuery(
            network="degraded-isp", service="teams", breakdown="user",
        ))
        # Every 'user' group has exactly 1 session — all suppressed.
        assert not any("user=" in i.statement for i in report.insights)


class TestCompare:
    def test_degraded_network_trails_everywhere(self, two_network_service):
        comparison = two_network_service.compare(
            "degraded-isp", "clean-isp", service="teams"
        )
        assert len(comparison.metrics) == 3
        for metric in comparison.metrics:
            assert metric.mean_a < metric.mean_b, metric.metric
            assert metric.effect_size < 0

    def test_worst_gap_identified(self, two_network_service):
        comparison = two_network_service.compare(
            "degraded-isp", "clean-isp", service="teams"
        )
        worst = comparison.worst_gap()
        assert worst.effect_size == min(
            m.effect_size for m in comparison.metrics
        )

    def test_summary_readable(self, two_network_service):
        comparison = two_network_service.compare(
            "degraded-isp", "clean-isp", service="teams"
        )
        text = comparison.summary()
        assert "degraded-isp vs clean-isp" in text
        assert "behind" in text

    def test_magnitude_labels(self, two_network_service):
        comparison = two_network_service.compare(
            "degraded-isp", "clean-isp", service="teams"
        )
        assert all(
            m.magnitude in ("negligible", "small", "medium", "large")
            for m in comparison.metrics
        )

    def test_rejects_same_network(self, two_network_service):
        with pytest.raises(QueryError):
            two_network_service.compare("clean-isp", "clean-isp")

    def test_unknown_network_hits_privacy_floor(self, two_network_service):
        with pytest.raises(PrivacyError):
            two_network_service.compare("clean-isp", "no-such-isp")

    def test_symmetric_effect_sizes(self, two_network_service):
        ab = two_network_service.compare("degraded-isp", "clean-isp",
                                         service="teams")
        ba = two_network_service.compare("clean-isp", "degraded-isp",
                                         service="teams")
        for m_ab, m_ba in zip(ab.metrics, ba.metrics):
            assert m_ab.effect_size == pytest.approx(-m_ba.effect_size)


class TestCompareFetchesOnce:
    """``compare`` gathers once: both sides read the same fetch."""

    @staticmethod
    def _changing_source(calls):
        """Each call returns new values: call ``c`` puts ``100 * c + i``
        on user ``i`` of both networks."""
        def source():
            calls.append(None)
            shift = 100.0 * len(calls)
            return SignalSeries([
                ImplicitSignal(DAY + dt.timedelta(minutes=i), network,
                               "presence", shift + i, service="teams",
                               user=scrub_author(f"u{i}"))
                for network in ("net-a", "net-b") for i in range(12)
            ])
        return source

    @pytest.mark.parametrize("service_type", [UsaasService, OracleService])
    def test_each_source_is_called_once_per_compare(self, service_type):
        calls = []
        service = service_type(clock=ManualClock())
        service.register_source("telemetry", self._changing_source(calls))
        service.compare("net-a", "net-b", metrics=("presence",))
        assert len(calls) == 1
        service.compare("net-a", "net-b", metrics=("presence",))
        assert len(calls) == 2

    @pytest.mark.parametrize("service_type", [UsaasService, OracleService])
    def test_both_sides_read_the_first_call(self, service_type):
        service = service_type(clock=ManualClock())
        service.register_source("telemetry", self._changing_source([]))
        (row,) = service.compare("net-a", "net-b", metrics=("presence",)).metrics
        assert row.mean_a == row.mean_b == 100.0 + 5.5
        assert row.effect_size == 0.0
