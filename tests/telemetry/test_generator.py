"""Tests for the end-to-end call-dataset generator."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.netsim.link import LinkProfile
from repro.telemetry import CallDatasetGenerator, GeneratorConfig
from repro.telemetry.generator import focal_participants, sweep_value_of
from repro.telemetry.schema import NETWORK_METRICS


class TestGeneratorConfig:
    def test_rejects_negative_calls(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(n_calls=-1)

    def test_rejects_bad_sample_rate(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(mos_sample_rate=1.5)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_workers_must_be_one(self, workers):
        with pytest.raises(ConfigError, match="workers must be 1"):
            GeneratorConfig(workers=workers)


class TestGenerate:
    def test_deterministic(self):
        config = GeneratorConfig(n_calls=20, seed=77)
        a = CallDatasetGenerator(config).generate()
        b = CallDatasetGenerator(config).generate()
        assert len(a) == len(b)
        for call_a, call_b in zip(a, b):
            assert call_a.call_id == call_b.call_id
            for pa, pb in zip(call_a.participants, call_b.participants):
                assert pa.presence_pct == pb.presence_pct
                assert pa.network == pb.network

    def test_seed_changes_output(self):
        a = CallDatasetGenerator(GeneratorConfig(n_calls=10, seed=1)).generate()
        b = CallDatasetGenerator(GeneratorConfig(n_calls=10, seed=2)).generate()
        pa = next(a.participants())
        pb = next(b.participants())
        assert pa.network != pb.network

    def test_records_valid(self, small_dataset):
        for call in small_dataset:
            assert call.size >= 2
            for p in call.participants:
                assert 0 <= p.presence_pct <= 100
                assert 0 <= p.cam_on_pct <= 100
                assert 0 <= p.mic_on_pct <= 100
                for metric in NETWORK_METRICS:
                    agg = p.network[metric]
                    assert agg["median"] <= agg["p95"] * 1.0001

    def test_presence_capped_and_anchored(self, small_dataset):
        """At least one participant per call sits at the median → 100."""
        for call in list(small_dataset)[:30]:
            presences = [p.presence_pct for p in call.participants]
            assert max(presences) == pytest.approx(100.0)

    def test_ratings_sparse_but_present(self, small_dataset):
        rated = small_dataset.rated_participants()
        assert 0 < len(rated) < small_dataset.n_participants

    def test_platform_mix(self, small_dataset):
        platforms = {p.platform for p in small_dataset.participants()}
        assert "windows_pc" in platforms
        assert len(platforms) >= 3


class TestOutageInjection:
    def test_rejects_bad_severity(self):
        import datetime as dt

        with pytest.raises(ConfigError):
            GeneratorConfig(outage_days={dt.date(2022, 1, 7): 1.5})

    def test_outage_day_sessions_degraded(self):
        import datetime as dt

        from repro.telemetry.meetings import MeetingScheduler

        day = dt.date(2022, 2, 15)
        scheduler = MeetingScheduler(
            span_start=dt.date(2022, 2, 1), span_end=dt.date(2022, 2, 28)
        )
        with_outage = CallDatasetGenerator(
            GeneratorConfig(n_calls=250, seed=21, outage_days={day: 0.9}),
            scheduler=scheduler,
        ).generate()
        hit = [p for c in with_outage if c.start.date() == day
               for p in c.participants]
        spared = [p for c in with_outage if c.start.date() != day
                  for p in c.participants]
        assert hit and spared
        hit_loss = np.mean([p.metric("loss_pct") for p in hit])
        spared_loss = np.mean([p.metric("loss_pct") for p in spared])
        assert hit_loss > spared_loss + 2.0
        hit_drop = np.mean([p.dropped_early for p in hit])
        spared_drop = np.mean([p.dropped_early for p in spared])
        assert hit_drop > spared_drop + 0.15


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep_dataset(self):
        gen = CallDatasetGenerator(GeneratorConfig(n_calls=0, seed=13))
        base = LinkProfile(base_latency_ms=20, loss_rate=0.001, jitter_ms=2,
                           bandwidth_mbps=3.5)
        return gen.generate_sweep(base, "latency", [10.0, 200.0],
                                  calls_per_value=12)

    def test_sweep_value_recoverable(self, sweep_dataset):
        values = {sweep_value_of(c) for c in sweep_dataset}
        assert values == {10.0, 200.0}

    def test_focal_participants_forced(self, sweep_dataset):
        for call in sweep_dataset:
            focal = call.participants[0]
            target = sweep_value_of(call)
            # Mean latency includes queueing; must sit near the forced base.
            assert focal.metric("latency_ms") == pytest.approx(target, rel=0.6)

    def test_focal_selector(self, sweep_dataset):
        focal = focal_participants(sweep_dataset)
        assert len(focal) == len(sweep_dataset)
        assert all(p.user_id.endswith("-u000") for p in focal)

    def test_non_focal_unforced(self, sweep_dataset):
        """Other participants should NOT all share the forced profile."""
        high_lat_calls = [c for c in sweep_dataset if sweep_value_of(c) == 200.0]
        others = [
            p.metric("latency_ms")
            for c in high_lat_calls
            for p in c.participants[1:]
        ]
        assert others, "sweep calls should have non-focal participants"
        assert min(others) < 100  # somebody has a normal network

    def test_sweep_value_survives_scientific_notation(self):
        """Regression: '1e-05' formats with an embedded '-' which used
        to truncate the parsed value to '1e' and raise ConfigError."""
        gen = CallDatasetGenerator(GeneratorConfig(n_calls=0, seed=5))
        base = LinkProfile(base_latency_ms=20, loss_rate=0.001, jitter_ms=2,
                           bandwidth_mbps=3.5)
        dataset = gen.generate_sweep(
            base, "loss", [1e-05, 2.5e-06, 0.02], calls_per_value=1
        )
        assert {sweep_value_of(c) for c in dataset} == {1e-05, 2.5e-06, 0.02}

    def test_sweep_value_rejects_non_sweep_ids(self):
        gen = CallDatasetGenerator(GeneratorConfig(n_calls=2, seed=5))
        for call in gen.generate():
            with pytest.raises(ConfigError):
                sweep_value_of(call)

    def test_rejects_unknown_metric(self):
        gen = CallDatasetGenerator(GeneratorConfig(n_calls=0))
        base = LinkProfile(base_latency_ms=20, loss_rate=0.001, jitter_ms=2,
                           bandwidth_mbps=3.5)
        with pytest.raises(ConfigError):
            gen.generate_sweep(base, "rtt", [1.0], calls_per_value=1)

    def test_rejects_unknown_platform_before_generating(self, monkeypatch):
        gen = CallDatasetGenerator(GeneratorConfig(n_calls=0))
        base = LinkProfile(base_latency_ms=20, loss_rate=0.001, jitter_ms=2,
                           bandwidth_mbps=3.5)

        def no_calls(*args, **kwargs):
            raise AssertionError("a call was generated")

        monkeypatch.setattr(gen, "_build_call", no_calls)
        with pytest.raises(ConfigError, match="'blackberry'.*windows_pc"):
            gen.generate_sweep(base, "loss", [0.01], calls_per_value=1,
                               platform_key="blackberry")

    def test_mobile_focal_more_loss_sensitive(self):
        """Fig. 3: at the same loss, mobile users leave sooner than PC users."""
        base = LinkProfile(base_latency_ms=25, loss_rate=0.001, jitter_ms=2,
                           bandwidth_mbps=3.5)
        drop = {}
        for key in ("windows_pc", "android_mobile"):
            dataset = CallDatasetGenerator(
                GeneratorConfig(n_calls=0, seed=66)
            ).generate_sweep(base, "loss", [0.001, 0.04], calls_per_value=20,
                             platform_key=key)
            presence = {0.001: [], 0.04: []}
            for call in dataset:
                presence[sweep_value_of(call)].append(
                    call.participants[0].presence_pct
                )
            drop[key] = np.mean(presence[0.001]) - np.mean(presence[0.04])
        assert drop["android_mobile"] > drop["windows_pc"]

    def test_mitigation_ablation_changes_outcomes(self):
        base = LinkProfile(base_latency_ms=20, loss_rate=0.015, jitter_ms=2,
                           bandwidth_mbps=3.5)
        on = CallDatasetGenerator(
            GeneratorConfig(n_calls=0, seed=3, mitigation_enabled=True)
        ).generate_sweep(base, "loss", [0.015], calls_per_value=25)
        off = CallDatasetGenerator(
            GeneratorConfig(n_calls=0, seed=3, mitigation_enabled=False)
        ).generate_sweep(base, "loss", [0.015], calls_per_value=25)
        drop_on = np.mean([p.dropped_early for c in on for p in [c.participants[0]]])
        drop_off = np.mean([p.dropped_early for c in off for p in [c.participants[0]]])
        assert drop_off > drop_on
