"""Tests for persistent users and dynamic conditioning."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.rng import derive
from repro.telemetry import CallDatasetGenerator, GeneratorConfig
from repro.telemetry.users import User, UserPopulation


class TestUser:
    def _user(self, conditioning=0.5):
        from repro.netsim.link import LinkProfile
        from repro.telemetry.platforms import PLATFORMS

        return User(
            user_id="u1",
            platform=PLATFORMS["windows_pc"],
            home_profile=LinkProfile(base_latency_ms=20, loss_rate=0.001,
                                     jitter_ms=2, bandwidth_mbps=3.5),
            conditioning=conditioning,
        )

    def test_good_experience_raises_expectations(self):
        user = self._user(conditioning=0.5)
        for _ in range(20):
            user.record_session(4.8)
        assert user.conditioning > 0.8

    def test_bad_experience_hardens(self):
        user = self._user(conditioning=0.8)
        for _ in range(20):
            user.record_session(2.0)
        assert user.conditioning < 0.4

    def test_mean_quality_tracked(self):
        user = self._user()
        assert user.mean_experienced_quality is None
        user.record_session(4.0)
        user.record_session(2.0)
        assert user.mean_experienced_quality == pytest.approx(3.0)
        assert user.n_sessions == 2

    def test_rejects_bad_inputs(self):
        user = self._user()
        with pytest.raises(ConfigError):
            user.record_session(0.5)
        with pytest.raises(ConfigError):
            user.record_session(4.0, adaptation=0)


class TestUserPopulation:
    def test_deterministic(self):
        a = UserPopulation(size=50, seed=3)
        b = UserPopulation(size=50, seed=3)
        assert [u.home_profile for u in a] == [u.home_profile for u in b]

    def test_sample_distinct(self, fresh_rng):
        population = UserPopulation(size=100, seed=4)
        users = population.sample(fresh_rng, 20)
        assert len({u.user_id for u in users}) == 20

    def test_sample_rejects_oversize(self, fresh_rng):
        with pytest.raises(ConfigError):
            UserPopulation(size=10, seed=4).sample(fresh_rng, 11)

    def test_mobile_users_on_mobile_networks(self):
        """The platform/network correlation carries into home profiles."""
        population = UserPopulation(size=800, seed=5)
        mobile_lat = [u.home_profile.base_latency_ms for u in population
                      if u.platform.is_mobile]
        pc_lat = [u.home_profile.base_latency_ms for u in population
                  if not u.platform.is_mobile]
        assert np.mean(mobile_lat) > np.mean(pc_lat)


class TestPersistentGeneration:
    @pytest.fixture(scope="class")
    def persistent_dataset(self):
        generator = CallDatasetGenerator(GeneratorConfig(
            n_calls=250, seed=31, persistent_users=True,
            population_size=300,
        ))
        return generator.generate(), generator

    def test_user_ids_recur_across_calls(self, persistent_dataset):
        dataset, _ = persistent_dataset
        ids = [p.user_id for p in dataset.participants()]
        assert len(set(ids)) < len(ids)  # somebody attended twice

    def test_same_user_same_platform(self, persistent_dataset):
        dataset, _ = persistent_dataset
        platform_of = {}
        for p in dataset.participants():
            assert platform_of.setdefault(p.user_id, p.platform) == p.platform

    def test_conditioning_evolves(self, persistent_dataset):
        """After many sessions, conditioning reflects experienced quality:
        users on good home networks end up with higher expectations."""
        dataset, generator = persistent_dataset
        population = generator.population
        experienced = [
            (u.conditioning, u.mean_experienced_quality)
            for u in population
            if u.n_sessions >= 3
        ]
        assert len(experienced) > 30
        conditioning = np.array([e[0] for e in experienced])
        quality = np.array([e[1] for e in experienced])
        r = np.corrcoef(conditioning, quality)[0, 1]
        # Adaptation is deliberately slow (0.1/session) and users average
        # only ~4 sessions here, so the correlation is moderate — but it
        # must be clearly positive: experience sets expectations.
        assert r > 0.25

    def test_default_mode_unchanged(self):
        """persistent_users=False keeps the original anonymous ids."""
        dataset = CallDatasetGenerator(
            GeneratorConfig(n_calls=5, seed=31)
        ).generate()
        for p in dataset.participants():
            assert p.user_id.startswith("call-")
