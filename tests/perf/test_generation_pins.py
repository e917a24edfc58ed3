"""Byte pins on both generation engines and on the cache keys.

Each case hashes the exact ``to_jsonl`` bytes of one generated
artifact.  Every call and every corpus day draws from its own
``derive()`` substream, so these digests move only when the simulation
itself changes, never with how the loop over units is run.  The two
default config fingerprints are the artifact cache's keys; a change to
either orphans every cached dataset.
"""

import datetime as dt
import hashlib

import pytest

from repro.netsim.link import LinkProfile
from repro.perf import config_fingerprint
from repro.social import CorpusConfig, CorpusGenerator
from repro.telemetry import CallDatasetGenerator, GeneratorConfig

SEEDS = (1, 7, 20231128)

SWEEP_BASE = LinkProfile(
    base_latency_ms=20, loss_rate=0.001, jitter_ms=2.0, bandwidth_mbps=3.5
)


def _calls(seed):
    return CallDatasetGenerator(
        GeneratorConfig(n_calls=40, seed=seed, mos_sample_rate=0.2)
    )


def _corpus(seed):
    return CorpusGenerator(
        CorpusConfig(
            seed=seed,
            span_start=dt.date(2022, 1, 1),
            span_end=dt.date(2022, 2, 28),
            author_pool_size=300,
        )
    )


def _sweep(seed):
    gen = CallDatasetGenerator(GeneratorConfig(n_calls=0, seed=seed))
    return gen.generate_sweep(
        SWEEP_BASE, "loss", [1e-05, 0.02], calls_per_value=4
    )


ARTIFACTS = {
    "calls-record": lambda seed: _calls(seed).generate(),
    "calls-vectorized": lambda seed: _calls(seed).generate_columns(),
    "corpus-record": lambda seed: _corpus(seed).generate(),
    "corpus-vectorized": lambda seed: _corpus(seed).generate_columns(),
    "sweep": _sweep,
}

PINS = {
    (1, "calls-record"):
        "c957f87de12fde2947625f59903860cae57837ae410d31d38aa95bf69838aa09",
    (1, "calls-vectorized"):
        "ebb3a758fb485b1c1154996e17254414674efc003ec4c5783293010fb9889109",
    (1, "corpus-record"):
        "e965f26b7656e0987dead40232a525d327e63aae9efcdaf32314bc4e809835e1",
    (1, "corpus-vectorized"):
        "06d1a7c41803c3af72a1b47e40cf7c01ba9fe20d8757c3aece2fe17231252605",
    (1, "sweep"):
        "328dd08b3c5d0fe0587f2532b682280b0e96e5629e22dd73d7cfb3835f265b55",
    (7, "calls-record"):
        "834245143ce0ebf431ff2bfd284734015447f3229ceace4442b2098e368f6ecb",
    (7, "calls-vectorized"):
        "98ddee734629828aa6be94344e3e41f03dc88c918f2049f248abb4bc7cecee2e",
    (7, "corpus-record"):
        "5ad49aac8873b07da0b63f4d626c0b7b7002dee822b6f3d52b5f4b3d8af0489f",
    (7, "corpus-vectorized"):
        "8c75a3f3305cd33acbedb9d0fb246c985362cd18b6d4f25123fd47c1a64354d5",
    (7, "sweep"):
        "d7299235d9da19f836ea16a16ff3a7c138f95b155832bc961ed7a67c4c04ac1f",
    (20231128, "calls-record"):
        "993ccb48b3ab859ae0446d47150470ea3569aecf8eb469b88a482fe66c37619c",
    (20231128, "calls-vectorized"):
        "bc4b4b5663e581d14d70b5df6e6fd301ae297cc17a5e1212a23fe0a70a98e3c7",
    (20231128, "corpus-record"):
        "8dfb865d4d52687b96cd2438e2aaae0acf2ab5db531ac2b359714790ca65bf1a",
    (20231128, "corpus-vectorized"):
        "624974e9a6a054784a60bdf1366e93c118a111b4dd62ee959aa6b105536f456f",
    (20231128, "sweep"):
        "26ed034e67dc802c80953fec4e634e77e2acf96ac4ccf3edf3c1cccfe926394a",
}


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
@pytest.mark.parametrize("seed", SEEDS)
def test_generation_bytes_pinned(seed, kind, tmp_path):
    path = tmp_path / f"{kind}.jsonl"
    ARTIFACTS[kind](seed).to_jsonl(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINS[(seed, kind)]


def test_default_cache_keys_pinned():
    assert config_fingerprint("calls", GeneratorConfig()) == (
        "6952705e5fa3371cfe61f6d134cd46c03a422a2a539b29fa398c27903804930e"
    )
    assert config_fingerprint("corpus", CorpusConfig()) == (
        "15ab6099339d50c1ed00a957fc6c332b94afd4b131f81e08a0014c9c6e8a6a3b"
    )
