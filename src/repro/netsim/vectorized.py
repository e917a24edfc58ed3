"""Array-based fast paths mirroring the scalar mitigation/QoE models.

The telemetry generator simulates hundreds of thousands of participant
sessions, each with hundreds of five-second intervals.  Calling the
scalar :meth:`MitigationStack.apply` / :meth:`QoeModel.score` per interval
would dominate the runtime, so this module re-expresses the same formulas
over numpy arrays.  ``tests/netsim/test_vectorized.py`` pins the two
implementations together element-by-element — if the scalar model changes,
that test fails until this file is updated to match.

Two layers live here:

* the **per-session** array path (:func:`mitigate_arrays` /
  :func:`qoe_arrays`), shape-agnostic elementwise formulas shared by the
  record generator (1-D per session) and the block engine (2-D);
* the **block** condition layer (:class:`LinkProfileArrays`,
  :func:`condition_blocks`, :func:`loss_pct_block`) that simulates whole
  *batches* of sessions as ``(n_sessions, n_intervals)`` arrays — the
  tentpole of the vectorized generation engine.  Block loss uses a
  compound-Poisson approximation of the Gilbert–Elliott chain whose
  stationary mean is exact (see :func:`loss_pct_block`); equivalence to
  the scalar processes is pinned statistically by
  ``tests/netsim/test_vectorized_blocks.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.netsim.loss import PACKETS_PER_SECOND
from repro.netsim.mitigation import MitigationStack
from repro.netsim.qoe import QoeModel


@dataclass(frozen=True)
class EffectiveArrays:
    """Vector analogue of :class:`repro.netsim.mitigation.EffectiveConditions`."""

    delay_ms: np.ndarray
    residual_audio_loss_pct: np.ndarray
    residual_video_loss_pct: np.ndarray
    video_bitrate_share: np.ndarray
    audio_bitrate_share: np.ndarray


@dataclass(frozen=True)
class QualityArrays:
    """Vector analogue of :class:`repro.netsim.qoe.QualityScores`."""

    audio_mos: np.ndarray
    video_mos: np.ndarray
    interactivity: np.ndarray
    overall_mos: np.ndarray


def mitigate_arrays(
    stack: MitigationStack,
    latency_ms: np.ndarray,
    loss_pct: np.ndarray,
    jitter_ms: np.ndarray,
    bandwidth_mbps: np.ndarray,
    burstiness: float,
) -> EffectiveArrays:
    """Vectorised :meth:`MitigationStack.apply` over per-interval arrays."""
    effective_efficiency = stack.fec_efficiency * (1 - stack.burst_penalty * burstiness)
    in_budget = np.minimum(loss_pct, stack.fec_budget_pct)
    over_budget = np.maximum(0.0, loss_pct - stack.fec_budget_pct)
    after_fec = in_budget * (1 - effective_efficiency) + over_budget

    excess_jitter = np.maximum(0.0, jitter_ms - stack.jitter_buffer_ms)
    late_audio_pct = np.minimum(20.0, 0.15 * excess_jitter)
    late_video_pct = np.minimum(40.0, 1.5 * excess_jitter)

    residual_audio = (after_fec + late_audio_pct) * (1 - stack.audio_concealment)
    residual_video = (after_fec + late_video_pct) * (1 - stack.video_concealment)

    video_share = np.minimum(1.0, bandwidth_mbps / stack.video_target_mbps)
    audio_share = np.minimum(1.0, bandwidth_mbps / stack.audio_target_mbps)

    delay = latency_ms + stack.jitter_buffer_ms + np.minimum(
        jitter_ms, stack.jitter_buffer_ms
    )
    return EffectiveArrays(
        delay_ms=delay,
        residual_audio_loss_pct=np.minimum(100.0, residual_audio),
        residual_video_loss_pct=np.minimum(100.0, residual_video),
        video_bitrate_share=video_share,
        audio_bitrate_share=audio_share,
    )


def _r_to_mos_arrays(r: np.ndarray) -> np.ndarray:
    r_clipped = np.clip(r, 0.0, 100.0)
    mos = 1 + 0.035 * r_clipped + 7e-6 * r_clipped * (r_clipped - 60) * (100 - r_clipped)
    mos = np.where(r <= 0, 1.0, mos)
    mos = np.where(r >= 100, 4.5, mos)
    return mos


def qoe_arrays(model: QoeModel, eff: EffectiveArrays) -> QualityArrays:
    """Vectorised :meth:`QoeModel.score` over mitigated condition arrays."""
    # --- audio R-factor ---
    delay = eff.delay_ms
    id_term = 0.024 * delay + np.where(
        delay > model.delay_knee_ms, 0.11 * (delay - model.delay_knee_ms), 0.0
    )
    loss_frac = eff.residual_audio_loss_pct / 100.0
    ie_term = model.loss_impairment_scale * np.log(1 + 15 * loss_frac)
    starvation = 40.0 * (1 - eff.audio_bitrate_share)
    r = model.r_baseline - id_term - ie_term - starvation
    audio = np.clip(_r_to_mos_arrays(r), 1.0, 5.0)

    # --- video ---
    artefact_frac = eff.residual_video_loss_pct / 100.0
    artefact_quality = np.exp(-7.0 * artefact_frac)
    share = np.maximum(1e-3, eff.video_bitrate_share)
    bitrate_quality = np.minimum(1.0, 0.88 + 0.12 * np.log10(1 + 9 * share))
    video = np.clip(1 + 4 * artefact_quality * bitrate_quality, 1.0, 5.0)

    # --- interactivity & overall ---
    interactivity = np.exp(-np.log(2) * delay / model.interactivity_halflife_ms)
    overall = np.clip(
        0.55 * audio + 0.25 * video + 0.20 * (1 + 4 * interactivity), 1.0, 5.0
    )
    return QualityArrays(
        audio_mos=audio,
        video_mos=video,
        interactivity=interactivity,
        overall_mos=overall,
    )


# -- block simulation: many sessions at once -------------------------------


@dataclass(frozen=True)
class LinkProfileArrays:
    """Struct-of-arrays analogue of :class:`~repro.netsim.link.LinkProfile`.

    One row per session; every field is a float64 array of the same
    length.  This is what the block engine carries instead of a list of
    profile objects.
    """

    base_latency_ms: np.ndarray
    loss_rate: np.ndarray
    jitter_ms: np.ndarray
    bandwidth_mbps: np.ndarray
    burstiness: np.ndarray

    def __len__(self) -> int:
        return len(self.base_latency_ms)


@dataclass(frozen=True)
class MitigationParamArrays:
    """Per-row mitigation parameters, duck-typed as a ``MitigationStack``.

    :func:`mitigate_arrays` only reads attributes and combines them
    elementwise, so handing it ``(n_sessions, 1)``-shaped parameter
    columns broadcasts the per-platform safeguard stacks across a whole
    block in one call.
    """

    fec_budget_pct: np.ndarray
    fec_efficiency: np.ndarray
    burst_penalty: np.ndarray
    jitter_buffer_ms: np.ndarray
    audio_concealment: np.ndarray
    video_concealment: np.ndarray
    video_target_mbps: np.ndarray
    audio_target_mbps: np.ndarray


#: Per-packet loss probability in the Gilbert–Elliott bad state (matches
#: :class:`~repro.netsim.loss.GilbertElliottLoss`'s default).
_BAD_LOSS = 0.5


def loss_pct_block(
    rng: np.random.Generator,
    loss_rate: np.ndarray,
    burstiness: np.ndarray,
    n_intervals: int,
    duration_s: float = 5.0,
) -> np.ndarray:
    """Batched Gilbert–Elliott interval loss over ``(rows, n_intervals)``.

    The scalar chain alternates geometric good/bad sojourns packet by
    packet.  The block form replaces the renewal process with a compound
    Poisson of bad runs per interval: with ``M`` packets per interval,
    bad→good probability ``p_bg`` and stationary bad occupancy
    ``pi_bad = rate / bad_loss``, the number of bad runs touching an
    interval is ``Poisson(M * p_bg * pi_bad)``, each run's length is
    geometric with mean ``1/p_bg``, and losses thin the bad packets by
    ``bad_loss``.  The stationary mean is exact —
    ``E[loss] = M * pi_bad * bad_loss = M * rate`` — while run
    straddling across interval boundaries (the source of the scalar
    chain's small cross-interval correlation) is dropped; the
    equivalence tests pin means and marginal dispersion, not the
    autocovariance.

    Everything is sampled from bulk uniform/normal draws — numpy's
    per-element ``poisson``/``negative_binomial``/``binomial`` paths
    with array parameters cost 30–70x more per variate and would
    dominate the whole block engine.  Three draws, in order:

    1. ``rng.random((rows, n_intervals))`` — run counts by exact
       Poisson inverse CDF (the per-row CDF table is closed-form);
    2. ``rng.random(total_runs)`` — run lengths by exact geometric
       inverse CDF (``1 + floor(log(u) / log(1 - p_bg))``); the draw
       *count* depends on step 1, which is fine: each caller owns a
       per-unit substream, so consumption is deterministic per unit;
    3. ``rng.standard_normal((rows, n_intervals))`` — the
       ``Binomial(bad, 0.5)`` thinning by rounded normal approximation,
       clipped to ``[0, bad]`` (exact mean; the approximation error is
       far below the run-length variance).
    """
    if n_intervals < 1:
        raise SimulationError(f"n_intervals must be >= 1, got {n_intervals}")
    packets = max(1, int(duration_s * PACKETS_PER_SECOND))
    p_bg = _loss_p_bg(burstiness)
    n_runs = _loss_run_counts(rng, loss_rate, p_bg, packets, n_intervals)
    u_geom = rng.random(int(n_runs.sum()))
    thin_z = rng.standard_normal(n_runs.shape)
    return _loss_finish(n_runs, u_geom, thin_z, p_bg, packets)


def _loss_p_bg(burstiness: np.ndarray) -> np.ndarray:
    """Bad→good transition probability per row (burstiness capped at
    0.95, matching the scalar chain's constructor)."""
    return (1.0 - np.minimum(burstiness, 0.95)) * 0.5 + 1e-6


def _loss_run_counts(
    rng: np.random.Generator,
    loss_rate: np.ndarray,
    p_bg: np.ndarray,
    packets: int,
    n_intervals: int,
) -> np.ndarray:
    """Step 1: bad-run counts per interval, exact Poisson inverse CDF.

    Consumes exactly one ``rng.random((rows, n_intervals))`` draw.  The
    CDF table is tiny (a few dozen columns), so building it in closed
    form beats numpy's per-element rejection sampler by an order of
    magnitude.
    """
    # Function-level import: scipy costs seconds cold, and this module
    # sits on the `import repro.telemetry` path via behavior.py — keep
    # that light for code that never simulates (first call pays once).
    from scipy.special import gammaln

    rows = len(loss_rate)
    pi_bad = np.minimum(loss_rate / _BAD_LOSS, 1.0)
    lam = packets * p_bg * pi_bad
    shape = (rows, n_intervals)
    u_runs = rng.random(shape)
    lam_max = float(lam.max(initial=0.0))
    k_max = int(np.ceil(lam_max + 12.0 * np.sqrt(lam_max) + 20.0))
    ks = np.arange(k_max + 1)
    log_lam = np.log(np.maximum(lam, 1e-300))
    cdf = np.cumsum(
        np.exp(-lam[:, None] + ks[None, :] * log_lam[:, None]
               - gammaln(ks + 1.0)[None, :]),
        axis=1,
    )
    # One flat searchsorted instead of a per-row loop: shifting row r's
    # CDF (values in [0, 1]) and its uniforms by 2r keeps the whole
    # concatenation strictly increasing, so band-local ranks fall out.
    k_cols = cdf.shape[1]
    offsets = 2.0 * np.arange(rows)[:, None]
    return (
        np.searchsorted(
            (cdf + offsets).ravel(), (u_runs + offsets).ravel(),
            side="right",
        ).reshape(shape)
        - np.arange(rows)[:, None] * k_cols
    )


def _loss_finish(
    n_runs: np.ndarray,
    u_geom: np.ndarray,
    thin_z: np.ndarray,
    p_bg: np.ndarray,
    packets: int,
) -> np.ndarray:
    """Steps 2–3: geometric run lengths and binomial thinning.

    Pure arithmetic on already-drawn randomness, so bucketed callers can
    concatenate many sessions' draws and run this once per bucket.
    """
    shape = n_runs.shape
    # 2. Run lengths: exact geometric (support >= 1, mean 1/p_bg) via
    # log-uniform inversion, summed per interval with a padded cumsum.
    counts = n_runs.ravel()
    ends = counts.cumsum()
    log_keep_run = np.repeat(np.log1p(-p_bg), n_runs.sum(axis=1))
    run_len = 1 + np.floor(
        np.log(np.maximum(u_geom, 1e-300)) / log_keep_run
    )
    sums = np.concatenate([[0.0], run_len.cumsum()])
    bad = np.minimum(
        (sums[ends] - sums[ends - counts]).reshape(shape), packets
    )
    # 3. Thinning: Binomial(bad, 0.5) by rounded normal approximation.
    lost = np.minimum(
        np.maximum(
            np.round(_BAD_LOSS * bad + np.sqrt(bad) * _BAD_LOSS * thin_z),
            0.0,
        ),
        bad,
    )
    return np.minimum(100.0, lost * (100.0 / packets))


def condition_blocks(
    rng: np.random.Generator,
    profiles: LinkProfileArrays,
    n_intervals: int,
) -> Dict[str, np.ndarray]:
    """Block analogue of :func:`~repro.netsim.trace.generate_condition_arrays`.

    Simulates every session row of ``profiles`` for ``n_intervals``
    five-second intervals at once, returning ``(rows, n_intervals)``
    arrays keyed like the per-session path.  The same four processes run
    in batched form: AR(1) jitter with multiplicative spikes (one
    ``lfilter`` along axis 1), queueing latency co-moving with jitter,
    compound-Poisson Gilbert–Elliott loss (:func:`loss_pct_block`) and
    the clipped multiplicative bandwidth walk.

    Draw order on ``rng`` is fixed (jitter innovations, spike gates,
    spike magnitudes, queueing uniforms, latency noise, the three loss
    draws, bandwidth steps), with every shape a function of
    ``(rows, n_intervals)`` alone — so a block's stream consumption
    never depends on the values drawn, which is what keeps the output
    byte-identical however the rows are blocked.
    """
    return condition_blocks_from_draws(
        [condition_draws(rng, profiles, n_intervals)]
    )


@dataclass(frozen=True)
class ConditionDraws:
    """All randomness for one block of sessions, no model arithmetic.

    Splitting draws from arithmetic lets a bucketed caller (the
    vectorized telemetry engine) consume each call's substream
    independently — the determinism contract — while running the
    filters, cumsums and loss assembly once over the whole bucket
    instead of once per call.  ``condition_blocks_from_draws`` on a
    one-element list reproduces :func:`condition_blocks` exactly.
    """

    profiles: LinkProfileArrays
    n_intervals: int
    eps_z: np.ndarray  # AR(1) innovations, standard normal
    spike_gate: np.ndarray
    spike_mag: np.ndarray
    queue_u: np.ndarray
    noise_z: np.ndarray
    n_runs: np.ndarray  # bad-run counts (already inverted from uniforms)
    u_geom: np.ndarray  # run-length uniforms, (total_runs,)
    thin_z: np.ndarray  # thinning normals
    bw_z: np.ndarray  # bandwidth-walk steps

    def __len__(self) -> int:
        return len(self.profiles)


def condition_draws(
    rng: np.random.Generator,
    profiles: LinkProfileArrays,
    n_intervals: int,
    duration_s: float = 5.0,
) -> ConditionDraws:
    """Stage 1 of :func:`condition_blocks`: consume the rng, store draws.

    Draw order matches the module contract (jitter innovations, spike
    gates, spike magnitudes, queueing uniforms, latency noise, the
    three loss draws, bandwidth steps).  Only the loss run-count
    inversion happens here — it determines how many run-length uniforms
    to draw, which is what makes stream consumption deterministic per
    block.
    """
    if n_intervals < 1:
        raise SimulationError(f"n_intervals must be >= 1, got {n_intervals}")
    shape = (len(profiles), n_intervals)
    eps_z = rng.standard_normal(shape)
    spike_gate = rng.random(shape)
    spike_mag = rng.random(shape)
    queue_u = rng.random(shape)
    noise_z = rng.standard_normal(shape)
    packets = max(1, int(duration_s * PACKETS_PER_SECOND))
    p_bg = _loss_p_bg(profiles.burstiness)
    n_runs = _loss_run_counts(
        rng, profiles.loss_rate, p_bg, packets, n_intervals
    )
    u_geom = rng.random(int(n_runs.sum()))
    thin_z = rng.standard_normal(shape)
    bw_z = rng.standard_normal(shape)
    return ConditionDraws(
        profiles=profiles,
        n_intervals=n_intervals,
        eps_z=eps_z,
        spike_gate=spike_gate,
        spike_mag=spike_mag,
        queue_u=queue_u,
        noise_z=noise_z,
        n_runs=n_runs,
        u_geom=u_geom,
        thin_z=thin_z,
        bw_z=bw_z,
    )


def condition_blocks_from_draws(
    draws: Sequence[ConditionDraws],
    duration_s: float = 5.0,
) -> Dict[str, np.ndarray]:
    """Stage 2 of :func:`condition_blocks`: batched arithmetic.

    Concatenates any number of same-width draw blocks (rows stack in
    list order) and evaluates the four condition processes in single
    array passes.  Elementwise and per-row operations are oblivious to
    which block a row came from, so results are byte-identical to
    per-block evaluation.
    """
    from scipy.signal import lfilter  # function-level: see _loss_run_counts

    if not draws:
        raise SimulationError("need at least one draw block")
    widths = {d.n_intervals for d in draws}
    if len(widths) > 1:
        raise SimulationError(
            f"draw blocks must share n_intervals, got {sorted(widths)}"
        )

    def stack(attr: str) -> np.ndarray:
        if len(draws) == 1:
            return getattr(draws[0], attr)
        return np.vstack([getattr(d, attr) for d in draws])

    def col(attr: str) -> np.ndarray:
        if len(draws) == 1:
            return getattr(draws[0].profiles, attr)[:, None]
        return np.concatenate(
            [getattr(d.profiles, attr) for d in draws]
        )[:, None]

    persistence, spike_prob, spike_factor = 0.7, 0.05, 3.0
    scale = col("jitter_ms")

    innovation_sd = scale * np.sqrt(1 - persistence**2) * 0.4
    jitter, _ = lfilter(
        [1.0], [1.0, -persistence],
        (1 - persistence) * scale + stack("eps_z") * innovation_sd,
        axis=1, zi=persistence * scale,
    )
    jitter = np.maximum(0.05, jitter)
    jitter = np.where(
        stack("spike_gate") < spike_prob,
        jitter * (1 + (spike_factor - 1) * stack("spike_mag")), jitter,
    )
    # Zero-jitter anchors produce a flat zero trace on the scalar path.
    jitter = np.where(scale == 0, 0.0, jitter)

    base = col("base_latency_ms")
    latency = (
        base
        + 1.5 * jitter * stack("queue_u")
        + np.abs(stack("noise_z")) * (0.03 * base + 0.5)
    )

    packets = max(1, int(duration_s * PACKETS_PER_SECOND))
    p_bg = _loss_p_bg(col("burstiness")[:, 0])
    loss_pct = _loss_finish(
        stack("n_runs"),
        np.concatenate([d.u_geom for d in draws])
        if len(draws) > 1 else draws[0].u_geom,
        stack("thin_z"),
        p_bg,
        packets,
    )

    bw = col("bandwidth_mbps")
    walk = bw * np.exp(np.cumsum(0.05 * stack("bw_z"), axis=1))
    bandwidth = np.minimum(np.maximum(walk, 0.3 * bw), 1.5 * bw)

    return {
        "latency_ms": latency,
        "loss_pct": loss_pct,
        "jitter_ms": jitter,
        "bandwidth_mbps": bandwidth,
    }
