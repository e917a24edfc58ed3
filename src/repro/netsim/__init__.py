"""Network condition simulation and QoE modelling.

This substrate stands in for the real networks under the paper's two
studies.  It produces per-session traces of the four metrics the MS Teams
client reports every five seconds — latency, packet loss, jitter and
available bandwidth (§3.1) — and converts them into experienced quality:

* link profiles and their condition tiers (:mod:`repro.netsim.link`),
  grounded in bottleneck queueing (:mod:`repro.netsim.queueing`), with
  Gilbert–Elliott bursty loss (:mod:`repro.netsim.loss`),
* five-second sampling into per-session traces
  (:mod:`repro.netsim.trace`; :mod:`repro.netsim.vectorized` runs the
  same process over blocks of sessions at once),
* the application-layer safeguards the paper credits for the weak loss
  effect — FEC, jitter buffering, concealment
  (:mod:`repro.netsim.mitigation`), and
* an ITU-T E-model-style mapping from (mitigated) conditions to audio,
  video and interactivity quality (:mod:`repro.netsim.qoe`).
"""

from repro.netsim.link import LinkProfile, NETWORK_TIERS, sample_link_profile
from repro.netsim.loss import GilbertElliottLoss
from repro.netsim.mitigation import EffectiveConditions, MitigationStack
from repro.netsim.qoe import QoeModel, QualityScores
from repro.netsim.trace import ConditionSample, generate_condition_arrays
from repro.netsim.abr import AbrController, AbrResult, simulate_abr
from repro.netsim.queueing import BottleneckQueue, profile_for_load, simulate_queue
from repro.netsim.tuning import MitigationTuner, TuningResult, tuning_gain
from repro.netsim.vectorized import (
    EffectiveArrays,
    QualityArrays,
    mitigate_arrays,
    qoe_arrays,
)

__all__ = [
    "AbrController",
    "AbrResult",
    "BottleneckQueue",
    "ConditionSample",
    "EffectiveArrays",
    "EffectiveConditions",
    "GilbertElliottLoss",
    "LinkProfile",
    "MitigationStack",
    "MitigationTuner",
    "NETWORK_TIERS",
    "TuningResult",
    "tuning_gain",
    "QoeModel",
    "QualityArrays",
    "QualityScores",
    "generate_condition_arrays",
    "mitigate_arrays",
    "profile_for_load",
    "qoe_arrays",
    "sample_link_profile",
    "simulate_abr",
    "simulate_queue",
]
