"""User Signals as-a-Service (USaaS) — the paper's §5 framework.

USaaS sits between signal *sources* (applications with implicit user
actions, social platforms with explicit posts) and stakeholders (network
operators, service providers).  A stakeholder poses a
:class:`~repro.core.usaas.query.UsaasQuery` — which network, which
service, which metrics — and the service:

1. pulls matching signals from every registered source
   (:mod:`repro.core.usaas.registry`),
2. scrubs identifiers and enforces aggregation floors
   (:mod:`repro.core.usaas.privacy` — "We do not use any PII"),
3. corrects social-media bias by de-duplicating authors and capping
   popularity weights (:mod:`repro.core.usaas.bias`, §6),
4. correlates implicit and explicit series over time
   (:mod:`repro.core.usaas.correlator`),
5. distils findings into ranked :class:`~repro.core.usaas.insights.Insight`
   objects and a plain-text summary (:mod:`repro.core.usaas.summarize`
   standing in for the paper's LLM step).
"""

from repro.core.usaas.adapters import social_signals, telemetry_signals
from repro.core.usaas.bias import BiasCorrector
from repro.core.usaas.correlator import CorrelationFinding, correlate_series
from repro.core.usaas.insights import Insight
from repro.core.usaas.monitoring import Alarm, watch_metric
from repro.core.usaas.privacy import PrivacyGuard, scrub_author
from repro.core.usaas.query import UsaasQuery
from repro.core.usaas.registry import SignalSourceRegistry
from repro.core.usaas.service import (
    ComparisonReport,
    MetricComparison,
    UsaasReport,
    UsaasService,
)
from repro.core.usaas.summarize import summarize_insights

__all__ = [
    "Alarm",
    "BiasCorrector",
    "ComparisonReport",
    "MetricComparison",
    "watch_metric",
    "CorrelationFinding",
    "Insight",
    "PrivacyGuard",
    "SignalSourceRegistry",
    "UsaasQuery",
    "UsaasReport",
    "UsaasService",
    "correlate_series",
    "scrub_author",
    "social_signals",
    "summarize_insights",
    "telemetry_signals",
]
