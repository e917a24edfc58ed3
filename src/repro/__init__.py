"""repro: a full reproduction of "Don't Forget the User: It's Time to
Rethink Network Measurements" (HotNets 2023).

Package map (see DESIGN.md for the paper-to-module index):

* ``repro.netsim`` — network condition processes, mitigation, QoE.
* ``repro.telemetry`` — agent-based MS Teams-like call dataset (§3 data).
* ``repro.engagement`` — the §3 analyses (Figs. 1, 2 and 4).
* ``repro.starlink`` — the LEO deployment world model (launches,
  subscribers, capacity, outages, perception).
* ``repro.social`` — the r/Starlink corpus simulator (§4 data).
* ``repro.nlp`` — offline sentiment / word clouds / keywords / trends /
  news (the Azure + NLTK substitute).
* ``repro.ocr`` — screenshot rendering + OCR extraction (Fig. 7 input).
* ``repro.analysis`` — the §4 analyses (Figs. 5–7, outage monitor,
  shifting fulcrum).
* ``repro.core`` — shared statistics, the unified signal model, and the
  §5 User-Signals-as-a-Service framework.
"""

__version__ = "1.0.0"

from repro.errors import ReproError
from repro.rng import DEFAULT_SEED, derive

__all__ = ["DEFAULT_SEED", "ReproError", "__version__", "derive"]
