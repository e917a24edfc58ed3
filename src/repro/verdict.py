"""How a soak run ends: an exit code and the stderr lines behind it.

Every ``usaas`` soak command shares one exit contract: 0 when the run
proved its claim, 2 when an invariant broke (a bug, not load), 3 when
the run proved nothing or the service broke its promise.  Each soak
report computes its own :class:`Verdict` from its counters; the CLI
prints the lines and exits with the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Verdict:
    """One soak run's exit code and the stderr lines that explain it."""

    exit_code: int = 0
    lines: Tuple[str, ...] = ()
