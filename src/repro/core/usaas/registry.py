"""Signal-source registry: where USaaS pulls its inputs from."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.signals import SignalSeries
from repro.errors import QueryError, SchemaError

SourceFn = Callable[[], SignalSeries]


class SignalSourceRegistry:
    """Named, lazily-evaluated signal sources.

    Sources are callables returning a :class:`SignalSeries` so that
    expensive exports (scoring a whole corpus) only run when a query
    actually needs them.

    The guarded fetch (:meth:`SourceExecutor.fetch
    <repro.resilience.executor.SourceExecutor.fetch>`) calls
    :meth:`load`, and so the source, on every fetch, and passes each
    result that arrived within budget to :meth:`commit`.  That fills
    the *last-good* slot, the stale-fallback value served while a
    source is down; the registry keeps nothing else.  A source that
    raises or returns the wrong type never reaches :meth:`commit`.
    ``UsaasService.answer`` sees appended rows because its memo is
    keyed on each fetched series' identity and length.
    """

    def __init__(self) -> None:
        self._sources: Dict[str, SourceFn] = {}
        self._last_good: Dict[str, SignalSeries] = {}

    def register(self, name: str, source: SourceFn) -> None:
        if not name:
            raise QueryError("source name must be non-empty")
        if name in self._sources:
            raise QueryError(f"source {name!r} already registered")
        if not callable(source):
            raise QueryError(f"source {name!r} must be callable")
        self._sources[name] = source

    def names(self) -> List[str]:
        return sorted(self._sources)

    def __contains__(self, name: str) -> bool:
        return name in self._sources

    def __len__(self) -> int:
        return len(self._sources)

    # -- fetching ---------------------------------------------------------

    def load(self, name: str) -> SignalSeries:
        """Run the source and check that it returned a SignalSeries.

        The guarded fetch calls this per attempt and only
        :meth:`commit`\\ s a result that arrived within budget.
        """
        if name not in self._sources:
            raise QueryError(f"source {name!r} not registered")
        series = self._sources[name]()
        if not isinstance(series, SignalSeries):
            raise SchemaError(
                f"source {name!r} returned "
                f"{type(series).__name__}, expected SignalSeries"
            )
        return series

    def commit(self, name: str, series: SignalSeries) -> None:
        """Store a successfully-fetched series as the last-good value."""
        if name not in self._sources:
            raise QueryError(f"source {name!r} not registered")
        if not isinstance(series, SignalSeries):
            raise SchemaError("commit requires a SignalSeries")
        self._last_good[name] = series

    def last_good(self, name: str) -> Optional[SignalSeries]:
        """The most recent successfully-committed series, if any: the
        stale-fallback value the resilient path serves while a source
        is down."""
        return self._last_good.get(name)

    def invalidate(self, name: str) -> None:
        """Check that ``name`` is registered; there is no cache to drop.

        The guarded fetch runs the source every time, and answers see
        appends through their memo's key.  The last-good slot is kept.
        """
        if name not in self._sources:
            raise QueryError(f"source {name!r} not registered")
