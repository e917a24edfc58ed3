"""Signal-source registry: where USaaS pulls its inputs from."""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

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
    :meth:`load`, and so the source, on every fetch, and passes
    each result that arrived within budget to :meth:`commit`.  What it
    reads back is only the *last-good* slot: the stale-fallback value
    served while a source is down.  ``UsaasService.answer`` sees
    appended rows because its memo is keyed on each fetched series'
    identity and length, not through :meth:`invalidate`.

    :meth:`series` / :meth:`all_series` read a per-source cache that
    :meth:`commit` fills and :meth:`invalidate` clears:

    * a source that raises **never** populates the cache — the exception
      propagates and the next call re-runs the source;
    * a source that returns the wrong type never populates the cache;
    * the last-good slot survives :meth:`invalidate`.
    """

    def __init__(self) -> None:
        self._sources: Dict[str, SourceFn] = {}
        self._cache: Dict[str, SignalSeries] = {}
        self._last_good: Dict[str, SignalSeries] = {}

    def register(self, name: str, source: SourceFn) -> None:
        if not name:
            raise QueryError("source name must be non-empty")
        if name in self._sources:
            raise QueryError(f"source {name!r} already registered")
        if not callable(source):
            raise QueryError(f"source {name!r} must be callable")
        self._sources[name] = source

    def unregister(self, name: str) -> None:
        if name not in self._sources:
            raise QueryError(f"source {name!r} not registered")
        del self._sources[name]
        self._cache.pop(name, None)
        self._last_good.pop(name, None)

    def names(self) -> List[str]:
        return sorted(self._sources)

    def __contains__(self, name: str) -> bool:
        return name in self._sources

    def __len__(self) -> int:
        return len(self._sources)

    # -- fetching ---------------------------------------------------------

    def load(self, name: str) -> SignalSeries:
        """Run the source *without* caching; validates the return type.

        The guarded ingestion path uses this per attempt and only
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
        """Store a successfully-fetched series (cache + last-good)."""
        if name not in self._sources:
            raise QueryError(f"source {name!r} not registered")
        if not isinstance(series, SignalSeries):
            raise SchemaError("commit requires a SignalSeries")
        self._cache[name] = series
        self._last_good[name] = series

    def series(self, name: str) -> SignalSeries:
        """Cached fetch: load + commit on first use."""
        if name not in self._sources:
            raise QueryError(f"source {name!r} not registered")
        if name not in self._cache:
            self.commit(name, self.load(name))
        return self._cache[name]

    def all_series(self) -> Iterator[Tuple[str, SignalSeries]]:
        for name in self.names():
            yield name, self.series(name)

    # -- cache coherence --------------------------------------------------

    def cached(self, name: str) -> bool:
        return name in self._cache

    def last_good(self, name: str) -> Optional[SignalSeries]:
        """The most recent successfully-committed series, if any.

        Survives :meth:`invalidate` — this is the stale-fallback value
        the resilient path serves while a source is down.
        """
        return self._last_good.get(name)

    def invalidate(self, name: str) -> None:
        """Drop the cached value so the next :meth:`series` re-runs the source.

        Keeps the last-good slot: invalidation means "the data may be
        out of date", not "the data never existed".  The guarded fetch
        runs the source every time and never reads this cache, so
        invalidating changes nothing that ``UsaasService.answer``
        returns.
        """
        if name not in self._sources:
            raise QueryError(f"source {name!r} not registered")
        self._cache.pop(name, None)

    def refresh(self, name: Optional[str] = None) -> None:
        """Invalidate and eagerly re-fetch one source (or all of them).

        A refresh that raises leaves the cache empty for that source but
        keeps the previous last-good value available for fallback.
        """
        targets = [name] if name is not None else self.names()
        for target in targets:
            self.invalidate(target)
            self.commit(target, self.load(target))
