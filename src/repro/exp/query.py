"""The read path of the experiment service: cached sweep/point queries.

:class:`QueryAPI` answers questions about a :class:`ResultStore`
without recomputation — the "millions of users" story is cheap reads
over an ever-growing store. Every answer is memoized in a
:class:`~repro.cache.BoundedCache` keyed by the query plus the store's
``generation`` counter, so repeated queries are dict lookups and any
store mutation (a new result, a reload picked up from disk) invalidates
exactly by re-keying. The CLI (``repro exp run --format csv``), the
HTTP front end (``repro serve``), and the tests all share this one
implementation.

CSV output reuses :func:`repro.sim.results.result_csv_rows` — the same
serializer every other result surface renders through — with the
experiment coordinates (key, tracker, attack, seed) prepended.
"""

from __future__ import annotations

import os
from typing import Any, Iterable

from ..cache import BoundedCache
from ..sim.results import RESULT_CSV_COLUMNS, result_csv_rows
from .result import ExperimentResult
from .store import ResultStore

#: Columns of a sweep CSV: the experiment coordinates, then the shared
#: result columns (``tracker`` is already among them — the row carries
#: the experiment's tracker label there).
SWEEP_CSV_COLUMNS = ("key", "attack", "seed", *RESULT_CSV_COLUMNS)


def sweep_csv_rows(results: Iterable[ExperimentResult]) -> list[dict]:
    """Flatten experiment results into CSV rows (one per scope level).

    Channel/rank results expand the same way ``repro run --format csv``
    renders them — channel, per-rank, and per-bank rows — via the
    shared :func:`result_csv_rows` serializer.
    """
    rows = []
    for result in results:
        for row in result_csv_rows(result.metrics):
            row["tracker"] = result.tracker
            rows.append({
                "key": result.key[:12],
                "attack": result.attack,
                "seed": result.seed,
                **row,
            })
    return rows


class QueryAPI:
    """Fingerprint-keyed cached reads over one result store.

    Thread-compatible for the threaded HTTP server's usage pattern
    (the GIL serialises the dict operations underneath); not designed
    for concurrent writers.
    """

    def __init__(
        self, store: ResultStore, cache_size: int = 4096
    ) -> None:
        self.store = store
        self._cache = BoundedCache(cache_size)
        self.hits = 0
        self.misses = 0

    @classmethod
    def open(cls, path: str | os.PathLike, **kwargs: Any) -> "QueryAPI":
        return cls(ResultStore(path), **kwargs)

    # ------------------------------------------------------------------
    def _cached(self, key: tuple, compute):
        self.store.reload_if_changed()
        full_key = (*key, self.store.generation)
        sentinel = _MISS
        value = self._cache.get(full_key, sentinel)
        if value is not sentinel:
            self.hits += 1
            return value
        self.misses += 1
        value = compute()
        self._cache.put(full_key, value)
        return value

    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        """Every stored fingerprint, sorted."""
        return self._cached(("keys",), self.store.keys)

    def point(self, fingerprint: str) -> ExperimentResult | None:
        """One result by full fingerprint (or unambiguous prefix)."""
        return self._cached(
            ("point", fingerprint), lambda: self._lookup(fingerprint)
        )

    def _lookup(self, fingerprint: str) -> ExperimentResult | None:
        exact = self.store.get(fingerprint)
        if exact is not None or not fingerprint:
            return exact
        matches = [
            key for key in self.store.keys()
            if key.startswith(fingerprint)
        ]
        if len(matches) == 1:
            return self.store.get(matches[0])
        return None

    def sweep(
        self,
        tracker: str | None = None,
        attack: str | None = None,
        failed: bool | None = None,
    ) -> list[ExperimentResult]:
        """Results filtered by coordinates, in fingerprint order."""
        return self._cached(
            ("sweep", tracker, attack, failed),
            lambda: [
                result
                for result in self.store.results()
                if (tracker is None or result.tracker == tracker)
                and (attack is None or result.attack == attack)
                and (failed is None or result.failed == failed)
            ],
        )

    def sweep_payloads(
        self,
        tracker: str | None = None,
        attack: str | None = None,
        failed: bool | None = None,
    ) -> list[dict]:
        """Like :meth:`sweep`, as JSON-safe payloads."""
        return [
            result.to_payload()
            for result in self.sweep(tracker, attack, failed)
        ]

    def sweep_csv(
        self,
        tracker: str | None = None,
        attack: str | None = None,
        failed: bool | None = None,
    ) -> list[dict]:
        """Like :meth:`sweep`, as CSV rows (see :data:`SWEEP_CSV_COLUMNS`)."""
        return self._cached(
            ("sweep-csv", tracker, attack, failed),
            lambda: sweep_csv_rows(self.sweep(tracker, attack, failed)),
        )

    def status(self) -> dict:
        """Store and cache statistics (the service health view).

        Reloads first, like every cached read, so the counts reflect
        another handle's latest flush.
        """
        self.store.reload_if_changed()
        return {
            "results": len(self.store),
            "store_path": str(self.store.path) if self.store.path else None,
            "store_generation": self.store.generation,
            "store_disk_bytes": self.store.disk_bytes(),
            "cache_entries": len(self._cache),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "trackers": sorted(
                {result.tracker for result in self.store.results()}
            ),
            "attacks": sorted(
                {result.attack for result in self.store.results()}
            ),
        }


class _Miss:
    __slots__ = ()


_MISS = _Miss()
