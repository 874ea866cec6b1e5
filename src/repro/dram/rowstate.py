"""Per-row disturbance accounting: the Rowhammer failure oracle.

This module models the physical effect the trackers defend against. Every
activation of row ``r`` disturbs its neighbours within the blast radius;
a refresh of a row (auto-refresh or mitigative victim refresh) resets the
disturbance accumulated on that row. A row whose accumulated disturbance
reaches the device's Rowhammer threshold (TRH) is flagged as flipped.

The model is deliberately the same abstraction the paper analyses at:
activation counts versus a scalar threshold. Mitigative refreshes are
*silent activations* of the victim rows — they disturb the victims'
neighbours in turn, which is exactly the mechanism behind transitive
(Half-Double) attacks, so the oracle reproduces them for free.

Two storage backends implement the same contract:

``sparse`` (:class:`RowDisturbanceModel` proper)
    A ``dict`` keyed by row. Attacks touch a handful of rows out of
    128K, so the dict wins for tiny banks and ad-hoc interactive use;
    it is the reference engine's oracle.
``dense`` (:class:`DenseRowDisturbanceModel`)
    NumPy ``float64`` disturbance/peak vectors plus a flipped bitmap.
    ``activate_many`` pre-aggregates the batch (unique rows + counts),
    scatters the neighbour contributions in a handful of vector ops,
    and detects flips by diffing a threshold mask against the bitmap.
    Batches that interleave aggressors with their own victims (adjacent
    activated rows) or that produce new flips are replayed through an
    activation-exact scalar loop, so results are numerically identical
    to the sparse backend — bit for bit, including flip-event order.
    A disturbance *envelope* ``[lo, hi)`` bounds every row ever written
    nonzero, so the queries scan only the rows a run touched.

Backend selection is automatic: constructing :class:`RowDisturbanceModel`
picks the dense backend when the bank has at least
:data:`DENSE_MIN_ROWS` rows, and the sparse dict otherwise. Pass
``backend="sparse"``/``"dense"`` to force one (the simulation engine
always does: dense under the fast engine, sparse under the reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

from ..cache import BoundedCache

import numpy as np

#: Banks with at least this many rows get the dense backend under
#: ``backend="auto"``. Below it (unit-test sized models, ad-hoc use)
#: the dict backend's zero allocation cost wins.
DENSE_MIN_ROWS = 1024

#: Accepted row-batch types for ``activate_many``. Arrays are read,
#: never written: the kernel treats caller batches as immutable.
RowBatch = Union[Sequence[int], "np.ndarray"]


def _resolve_backend(backend: str, num_rows: int) -> str:
    if backend == "auto":
        return "dense" if num_rows >= DENSE_MIN_ROWS else "sparse"
    if backend not in ("sparse", "dense"):
        raise ValueError(f"unknown backend {backend!r}; use auto/sparse/dense")
    return backend


class PackedRows(NamedTuple):
    """The fast engine's packed ``(unit, row)`` state family.

    ``unit`` is ``rank * num_banks + bank``; slicing every array on its
    first axis (:meth:`units`) gives a rank's or a window's block, and
    indexing it (:meth:`unit`) one bank's row views, which a
    :class:`DenseRowDisturbanceModel` is built on.
    """

    #: ``float64`` accumulated disturbance.
    dist: np.ndarray
    #: ``float64`` per-row disturbance peak.
    peak: np.ndarray
    #: ``bool`` flipped bitmap.
    flipped: np.ndarray
    #: ``int64`` unmitigated-run counters and their peaks (the kernel's
    #: packed twins of the engine's per-bank dicts).
    since: np.ndarray
    speak: np.ndarray
    #: ``int64`` ``(unit, 2)`` disturbance envelope ``[lo, hi)``: every
    #: row whose ``dist`` was ever written nonzero lies inside it. Every
    #: writer widens it; it never shrinks. Empty (``lo >= hi``) until
    #: the first write.
    env: np.ndarray

    def units(self, lo: int, hi: int) -> "PackedRows":
        """Units ``[lo, hi)`` as a family of views."""
        return PackedRows(
            self.dist[lo:hi], self.peak[lo:hi], self.flipped[lo:hi],
            self.since[lo:hi], self.speak[lo:hi], self.env[lo:hi],
        )

    def unit(self, index: int) -> "PackedRows":
        """One unit's row views (``env`` becomes its ``[lo, hi)`` pair)."""
        return PackedRows(
            self.dist[index], self.peak[index], self.flipped[index],
            self.since[index], self.speak[index], self.env[index],
        )


@dataclass
class FlipEvent:
    """Record of a row crossing the Rowhammer threshold."""

    row: int
    disturbance: float
    time_ns: float


class RowDisturbanceModel:
    """Tracks disturbance per row and detects threshold crossings.

    Parameters
    ----------
    num_rows:
        Rows in the bank. Row indices outside ``[0, num_rows)`` are
        silently clipped (edge rows simply have fewer neighbours).
    trh:
        Rowhammer threshold: disturbances a row can absorb between
        refreshes before flipping. The paper's per-row double-sided
        threshold (TRH-D) corresponds to each neighbour contributing
        one disturbance per activation.
    blast_radius:
        How many rows on either side of an activated row are disturbed.
        The paper uses 1 for analysis; 2 is modelled for the ablation.
    decay:
        Disturbance contributed to a neighbour at distance ``d`` is
        ``decay ** (d - 1)``. The paper's analysis uses distance-1 only,
        i.e. within the blast radius every neighbour counts fully; keep
        ``decay=1.0`` to reproduce the paper.
    backend:
        ``"auto"`` (default) picks the dense NumPy backend for banks of
        at least :data:`DENSE_MIN_ROWS` rows, the sparse dict otherwise; ``"sparse"``/``"dense"`` force one.
    storage:
        Dense backend only: one unit's row views of a caller-owned
        :class:`PackedRows` family to build the model on instead of
        allocating its own vectors (see
        :class:`DenseRowDisturbanceModel`).
    """

    #: Storage backend implemented by this class ("sparse" or "dense").
    backend = "sparse"

    def __new__(
        cls,
        num_rows: int = 0,
        trh: float = 0.0,
        blast_radius: int = 1,
        decay: float = 1.0,
        backend: str = "auto",
        *,
        storage: PackedRows | None = None,
    ) -> "RowDisturbanceModel":
        # Dispatch on the resolved backend so plain
        # ``RowDisturbanceModel(...)`` transparently builds the dense
        # variant for production-sized banks.
        if cls is RowDisturbanceModel:
            if _resolve_backend(backend, num_rows) == "dense":
                return super().__new__(DenseRowDisturbanceModel)
        return super().__new__(cls)

    def __init__(
        self,
        num_rows: int,
        trh: float,
        blast_radius: int = 1,
        decay: float = 1.0,
        backend: str = "auto",
        *,
        storage: PackedRows | None = None,
    ) -> None:
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        if trh <= 0:
            raise ValueError("trh must be positive")
        if blast_radius < 1:
            raise ValueError("blast_radius must be >= 1")
        self.num_rows = num_rows
        self.trh = float(trh)
        self.blast_radius = blast_radius
        self.decay = decay
        self.flips: list[FlipEvent] = []
        self._init_storage(storage)

    def _init_storage(self, storage: PackedRows | None) -> None:
        if storage is not None:
            raise ValueError("packed storage needs the dense backend")
        # Sparse map row -> accumulated disturbance. Attacks touch a
        # handful of rows out of 128K, so a dict beats a dense array
        # for small/ad-hoc models.
        self._disturbance: dict[int, float] = {}
        # Historical per-row maxima (refreshes reset disturbance but
        # not the peak): the "max unmitigated hammers" metric.
        self._peak: dict[int, float] = {}
        self._flipped: set[int] = set()

    # ------------------------------------------------------------------
    # Disturbance events
    # ------------------------------------------------------------------
    def activate(self, row: int, time_ns: float = 0.0, weight: float = 1.0) -> None:
        """Record one activation of ``row`` and disturb its neighbours.

        An activation is a full row cycle (read + restore), so it also
        refreshes the activated row itself — without this, a hammered
        aggressor would spuriously accumulate disturbance from its own
        victims' mitigative refreshes.
        """
        self._disturbance.pop(row, None)
        for distance in range(1, self.blast_radius + 1):
            contribution = weight * self.decay ** (distance - 1)
            for victim in (row - distance, row + distance):
                if 0 <= victim < self.num_rows:
                    self._bump(victim, contribution, time_ns)

    def activate_many(
        self,
        rows: RowBatch,
        time_ns: float = 0.0,
        agg: tuple["np.ndarray", "np.ndarray"] | None = None,
    ) -> None:
        """Record a batch of activations in order (hot-loop entry point).

        Semantically identical to calling :meth:`activate` once per row.
        ``rows`` may be any integer sequence or a NumPy array; it is
        never mutated. ``agg``, when given, is the batch's sorted
        ``(unique_rows, counts)`` pre-aggregation — the simulation
        engine computes it once per interval and shares it between the
        oracle and the tracker; the sparse backend ignores it.
        """
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        if self.blast_radius != 1 or self.decay != 1.0:
            for row in rows:
                self.activate(row, time_ns)
            return
        # Common case (blast radius 1, no decay) inlined so the
        # per-activation cost is a few dict operations and no Python
        # allocation.
        disturbance = self._disturbance
        peak = self._peak
        flipped = self._flipped
        flips = self.flips
        pop = disturbance.pop
        get = disturbance.get
        peak_get = peak.get
        num_rows = self.num_rows
        trh = self.trh
        for row in rows:
            pop(row, None)
            # Full bounds checks on both victims: out-of-range
            # *aggressors* are legal (clipped) inputs, so row±1 can
            # fall outside the bank on either side.
            victim = row - 1
            if 0 <= victim < num_rows:
                total = get(victim, 0.0) + 1.0
                disturbance[victim] = total
                if total > peak_get(victim, 0.0):
                    peak[victim] = total
                if total >= trh and victim not in flipped:
                    flipped.add(victim)
                    flips.append(FlipEvent(victim, total, time_ns))
            victim = row + 1
            if 0 <= victim < num_rows:
                total = get(victim, 0.0) + 1.0
                disturbance[victim] = total
                if total > peak_get(victim, 0.0):
                    peak[victim] = total
                if total >= trh and victim not in flipped:
                    flipped.add(victim)
                    flips.append(FlipEvent(victim, total, time_ns))

    def refresh_row(self, row: int, time_ns: float = 0.0) -> None:
        """Refresh ``row``: resets its disturbance (charge restored).

        Note this does *not* disturb the refreshed row's neighbours; use
        :meth:`mitigate` for a victim refresh performed as a mitigative
        activation, which does disturb (the transitive-attack channel).
        """
        self._disturbance.pop(row, None)

    def clear_row(self, row: int) -> None:
        """Forget ``row``'s accumulated disturbance without charge-restore
        semantics.

        The mitigation paths use this to make a victim refresh
        self-consistent: the refresh restores the row, the refresh's own
        activation then deposits disturbance on its neighbours, and any
        disturbance a *sibling* victim's activation deposited back on
        the refreshed row within the same mitigation must be dropped.
        Unlike :meth:`refresh_row` it carries no timestamp because it is
        bookkeeping, not a DRAM command.
        """
        self._disturbance.pop(row, None)

    def refresh_range(self, lo: int, hi: int, time_ns: float = 0.0) -> None:
        """Refresh every row in ``[lo, hi)`` — the rolling auto-refresh
        slice. One vector store on the dense backend."""
        for row in [r for r in self._disturbance if lo <= r < hi]:
            self._disturbance.pop(row, None)

    def disturbed_rows(self) -> list[int]:
        """Rows currently carrying non-zero disturbance.

        Sparse backend: first-disturbance order; dense: ascending. Use
        ``sorted()`` when the order matters across backends.
        """
        return list(self._disturbance)

    def mitigate(self, aggressor: int, time_ns: float = 0.0) -> list[int]:
        """Mitigative refresh of the victims of ``aggressor``.

        Every row within the blast radius of the aggressor is refreshed.
        Each such refresh is itself an activation of the victim row and
        disturbs *its* neighbours — the transitive channel exploited by
        Half-Double. Returns the list of refreshed rows.
        """
        refreshed = []
        for distance in range(1, self.blast_radius + 1):
            for victim in (aggressor - distance, aggressor + distance):
                if 0 <= victim < self.num_rows:
                    refreshed.append(victim)
        # Refresh first (restore charge), then account the disturbance
        # the refresh activations cause to rows beyond the refreshed set.
        for victim in refreshed:
            self.refresh_row(victim, time_ns)
        for victim in refreshed:
            self.activate(victim, time_ns)
        # Refreshing restores the refreshed rows regardless of what the
        # sibling victim's activation deposited on them during this same
        # mitigation; clear again so a single mitigation is self-consistent.
        for victim in refreshed:
            self.clear_row(victim)
        return refreshed

    def auto_refresh_all(self, time_ns: float = 0.0) -> None:
        """tREFW rollover: every row has been refreshed once."""
        self._disturbance.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def disturbance(self, row: int) -> float:
        """Accumulated disturbance on ``row`` since its last refresh."""
        return self._disturbance.get(row, 0.0)

    def max_disturbance(self) -> float:
        """Largest disturbance currently accumulated on any row."""
        return max(self._disturbance.values(), default=0.0)

    def most_disturbed_row(self) -> int | None:
        """Lowest-indexed row with the highest accumulated disturbance.

        The lowest-index tie-break is part of the contract: it makes the
        answer identical across the sparse and dense backends (a dict's
        insertion order would not be).
        """
        if not self._disturbance:
            return None
        best = max(self._disturbance.values())
        return min(r for r, v in self._disturbance.items() if v == best)

    def disturbance_summary(self) -> tuple[float, int | None]:
        """``(max_disturbance(), most_disturbed_row())`` in one call.

        Exists so result collection pays one storage scan instead of
        two on the dense backend; the sparse form just composes the two
        queries, so the pair is identical to calling them separately.
        """
        if not self._disturbance:
            return 0.0, None
        best = max(self._disturbance.values())
        return best, min(
            r for r, v in self._disturbance.items() if v == best
        )

    @property
    def any_flip(self) -> bool:
        return bool(self.flips)

    def peak_disturbance(self, row: int) -> float:
        """Highest disturbance ``row`` ever reached between refreshes."""
        return self._peak.get(row, 0.0)

    def _bump(self, row: int, amount: float, time_ns: float) -> None:
        total = self._disturbance.get(row, 0.0) + amount
        self._disturbance[row] = total
        if total > self._peak.get(row, 0.0):
            self._peak[row] = total
        if total >= self.trh and row not in self._flipped:
            self._flipped.add(row)
            self.flips.append(FlipEvent(row=row, disturbance=total, time_ns=time_ns))


class DenseRowDisturbanceModel(RowDisturbanceModel):
    """NumPy-backed oracle: dense vectors, batched neighbour scatter.

    State is three vectors over the bank's rows — ``float64``
    disturbance and peak, plus a flipped bitmap. The batched
    :meth:`activate_many` fast path aggregates the batch to unique rows,
    scatters both neighbours' contributions with one bincount, and
    compares the updated totals against TRH as a mask diffed with the
    bitmap. Two batch shapes are replayed through an exact scalar loop
    instead, keeping results bit-identical to the sparse backend:

    * *aggressor/victim interleaving* — two activated rows within the
      blast radius of each other, where the in-batch order of the
      self-refresh (an ACT restores its own row) is observable; and
    * *new flips* — the flip event must record the disturbance at the
      crossing activation and events must appear in crossing order.

    Batch geometry (unique rows, victim scatter indices and deltas) is
    memoized per batch-array identity: attack traces reuse one interval
    object for thousands of tREFIs, so the geometry is paid once. The
    memo relies on the documented contract that caller batches are
    immutable.

    Every method that writes a nonzero disturbance first widens the
    bank's disturbance envelope (see :attr:`PackedRows.env`) over the
    rows it can reach, so the queries scan ``dist[lo:hi]`` only and
    :attr:`scanned_rows` counts the rows they read.
    """

    backend = "dense"

    #: Memo ceiling; LRU-style eviction keeps the hot shared-interval
    #: entries when a trace streams unboundedly many distinct batches.
    _BATCH_CACHE_LIMIT = 4096

    def _init_storage(self, storage: PackedRows | None) -> None:
        if storage is None:
            self._dist = np.zeros(self.num_rows, dtype=np.float64)
            self._peak_arr = np.zeros(self.num_rows, dtype=np.float64)
            self._flipped_mask = np.zeros(self.num_rows, dtype=bool)
            self._env = np.array([self.num_rows, 0], dtype=np.int64)
        else:
            # The fast engine's kernel owns one packed ``(unit, row)``
            # array family and builds each bank's model on a row view
            # of it, so packed whole-channel scatters and the per-bank
            # operations (mitigate, refresh_range, queries, the exact
            # replay fallback) read and write the *same* memory —
            # bit-identity between the packed and per-bank paths holds
            # by construction rather than by mirroring state. The views
            # must be zero-filled float64/float64/bool rows of
            # ``num_rows`` entries plus the unit's ``[lo, hi)`` envelope
            # pair; nothing is copied. The envelope travels with the
            # views, so whoever writes next — this model or a kernel —
            # widens the same pair.
            for view in (storage.dist, storage.peak, storage.flipped):
                if view.shape != (self.num_rows,):
                    raise ValueError(
                        f"storage view has shape {view.shape}; "
                        f"expected ({self.num_rows},)"
                    )
            if storage.env.shape != (2,):
                raise ValueError(
                    f"storage envelope has shape {storage.env.shape}; "
                    "expected (2,)"
                )
            self._dist = storage.dist
            self._peak_arr = storage.peak
            self._flipped_mask = storage.flipped
            self._env = storage.env
        #: Rows the disturbance queries have read (see ``_window``).
        self.scanned_rows = 0
        # id(batch) -> (batch_ref, plan) — see _batch_plan.
        self._batch_cache: BoundedCache = BoundedCache(self._BATCH_CACHE_LIMIT)

    def _widen(self, lo: int, hi: int) -> None:
        """Grow the disturbance envelope over ``[lo, hi)``, clipped to
        the bank (an empty span changes nothing)."""
        if lo < 0:
            lo = 0
        if hi > self.num_rows:
            hi = self.num_rows
        if lo < hi:
            env = self._env
            if lo < env[0]:
                env[0] = lo
            if hi > env[1]:
                env[1] = hi

    def _window(self) -> tuple[int, "np.ndarray | None"]:
        """``(lo, dist[lo:hi])`` over the envelope, or ``(0, None)``
        when no row was ever disturbed; counts the rows read."""
        lo, hi = self._env.tolist()
        if lo >= hi:
            return 0, None
        self.scanned_rows += hi - lo
        return lo, self._dist[lo:hi]

    # ------------------------------------------------------------------
    # Disturbance events
    # ------------------------------------------------------------------
    def activate(self, row: int, time_ns: float = 0.0, weight: float = 1.0) -> None:
        # Out-of-range rows are legal no-op targets in the sparse
        # backend (dict pop); clip them here too — and never let a
        # negative index wrap around the arrays.
        if 0 <= row < self.num_rows:
            self._dist[row] = 0.0
        self._widen(row - self.blast_radius, row + self.blast_radius + 1)
        for distance in range(1, self.blast_radius + 1):
            contribution = weight * self.decay ** (distance - 1)
            for victim in (row - distance, row + distance):
                if 0 <= victim < self.num_rows:
                    self._bump(victim, contribution, time_ns)

    def _bump(self, row: int, amount: float, time_ns: float) -> None:
        # The caller has widened the envelope over ``row``.
        dist = self._dist
        total = dist[row] + amount
        dist[row] = total
        if total > self._peak_arr[row]:
            self._peak_arr[row] = total
        if total >= self.trh and not self._flipped_mask[row]:
            self._flipped_mask[row] = True
            self.flips.append(
                FlipEvent(row=int(row), disturbance=float(total), time_ns=time_ns)
            )

    def _batch_plan(self, rows: RowBatch, agg) -> tuple | None:
        """Resolve (and memoize) the batch's data-independent geometry.

        Returns ``(uniq, conflict, victims_unique, delta, span)`` where
        ``delta`` is the summed unit contribution each victim receives,
        or ``None`` for an empty batch. ``conflict`` marks batches whose
        activated rows fall within each other's blast radius; ``span``
        is the ``[lo, hi)`` row range any of the batch's victims lies
        in (unclipped).
        """
        # Memoize only on array identity (the engine's shared interval
        # aggregation or an ndarray batch): arrays are immutable by
        # contract, while a caller's plain list may be reused mutated.
        # An agg key covers *both* arrays — a caller may legally pair
        # one unique-rows array with different counts.
        key = None
        if agg is not None:
            key = (id(agg[0]), id(agg[1]))
        elif isinstance(rows, np.ndarray):
            key = id(rows)
        if key is not None:
            cached = self._batch_cache.get(key)
            if cached is not None:
                return cached[1]
        if agg is not None:
            uniq, counts = agg
        else:
            arr = np.asarray(rows, dtype=np.intp)
            if arr.size == 0:
                return None
            uniq, counts = np.unique(arr, return_counts=True)
        if uniq.size == 0:
            return None
        # uniq is sorted and strictly increasing, so adjacency (an
        # activated row being another's victim) shows as a diff of 1.
        conflict = bool(uniq.size > 1 and np.any(np.diff(uniq) == 1))
        victims_unique = delta = None
        # Activated rows outside the bank are legal no-ops (the sparse
        # dict clips them); only in-range rows get their self-reset.
        reset_rows = uniq[(uniq >= 0) & (uniq < self.num_rows)]
        if not conflict:
            victims = np.concatenate((uniq - 1, uniq + 1))
            weights = np.concatenate((counts, counts)).astype(np.float64)
            valid = (victims >= 0) & (victims < self.num_rows)
            victims = victims[valid]
            weights = weights[valid]
            victims_unique = np.unique(victims)
            if victims_unique.size:
                idx = np.searchsorted(victims_unique, victims)
                delta = np.bincount(
                    idx, weights=weights, minlength=victims_unique.size
                )
            else:
                delta = np.zeros(0, dtype=np.float64)
        span = (int(uniq[0]) - 1, int(uniq[-1]) + 2)
        plan = (reset_rows, conflict, victims_unique, delta, span)
        if key is not None:
            # The entry holds a reference to the keyed objects so their
            # ids cannot be recycled while the memo entry lives.
            self._batch_cache.put(key, (agg if agg is not None else rows, plan))
        return plan

    def activate_many(
        self,
        rows: RowBatch,
        time_ns: float = 0.0,
        agg: tuple["np.ndarray", "np.ndarray"] | None = None,
    ) -> None:
        if self.blast_radius != 1 or self.decay != 1.0:
            seq = rows.tolist() if isinstance(rows, np.ndarray) else rows
            for row in seq:
                self.activate(row, time_ns)
            return
        plan = self._batch_plan(rows, agg)
        if plan is None:
            return
        reset_rows, conflict, victims_unique, delta, span = plan
        self._widen(*span)
        if conflict:
            self._activate_many_exact(rows, time_ns)
            return
        dist = self._dist
        if victims_unique is None or not victims_unique.size:
            dist[reset_rows] = 0.0
            return
        old = dist[victims_unique]
        new = old + delta
        # Flip detection: threshold mask diffed against the bitmap. The
        # max() pre-check skips the mask work when no total is anywhere
        # near TRH (the overwhelmingly common batch). State is untouched
        # so far, so the exact replay (which must record per-crossing
        # disturbances in act order) starts clean.
        if new.max() >= self.trh and bool(
            ((new >= self.trh) & ~self._flipped_mask[victims_unique]).any()
        ):
            self._activate_many_exact(rows, time_ns)
            return
        dist[reset_rows] = 0.0
        dist[victims_unique] = new
        peak = self._peak_arr
        peak[victims_unique] = np.maximum(peak[victims_unique], new)

    def _activate_many_exact(self, rows: RowBatch, time_ns: float) -> None:
        """Activation-exact replay of a batch (the sparse loop on arrays).

        Used for batches the vector path cannot reproduce bit-identically:
        aggressor/victim interleavings and batches that flip rows (flip
        events must carry the crossing-time disturbance, in act order).
        The caller has widened the envelope over the batch's victims.
        """
        seq = rows.tolist() if isinstance(rows, np.ndarray) else rows
        dist = self._dist
        peak = self._peak_arr
        flipped = self._flipped_mask
        flips = self.flips
        num_rows = self.num_rows
        trh = self.trh
        for row in seq:
            if 0 <= row < num_rows:
                dist[row] = 0.0
            victim = row - 1
            if 0 <= victim < num_rows:
                total = dist[victim] + 1.0
                dist[victim] = total
                if total > peak[victim]:
                    peak[victim] = total
                if total >= trh and not flipped[victim]:
                    flipped[victim] = True
                    flips.append(FlipEvent(victim, float(total), time_ns))
            victim = row + 1
            if 0 <= victim < num_rows:
                total = dist[victim] + 1.0
                dist[victim] = total
                if total > peak[victim]:
                    peak[victim] = total
                if total >= trh and not flipped[victim]:
                    flipped[victim] = True
                    flips.append(FlipEvent(victim, float(total), time_ns))

    def mitigate(self, aggressor: int, time_ns: float = 0.0) -> list[int]:
        if self.blast_radius != 1 or self.decay != 1.0:
            return super().mitigate(aggressor, time_ns)
        # Radius-1 victim refresh, inlined: refresh aggressor±1, let each
        # refresh's activation disturb *its* neighbours (the transitive
        # channel), then restore the refreshed pair. Same op order as the
        # generic path, minus the per-victim method dispatch — this runs
        # once per REF per bank, right behind the hot loop.
        num_rows = self.num_rows
        refreshed = [
            victim
            for victim in (aggressor - 1, aggressor + 1)
            if 0 <= victim < num_rows
        ]
        self._widen(aggressor - 2, aggressor + 3)
        dist = self._dist
        for victim in refreshed:
            dist[victim] = 0.0
        for victim in refreshed:
            dist[victim] = 0.0
            for neighbour in (victim - 1, victim + 1):
                if 0 <= neighbour < num_rows:
                    self._bump(neighbour, 1.0, time_ns)
        for victim in refreshed:
            dist[victim] = 0.0
        return refreshed

    def refresh_row(self, row: int, time_ns: float = 0.0) -> None:
        if 0 <= row < self.num_rows:
            self._dist[row] = 0.0

    def clear_row(self, row: int) -> None:
        if 0 <= row < self.num_rows:
            self._dist[row] = 0.0

    def refresh_range(self, lo: int, hi: int, time_ns: float = 0.0) -> None:
        self._dist[max(0, lo) : hi] = 0.0

    def disturbed_rows(self) -> list[int]:
        lo, window = self._window()
        if window is None:
            return []
        return (np.flatnonzero(window) + lo).tolist()

    def auto_refresh_all(self, time_ns: float = 0.0) -> None:
        self._dist.fill(0.0)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def disturbance(self, row: int) -> float:
        if not 0 <= row < self.num_rows:
            return 0.0
        return float(self._dist[row])

    def max_disturbance(self) -> float:
        return self.disturbance_summary()[0]

    def most_disturbed_row(self) -> int | None:
        return self.disturbance_summary()[1]

    def disturbance_summary(self) -> tuple[float, int | None]:
        # One argmax scan of the envelope serves both queries:
        # window[argmax] IS the max, argmax already takes the lowest
        # index among ties, and every row outside the envelope is zero.
        # (The envelope is tracked, not derived from the activated
        # rows: victim-refresh bumps chain — a refreshed victim's
        # neighbour can itself be mitigated later — so disturbance
        # travels arbitrarily far from them.)
        lo, window = self._window()
        if window is None:
            return 0.0, None
        row = int(window.argmax())
        best = float(window[row])
        return best, (lo + row if best > 0.0 else None)

    def peak_disturbance(self, row: int) -> float:
        if not 0 <= row < self.num_rows:
            return 0.0
        return float(self._peak_arr[row])
