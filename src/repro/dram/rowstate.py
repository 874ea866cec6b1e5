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

Two oracles implement the same contract:

``sparse`` (:class:`RowDisturbanceModel` proper)
    A ``dict`` keyed by row. Attacks touch a handful of rows out of
    128K, so the dict costs only the rows a run touches. It is the
    reference engine's oracle and models any blast radius.
``dense`` (:class:`DenseRowDisturbanceModel`)
    One bank's row views of the fast engine's packed :class:`PackedRows`
    family. The kernel aggregates each interval and scatters it into
    the packed arrays itself; this model is the per-bank view of the
    same memory: the activation-exact replay of order-sensitive
    batches, victim refreshes and the queries. A disturbance
    *envelope* ``[lo, hi)`` bounds every row ever written nonzero, so
    the queries scan only the rows a run touched.

The oracle follows the storage: :class:`~repro.dram.device.DramDevice`
builds the dense model exactly when it is given a packed family, and
the sparse one otherwise.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

#: Accepted row-batch types for ``activate_many``. Arrays are read,
#: never written: the kernel treats caller batches as immutable.
RowBatch = Union[Sequence[int], "np.ndarray"]

#: NumPy asks the kernel for transparent huge pages on every allocation
#: of at least this many bytes, so the first touch of any 2 MiB region
#: zero-fills all of it. A family whose ``float64`` arrays reach it is
#: mapped on small pages instead.
_HUGE_PAGE_BYTES = 4 << 20

#: The packed family's arrays, in :class:`PackedRows` order (``env``
#: comes separately).
_FAMILY_DTYPES = (np.float64, np.float64, np.bool_, np.int64, np.int64)


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

    @classmethod
    def zeros(cls, units: int, num_rows: int) -> "PackedRows":
        """A fresh zero-filled ``(unit, row)`` family with empty
        envelopes.

        A run writes a few rows per bank, so the family must cost only
        the pages those rows sit on. Under NumPy's huge-page advice a
        single write would fault in 2 MiB, so a family large enough to
        get that advice comes from one private anonymous mapping advised
        *against* huge pages: an untouched 4 KiB page costs nothing, a
        touched one 4 KiB. Smaller families (the scaled Monte-Carlo
        windows) and hosts without ``MADV_NOHUGEPAGE`` use plain
        ``np.zeros``.
        """
        shape = (units, num_rows)
        cells = units * num_rows
        if cells * 8 >= _HUGE_PAGE_BYTES and hasattr(mmap, "MADV_NOHUGEPAGE"):
            # Each array starts on its own page.
            sizes = [
                -(-cells * np.dtype(dtype).itemsize // mmap.PAGESIZE)
                * mmap.PAGESIZE
                for dtype in _FAMILY_DTYPES
            ]
            buffer = mmap.mmap(
                -1, sum(sizes), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
            )
            buffer.madvise(mmap.MADV_NOHUGEPAGE)
            offsets = np.cumsum([0, *sizes[:-1]]).tolist()
            arrays = [
                np.frombuffer(
                    buffer, dtype=dtype, count=cells, offset=offset
                ).reshape(shape)
                for dtype, offset in zip(_FAMILY_DTYPES, offsets)
            ]
        else:
            arrays = [np.zeros(shape, dtype=dtype) for dtype in _FAMILY_DTYPES]
        env = np.empty((units, 2), dtype=np.int64)
        env[:, 0] = num_rows
        env[:, 1] = 0
        return cls(*arrays, env)

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
    storage:
        One unit's row views of a caller-owned :class:`PackedRows`
        family: :class:`DenseRowDisturbanceModel` only, which is built
        on it instead of a dict.
    """

    def __init__(
        self,
        num_rows: int,
        trh: float,
        blast_radius: int = 1,
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
        self.flips: list[FlipEvent] = []
        self._init_storage(storage)

    def _init_storage(self, storage: PackedRows | None) -> None:
        if storage is not None:
            raise ValueError("packed storage needs DenseRowDisturbanceModel")
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
            for victim in (row - distance, row + distance):
                if 0 <= victim < self.num_rows:
                    self._bump(victim, weight, time_ns)

    def activate_many(self, rows: RowBatch, time_ns: float = 0.0) -> None:
        """Record a batch of activations in order (hot-loop entry point).

        Semantically identical to calling :meth:`activate` once per row.
        ``rows`` may be any integer sequence or a NumPy array; it is
        never mutated.
        """
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        if self.blast_radius != 1:
            for row in rows:
                self.activate(row, time_ns)
            return
        # Common case (blast radius 1) inlined so the per-activation
        # cost is a few dict operations and no Python allocation.
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
        slice. One vector store on the dense model."""
        for row in [r for r in self._disturbance if lo <= r < hi]:
            self._disturbance.pop(row, None)

    def disturbed_rows(self) -> list[int]:
        """Rows currently carrying non-zero disturbance.

        Sparse model: first-disturbance order; dense: ascending. Use
        ``sorted()`` when the order matters across models.
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
        answer identical across the sparse and dense models (a dict's
        insertion order would not be).
        """
        if not self._disturbance:
            return None
        best = max(self._disturbance.values())
        return min(r for r, v in self._disturbance.items() if v == best)

    def disturbance_summary(self) -> tuple[float, int | None]:
        """``(max_disturbance(), most_disturbed_row())`` in one call.

        Exists so result collection pays one storage scan instead of
        two on the dense model; the sparse form just composes the two
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
    """One bank's oracle on the fast engine's packed rows.

    State is the bank's row views of a caller-owned :class:`PackedRows`
    family: ``float64`` disturbance and peak, a flipped bitmap, and the
    ``[lo, hi)`` disturbance envelope. The kernel aggregates every
    interval once and scatters it into the packed arrays itself; it
    calls this model for what is order-sensitive within the bank
    (:meth:`activate_many` for batches with adjacent aggressors or a
    crossing of TRH, and the victim refreshes) and for the queries.
    Both write the same memory, so bit-identity between the packed and
    per-bank paths holds by construction rather than by mirroring
    state.

    The model needs packed storage (``PackedRows.zeros(1,
    num_rows).unit(0)`` for a standalone bank) and blast radius 1:
    every other radius runs on the sparse :class:`RowDisturbanceModel`
    of the reference engine.

    Every method that writes a nonzero disturbance first widens the
    bank's disturbance envelope (see :attr:`PackedRows.env`) over the
    rows it can reach, so the queries scan ``dist[lo:hi]`` only and
    :attr:`scanned_rows` counts the rows they read.
    """

    def _init_storage(self, storage: PackedRows | None) -> None:
        if storage is None:
            raise ValueError(
                "DenseRowDisturbanceModel is a view on packed rows: pass "
                "storage=PackedRows.zeros(1, num_rows).unit(0), or build "
                "the sparse RowDisturbanceModel"
            )
        if self.blast_radius != 1:
            raise ValueError(
                "DenseRowDisturbanceModel models blast radius 1 only, not "
                f"{self.blast_radius}; use the sparse RowDisturbanceModel"
            )
        # The views must be zero-filled float64/float64/bool rows of
        # ``num_rows`` entries plus the unit's ``[lo, hi)`` envelope
        # pair; nothing is copied. The envelope travels with the views,
        # so whoever writes next — this model or the kernel — widens
        # the same pair.
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
        # model (dict pop); clip them here too — and never let a
        # negative index wrap around the arrays.
        if 0 <= row < self.num_rows:
            self._dist[row] = 0.0
        self._widen(row - 1, row + 2)
        for victim in (row - 1, row + 1):
            if 0 <= victim < self.num_rows:
                self._bump(victim, weight, time_ns)

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

    def activate_many(self, rows: RowBatch, time_ns: float = 0.0) -> None:
        """Activation-exact replay of a batch (the sparse loop on the
        packed rows).

        The kernel calls it only for the batches whose in-bank order is
        observable: adjacent aggressors (an ACT restores its own row),
        and steps that cross TRH (a flip event carries the crossing-time
        disturbance, and events come in act order).
        """
        seq = rows.tolist() if isinstance(rows, np.ndarray) else rows
        if not seq:
            return
        self._widen(min(seq) - 1, max(seq) + 2)
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
