"""Graphene: MC-side Misra-Gries tracking (paper Section IX, Table IX).

Graphene maintains a Misra-Gries frequent-items table at the memory
controller and issues a (directed) mitigation whenever a row's counter
crosses the hammer threshold divided by a safety factor. Its SRAM cost
grows inversely with the threshold (Table IX: 56.5 KB per bank at
TRH-D = 3K, 565 KB at 300), which is the point of comparison against
MINT's 15 bytes.

The Misra-Gries "decrement everything" step on an untracked activation
of a full table is implemented with the standard lazy global-offset
trick: counters store *absolute* values, a shared offset is bumped
instead of touching every entry, and an entry is live while its stored
value exceeds the offset. A count-indexed bucket map makes the purge of
newly-dead entries O(1) amortized (each entry dies at most once per
insertion), so the overflow path costs O(1) instead of O(entries) per
untracked ACT. The observable table (``counters``) is identical to the
naive implementation's, which the regression suite pins.
"""

from __future__ import annotations

import math

from ..constants import SAR_BITS
from ..kernels.march import KIND_COUNTER
from .base import Lowering, MarchUnit, MitigationRequest, Tracker, batch_items


class GrapheneTracker(Tracker):
    """Misra-Gries aggressor table with threshold-triggered mitigation."""

    name = "Graphene"
    centric = "past"
    observes_mitigations = False  # MC-side: cannot see in-DRAM refreshes.

    def __init__(
        self,
        trh: int,
        acts_per_refw: int = 73 * 8192,
        safety_factor: int = 4,
        counter_bits: int | None = None,
    ) -> None:
        if trh < safety_factor:
            raise ValueError("trh must be >= safety_factor")
        self.trh = trh
        self.safety_factor = safety_factor
        #: Counter value at which a mitigation is issued immediately.
        self.mitigation_threshold = max(1, trh // safety_factor)
        #: Misra-Gries table size: enough entries that no row can cross
        #: the threshold untracked within one tREFW.
        self.num_entries = max(1, acts_per_refw // self.mitigation_threshold)
        self.counter_bits = counter_bits or max(
            1, math.ceil(math.log2(self.mitigation_threshold + 1))
        )
        # row -> absolute (offset-shifted) count; every entry is live:
        # dead entries are purged the moment the offset reaches them.
        self._counters: dict[int, int] = {}
        #: The lazy decrement-all offset; effective = stored - offset.
        self._offset = 0
        # absolute count -> rows stored at it, for O(1) amortized purge.
        self._buckets: dict[int, set[int]] = {}
        self._pending: list[MitigationRequest] = []
        self.mitigations_issued = 0

    @property
    def counters(self) -> dict[int, int]:
        """The observable Misra-Gries table (effective counts).

        Built on demand from the offset representation; matches the
        naive decrement-every-entry implementation row for row.
        """
        offset = self._offset
        return {row: stored - offset for row, stored in self._counters.items()}

    # ------------------------------------------------------------------
    def _bucket_move(self, row: int, old: int, new: int) -> None:
        bucket = self._buckets[old]
        bucket.discard(row)
        if not bucket:
            del self._buckets[old]
        self._buckets.setdefault(new, set()).add(row)

    def _remove(self, row: int) -> None:
        stored = self._counters.pop(row)
        bucket = self._buckets[stored]
        bucket.discard(row)
        if not bucket:
            del self._buckets[stored]

    def _insert(self, row: int, stored: int) -> None:
        self._counters[row] = stored
        self._buckets.setdefault(stored, set()).add(row)

    def _trip(self, row: int) -> None:
        # Graphene mitigates as soon as the threshold trips, not at
        # REF; queue it for the next command slot.
        self._remove(row)
        self._pending.append(MitigationRequest(row))
        self.mitigations_issued += 1

    def on_activate(self, row: int) -> None:
        stored = self._counters.get(row)
        if stored is not None:
            self._bucket_move(row, stored, stored + 1)
            self._counters[row] = stored + 1
            if stored + 1 - self._offset >= self.mitigation_threshold:
                self._trip(row)
        elif len(self._counters) < self.num_entries:
            self._insert(row, self._offset + 1)
            if 1 >= self.mitigation_threshold:
                self._trip(row)
        else:
            # Misra-Gries decrement-all, O(1) amortized: bump the offset
            # and purge the entries that just hit zero.
            self._offset += 1
            dead = self._buckets.pop(self._offset, None)
            if dead:
                for dead_row in dead:
                    del self._counters[dead_row]

    def on_activate_batch(self, rows, counts=None) -> None:
        """Aggregated batch observation with an exact fast path.

        When the table can absorb the whole batch without overflow and
        without any counter reaching the mitigation threshold, the
        outcome is order-independent and each row's counter advances by
        its batch count in one move. Otherwise (overflow decrements or
        mid-batch threshold trips are order-sensitive) the batch replays
        through the scalar loop.
        """
        items = batch_items(rows, counts)
        counters = self._counters
        offset = self._offset
        threshold = self.mitigation_threshold
        new_rows = 0
        for row, count in items:
            stored = counters.get(row)
            if stored is None:
                new_rows += 1
                effective = count
            else:
                effective = stored - offset + count
            if effective >= threshold:
                break
        else:
            if len(counters) + new_rows <= self.num_entries:
                for row, count in items:
                    stored = counters.get(row)
                    if stored is None:
                        self._insert(row, offset + count)
                    else:
                        self._bucket_move(row, stored, stored + count)
                        counters[row] = stored + count
                return
        super().on_activate_batch(rows, counts)

    def on_refresh(self) -> list[MitigationRequest]:
        pending, self._pending = self._pending, []
        return pending

    def drain(self) -> list[MitigationRequest]:
        """Collect threshold-triggered mitigations between refreshes."""
        pending, self._pending = self._pending, []
        return pending

    def lower(self) -> Lowering:
        return Lowering(KIND_COUNTER, threshold=self.mitigation_threshold,
                        capacity=self.num_entries)

    def march_in(self, unit: MarchUnit) -> bool:
        # Trips wait for the next REF, which a postponed batch defers.
        unit.queued = [request.row for request in self._pending]
        table, offset = self._counters, self._offset
        unit.counts[:] = [
            table[row] - offset if row in table else -1 for row in unit.rows
        ]
        unit["c_live"] = len(table)
        return True

    def march_out(self, unit: MarchUnit) -> None:
        # Re-enter each slot through the entry helpers so the count
        # buckets stay consistent (the offset never moves in a march).
        for row, count in zip(unit.rows, unit.counts.tolist()):
            if row in self._counters:
                self._remove(row)
            if count >= 0:
                self._insert(row, self._offset + count)
        self.mitigations_issued += unit["c_trips"]
        self._pending = [MitigationRequest(row) for row in unit.queued]

    def reset(self) -> None:
        self._counters.clear()
        self._buckets.clear()
        self._offset = 0
        self._pending.clear()
        self.mitigations_issued = 0

    @property
    def entries(self) -> int:
        return self.num_entries

    @property
    def storage_bits(self) -> int:
        return self.num_entries * (SAR_BITS + self.counter_bits)
