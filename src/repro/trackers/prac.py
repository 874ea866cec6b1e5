"""PRAC: Per-Row Activation Counting (paper Section IX, related work).

JEDEC's JESD79-5C update adds PRAC: a counter embedded in each DRAM
row, read-modify-written on every activation, with an ALERT back-off
that forces mitigation when a counter crosses the threshold. It is the
principled-but-costly alternative MINT exists to avoid: ~9% area and
~10% slower tRC (46-48 ns -> 52 ns).

The tracker model is deterministic: a row crossing ``alert_threshold``
is mitigated at the next opportunity, so the tolerated TRH is bounded
by the threshold plus the mitigation latency — no probabilistic tail at
all. The costs are modelled separately: storage via
:meth:`storage_bits` (DRAM-array bits, not SRAM) and timing via
:func:`prac_timing`.
"""

from __future__ import annotations

import math

from ..constants import ROWS_PER_BANK
from ..dram.timing import DDR5Timing, DEFAULT_TIMING
from ..kernels.march import KIND_COUNTER
from .base import Lowering, MarchUnit, MitigationRequest, Tracker, batch_items

#: tRC with PRAC's read-modify-write of the in-row counter (§IX).
PRAC_TRC_NS = 52.0

#: Area overhead of per-row counters reported by Hynix (§IX).
PRAC_AREA_OVERHEAD = 0.09


class PracTracker(Tracker):
    """Deterministic per-row activation counting with ALERT back-off."""

    name = "PRAC"
    centric = "past"
    observes_mitigations = True

    def __init__(
        self,
        alert_threshold: int = 512,
        counter_bits: int = 10,
        num_rows: int = ROWS_PER_BANK,
    ) -> None:
        if alert_threshold < 1:
            raise ValueError("alert_threshold must be >= 1")
        self.alert_threshold = alert_threshold
        self.counter_bits = counter_bits
        self.num_rows = num_rows
        self.counters: dict[int, int] = {}
        self._alerts: list[int] = []
        self.alerts_raised = 0

    def on_activate(self, row: int) -> None:
        count = self.counters.get(row, 0) + 1
        self.counters[row] = count
        if count >= self.alert_threshold:
            # ALERT: the device demands mitigation time from the
            # controller; the row is queued for back-off mitigation.
            self.counters[row] = 0
            self._alerts.append(row)
            self.alerts_raised += 1

    def on_activate_batch(self, rows, counts=None) -> None:
        """Bincount-style accumulation: each counter advances by its
        batch count in one add.

        Exact while no counter reaches the ALERT threshold within the
        batch — an alert resets the counter mid-stream and the alert
        *order* across rows follows the act order, so threshold-crossing
        batches replay through the scalar loop.
        """
        items = batch_items(rows, counts)
        counters = self.counters
        threshold = self.alert_threshold
        if any(counters.get(row, 0) + count >= threshold for row, count in items):
            super().on_activate_batch(rows, counts)
            return
        for row, count in items:
            counters[row] = counters.get(row, 0) + count

    def on_mitigation_activate(self, row: int) -> None:
        self.on_activate(row)

    def on_refresh(self) -> list[MitigationRequest]:
        pending, self._alerts = self._alerts, []
        return [MitigationRequest(row) for row in pending]

    def pseudo_refresh(self) -> list[MitigationRequest]:
        # PRAC's counters live in the rows; postponement cannot dislodge
        # them, so the pseudo boundary simply drains pending alerts.
        return self.on_refresh()

    def lower(self) -> Lowering:
        return Lowering(KIND_COUNTER, threshold=self.alert_threshold,
                        capacity=-1)

    def march_in(self, unit: MarchUnit) -> bool:
        table = self.counters
        unit.counts[:] = [table.get(row, -1) for row in unit.rows]
        # Alerts its victim refreshes raised wait for the next REF.
        unit.queued = self._alerts
        return True

    def march_out(self, unit: MarchUnit) -> None:
        table = self.counters
        for row, count in zip(unit.rows, unit.counts.tolist()):
            if count >= 0:
                table[row] = count
        self.alerts_raised += unit["c_trips"]
        self._alerts = unit.queued

    def reset(self) -> None:
        self.counters.clear()
        self._alerts.clear()
        self.alerts_raised = 0

    def count(self, row: int) -> int:
        return self.counters.get(row, 0)

    @property
    def entries(self) -> int:
        return self.num_rows

    @property
    def storage_bits(self) -> int:
        """Counter bits live in the DRAM array, not SRAM — reported for
        completeness (the real cost is the ~9% array area)."""
        return self.num_rows * self.counter_bits

    def mintrh_d(self, max_act: int = 73) -> int:
        """Deterministic per-row double-sided bound.

        Each aggressor of a double-sided pair can land up to
        ``alert_threshold`` activations before its ALERT fires, plus up
        to one tREFI of activations while the alert is serviced; the
        sandwiched victim tolerates the pattern iff its per-row TRH-D is
        at least that sum.
        """
        return self.alert_threshold + max_act


def prac_timing(base: DDR5Timing = DEFAULT_TIMING) -> DDR5Timing:
    """The PRAC-revised timing: tRC stretched to 52 ns (Section IX)."""
    return DDR5Timing(
        t_refw_ms=base.t_refw_ms,
        t_refi_ns=base.t_refi_ns,
        t_rfc_ns=base.t_rfc_ns,
        t_rc_ns=PRAC_TRC_NS,
        t_rcd_ns=base.t_rcd_ns,
        t_cl_ns=base.t_cl_ns,
        t_rp_ns=base.t_rp_ns,
        t_rfm_sb_ns=base.t_rfm_sb_ns,
        t_drfm_sb_ns=base.t_drfm_sb_ns,
    )


def prac_throughput_cost(base: DDR5Timing = DEFAULT_TIMING) -> float:
    """Peak activation-throughput loss from the slower tRC (~8-10%)."""
    return 1.0 - base.t_rc_ns / PRAC_TRC_NS
