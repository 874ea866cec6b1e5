"""DRAM bank state machine with row-buffer and timing bookkeeping.

This is the timing-level bank used by the performance simulator
(``repro.perf``). The security simulator works at the activation-stream
level on the disturbance oracles of :mod:`repro.dram.rowstate`; this
module stays scalar on purpose (the perf model advances one access at a
time to order tRC/tFAW events, so there is no batch to vectorize).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .timing import DDR5Timing


@dataclass
class BankStats:
    """Counters accumulated by one bank over a simulation."""

    activations: int = 0
    row_hits: int = 0
    row_misses: int = 0
    refreshes: int = 0
    rfm_commands: int = 0
    drfm_commands: int = 0
    mitigative_activations: int = 0
    busy_ns: float = 0.0


class Bank:
    """One DRAM bank: open-row policy state plus next-free timestamps.

    The bank exposes ``access(row, now_ns)`` returning the completion
    time of a demand access, and ``block(duration_ns)`` used for REF,
    RFM, and DRFM penalties. Time is carried by the caller; the bank
    only remembers when it becomes free.
    """

    def __init__(self, timing: DDR5Timing, closed_page: bool = False) -> None:
        self.timing = timing
        self.closed_page = closed_page
        self.open_row: int | None = None
        self.free_at_ns: float = 0.0
        self._last_act_ns: float = -1e18
        self.stats = BankStats()

    def access(self, row: int, now_ns: float) -> float:
        """Perform a demand read/write to ``row`` starting at ``now_ns``.

        Returns the completion time. Honors tRC between activations and
        models row-buffer hits vs misses.
        """
        t = self.timing
        start = max(now_ns, self.free_at_ns)
        if not self.closed_page and self.open_row == row:
            # Row-buffer hit: column access only.
            self.stats.row_hits += 1
            done = start + t.t_cl_ns
        else:
            # Miss: precharge (if a row is open), then ACT + column access.
            self.stats.row_misses += 1
            if self.open_row is not None:
                start += t.t_rp_ns
            # Enforce tRC between successive ACTs.
            act_start = max(start, self._last_act_ns + t.t_rc_ns)
            self._last_act_ns = act_start
            self.stats.activations += 1
            done = act_start + t.t_rcd_ns + t.t_cl_ns
            self.open_row = None if self.closed_page else row
        self.free_at_ns = done
        self.stats.busy_ns += done - start
        return done

    def block(self, now_ns: float, duration_ns: float) -> float:
        """Block the bank for ``duration_ns`` (REF/RFM/DRFM penalty).

        Returns the time at which the bank becomes free again.
        """
        start = max(now_ns, self.free_at_ns)
        self.open_row = None
        self.free_at_ns = start + duration_ns
        self.stats.busy_ns += duration_ns
        return self.free_at_ns

    def refresh(self, now_ns: float) -> float:
        self.stats.refreshes += 1
        return self.block(now_ns, self.timing.t_rfc_ns)

    def rfm(self, now_ns: float) -> float:
        self.stats.rfm_commands += 1
        return self.block(now_ns, self.timing.t_rfm_sb_ns)

    def drfm(self, now_ns: float) -> float:
        self.stats.drfm_commands += 1
        return self.block(now_ns, self.timing.t_drfm_sb_ns)
