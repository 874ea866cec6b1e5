"""Row-Press simulation (paper Appendix C).

Row-Press keeps a row open for a long time (tON up to ~5 tREFI); the
charge leaked into neighbours scales with the open time, so a row can
damage its victims with far fewer *activations* than TRH. Following
ImPress, we quantify the damage of one timed activation as its
Equivalent ACTivations, EACT = (tON + tPRE)/tRC, and weight the
disturbance oracle accordingly.

A tracker that counts plain activations (MINT's CAN) under-selects
long-open rows; the ImPress extension advances CAN by EACT instead,
restoring proportional selection. The simulator here drives both
through timed traces so the difference is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.rowpress import equivalent_activations
from ..dram.device import DeviceConfig, DramDevice
from ..dram.timing import DDR5Timing, DEFAULT_TIMING
from ..trackers.base import Tracker
from .results import SimResult


@dataclass(frozen=True)
class TimedAct:
    """One activation with an explicit row-open time."""

    row: int
    t_on_ns: float

    def __post_init__(self) -> None:
        if self.t_on_ns < 0:
            raise ValueError("t_on_ns must be non-negative")


@dataclass(frozen=True)
class TimedInterval:
    """One tREFI of timed activations."""

    acts: tuple[TimedAct, ...]


@dataclass
class TimedTrace:
    """A named stream of timed intervals."""

    name: str
    intervals: list[TimedInterval]

    def validate(self, timing: DDR5Timing) -> None:
        """Each interval's row-open + precharge time must fit in tREFI."""
        budget = timing.t_refi_ns - timing.t_rfc_ns
        for index, interval in enumerate(self.intervals):
            used = sum(
                act.t_on_ns + timing.t_rp_ns for act in interval.acts
            )
            if used > budget:
                raise ValueError(
                    f"interval {index} uses {used:.0f} ns of row time; "
                    f"only {budget:.0f} ns fit in one tREFI"
                )


def rowpress_trace(
    row: int,
    t_on_ns: float,
    intervals: int,
    timing: DDR5Timing = DEFAULT_TIMING,
    name: str | None = None,
) -> TimedTrace:
    """A Row-Press pattern: hold ``row`` open ``t_on_ns`` repeatedly.

    Each interval is packed with as many long-open activations as the
    tREFI budget allows (at least one).
    """
    if intervals < 1:
        raise ValueError("intervals must be >= 1")
    budget = timing.t_refi_ns - timing.t_rfc_ns
    per_interval = max(1, int(budget // (t_on_ns + timing.t_rp_ns)))
    interval = TimedInterval(tuple(TimedAct(row, t_on_ns) for _ in range(per_interval)))
    return TimedTrace(
        name=name or f"row-press(row={row},tON={t_on_ns:.0f}ns)",
        intervals=[interval] * intervals,
    )


class RowPressSimulator:
    """Drives timed traces through the EACT-weighted disturbance oracle.

    Trackers exposing ``on_activate_timed`` (the ImPress extension)
    receive the open time; plain trackers only see an activation event,
    which is precisely the blindness Row-Press exploits.
    """

    def __init__(
        self,
        tracker: Tracker,
        trh: float,
        timing: DDR5Timing = DEFAULT_TIMING,
        num_rows: int = 128 * 1024,
        blast_radius: int = 1,
    ) -> None:
        self.tracker = tracker
        self.timing = timing
        self.device = DramDevice(
            DeviceConfig(
                timing=timing,
                num_banks=1,
                rows_per_bank=num_rows,
                trh=trh,
                blast_radius=blast_radius,
            )
        )
        self.mitigations = 0
        self.demand_acts = 0

    def run(self, trace: TimedTrace) -> SimResult:
        trace.validate(self.timing)
        timed = hasattr(self.tracker, "on_activate_timed")
        model = self.device.banks[0]
        for index, interval in enumerate(trace.intervals):
            time_ns = index * self.timing.t_refi_ns
            for act in interval.acts:
                self.demand_acts += 1
                weight = equivalent_activations(act.t_on_ns, self.timing)
                model.activate(act.row, time_ns, weight=weight)
                if timed:
                    self.tracker.on_activate_timed(act.row, act.t_on_ns)
                else:
                    self.tracker.on_activate(act.row)
            self.device.auto_refresh(0, time_ns)
            for request in self.tracker.on_refresh():
                self.mitigations += 1
                self.device.mitigate(0, request.row, request.distance, time_ns)
        return SimResult(
            tracker=self.tracker.name,
            trace=trace.name,
            intervals=len(trace.intervals),
            demand_acts=self.demand_acts,
            refreshes=len(trace.intervals),
            mitigations=self.mitigations,
            transitive_mitigations=0,
            pseudo_mitigations=0,
            flips=list(model.flips),
            max_disturbance=model.max_disturbance(),
            most_disturbed_row=model.most_disturbed_row(),
        )
