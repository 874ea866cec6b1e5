"""Base utilities for attack-trace generators.

Each attack module exposes functions returning a
:class:`~repro.sim.trace.Trace`. Generators take the interval budget
(MaxACT) and the number of tREFI intervals to emit, plus
pattern-specific parameters; rows are plain integers into the bank's
row space.

Generators build each *distinct* interval once and repeat the pointer
(:func:`~repro.sim.trace.repeat_interval`, :func:`cycled_trace`, a
multiplied super-window, or :func:`build_trace`'s content interning).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from ..sim.trace import Interval, Trace


@dataclass(frozen=True)
class AttackParams:
    """Common parameters shared by the attack generators."""

    max_act: int = 73
    intervals: int = 8192
    base_row: int = 1000

    def __post_init__(self) -> None:
        if self.max_act < 1:
            raise ValueError("max_act must be >= 1")
        if self.intervals < 1:
            raise ValueError("intervals must be >= 1")
        if self.base_row < 0:
            raise ValueError("base_row must be non-negative")


def build_trace(
    name: str,
    per_interval_acts: list[list[int]],
    postpone_mask: list[bool] | None = None,
) -> Trace:
    """Assemble a trace from per-interval activation lists, interning
    equal ``(acts, postpone)`` intervals to one shared object."""
    if postpone_mask is None:
        postpone_mask = [False] * len(per_interval_acts)
    if len(postpone_mask) != len(per_interval_acts):
        raise ValueError("postpone_mask length must match interval count")
    interned: dict[tuple, Interval] = {}
    intervals = []
    for acts, postpone in zip(per_interval_acts, postpone_mask):
        key = (tuple(acts), postpone)
        interval = interned.get(key)
        if interval is None:
            interval = interned[key] = Interval(*key)
        intervals.append(interval)
    return Trace(name=name, intervals=intervals)


def cycled_trace(name: str, rows: list[int], per_interval: int,
                 intervals: int, head: tuple[int, ...] = ()) -> Trace:
    """Deal ``rows`` round-robin, ``per_interval`` ACTs per tREFI, each
    interval opening with the fixed ``head`` ACTs.

    Interval ``i`` starts at cursor ``i * per_interval mod k`` (``k =
    len(rows)``), so the trace repeats every ``k / gcd(k, per_interval)``
    intervals: only that many objects are built.
    """
    k = len(rows)
    period = min(k // gcd(k, per_interval), intervals)
    # Enough wrapped copies that any start cursor < k has a full slice.
    dealt = rows * (per_interval // k + 2)
    window = [
        Interval(head + tuple(dealt[start:start + per_interval]))
        for start in (i * per_interval % k for i in range(period))
    ]
    return Trace(name, (window * (intervals // period + 1))[:intervals])


def whole_windows(params: AttackParams, window: int) -> int:
    """Whole ``window``-interval super-windows in the horizon (a partial
    one is dropped); raises rather than return 0."""
    if params.intervals < window:
        raise ValueError(
            f"intervals={params.intervals} is shorter than one decoy "
            f"super-window of {window} intervals (postponed + 1)"
        )
    return params.intervals // window


def spaced_rows(count: int, base_row: int, spacing: int = 8) -> list[int]:
    """``count`` attack rows far enough apart not to share victims.

    A spacing of >= 2 * blast_radius + 2 guarantees no victim overlap;
    8 leaves margin for the blast-radius-2 ablation.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return [base_row + i * spacing for i in range(count)]
