"""TRRespass-style many-sided patterns (paper Section II-F).

TRRespass defeats deployed TRR by hammering more aggressor rows than
the tracker has table entries: the tracker's eviction policy thrashes
and the true aggressors escape mitigation. These generators exist to
demonstrate *why* the deployed low-cost trackers are insecure (the
comparison experiments show TRR failing while MINT holds).
"""

from __future__ import annotations

from ..sim.trace import Trace
from .base import AttackParams, cycled_trace, spaced_rows


def many_sided(
    sides: int,
    params: AttackParams | None = None,
    spacing: int = 4,
) -> Trace:
    """An n-sided TRRespass pattern: ``sides`` aggressors hammered
    round-robin, saturating every activation slot."""
    params = params or AttackParams()
    if sides < 1:
        raise ValueError("sides must be >= 1")
    return cycled_trace(
        f"many-sided(n={sides})", spaced_rows(sides, params.base_row, spacing),
        params.max_act, params.intervals,
    )


def decoy_assisted(
    target: int,
    decoys: int,
    hammers_per_interval: int,
    params: AttackParams | None = None,
) -> Trace:
    """Hammer ``target`` while spraying decoy rows to thrash the tracker.

    The decoys occupy the tracker's table entries (defeating TRR-class
    designs); the target receives ``hammers_per_interval`` activations
    per tREFI.
    """
    params = params or AttackParams()
    if decoys < 1:
        raise ValueError(f"decoys must be >= 1, got {decoys}")
    if hammers_per_interval < 1:
        raise ValueError("hammers_per_interval must be >= 1")
    if hammers_per_interval > params.max_act:
        raise ValueError("hammers_per_interval exceeds the interval budget")
    return cycled_trace(
        f"decoy-assisted(target={target},decoys={decoys})",
        spaced_rows(decoys, params.base_row + 10_000, spacing=4),
        params.max_act - hammers_per_interval, params.intervals,
        head=(target,) * hammers_per_interval,
    )
