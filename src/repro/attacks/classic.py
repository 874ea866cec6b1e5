"""Classic single-sided and double-sided Rowhammer attacks (§V-C).

These are the patterns MINT defeats *by construction*: a row (or pair)
hammered continuously through the tREFI window is guaranteed to be
selected, so the attack is bounded at M activations — the simulation
tests assert exactly that.
"""

from __future__ import annotations

from ..sim.trace import Trace, repeat_interval
from .base import AttackParams


def single_sided(params: AttackParams | None = None, row: int | None = None) -> Trace:
    """Hammer one row for every activation slot of every interval."""
    params = params or AttackParams()
    row = params.base_row if row is None else row
    return Trace(
        f"single-sided(row={row})",
        repeat_interval([row] * params.max_act, params.intervals),
    )


def double_sided(
    params: AttackParams | None = None, victim: int | None = None
) -> Trace:
    """Alternate between the two neighbours of ``victim``.

    The victim sits between aggressors victim-1 and victim+1; each
    interval alternates them across all M slots.
    """
    params = params or AttackParams()
    victim = params.base_row if victim is None else victim
    if victim < 1:
        raise ValueError("victim must have a lower neighbour")
    left, right = victim - 1, victim + 1
    acts = [left if i % 2 == 0 else right for i in range(params.max_act)]
    return Trace(
        f"double-sided(victim={victim})",
        repeat_interval(acts, params.intervals),
    )


def one_location(
    params: AttackParams | None = None, row: int | None = None
) -> Trace:
    """Pattern-1: a single activation per interval (stealth attack).

    This is the MINT-optimal stealth pattern analysed in Section V-D
    (MinTRH 2461): one activation of the row per tREFI, the remaining
    slots unused.
    """
    params = params or AttackParams()
    row = params.base_row if row is None else row
    return Trace(
        f"one-location(row={row})", repeat_interval([row], params.intervals)
    )
