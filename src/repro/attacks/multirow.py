"""Pattern-2 and pattern-3 multi-row attacks (paper Section V-D).

Pattern-2 (multi-row, single-copy): k rows receive one activation each
per round. For k <= M a round is one tREFI; larger k spans several.
This is MINT's worst case at k = M = 73.

Pattern-3 (multi-row, multi-copy): each of k rows is activated c times
per tREFI. Copies raise the per-tREFI selection odds to c/M, so this
family collapses for c >= 4 (Fig 11).
"""

from __future__ import annotations

from ..sim.trace import Trace, repeat_interval
from .base import AttackParams, cycled_trace, spaced_rows


def pattern2(
    k: int,
    params: AttackParams | None = None,
    spacing: int = 8,
) -> Trace:
    """k attack rows, one activation each per round (Fig 10)."""
    params = params or AttackParams()
    if k < 1:
        raise ValueError("k must be >= 1")
    return cycled_trace(
        f"pattern2(k={k})", spaced_rows(k, params.base_row, spacing),
        min(params.max_act, k), params.intervals,
    )


def pattern2_double_sided(
    pairs: int,
    params: AttackParams | None = None,
    spacing: int = 8,
) -> Trace:
    """Pattern-2 arranged as aggressor pairs sandwiching victims (§V-F).

    ``pairs`` victim rows, each between two aggressors. Both aggressors
    of each pair are activated once per round, so a round uses
    ``2 * pairs`` slots.
    """
    params = params or AttackParams()
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    victims = spaced_rows(pairs, params.base_row, spacing)
    rows: list[int] = []
    for victim in victims:
        rows.extend((victim - 1, victim + 1))
    return cycled_trace(
        f"pattern2-double(pairs={pairs})", rows,
        min(params.max_act, len(rows)), params.intervals,
    )


def pattern3(
    copies: int,
    params: AttackParams | None = None,
    spacing: int = 8,
) -> Trace:
    """floor(M/c) rows, each activated c times per tREFI (Fig 11)."""
    params = params or AttackParams()
    if not 1 <= copies <= params.max_act:
        raise ValueError(f"copies must be in [1, {params.max_act}]")
    k = max(1, params.max_act // copies)
    rows = spaced_rows(k, params.base_row, spacing)
    per_interval: list[int] = []
    for row in rows:
        per_interval.extend([row] * copies)
    return Trace(
        f"pattern3(c={copies},k={k})",
        repeat_interval(per_interval[: params.max_act], params.intervals),
    )
