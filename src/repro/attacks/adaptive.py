"""The Adaptive Attack (ADA) trace generator (paper Appendix B).

ADA runs the MINT-optimal pattern-2 for ``morphing_point`` intervals,
then morphs into the DMQ-optimal repeated hammering: pick one attack
row and hammer it through a full postponement super-window (365
activations), banking on the row already carrying a high unmitigated
count from the first phase.
"""

from __future__ import annotations

from ..sim.trace import Interval, Trace
from .base import AttackParams, build_trace, cycled_trace, spaced_rows


def adaptive_attack(
    morphing_point: int,
    params: AttackParams | None = None,
    postponed: int = 4,
    k: int | None = None,
    spacing: int = 8,
    target_index: int = 0,
) -> Trace:
    """Build one ADA round: pattern-2 for MP intervals, then the DMQ phase.

    ``target_index`` picks which of the k pattern-2 rows is hammered in
    the DMQ phase (the attacker cannot observe counts, so any choice is
    equivalent; experiments sweep it for averaging).
    """
    params = params or AttackParams()
    warmup, rows = _warmup(morphing_point, params, k, spacing)
    target = rows[target_index % len(rows)]
    return Trace(
        name=f"ada(mp={morphing_point},target={target})",
        intervals=warmup + _dmq_window(target, params, postponed),
    )


def repeated_adaptive_attack(
    morphing_point: int,
    params: AttackParams | None = None,
    postponed: int = 4,
    k: int | None = None,
) -> Trace:
    """Chain as many ADA rounds as fit in ``params.intervals`` (tREFW);
    round ``r`` hammers pattern-2 row ``r mod k``."""
    params = params or AttackParams()
    round_len = morphing_point + postponed + 1
    rounds = max(1, params.intervals // round_len)
    warmup, rows = _warmup(morphing_point, params, k, 8)
    windows: dict[int, list[Interval]] = {}  # one DMQ window per target
    intervals: list[Interval] = []
    for round_index in range(rounds):
        target = rows[round_index % len(rows)]
        intervals += warmup + windows.setdefault(
            target, _dmq_window(target, params, postponed)
        )
    return Trace(f"ada-repeated(mp={morphing_point},rounds={rounds})", intervals)


def _warmup(morphing_point: int, params: AttackParams, k: int | None,
            spacing: int) -> tuple[list[Interval], list[int]]:
    """The pattern-2 phase's intervals and its k attack rows."""
    if morphing_point < 1:
        raise ValueError("morphing_point must be >= 1")
    k = params.max_act if k is None else k
    rows = spaced_rows(k, params.base_row, spacing)
    phase = cycled_trace("", rows, min(params.max_act, k), morphing_point)
    return phase.intervals, rows


def _dmq_window(target: int, params: AttackParams, postponed: int) -> list[Interval]:
    """One postponement super-window hammering ``target``: postpone
    through all but the last of its ``postponed + 1`` intervals."""
    return build_trace(
        "",
        [[target] * params.max_act] * (postponed + 1),
        [True] + [i != postponed - 1 for i in range(postponed)],
    ).intervals
