"""Refresh-postponement decoy attack (paper Section VI-B).

The attack that "demolishes" interval-tailored low-cost trackers: the
attacker persuades the memory controller to postpone four refreshes,
spends the first M activations of each 5-tREFI super-window on decoy
rows (the only activations the tracker can see or select), then
hammers the real target for the remaining 4M activations. Without the
DMQ the target receives 4/5 of the entire tREFW activation budget —
~478K activations — with zero mitigations.
"""

from __future__ import annotations

from ..sim.trace import Trace
from .base import AttackParams, build_trace, spaced_rows, whole_windows


def postponement_decoy(
    target: int,
    params: AttackParams | None = None,
    postponed: int = 4,
    decoy_count: int | None = None,
) -> Trace:
    """Build the decoy + postponement super-window pattern.

    Each super-window is ``postponed + 1`` intervals: the first carries
    decoy activations and requests postponement; the rest hammer the
    target (still postponing until the ceiling, then refreshing). Only
    whole super-windows are played (see :func:`~.base.whole_windows`).
    """
    params = params or AttackParams()
    if postponed < 1:
        raise ValueError("postponed must be >= 1")
    return _decoy_trace(
        f"postponement-decoy(target={target})",
        [target] * postponed, params, decoy_count,
    )


def postponement_decoy_multi(
    targets: list[int],
    params: AttackParams | None = None,
    postponed: int = 4,
    decoy_count: int | None = None,
) -> Trace:
    """The decoy attack with one distinct target per postponed interval.

    The single-target decoy attack is survivable even by a depth-1 DMQ,
    because one pseudo-mitigation per super-window suffices to cover the
    lone target. Hammering ``postponed`` *distinct* rows — one per
    postponed interval — forces the queue to hold ``postponed`` pending
    mitigations at once: shallower queues must drop some, and the
    dropped targets accumulate across super-windows. This is the attack
    that makes the DMQ depth ablation meaningful (whole super-windows,
    as in :func:`postponement_decoy`).
    """
    params = params or AttackParams()
    if postponed < 1:
        raise ValueError("postponed must be >= 1")
    if len(targets) < postponed:
        raise ValueError(f"need at least {postponed} distinct targets")
    return _decoy_trace(
        f"postponement-decoy-multi(targets={len(targets)})",
        targets[:postponed], params, decoy_count,
    )


def _decoy_trace(name: str, hammered: list[int], params: AttackParams,
                 decoy_count: int | None) -> Trace:
    """One super-window — a decoy interval, then one full-budget
    interval per ``hammered`` row — built once and repeated."""
    postponed = len(hammered)
    decoys = spaced_rows(
        decoy_count or params.max_act, params.base_row + 50_000, spacing=4
    )
    window = build_trace(
        name,
        [decoys[: params.max_act]] + [[row] * params.max_act for row in hammered],
        # Postpone through the decoy and every hammer interval but the
        # last, which lets the owed refreshes land.
        [True] * postponed + [False],
    ).intervals
    return Trace(name, window * whole_windows(params, postponed + 1))


def expected_unmitigated_acts(
    params: AttackParams | None = None, postponed: int = 4
) -> int:
    """The deterministic activation count the target absorbs (478K)."""
    params = params or AttackParams()
    window = postponed + 1
    windows = params.intervals // window
    return windows * postponed * params.max_act
