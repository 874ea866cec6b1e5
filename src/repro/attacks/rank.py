"""Cross-bank attack generators for the rank-level simulator.

Real DDR5 attacks interleave aggressors across banks: every bank has
its own tracker with its own per-interval selection budget, but refresh
scheduling (and its postponement) is a rank-level decision, and tFAW
limits how many banks can sustain full-rate activations concurrently.
These generators lift the existing row-only pattern families into
bank-addressed :class:`~repro.sim.trace.RankTrace` streams:

* :func:`bank_interleaved` — wrap *any* registered pattern and spread
  it across banks, either whole intervals round-robin (each bank sees a
  slower, gappier version of the pattern, starving interval-tailored
  trackers of context) or ACT-by-ACT striping.
* :func:`cross_bank_decoy` — the postponement decoy played across the
  rank: decoy banks burn the visible intervals while the target bank is
  hammered during the postponed ones.
* :func:`rank_stripe` — a many-sided aggressor set striped over the
  banks, every bank driven at full rate (the tracker-budget-stretching
  TRRespass variant).
"""

from __future__ import annotations

import numpy as np

from ..sim.trace import CycleStream, RankInterval, RankTrace, Trace
from .base import AttackParams, spaced_rows, whole_windows
from .manysided import many_sided


def _rank_interval(banks, rows, postpone: bool = False) -> RankInterval:
    """Build a bank-addressed interval from its bank/row columns.

    :meth:`RankInterval.from_arrays` seeds the interval's array views
    directly, so the fast engine never re-derives them.
    """
    return RankInterval.from_arrays(
        np.asarray(banks, dtype=np.intp),
        np.asarray(rows, dtype=np.intp),
        postpone,
    )


def _spread(banks, rows, postpone: bool = False) -> RankInterval:
    """An interval playing all of ``rows`` on each of ``banks`` in turn."""
    return _rank_interval(
        np.repeat(banks, len(rows)), np.tile(rows, len(banks)), postpone
    )


def bank_interleaved(
    base: Trace,
    num_banks: int,
    scheme: str = "interval",
) -> RankTrace:
    """Spread an existing row-only pattern across ``num_banks`` banks.

    ``scheme="interval"`` sends interval ``i`` of the base trace to bank
    ``i % num_banks`` (other banks idle that tREFI): each bank's tracker
    sees only every ``num_banks``-th slice of the pattern, while the
    victim rows still accumulate the full activation count between
    their bank's refreshes. ``scheme="act"`` stripes each interval's
    ACTs over the banks round-robin, splitting the per-interval budget.

    Rank-level postpone flags are preserved either way.
    """
    if num_banks < 1:
        raise ValueError("num_banks must be >= 1")
    if scheme not in ("interval", "act"):
        raise ValueError(f"unknown scheme {scheme!r}; use 'interval' or 'act'")
    # One shared bank-addressed interval per (source, bank placement),
    # looked up by source object first and by contents on a miss, so
    # the engine's per-distinct-interval caches stay effective.
    by_id: dict[tuple, RankInterval] = {}
    by_content: dict[tuple, RankInterval] = {}
    intervals: list[RankInterval] = []
    for i, interval in enumerate(base.intervals):
        bank = i % num_banks if scheme == "interval" else -1  # -1: striped
        lifted = by_id.get((id(interval), bank))
        if lifted is None:
            key = (interval.acts, interval.postpone, bank)
            if key not in by_content:
                n = len(interval.acts)
                banks = [bank] * n if bank >= 0 else [j % num_banks for j in range(n)]
                by_content[key] = _rank_interval(
                    banks, interval.acts, interval.postpone
                )
            lifted = by_id[id(interval), bank] = by_content[key]
        intervals.append(lifted)
    return RankTrace(
        name=f"bank-interleaved({base.name},banks={num_banks},{scheme})",
        intervals=intervals,
    )


def cross_bank_decoy(
    target: int,
    num_banks: int,
    params: AttackParams | None = None,
    postponed: int = 4,
    target_bank: int = 0,
) -> RankTrace:
    """The postponement decoy attack played across a rank.

    Each super-window is ``postponed + 1`` intervals. In the first, all
    *other* banks are flooded with decoy activations (each within its
    own per-bank ACT budget) and the controller is asked to postpone the
    rank's REF — so the trackers' visible interval is spent entirely on
    decoys, across every bank. The remaining ``postponed`` intervals
    hammer ``target`` on ``target_bank`` while the REF debt accrues;
    the final interval lets the batch of refreshes land.

    Against a rank of interval-tailored trackers this stretches the
    decoy blow-up of §VI-B: the target bank's tracker saw *nothing* in
    the visible interval (its decoys ran on sibling banks), so even its
    own-interval selection is wasted. Only whole super-windows are
    played (see :func:`~.base.whole_windows`).
    """
    params = params or AttackParams()
    window = _decoy_window(target, num_banks, params, postponed, target_bank)
    return RankTrace(
        name=_decoy_name(target, num_banks, postponed),
        intervals=window * whole_windows(params, len(window)),
    )


def cross_bank_decoy_stream(
    target: int,
    num_banks: int,
    params: AttackParams | None = None,
    postponed: int = 4,
    target_bank: int = 0,
) -> CycleStream:
    """The streaming form of :func:`cross_bank_decoy`.

    Same super-window, same interval objects, but the schedule is a
    :class:`~repro.sim.trace.CycleStream` repeated out to the horizon
    lazily — a multi-refresh-window campaign (``params.intervals`` in
    the billions) costs no more memory than one super-window, where the
    materialized builder would spend 8 bytes of pointer per tREFI.
    Bit-identical to the materialized trace (pinned by the
    stream-equivalence tests), whole super-windows included.
    """
    params = params or AttackParams()
    window = _decoy_window(target, num_banks, params, postponed, target_bank)
    return CycleStream(
        _decoy_name(target, num_banks, postponed),
        window,
        whole_windows(params, len(window)) * len(window),
    )


def _decoy_name(target: int, num_banks: int, postponed: int) -> str:
    return (
        f"cross-bank-decoy(target={target},banks={num_banks},"
        f"postponed={postponed})"
    )


def _decoy_window(
    target: int,
    num_banks: int,
    params: AttackParams,
    postponed: int,
    target_bank: int,
) -> list[RankInterval]:
    """One decoy-then-hammer super-window (``postponed + 1`` intervals).

    Three shared interval objects cover the whole attack no matter the
    horizon: the engine's per-distinct-interval caches then do the
    grouping work once.
    """
    if num_banks < 2:
        raise ValueError("cross-bank decoy needs at least 2 banks")
    if postponed < 1:
        raise ValueError("postponed must be >= 1")
    if not 0 <= target_bank < num_banks:
        raise ValueError(f"target_bank {target_bank} outside 0..{num_banks - 1}")
    decoys = spaced_rows(params.max_act, params.base_row + 50_000, spacing=4)
    decoy_banks = [b for b in range(num_banks) if b != target_bank]
    hammer = [target] * params.max_act
    return (
        [_spread(decoy_banks, decoys, postpone=True)]
        + [_spread([target_bank], hammer, postpone=True)] * (postponed - 1)
        + [_spread([target_bank], hammer)]
    )


def rank_stripe(
    sides: int,
    num_banks: int,
    params: AttackParams | None = None,
    spacing: int = 8,
) -> RankTrace:
    """A many-sided aggressor set striped across the rank's banks.

    ``sides`` aggressors are dealt round-robin over ``num_banks`` banks;
    each bank then hammers its local share at the full per-bank rate (a
    TRRespass pattern per bank, all banks concurrent). With more total
    aggressors than any single tracker can hold, this is the attack
    that stretches the *rank's* tracker budget rather than one bank's.
    With fewer aggressors than banks, only the first ``sides`` banks
    carry an aggressor — the total stays exactly ``sides``.
    """
    params = params or AttackParams()
    if sides < 1:
        raise ValueError("sides must be >= 1")
    if num_banks < 1:
        raise ValueError("num_banks must be >= 1")
    active_banks = min(num_banks, sides)
    bank_traces = {
        bank: many_sided(
            len(range(bank, sides, num_banks)),
            AttackParams(
                max_act=params.max_act,
                intervals=params.intervals,
                base_row=params.base_row + bank * sides * spacing,
            ),
            spacing=spacing,
        )
        for bank in range(active_banks)
    }
    return RankTrace.from_bank_traces(
        f"rank-stripe(n={sides},banks={num_banks})", bank_traces
    )
