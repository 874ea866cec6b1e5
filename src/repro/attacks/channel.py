"""Channel-level attack generators: schedules across a rank set.

Real DDR5 deployments hammer a whole *channel*: multiple ranks share
one command bus, the memory controller interleaves activations across
them, and every rank carries its own full complement of per-bank
trackers behind its own refresh schedule. These generators build
:class:`~repro.sim.trace.ChannelTrace` schedules — one stream per rank
— for the :class:`~repro.sim.engine.ChannelSimulator`:

* :func:`rank_rotation` — rotate *any* row-only pattern across the
  ranks whole-interval round-robin: each rank's trackers see a slower,
  gappier version of the pattern (starving interval-tailored designs of
  context) while the victim rows still accumulate activations between
  their own rank's refreshes.
* :func:`rank_synchronized` — the many-sided aggressor stripe played on
  *every* rank simultaneously, in lockstep: the channel-scale
  TRRespass, stressing the sum of all rank tracker budgets at once.
* :func:`channel_stripe_decoy` — the postponement decoy at channel
  scale: the target rank plays the cross-bank decoy game while the
  sibling ranks burn the bus with striped decoy activations.

Every builder emits per-rank :class:`~repro.sim.trace.CycleStream`
schedules (or interned materialized traces for the aperiodic rotation),
so horizons far beyond RAM — the multi-refresh-window campaigns
Monte-Carlo and adaptive attacks need — cost no more memory than one
pattern window per rank.
"""

from __future__ import annotations

from ..sim.trace import (
    ChannelTrace,
    CycleStream,
    RankInterval,
    RankTrace,
    Trace,
    lift_trace,
)
from .base import AttackParams, spaced_rows
from .rank import _spread, cross_bank_decoy_stream, rank_stripe

#: Shared idle interval: rotation schedules intern one object for every
#: tREFI a rank sits out, so the engine's per-interval caches see a
#: single distinct "nothing" interval.
_IDLE = RankInterval(())


def rank_rotation(
    base: Trace,
    num_ranks: int,
    bank: int = 0,
) -> ChannelTrace:
    """Rotate a row-only pattern across ``num_ranks`` ranks.

    Interval ``i`` of the base trace plays on rank ``i % num_ranks``
    (on ``bank``); the other ranks idle that tREFI. Each rank's tracker
    set sees only every ``num_ranks``-th slice of the pattern — the
    channel analogue of :func:`~repro.attacks.rank.bank_interleaved` —
    but unlike the bank case the gaps also slow the *victims'*
    accumulation relative to each rank's own refresh sweep, so rotation
    trades per-rank tracker starvation against hammer rate.

    Rank-level postpone flags follow the active interval (an idle rank
    never requests postponement).
    """
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    per_rank: dict[int, RankTrace] = {}
    lifted = lift_trace(base, bank)
    for rank in range(num_ranks):
        intervals = [
            interval if i % num_ranks == rank else _IDLE
            for i, interval in enumerate(lifted.intervals)
        ]
        per_rank[rank] = RankTrace(
            name=f"rank-rotation({base.name},rank={rank}/{num_ranks})",
            intervals=intervals,
        )
    return ChannelTrace(
        name=f"rank-rotation({base.name},ranks={num_ranks})",
        per_rank=per_rank,
    )


def rank_synchronized(
    sides: int,
    num_ranks: int,
    params: AttackParams | None = None,
    num_banks: int = 1,
    spacing: int = 8,
) -> ChannelTrace:
    """A many-sided aggressor stripe hammered on every rank in lockstep.

    Each rank runs the same :func:`~repro.attacks.rank.rank_stripe`
    pattern (``sides`` aggressors dealt over ``num_banks`` banks at the
    full per-bank rate) against its *own* rows — same addresses, but
    distinct physical rows per rank — so the channel sustains
    ``num_ranks ×`` the activation pressure of one rank, and every
    tracker instance in the channel faces the identical worst case
    simultaneously. This is the schedule behind channel-level MTTF
    accounting: per-rank failure odds are equal and independent.

    Emitted as one :class:`~repro.sim.trace.CycleStream` per rank (the
    pattern is a single repeated interval), so the horizon can span
    many refresh windows at constant memory.
    """
    params = params or AttackParams()
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    window_params = AttackParams(
        max_act=params.max_act, intervals=1, base_row=params.base_row
    )
    window = rank_stripe(sides, num_banks, window_params, spacing=spacing)
    per_rank: dict[int, CycleStream] = {}
    for rank in range(num_ranks):
        per_rank[rank] = CycleStream(
            f"rank-sync(n={sides},rank={rank}/{num_ranks})",
            window.intervals,
            params.intervals,
        )
    return ChannelTrace(
        name=(
            f"rank-synchronized(n={sides},ranks={num_ranks},"
            f"banks={num_banks})"
        ),
        per_rank=per_rank,
    )


def channel_stripe_decoy(
    target: int,
    num_ranks: int,
    params: AttackParams | None = None,
    num_banks: int = 2,
    postponed: int = 4,
    target_rank: int = 0,
    target_bank: int = 0,
) -> ChannelTrace:
    """The postponement decoy attack played across a channel.

    The target rank runs the cross-bank decoy game (§VI-B lifted to the
    rank: decoy banks burn the visible interval, the REF debt accrues,
    ``target`` is hammered during the postponed intervals). Every
    sibling rank sustains a *decoy stripe* — spaced rows dealt across
    its banks at full rate — modelling the attacker saturating the
    shared command bus so the controller cannot reclaim the postponed
    refreshes early, and keeping every tracker in the channel busy on
    rows that never matter. Since DDR5 refresh is per rank, the decoy
    ranks cannot alter the target rank's bits (the channel-equivalence
    property); what they change is the channel-level accounting — total
    mitigation burn and the aggregate exposure the MTTF model consumes.

    All per-rank schedules are streams; horizons of many refresh
    windows cost one super-window of memory per rank. The horizon is
    the target rank's: whole super-windows only, as in
    :func:`~repro.attacks.rank.cross_bank_decoy`.
    """
    params = params or AttackParams()
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    if not 0 <= target_rank < num_ranks:
        raise ValueError(
            f"target_rank {target_rank} outside 0..{num_ranks - 1}"
        )
    target_stream = cross_bank_decoy_stream(
        target, num_banks, params, postponed=postponed,
        target_bank=target_bank,
    )
    horizon = target_stream.horizon
    per_rank: dict[int, CycleStream] = {target_rank: target_stream}
    decoys = spaced_rows(params.max_act, params.base_row + 90_000, spacing=4)
    stripe = _spread(range(num_banks), decoys)
    for rank in range(num_ranks):
        if rank == target_rank:
            continue
        per_rank[rank] = CycleStream(
            f"decoy-stripe(rank={rank}/{num_ranks})", [stripe], horizon
        )
    return ChannelTrace(
        name=(
            f"channel-stripe-decoy(target={target},ranks={num_ranks},"
            f"banks={num_banks},postponed={postponed})"
        ),
        per_rank=per_rank,
    )


def replicate_across_ranks(trace: RankTrace, num_ranks: int) -> ChannelTrace:
    """Play one rank-scoped schedule on every rank simultaneously.

    The generic lift behind
    :func:`~repro.attacks.registry.make_channel_attack`'s fallback: any
    rank (or auto-interleaved row-only) attack becomes a synchronized
    channel attack. The per-rank entries share one trace object — the
    schedules are read-only — so the lift is O(1) in memory.
    """
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    return ChannelTrace(
        name=f"channel({trace.name},ranks={num_ranks})",
        per_rank={rank: trace for rank in range(num_ranks)},
    )
