"""Event-level security simulator: channel → ranks → trackers → oracle.

Two engines implement one contract. The *reference* engine
(``EngineConfig.vectorized=False``) is the scalar per-ACT dispatch:
each bank's share of an interval goes ACT by ACT through its tracker's
``on_activate`` and its sparse dict oracle — the executable
specification every other path is pinned against. The *fast* engine is
the packed kernel of :mod:`repro.sim.kernel`: one ``(rank·bank, row)``
array family, one plan per distinct channel step, and a compiled march
over each window of buffered steps (see :mod:`repro.kernels`;
``REPRO_KERNELS`` overrides its provider). It
runs every geometry — one bank, a rank, a channel, a group of
Monte-Carlo windows — whenever ``vectorized`` is not ``False`` and the
blast radius is 1, and its results are bit-identical to the
reference's (pinned by the differential property suite).

This module holds :class:`EngineConfig`, the rank and channel
simulators, the scalar reference loop and the validate-then-march
driver (:func:`_validate_and_march`) both engines share; the kernel
and its compiled-march driver live in :mod:`repro.sim.kernel`, which
this module alone builds and drives.

:class:`RankSimulator` drives a DDR5 *rank* — ``num_banks``
independent banks behind one refresh schedule — through an attack
schedule: a materialized trace or a lazy
:class:`~repro.sim.trace.TraceStream`, consumed chunk by chunk either
way (streamed runs are bit-identical to materialized ones, at bounded
memory). :class:`ChannelSimulator` stacks ``num_ranks`` rank
simulators under one shared tREFI clock — the DDR5 *channel*, where a
memory controller interleaves activations across ranks sharing a
command bus — and reports a :class:`~repro.sim.results.ChannelSimResult`
of per-rank results. Both validate and march their schedules through
one shared helper; a rank run is the kernel's 1-rank case.

Each bank owns its own tracker instance (in-DRAM trackers are per-bank
structures; the paper's storage numbers scale ×32 per rank) and its own
row-disturbance oracle. Per interval, each bank's demand ACTs reach its
tracker and oracle; at each tREFI boundary the rank's
:class:`RefreshScheduler` decides whether its REF executes or is
postponed (DDR5 allows four), and every executed REF performs each
bank's rolling auto-refresh plus at most one tracker-directed
mitigation per bank.

:class:`RankSimulator` is the canonical *engine* entry point — the
canonical way to *describe and launch* an evaluation is the declarative
:class:`repro.scenario.Scenario` / :class:`repro.scenario.Session`
facade, which builds the simulator from a serializable payload and
drives every other layer (CLI, experiment grids, Monte-Carlo, perf)
through the same object. The simulator accepts
bank-addressed :class:`~repro.sim.trace.RankTrace` streams, row-only
:class:`~repro.sim.trace.Trace` streams (auto-lifted to bank 0), or a
list of per-bank traces (merged, with the tFAW concurrency ceiling
enforced), and reports a :class:`~repro.sim.results.RankSimResult`
carrying one per-bank :class:`~repro.sim.results.SimResult` each plus
rank-level aggregates. A single-bank run is the 1-bank rank:
``RankSimulator(lambda _bank: tracker, config).run(trace).per_bank[0]``.

This is the machinery behind the paper's guaranteed-protection claims
(classic single/double-sided attacks bounded at M activations, §V-C),
the decoy blow-up under postponement (§VI-B), the rank-level MTTF
accounting (§VIII-B), and the Monte-Carlo validation of the analytical
MinTRH model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from ..constants import CONCURRENT_BANKS
from ..dram.device import DeviceConfig, DramDevice
from ..dram.refresh import RefreshScheduler
from ..dram.rowstate import PackedRows
from ..dram.timing import DDR5Timing, DEFAULT_TIMING
from ..trackers.base import MitigationRequest, Tracker
from ..trackers.protrr import VictimRefreshRequest
from .kernel import _FusedChannelKernel
from .results import ChannelSimResult, RankSimResult, SimResult
from .trace import (
    ChannelTrace,
    CycleStream,
    IntervalInterner,
    MaterializedStream,
    RankInterval,
    RankTrace,
    Trace,
    TraceStream,
    as_trace_stream,
    validate_rank_intervals,
)


@dataclass
class EngineConfig:
    """Knobs of the security simulation."""

    timing: DDR5Timing = DEFAULT_TIMING
    trh: float = 4800.0
    num_rows: int = 128 * 1024
    blast_radius: int = 1
    allow_postponement: bool = False
    max_postponed: int = 4
    refi_per_refw: int = 8192
    #: Enforce the per-interval activation budget of the timing model.
    validate_budget: bool = True
    #: Banks in the simulated rank (1 == the classic single-bank setup).
    num_banks: int = 1
    #: tFAW ceiling on banks sustaining full-rate ACTs concurrently;
    #: ``None`` means min(CONCURRENT_BANKS, num_banks).
    concurrent_banks: int | None = None
    #: Ranks in the simulated channel. ``num_banks`` is *per rank*; a
    #: value above 1 selects :class:`ChannelSimulator` (a
    #: :class:`RankSimulator` rejects multi-rank configs).
    num_ranks: int = 1
    #: Engine selection — the one engine knob. ``None`` (default) and
    #: ``True`` run the fast engine, the packed kernel with dense
    #: per-bank oracles, wherever it applies (``blast_radius == 1``;
    #: other radii run the reference). ``False`` runs the reference
    #: engine: scalar per-ACT dispatch over sparse dict oracles. Both
    #: produce bit-identical results, so the knob is excluded from
    #: scenario identity. Inside the fast engine the compiled march
    #: provider (see :mod:`repro.kernels`) follows the host;
    #: ``REPRO_KERNELS`` is its only override.
    vectorized: bool | None = None


def _resolve_engine(c: EngineConfig) -> bool:
    """True when ``c`` runs on the fast engine.

    The fast engine resolves its compiled provider here, at
    construction, so a forced provider that cannot run
    (``REPRO_KERNELS=cext`` without a C build) fails loudly instead of
    silently marching the slower path.
    """
    fast = c.vectorized is not False and c.blast_radius == 1
    if fast:
        from ..kernels import provider

        provider()
    return fast


class RankSimulator:
    """Runs traces against one tracker instance per bank of a rank.

    Parameters
    ----------
    tracker_factory:
        Called once per bank (with the bank index) to build that bank's
        tracker. Each bank must get an independent instance — sharing
        one tracker across banks would be both unrealistic and insecure.
        :func:`repro.trackers.registry.bank_tracker_factory` builds a
        suitable factory from a registry name plus a base seed.
    config:
        Engine knobs (:class:`EngineConfig`); ``num_banks`` selects the
        rank width.
    storage:
        Fast engine only: this rank's zero-filled ``(bank, row)`` block
        of a packed :class:`~repro.dram.rowstate.PackedRows` family
        shared with sibling ranks (see :func:`_packed_ranks`); by
        default the rank allocates its own.
    """

    def __init__(
        self,
        tracker_factory: Callable[[int], Tracker],
        config: EngineConfig | None = None,
        *,
        storage: PackedRows | None = None,
    ) -> None:
        if config is not None and not isinstance(config, EngineConfig):
            raise TypeError(
                "the second positional argument must be an EngineConfig, "
                f"not {type(config).__name__}; set the rank width and "
                "every other knob on it: "
                "RankSimulator(factory, EngineConfig(num_banks=N))"
            )
        c = config or EngineConfig()
        if c.num_banks < 1:
            raise ValueError("num_banks must be >= 1")
        if c.num_ranks != 1:
            raise ValueError(
                "RankSimulator drives exactly one rank; a config with "
                f"num_ranks={c.num_ranks} belongs to ChannelSimulator"
            )
        self.config = c
        self.num_banks = c.num_banks
        self.concurrent_banks = min(
            CONCURRENT_BANKS if c.concurrent_banks is None else c.concurrent_banks,
            c.num_banks,
        )
        #: Resolved engine: True when :meth:`run` marches the fast
        #: engine (see :attr:`EngineConfig.vectorized`).
        self.vectorized = _resolve_engine(c)
        # The packed ``(bank, row)`` family the fast engine marches in
        # place: the caller's block of a wider family (a channel, a
        # Monte-Carlo window group) or this rank's own.
        self._storage: PackedRows | None = None
        if self.vectorized:
            self._storage = (
                storage if storage is not None
                else PackedRows.zeros(c.num_banks, c.num_rows)
            )
        self.device = DramDevice(
            DeviceConfig(
                timing=c.timing,
                num_banks=c.num_banks,
                rows_per_bank=c.num_rows,
                trh=c.trh,
                blast_radius=c.blast_radius,
                refi_per_refw=c.refi_per_refw,
            ),
            # The oracle follows the storage: dense rows of the packed
            # kernel's arrays, or the reference's sparse dicts.
            storage=self._storage,
        )
        self.trackers = [tracker_factory(bank) for bank in range(c.num_banks)]
        self.scheduler = RefreshScheduler(max_postponed=c.max_postponed)
        # Per-bank activations a row received since it was last the
        # *target* of a mitigation; the unmitigated-run metric (Table IV).
        self._bank_since = [dict() for _ in range(c.num_banks)]
        self._bank_peak = [dict() for _ in range(c.num_banks)]
        self._counts: Counter[int] = Counter()
        self.bank_mitigations = [0] * c.num_banks
        self.bank_transitive_mitigations = [0] * c.num_banks
        self.bank_demand_acts = [0] * c.num_banks
        self.intervals = 0
        self._consumed = False

    # ------------------------------------------------------------------
    def run(
        self, trace: Trace | RankTrace | TraceStream | Sequence[Trace]
    ) -> RankSimResult:
        """Execute ``trace`` to completion and report the outcome.

        ``trace`` may be bank-addressed (:class:`RankTrace`), row-only
        (:class:`Trace`, lifted onto bank 0), a lazily produced
        :class:`~repro.sim.trace.TraceStream` (consumed chunk by chunk,
        never materialized — memory stays bounded no matter the
        horizon), or a sequence of per-bank row traces (trace
        ``i`` drives bank ``i``; the tFAW ceiling rejects more
        concurrent traces than the rank sustains). Materialized traces
        are budget-validated upfront, once; a stream declares its act
        budget for the same fail-fast check and is then validated
        chunk by chunk under identical rules, and the per-interval work
        is the same either way, so streamed and materialized runs of
        one schedule are bit-identical (pinned by the
        stream-equivalence tests).

        The fast engine marches the rank's banks through the packed
        kernel as a 1-rank unit set and attaches its path telemetry as
        ``result.kernel_stats``; the reference engine (see
        :attr:`EngineConfig.vectorized`) runs the scalar per-ACT loop.

        A simulator instance runs exactly one schedule: trackers, the
        oracle, and every counter accumulate monotonically, so a second
        ``run()`` on the same instance would silently mix windows.
        Reuse raises ``RuntimeError``; build a fresh simulator (or
        ``Session``) per run.
        """
        self._guard_reuse()
        if isinstance(trace, (list, tuple)):
            trace = self._merge_bank_traces(trace)
        stream = as_trace_stream(trace)
        stats = _validate_and_march([self], self._storage, {0: stream})
        result = self.collect(stream.name)
        if stats is not None:
            # Diagnostic side channel, deliberately not a dataclass
            # field: results stay bit-identical across engines.
            result.kernel_stats = _with_scan_rows(stats, [self])
        return result

    def _guard_reuse(self) -> None:
        if self._consumed:
            raise RuntimeError(
                "this simulator has already consumed a schedule; "
                "trackers, oracle state, and counters accumulate across "
                "runs, so reusing it would silently mix windows — build "
                "a fresh simulator (or Session) per run"
            )
        self._consumed = True

    def feed(self, intervals: Sequence[RankInterval]) -> None:
        """Advance the rank through ``intervals`` (one stream chunk).

        The incremental entry point, on the reference per-ACT loop: the
        interval clock continues from where the last chunk left off,
        and budget validation (when configured) reports stream-global
        interval indices. :meth:`collect` reports the state accumulated
        so far.
        """
        if self.config.validate_budget:
            validate_rank_intervals(
                intervals,
                self.config.timing.max_act,
                num_banks=self.num_banks,
                concurrent_banks=self.concurrent_banks,
                start=self.intervals,
            )
        self._feed(intervals)

    def _feed(self, intervals) -> None:
        """The reference hot loop: absorb a run of intervals ACT by
        ACT, tick the scheduler."""
        self._consumed = True
        c = self.config
        absorb_acts = self._absorb_acts
        scheduler_tick = self.scheduler.tick
        t_refi_ns = c.timing.t_refi_ns
        allow_postponement = c.allow_postponement
        count = self.intervals
        for interval in intervals:
            count += 1
            time_ns = count * t_refi_ns
            for bank, acts in interval.per_bank:
                absorb_acts(bank, acts, time_ns)
            want_postpone = interval.postpone and allow_postponement
            event = scheduler_tick(want_postpone=want_postpone)
            if event is not None:
                for _ in range(event.count):
                    self._refresh(time_ns)
        self.intervals = count

    def _merge_bank_traces(self, traces: Sequence[Trace]) -> RankTrace:
        """The per-bank input format: one row-only trace per bank."""
        if len(traces) > self.concurrent_banks:
            raise ValueError(
                f"tFAW limits concurrent full-rate banks to "
                f"{self.concurrent_banks}; got {len(traces)} traces"
            )
        names = list(dict.fromkeys(trace.name for trace in traces))
        name = names[0] if len(names) == 1 else "rank(" + ",".join(names) + ")"
        return RankTrace.from_bank_traces(name, list(traces))

    def collect(self, trace_name: str) -> RankSimResult:
        """Report the state accumulated so far as a
        :class:`~repro.sim.results.RankSimResult` (what :meth:`run`
        returns; also called per rank by :class:`ChannelSimulator`)."""
        per_bank = []
        refreshes = self.scheduler.total_refreshes
        for bank in range(self.num_banks):
            model = self.device.banks[bank]
            tracker = self.trackers[bank]
            max_disturbance, most_disturbed_row = (
                model.disturbance_summary()
            )
            per_bank.append(
                SimResult(
                    tracker=tracker.name,
                    trace=trace_name,
                    intervals=self.intervals,
                    demand_acts=self.bank_demand_acts[bank],
                    refreshes=refreshes,
                    mitigations=self.bank_mitigations[bank],
                    transitive_mitigations=self.bank_transitive_mitigations[bank],
                    pseudo_mitigations=tracker.pseudo_mitigations,
                    flips=list(model.flips),
                    max_disturbance=max_disturbance,
                    most_disturbed_row=most_disturbed_row,
                    max_unmitigated=dict(self._bank_peak[bank]),
                )
            )
        return RankSimResult(
            trace=trace_name,
            intervals=self.intervals,
            refreshes=refreshes,
            per_bank=per_bank,
        )

    # ------------------------------------------------------------------
    def _absorb_acts(
        self, bank: int, acts: tuple[int, ...], time_ns: float
    ) -> None:
        """Feed one bank's share of an interval to tracker, oracle,
        counters.

        The single source of the per-ACT bookkeeping. No mitigation
        lands mid-interval, so the oracle and the unmitigated-run
        counters absorb the whole batch in one pass each.
        """
        self.bank_demand_acts[bank] += len(acts)
        tracker_on_activate = self.trackers[bank].on_activate
        for row in acts:
            tracker_on_activate(row)
        self.device.activate_many(bank, acts, time_ns)
        since = self._bank_since[bank]
        peak = self._bank_peak[bank]
        counts = self._counts
        counts.clear()
        counts.update(acts)
        for row, count in counts.items():
            total = since.get(row, 0) + count
            since[row] = total
            if total > peak.get(row, 0):
                peak[row] = total

    def _refresh(self, time_ns: float) -> None:
        """One rank-level REF: every bank sweeps its auto-refresh slice
        and may land one tracker-directed mitigation."""
        for bank in range(self.num_banks):
            self.device.auto_refresh(bank, time_ns)
            for request in self.trackers[bank].on_refresh():
                self._apply(bank, request, time_ns)

    def _apply(
        self, bank: int, request: MitigationRequest, time_ns: float
    ) -> None:
        self.bank_mitigations[bank] += 1
        if request.distance > 1:
            self.bank_transitive_mitigations[bank] += 1
        since = self._bank_since[bank]
        if isinstance(request, VictimRefreshRequest):
            # Victim-centric mitigation (ProTRR): refresh the named row;
            # the refresh itself disturbs that row's neighbours.
            refreshed = self.device.victim_refresh(bank, request.row, time_ns)
        else:
            refreshed = self.device.mitigate(
                bank, request.row, request.distance, time_ns
            )
            since[request.row] = 0
        tracker = self.trackers[bank]
        for victim in refreshed:
            since[victim] = 0
            if tracker.observes_mitigations:
                tracker.on_mitigation_activate(victim)

    # ------------------------------------------------------------------
    @property
    def any_flip(self) -> bool:
        return self.device.any_flip


def _validate_and_march(
    ranks: list[RankSimulator],
    storage: PackedRows | None,
    streams: dict[int, TraceStream],
    width: int | None = None,
) -> dict | None:
    """Validate every rank's schedule, then march them all to the end.

    The one validate-then-march path behind :meth:`RankSimulator.run`
    (a 1-rank unit set), :meth:`ChannelSimulator.run` and the
    Monte-Carlo window groups (:func:`_march_windows`, ``width`` ranks
    per window; messages name a rank by its index within its window,
    as a lone run of that window would). Declared act
    budgets fail fast; a materialized schedule is then validated whole,
    once, before any rank absorbs an interval, and a cycle by its
    pattern (a cycle produces only its pattern's interval objects, and
    the first offence sits at its pattern index, so the message
    matches the chunk-wise check). Lazy streams are validated chunk by
    chunk as produced, under identical rules and messages.

    With ``storage`` (the ranks' packed family) the fast engine marches
    every rank's chunks window by window through one
    :class:`_FusedChannelKernel` and its path telemetry is returned;
    without it the reference engine advances every still-active rank
    by one chunk per round and ``None`` is returned. Either way peak
    memory is bounded per rank (a chunk, or a window plus a chunk), and
    because REF scheduling — the only cross-bank coupling inside a
    rank — is per rank, the interleaving order cannot affect any rank's
    bits.
    """
    c = ranks[0].config
    width = len(ranks) if width is None else width
    prevalidated: set[int] = set()
    if c.validate_budget:
        # Every rank runs under one config, so a stream object shared
        # by several ranks is checked once, and an interval object
        # shared across streams at its first index in the first stream
        # that holds it (see validate_rank_intervals).
        checked_streams: set[int] = set()
        checked: set[int] = set()
        for rank, stream in streams.items():
            sim = ranks[rank]
            budget = stream.act_budget
            if budget is not None and budget > c.timing.max_act:
                scope = (
                    f"rank {rank % width} stream" if width > 1 else "stream"
                )
                raise ValueError(
                    f"{scope} {stream.name!r} declares up to {budget} "
                    f"ACTs on one bank per tREFI, but at most "
                    f"{c.timing.max_act} fit"
                )
            if not isinstance(stream, (MaterializedStream, CycleStream)):
                continue
            prevalidated.add(rank)
            if id(stream) in checked_streams:
                continue
            checked_streams.add(id(stream))
            if isinstance(stream, MaterializedStream):
                stream.trace.validate(
                    c.timing.max_act,
                    num_banks=sim.num_banks,
                    concurrent_banks=sim.concurrent_banks,
                    seen=checked,
                )
            else:
                validate_rank_intervals(
                    stream.pattern[: stream.count],
                    c.timing.max_act,
                    num_banks=sim.num_banks,
                    concurrent_banks=sim.concurrent_banks,
                    seen=checked,
                )
    chunks = {
        rank: (
            stream.chunks() if rank in prevalidated or not c.validate_budget
            else _validated_chunks(ranks[rank], stream)
        )
        for rank, stream in streams.items()
    }
    if storage is not None:
        kernel = _FusedChannelKernel(ranks, c, storage)
        kernel.march(chunks)
        kernel.materialize()
        return kernel.stats()
    while chunks:
        for rank in sorted(chunks):
            chunk = next(chunks[rank], None)
            if chunk is None:
                del chunks[rank]
            else:
                ranks[rank]._feed(chunk)
    return None


def _with_scan_rows(stats: dict, ranks: list[RankSimulator]) -> dict:
    """``stats`` plus ``scan_rows``: the rows the banks' disturbance
    queries read, ``collect`` included (each scans its envelope)."""
    stats["scan_rows"] = sum(
        model.scanned_rows for sim in ranks for model in sim.device.banks
    )
    return stats


def _validated_chunks(
    sim: RankSimulator, stream: TraceStream
) -> Iterator[Sequence[RankInterval]]:
    """One rank's stream chunks, each budget-validated as produced
    (interval indices count from the stream's start)."""
    c = sim.config
    offset = 0
    for chunk in stream.chunks():
        validate_rank_intervals(
            chunk,
            c.timing.max_act,
            num_banks=sim.num_banks,
            concurrent_banks=sim.concurrent_banks,
            start=offset,
        )
        offset += len(chunk)
        yield chunk


def _packed_ranks(
    factories: list[Callable[[int], Tracker]], config: EngineConfig
) -> tuple[list[RankSimulator], PackedRows | None]:
    """One :class:`RankSimulator` per per-bank tracker factory, built
    in order on one packed ``(rank·bank, row)`` family.

    Each rank's bank oracles are built straight on its contiguous block,
    so the kernel's flat ``unit * num_rows + row`` keys address every
    bank of every rank. Returns the ranks and the family (``None`` on
    the reference engine, which keeps per-bank sparse dicts).
    """
    storage = None
    if _resolve_engine(config):
        storage = PackedRows.zeros(
            len(factories) * config.num_banks, config.num_rows
        )
    B = config.num_banks
    ranks = [
        RankSimulator(
            factory,
            config,
            storage=(
                None if storage is None
                else storage.units(rank * B, (rank + 1) * B)
            ),
        )
        for rank, factory in enumerate(factories)
    ]
    return ranks, storage


def _as_channel_trace(trace, num_ranks: int) -> ChannelTrace:
    """``trace`` as a schedule for a channel of ``num_ranks`` ranks.

    A rank- or row-scoped input is rank 0's schedule with the sibling
    ranks idle; a schedule addressing more ranks is rejected.
    """
    if isinstance(trace, (Trace, RankTrace, TraceStream)):
        trace = ChannelTrace(name=trace.name, per_rank={0: trace})
    elif not isinstance(trace, ChannelTrace):
        raise TypeError(
            f"cannot run {type(trace).__name__} on a channel; expected "
            f"ChannelTrace, Trace, RankTrace, or TraceStream"
        )
    if trace.num_ranks > num_ranks:
        raise ValueError(
            f"trace {trace.name!r} addresses rank "
            f"{trace.num_ranks - 1}, but the channel has "
            f"{num_ranks} ranks"
        )
    return trace


def _march_windows(
    config: EngineConfig, windows: list[tuple[list[list[Tracker]], object]]
) -> tuple[list[tuple[bool, int]], dict | None]:
    """March independent windows as the ranks of one packed family.

    Each window is ``(trackers, trace)`` with ``trackers[rank][bank]``
    over ``config.num_ranks`` ranks; window ``w``'s rank ``r`` becomes
    unit-set rank ``w * num_ranks + r``. Refresh scheduling is per rank
    and nothing else couples ranks, so every window's bits are exactly
    those of a lone :class:`ChannelSimulator` (or
    :class:`RankSimulator`) run of it — on either engine. Returns each
    window's ``(failed, mitigations)`` in order, plus the group's kernel
    telemetry (``None`` on the reference engine).

    The windows' traces pass through one
    :class:`~repro.sim.trace.IntervalInterner`, so equal intervals
    share one object across the group and equal schedules one stream:
    the group pays lifting, budget checks and plan aggregation once per
    distinct interval. Interval contents, and with them every bit and
    every validation message, are unchanged.
    """
    R = config.num_ranks
    ranks, storage = _packed_ranks(
        [banks.__getitem__ for trackers, _ in windows for banks in trackers],
        replace(config, num_ranks=1),
    )
    interner = IntervalInterner()
    streams = {}
    for w, (_, trace) in enumerate(windows):
        channel = _as_channel_trace(trace, R)
        for rank in range(R):
            streams[w * R + rank] = channel.rank_stream(rank, interner)
    stats = _validate_and_march(ranks, storage, streams, width=R)
    if stats is not None:
        stats = _with_scan_rows(stats, ranks)
    outcomes = []
    for w in range(len(windows)):
        members = ranks[w * R:(w + 1) * R]
        outcomes.append(
            (
                any(sim.any_flip for sim in members),
                sum(sum(sim.bank_mitigations) for sim in members),
            )
        )
    return outcomes, stats


class ChannelSimulator:
    """Runs per-rank schedules against a DDR5 channel of N ranks.

    The channel is the top of the simulation stack: ``num_ranks``
    :class:`RankSimulator`\\ s — each a full rank of per-bank trackers
    behind its own refresh schedule — marched through one shared tREFI
    clock, the way a memory controller interleaves activations across
    the ranks sharing a command bus. Rank simulations are independent
    by construction (DDR5 REF, and hence postponement, is per rank), so
    a channel run decomposes exactly: rank ``r``'s
    :class:`~repro.sim.results.RankSimResult` is bit-identical to
    running ``r``'s schedule alone on a :class:`RankSimulator` built
    from the same per-rank tracker factory — the channel-equivalence
    property the tests pin, and what makes the paper's per-tracker
    security claims composable into channel-level MTTF accounting.

    The fast engine marches every rank through one packed
    ``(rank·bank, row)`` array family (:class:`_FusedChannelKernel`),
    window by window, each window's shared tREFIs marched by one plan
    index in compiled calls; the reference engine advances the ranks'
    scalar loops chunk by chunk in lockstep. Both produce
    bit-identical results (see :attr:`EngineConfig.vectorized`).

    Parameters
    ----------
    tracker_factory:
        Called with ``(rank, bank)`` for every bank of every rank; each
        call must return an independent tracker instance.
        :func:`repro.trackers.registry.channel_tracker_factory` builds a
        suitable factory from a registry name plus a base seed (ranks
        derive independent seed streams).
    config:
        Per-rank engine knobs; ``num_ranks`` selects the channel width.
    """

    def __init__(
        self,
        tracker_factory: Callable[[int, int], Tracker],
        config: EngineConfig | None = None,
    ) -> None:
        c = config or EngineConfig()
        if c.num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.config = c
        self.num_ranks = c.num_ranks
        self.num_banks = c.num_banks
        #: Resolved engine (see :attr:`RankSimulator.vectorized`).
        self.vectorized = _resolve_engine(c)
        self.ranks, self._storage = _packed_ranks(
            [
                (lambda bank, _rank=rank: tracker_factory(_rank, bank))
                for rank in range(c.num_ranks)
            ],
            replace(c, num_ranks=1),
        )
        self._consumed = False

    def run(
        self, trace: "ChannelTrace | Trace | RankTrace | TraceStream"
    ) -> ChannelSimResult:
        """Execute a channel schedule to completion.

        ``trace`` is normally a :class:`~repro.sim.trace.ChannelTrace`
        (one schedule per rank, materialized or streaming); a rank- or
        row-scoped input is accepted as rank 0's schedule with the
        sibling ranks idle, so a 1-rank channel run of any existing
        trace is bit-identical to today's :class:`RankSimulator` run
        (pinned by the channel-equivalence tests).

        Schedules are validated and marched exactly as a rank run's
        (see :func:`_validate_and_march`): materialized per-rank
        schedules are fully validated before any rank absorbs an
        interval, lazy streams chunk by chunk as produced.

        Like :meth:`RankSimulator.run`, a channel instance runs exactly
        one schedule; reuse raises ``RuntimeError``.
        """
        if self._consumed:
            raise RuntimeError(
                "this ChannelSimulator has already run a schedule; "
                "trackers, oracle state, and counters accumulate across "
                "runs, so reusing it would silently mix windows — build "
                "a fresh simulator (or Session) per run"
            )
        self._consumed = True
        channel = _as_channel_trace(trace, self.num_ranks)
        streams = {
            rank: channel.rank_stream(rank) for rank in range(self.num_ranks)
        }
        for sim in self.ranks:
            # The channel marches its member simulators itself.
            sim._guard_reuse()
        stats = _validate_and_march(self.ranks, self._storage, streams)
        per_rank = [
            self.ranks[rank].collect(streams[rank].name)
            for rank in range(self.num_ranks)
        ]
        result = ChannelSimResult(
            trace=channel.name,
            intervals=max(
                (sim.intervals for sim in self.ranks), default=0
            ),
            per_rank=per_rank,
        )
        if stats is not None:
            # Diagnostic side channel, deliberately not a dataclass
            # field: results stay bit-identical across engines.
            result.kernel_stats = _with_scan_rows(stats, self.ranks)
        return result

    def rank(self, index: int) -> RankSimulator:
        """The rank-``index`` simulator (trackers, per-bank counters)."""
        return self.ranks[index]

    @property
    def trackers(self) -> list[list[Tracker]]:
        """Tracker instances as ``trackers[rank][bank]``."""
        return [sim.trackers for sim in self.ranks]

    @property
    def any_flip(self) -> bool:
        return any(sim.any_flip for sim in self.ranks)

