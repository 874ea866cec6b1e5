"""The fast engine's packed kernel and its compiled-march driver.

:class:`_FusedChannelKernel` marches every geometry — one bank, a rank,
a channel, a group of Monte-Carlo windows — as one packed ``(unit,
row)`` array family, and runs each lookahead window of buffered steps
through the compiled march (:mod:`repro.kernels`) exactly as written,
loading and storing each tracker's state through the lowering contract of
:mod:`repro.trackers.base`. :mod:`repro.sim.engine` builds it from the
rank simulators and drives it; nothing else should.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from ..cache import BoundedCache
from ..dram.rowstate import FlipEvent
from ..kernels.cext import MT_STATE, load_stream, settle_stream
from ..kernels.march import KIND_COUNTER, MARCH_PARAMS, STOP_STATE
from ..trackers.base import MarchUnit, MitigationRequest
from ..trackers.protrr import VictimRefreshRequest
from .trace import first_use_codes, identity_codes

if TYPE_CHECKING:  # pragma: no cover - engine imports this module
    from .engine import EngineConfig, RankSimulator


#: Private miss sentinel for the plan memos (a cached value can never
#: be this object, so hits and misses are always distinguishable).
_CACHE_MISS = object()


class _FusedChannelKernel:
    """The fast engine: one flat activation kernel for every geometry.

    The kernel owns a single packed ``(unit, row)`` array family —
    ``unit = rank * num_banks + bank`` — and marches every rank under
    the shared tREFI clock; a rank run is the 1-rank case (one unit per
    bank, one bank for the paper's classic scenarios). Each bank's
    :class:`~repro.dram.rowstate.DenseRowDisturbanceModel` is built on a
    row view into the packed arrays, so packed stores and every
    per-bank operation (mitigate, exact replay, queries, ``collect``)
    read and write the same memory — bit-identity holds by
    construction, not by mirroring.

    :meth:`march` proceeds window by window: the active ranks' next
    intervals, up to ``_max_compiled_chunk`` steps. :meth:`_index`
    codes a window by interval identity in NumPy into the plans of its
    distinct channel steps and a per-step plan index, ``pos_plan``.
    A plan (each bank's per-unique-row aggregation offset to packed
    rank×bank×row keys, plus the tracker dispatch) is memoized in a
    bounded LRU cache keyed by the step's interval identities — attack
    traces replay a few shared interval objects for thousands of
    tREFIs, so the Python plan cost is paid once per distinct step.

    :meth:`_compiled_march` runs ``pos_plan`` exactly as written in one
    compiled call or a few: the refresh schedulers, tracker updates,
    mitigations and flip events all run there, and a bank with
    adjacent aggressors, or whose aggregated scatter would cross TRH,
    replays its acts in act order there too.

    Steps the compiled tier does not run — with no compiled provider,
    with a tracker that does not lower, or after a march stopped at
    tracker state — replay plan by plan through :meth:`_step`: per-unit
    tracker batch updates, the unmitigated-run counters and one packed
    disturbance scatter with a flip pre-check, then REF rounds whose
    mitigation requests land one at a time through :meth:`_apply`.
    Banks whose in-bank order is observable (adjacent aggressors, new
    flips) replay through ``activate_many``. Reordering *across* units
    is unobservable — ranks and banks are independent by construction,
    and every fused sum is integer-valued float64 far below 2**53, so
    addition order cannot change a bit.

    The kernel lives for one march: it references the rank simulators,
    never the reverse, so dropping a finished simulator frees its
    packed arrays without waiting for the cyclic collector.
    """

    #: Plan-memo ceiling; LRU eviction keeps the hot shared-interval
    #: plans when a trace streams unboundedly many distinct steps.
    _PLAN_CACHE_LIMIT = 4096

    #: Most steps one lookahead window buffers and marches.
    _max_compiled_chunk = 4096

    def __init__(
        self, ranks: list[RankSimulator], config: EngineConfig, storage: tuple
    ) -> None:
        c = config
        self.ranks = ranks
        self.num_banks = c.num_banks
        self.num_ranks = len(ranks)
        self.num_rows = c.num_rows
        self.units = self.num_ranks * self.num_banks
        self.trh = float(c.trh)
        self.t_refi_ns = c.timing.t_refi_ns
        self.allow_postponement = c.allow_postponement
        self.max_postponed = c.max_postponed
        # ``storage`` is the packed family every bank oracle is built
        # on (see RankSimulator and _packed_ranks). ``since``/``speak``
        # are the packed twins of the per-bank unmitigated-run counters
        # (``_bank_since``/``_bank_peak``): in-range rows live there and
        # update as one scatter per step; the rare out-of-range
        # activated rows stay in the rank dicts, and ``materialize``
        # merges both back into the dicts before ``collect``.
        (self.dist, self.peak, self.flipped, self.since, self.speak,
         self.env) = storage
        self.dist_flat = self.dist.reshape(-1)
        self.peak_flat = self.peak.reshape(-1)
        self.flipped_flat = self.flipped.reshape(-1)
        self.since_flat = self.since.reshape(-1)
        self.speak_flat = self.speak.reshape(-1)
        # Activated-row envelope, per unit: the packed unmitigated-run
        # counters are only ever written at in-range *activated* rows —
        # mitigations merely zero them — so ``materialize`` can scan
        # [lo, hi) instead of the whole row space. Widened at plan
        # build; empty (lo >= hi) until a unit first activates. The
        # disturbance arrays have their own envelope, ``env``, kept
        # with the storage: victim-refresh bumps chain arbitrarily far
        # from the activations, so every writer widens it — plan build
        # by the activated rows ±1, the compiled march by each
        # mitigation's reach, the per-bank models (the REF rounds'
        # mitigations among them) by what they write.
        self._row_lo = [self.num_rows] * self.units
        self._row_hi = [0] * self.units
        self._plan_cache = BoundedCache(self._PLAN_CACHE_LIMIT)
        # Packed per-unit demand tally: one fancy increment per step
        # replaces the per-unit Python sweep over ``bank_demand_acts``;
        # ``materialize`` folds it back into the per-rank lists.
        self.demand_acc = np.zeros(self.units, dtype=np.int64)
        # Pre-bound REF dispatch rows: (sim, bank, unit, on_refresh) per
        # unit, grouped by rank, so each REF round walks a prebuilt list
        # instead of re-binding tracker methods.
        self._ref_handlers = [
            [
                (
                    sim,
                    bank,
                    rank * self.num_banks + bank,
                    sim.trackers[bank].on_refresh,
                )
                for bank in range(self.num_banks)
            ]
            for rank, sim in enumerate(ranks)
        ]
        # Rolling auto-refresh bookkeeping, kept kernel-side: the slice
        # math is inlined per round and the device counters (untouched
        # during a kernel run) are synced back in ``materialize``.
        dev = ranks[0].device
        self._refw = dev.config.refi_per_refw
        self._slice_rows = dev._rows_per_slice
        self._ref_counts = [sim.device._ref_counter[0] for sim in ranks]
        self.steps = 0
        # Kernel-path telemetry (exposed via ``stats()``): per-step
        # fast-path steps vs slow-path steps (an exact replay or any REF
        # mitigation) vs steps executed inside a compiled march, plus
        # plan-cache traffic — a workload silently degrading to 100%
        # slow path is invisible without these.
        self.fast_steps = 0
        self.slow_steps = 0
        self.compiled_steps = 0
        self.compiled_calls = 0
        # Compiled steps where some unit's activations crossed TRH and
        # the march's act-order replay recorded the flips.
        self.compiled_flip_steps = 0
        # Why steps did not compile: a tracker that does not lower, or
        # tracker state the march cannot start from or hold (see
        # _sync_in and the march's step-start checks).
        self.compiled_skip_tracker = 0
        self.compiled_skip_state = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self._step_slow = False
        # Compiled-tier state (see repro.kernels). The march function
        # is resolved once (the simulator already failed loudly if a
        # forced provider cannot run; REPRO_KERNELS=none pins the
        # NumPy kernel); without one, or with a tracker that does not
        # lower (see _compiled_state), the tier is off for this kernel.
        from ..kernels import get_march, provider, unavailable_reason

        self._provider = provider()
        self._march_fn = get_march()
        self._no_provider = (
            None if self._march_fn is not None else unavailable_reason()
        )
        self._compiled_off = self._march_fn is None
        # Window lowerings by plan list, LRU: the windows the step cap
        # cuts from one periodic schedule list the same plans in the
        # same first-use order (see _index).
        self._lowered_cache = BoundedCache(self._PLAN_CACHE_LIMIT)
        self._cstate = None

    # ------------------------------------------------------------------
    def march(self, streams: dict[int, Iterator[Sequence]]) -> None:
        """Drain per-rank interval chunks in interval lockstep.

        Every still-active rank advances by exactly one interval per
        step, so the shared tREFI clock is common to all active ranks;
        a rank drops out when its schedule ends (ranks may have
        different horizons).

        The march proceeds window by window: each active rank's next
        intervals, up to ``_max_compiled_chunk`` steps and up to the
        first rank's end, so a window ends at the cap or at a change of
        rank set. :meth:`_index` turns the window into its distinct
        channel steps' plans and a per-step plan index, ``pos_plan``;
        the compiled tier (:meth:`_compiled_march`) marches that index
        exactly as written, and whatever it does not execute replays
        plan by plan through the per-step path.
        """
        cap = self._max_compiled_chunk
        # Per rank: its chunk iterator (None once exhausted) and the
        # intervals pulled but not yet marched.
        feeds = {rank: [chunks, []] for rank, chunks in sorted(streams.items())}
        while True:
            for rank in list(feeds):
                feed = feeds[rank]
                buf = feed[1]
                while len(buf) < cap and feed[0] is not None:
                    chunk = next(feed[0], None)
                    if chunk is None:
                        feed[0] = None
                    else:
                        buf.extend(chunk)
                if not buf:
                    del feeds[rank]
            if not feeds:
                return
            n = min(cap, *(len(buf) for _, buf in feeds.values()))
            window = []
            for _, buf in feeds.values():
                window.append(buf[:n])
                del buf[:n]
            plans, pos_plan = self._index(list(feeds), window)
            done = 0 if self._compiled_off else self._compiled_march(
                plans, pos_plan
            )
            for code in pos_plan[done:].tolist():
                self._step(plans[code])

    def _index(self, ranks: list[int], window: list[list]) -> tuple:
        """A window's distinct channel steps and its per-step index.

        ``window`` holds each of ``ranks``' next ``n`` intervals.
        Returns ``(plans, pos_plan)``: the memoized plan of every
        distinct channel step, and the ``n`` steps as ``int64`` indices
        into ``plans``. Each rank's intervals are coded by object
        identity at C speed (:func:`~repro.sim.trace.identity_codes`;
        a rank replaying one object throughout, as every classic attack
        and every Monte-Carlo window does, costs one identity scan), and
        the ranks' codes combine into channel-step codes. Codes number
        the channel steps in first-use order, so ``plans`` follows the
        schedule, and the plan cache is consulted once per distinct
        channel step, under its ``(rank, id(interval))`` key.
        """
        n = len(window[0])
        firsts, codes = [0], None
        for seq in window:
            rank_firsts, rank_codes = identity_codes(seq)
            if rank_codes is None:
                continue
            if codes is None:
                firsts, codes = rank_firsts, rank_codes
            else:
                # Both codes are below n, so the pair fits one int64.
                firsts, codes = first_use_codes(codes * n + rank_codes)
        pos_plan = np.zeros(n, np.int64) if codes is None else codes
        cache = self._plan_cache
        plans = []
        for at in firsts:
            step = [(rank, seq[at]) for rank, seq in zip(ranks, window)]
            key = tuple([(rank, id(interval)) for rank, interval in step])
            plan = cache.get(key, _CACHE_MISS)
            if plan is _CACHE_MISS:
                plan = self._build_plan(step)
                cache.put(key, plan)
                self.plan_misses += 1
            else:
                self.plan_hits += 1
            plans.append(plan)
        self.plan_hits += n - len(plans)
        return plans, pos_plan

    def _step(self, plan: tuple) -> None:
        """One shared tREFI of ``plan``'s channel step: absorb every
        rank's interval, tick REFs."""
        self.steps += 1
        time_ns = self.steps * self.t_refi_ns
        self._step_slow = False
        (
            absorb,
            exact_units,
            scatter_units,
            reset_keys,
            victims,
            delta,
            since_keys,
            since_counts,
            overflow,
            demand_keys,
            demand_counts,
            step,
        ) = plan
        # Trackers, one pre-bound dispatch per active unit (no
        # mitigation lands mid-interval, so batch order across units is
        # unobservable).
        for batch, acts, tracker_agg in absorb:
            batch(acts, tracker_agg)
        if demand_keys.size:
            self.demand_acc[demand_keys] += demand_counts
        # Unmitigated-run counters: one packed scatter for every
        # in-range activated row channel-wide (keys are unique per unit
        # and cannot collide across units), dict fallback for the rare
        # out-of-range rows.
        if since_keys.size:
            since_flat = self.since_flat
            totals = since_flat[since_keys] + since_counts
            since_flat[since_keys] = totals
            speak_flat = self.speak_flat
            speak_flat[since_keys] = np.maximum(speak_flat[since_keys], totals)
        for _, since, peak, items in overflow:
            for row, count in items:
                total = since.get(row, 0) + count
                since[row] = total
                if total > peak.get(row, 0):
                    peak[row] = total
        # Units whose activated rows fall within each other's blast
        # radius replay through their bank's exact path (same packed
        # arrays, per-bank flip/order semantics preserved).
        if exact_units:
            self._step_slow = True
            for model, acts, _, _ in exact_units:
                model.activate_many(acts, time_ns)
        # The fused scatter: one whole-channel read + flip pre-check +
        # reset + write + peak max over packed unit*num_rows+row keys.
        if victims.size:
            dist_flat = self.dist_flat
            old = dist_flat[victims]
            new = old + delta
            if new.max() >= self.trh and bool(
                ((new >= self.trh) & ~self.flipped_flat[victims]).any()
            ):
                # Rare: some unit crosses TRH this interval. Replay each
                # scatter-eligible unit through its own bank path, which
                # records per-crossing flip events in act order.
                self._step_slow = True
                for model, acts in scatter_units:
                    model.activate_many(acts, time_ns)
            else:
                dist_flat[reset_keys] = 0.0
                dist_flat[victims] = new
                peak_flat = self.peak_flat
                peak_flat[victims] = np.maximum(peak_flat[victims], new)
        elif reset_keys.size:
            self.dist_flat[reset_keys] = 0.0
        # Shared tREFI boundary: every active rank's scheduler ticks.
        ranks = self.ranks
        allow = self.allow_postponement
        ref_ranks = []
        counts = []
        mx = 0
        for rank, interval in step:
            sim = ranks[rank]
            sim.intervals += 1
            event = sim.scheduler.tick(
                want_postpone=interval.postpone and allow
            )
            if event is not None:
                ref_ranks.append(rank)
                c = event.count
                counts.append(c)
                if c > mx:
                    mx = c
        if mx == 1:
            # Common shape: one REF on every refreshing rank.
            self._refresh_round(ref_ranks, time_ns)
        elif mx:
            for i in range(mx):
                self._refresh_round(
                    [
                        rank
                        for rank, count in zip(ref_ranks, counts)
                        if count > i
                    ],
                    time_ns,
                )
        if self._step_slow:
            self.slow_steps += 1
        else:
            self.fast_steps += 1

    def _build_plan(self, step: list) -> tuple:
        """Aggregate one channel step into packed dispatch plans.

        Every interval carries its per-bank aggregation
        (:meth:`~repro.sim.trace.RankInterval.bank_aggregates`, built
        once per distinct interval), so the plan only offsets it to
        each unit's packed ``unit * num_rows + row`` keys. Units ascend
        with ``(rank, bank)`` and each unit's victims are ascending and
        unique, so their concatenation is the step's sorted, unique
        victim keys with the summed activations each receives.

        Returns ``(absorb, exact_units, scatter_units, reset_keys,
        victims, delta, since_keys, since_counts, overflow,
        demand_keys, demand_counts, step)``; the trailing ``step``
        reference pins the keyed interval objects so their ids cannot
        be recycled while the memo entry lives.
        """
        B = self.num_banks
        rows_n = self.num_rows
        ranks = self.ranks
        row_lo = self._row_lo
        row_hi = self._row_hi
        env_lo = self.env[:, 0].tolist()
        env_hi = self.env[:, 1].tolist()
        absorb = []
        demand_units: list[int] = []
        demand_ns: list[int] = []
        exact_units = []
        scatter_units = []
        reset_parts = []
        victim_parts = []
        delta_parts = []
        since_parts = []
        since_count_parts = []
        overflow = []
        for rank, interval in step:
            sim = ranks[rank]
            for agg in interval.bank_aggregates(rows_n):
                bank = agg.bank
                unit = rank * B + bank
                base = unit * rows_n
                acts = agg.acts
                absorb.append(
                    (sim.trackers[bank].on_activate_batch, acts, agg.by_first)
                )
                demand_units.append(unit)
                demand_ns.append(len(acts))
                # Activated rows outside the bank are legal no-ops on
                # the oracle; in-range rows update the packed
                # unmitigated-run counters, out-of-range ones stay in
                # the rank dicts.
                in_keys = base + agg.in_rows
                since_parts.append(in_keys)
                since_count_parts.append(agg.in_counts)
                if agg.overflow:
                    overflow.append(
                        (unit, sim._bank_since[bank], sim._bank_peak[bank],
                         agg.overflow)
                    )
                # Widen the unit's activated-row envelope (only its
                # in-range part can reach the packed counters), and its
                # disturbance envelope by the victims the activations,
                # or their act-order replay, can bump.
                lo, hi = agg.envelope
                if lo < row_lo[unit]:
                    row_lo[unit] = lo
                if hi > row_hi[unit]:
                    row_hi[unit] = hi
                lo = lo - 1 if lo > 0 else 0
                hi = hi + 1 if hi < rows_n else rows_n
                if lo < hi:
                    if lo < env_lo[unit]:
                        env_lo[unit] = lo
                    if hi > env_hi[unit]:
                        env_hi[unit] = hi
                model = sim.device.banks[bank]
                if agg.adjacent:
                    exact_units.append((model, acts, unit, base + agg.victims))
                    continue
                scatter_units.append((model, acts))
                # Only in-range rows get their self-reset.
                reset_parts.append(in_keys)
                victim_parts.append(base + agg.victims)
                delta_parts.append(agg.delta)

        self.env[:, 0] = env_lo
        self.env[:, 1] = env_hi

        def flat(parts, dtype):
            if not parts:
                return np.empty(0, dtype=dtype)
            return np.concatenate(parts)

        return (
            absorb,
            exact_units,
            scatter_units,
            flat(reset_parts, np.intp),
            flat(victim_parts, np.intp),
            flat(delta_parts, np.float64),
            flat(since_parts, np.intp),
            flat(since_count_parts, np.int64),
            overflow,
            np.array(demand_units, dtype=np.intp),
            np.array(demand_ns, dtype=np.int64),
            step,
        )

    def _refresh_round(self, round_ranks: list[int], time_ns: float) -> None:
        """One REF round across every rank whose REF executes now.

        Equivalent to calling ``RankSimulator._refresh`` on each rank:
        each refreshing rank zeroes its rolling auto-refresh slice on
        every bank, then each bank's mitigation requests go through
        :meth:`_apply`, one at a time. The slice math is inlined from
        ``DramDevice.auto_refresh`` against kernel-side per-rank
        counters (the idle device counters sync back in
        ``materialize``).
        """
        B = self.num_banks
        rows_n = self.num_rows
        refw = self._refw
        slice_rows = self._slice_rows
        ref_counts = self._ref_counts
        handlers = self._ref_handlers
        for rank in round_ranks:
            i = ref_counts[rank] % refw
            ref_counts[rank] += 1
            lo = i * slice_rows
            hi = rows_n if i == refw - 1 else min(lo + slice_rows, rows_n)
            if hi > lo:
                self.dist[rank * B:(rank + 1) * B, lo:hi] = 0.0
            for sim, bank, unit, on_refresh in handlers[rank]:
                for request in on_refresh():
                    self._apply(sim, bank, unit, request, time_ns)

    def _apply(
        self,
        sim: "RankSimulator",
        bank: int,
        unit: int,
        request: MitigationRequest,
        time_ns: float,
    ) -> None:
        """The per-step tier's mitigation applier.

        Mirrors :meth:`RankSimulator._apply` exactly, except the
        unmitigated-run resets land in the kernel's packed counters
        (dict overflow for out-of-range rows) so both representations
        stay consistent during a kernel run.
        """
        self._step_slow = True
        sim.bank_mitigations[bank] += 1
        if request.distance > 1:
            sim.bank_transitive_mitigations[bank] += 1
        rows_n = self.num_rows
        base = unit * rows_n
        since_flat = self.since_flat
        if isinstance(request, VictimRefreshRequest):
            refreshed = sim.device.victim_refresh(bank, request.row, time_ns)
        else:
            refreshed = sim.device.mitigate(
                bank, request.row, request.distance, time_ns
            )
            row = request.row
            if 0 <= row < rows_n:
                since_flat[base + row] = 0
            else:
                # repro-lint: allow[private-poke] dict-overflow counter sync
                sim._bank_since[bank][row] = 0
        tracker = sim.trackers[bank]
        observes = tracker.observes_mitigations
        for victim in refreshed:
            if 0 <= victim < rows_n:
                since_flat[base + victim] = 0
            else:
                # repro-lint: allow[private-poke] dict-overflow counter sync
                sim._bank_since[bank][victim] = 0
            if observes:
                tracker.on_mitigation_activate(victim)

    # -- compiled tier -------------------------------------------------
    def _compiled_state(self) -> dict | None:
        """Per-kernel state arrays for the compiled march, built once.

        Every unit's tracker must lower (see the lowering contract in
        :mod:`repro.trackers.base`) to one of the kinds the march
        implements (:mod:`repro.kernels.march`), and a tracker that
        draws needs a plain ``random.Random`` stream of its own (the
        march draws from a copy of each unit's twister state; trackers
        sharing a stream draw interleaved, one REF at a time) and a
        ``randint`` whose candidates take one word each: a span of 1
        to ``2**32 - 1`` values. Anything else disables the tier for
        this kernel and the per-step path carries on.
        """
        state = self._cstate
        if state is not None:
            return state
        trackers = [sim.trackers[bank] for sim in self.ranks
                    for bank in range(self.num_banks)]
        lowerings = [tracker.lower() for tracker in trackers]
        streams = [low.stream for low in lowerings
                   if low is not None and low.stream is not None]
        if (
            None in lowerings
            or any(type(stream) is not random.Random for stream in streams)
            or len({id(stream) for stream in streams}) < len(streams)
            or any(not 0 < hi - lo + 1 < 1 << 32 for lo, hi in (
                low.bounds for low in lowerings if low.bounds))
        ):
            self.compiled_skip_tracker += 1
            self._compiled_off = True
            return None
        state = {
            name: np.zeros(self.units, dtype=np.int64)
            for name in (
                "m_can", "m_san", "m_sar", "m_skey", "m_valid", "m_dist",
                "m_sel", "mitig", "transmit", "p_over", "mt_used",
                "c_live", "c_trips", "q_len",
            )
        }
        bounds = [low.bounds or (0, -1) for low in lowerings]
        state.update(
            kind=np.array([low.kind for low in lowerings], dtype=np.int64),
            m_low=np.array([lo for lo, _ in bounds], dtype=np.int64),
            m_span=np.array([hi - lo + 1 for lo, hi in bounds], np.int64),
            mt=np.zeros((self.units, MT_STATE), dtype=np.uint32),
            p_prob=np.array([low.prob for low in lowerings], dtype=np.float64),
            c_thr=np.array(
                [low.threshold for low in lowerings], dtype=np.int64
            ),
            c_cap=np.array(
                [low.capacity for low in lowerings], dtype=np.int64
            ),
            trackers=trackers,
            lowerings=lowerings,
            ref_counts=np.zeros(self.num_ranks, dtype=np.int64),
            postponed=np.zeros(self.num_ranks, dtype=np.int64),
        )
        self._cstate = state
        return state

    def _compiled_march(self, plans: list, pos_plan: "np.ndarray") -> int:
        """March the window ``pos_plan`` over ``plans`` (see
        :meth:`_index`) in compiled calls.

        Returns how many of its steps the compiled march executed; the
        caller replays the rest through the per-step path — the rest of
        the window after a march that stopped at tracker state.
        Adjacent aggressors and threshold crossings do not end the
        march: it replays their acts in act order and records their flip
        events itself (see :meth:`_march_call`).
        """
        state = self._compiled_state()
        if state is None:
            return 0
        key = tuple(map(id, plans))
        entry = self._lowered_cache.get(key, _CACHE_MISS)
        if entry is _CACHE_MISS:
            # The entry pins the plans so their ids cannot be recycled.
            entry = (plans, self._build_lowered(plans, state))
            self._lowered_cache.put(key, entry)
        lowered = entry[1]
        refs = self._most_refs(lowered, pos_plan)
        span = pos_plan.size
        done = 0
        while done < span:
            marched, finished = self._march_call(
                state, lowered, pos_plan, done, span - done, refs
            )
            done += marched
            if not finished:
                break
        return done

    def _most_refs(self, lowered: dict, pos_plan: "np.ndarray") -> int:
        """The most REFs one step of the window ``pos_plan`` can issue
        on any of its ranks.

        A step issues one REF plus the debt its rank owes, and the debt
        grows only over a run of consecutive steps that want to
        postpone (the window's first run on top of the debt owed at its
        start), never past ``max_postponed``.
        """
        ranks = lowered["step_ranks"].tolist()
        owed = [self.ranks[rank].scheduler.postponed for rank in ranks]
        most = max(owed)
        want = lowered["want"].reshape(-1, len(ranks))
        if want.any():
            # Each rank's wanting runs, read off its 0/1 column padded
            # with a 0 on either side so no run spans two ranks.
            n = pos_plan.size
            padded = np.zeros((len(ranks), n + 2), dtype=np.int8)
            padded[:, 1:-1] = want[pos_plan].T
            edges = np.diff(padded.reshape(-1))
            starts = np.flatnonzero(edges == 1)
            runs = np.flatnonzero(edges == -1) - starts
            lead = starts % (n + 2) == 0
            runs[lead] += np.array(owed)[starts[lead] // (n + 2)]
            most = max(most, int(runs.max(initial=0)))
        return 1 + min(most, self.max_postponed)

    def _build_lowered(self, plans: list, state: dict) -> dict:
        """The window's plans, all on the same ranks, in the flat-array
        form of the compiled march."""
        step_ranks = [rank for rank, _ in plans[0][11]]
        J = len(plans)
        U = self.units
        rows_n = self.num_rows
        kind = state["kind"]
        c_thr = state["c_thr"]
        c_cap = state["c_cap"]
        # Activated rows outside the bank: the march keeps their
        # unmitigated-run counters in o_since/o_speak, loaded from and
        # stored back to the rank dicts the plans' overflow entries
        # name. A counter key k >= 0 addresses the packed ``since``;
        # k < 0 the out-of-range row -1 - k.
        o_index: dict[tuple[int, int], int] = {}
        o_rows: list = []  # (since dict, peak dict, row) per o index
        for plan in plans:
            for unit, since_dict, peak_dict, items in plan[8]:
                for row, _ in items:
                    if (unit, row) not in o_index:
                        o_index[unit, row] = len(o_rows)
                        o_rows.append((since_dict, peak_dict, row))

        def skeys(unit, rows):
            keys = unit * rows_n + rows
            if o_index:
                out = np.flatnonzero((rows < 0) | (rows >= rows_n))
                for i in out.tolist():
                    keys[i] = -1 - o_index[unit, int(rows[i])]
            return keys

        # Counter slots: per counter-kind unit, the rows its acts touch
        # across the window and their in-range neighbours out to the
        # cascade reach — ±1 for Graphene, ±(most REFs in one step) for
        # PRAC, whose victim refreshes count and alert for the next REF.
        reach = self.max_postponed + 1 if self.allow_postponement else 1
        touched: dict[int, list] = {}
        for plan in plans:
            for (_, acts, (uniq, _)), unit in zip(
                plan[0], plan[9].tolist()
            ):
                if kind[unit] == KIND_COUNTER and len(acts):
                    touched.setdefault(unit, []).append(uniq)
        counter_slots = {}  # unit -> (first slot, last slot + 1)
        slot_parts = []
        skey_parts = []
        n_slots = 0
        for unit in sorted(touched):
            radius = reach if c_cap[unit] < 0 else 1
            uniq = np.concatenate(touched[unit])
            near = np.unique(
                uniq[None, :] + np.arange(-radius, radius + 1)[:, None]
            )
            near = near[(near >= 0) & (near < rows_n)]
            rows = np.union1d(near, uniq).astype(np.int64)
            slot_parts.append(rows)
            skey_parts.append(skeys(unit, rows))
            counter_slots[unit] = (n_slots, n_slots + rows.size)
            n_slots += rows.size

        def flat(parts, dtype):
            if not parts:
                return np.empty(0, dtype=dtype)
            return np.ascontiguousarray(np.concatenate(parts), dtype=dtype)

        slot_rows = flat(slot_parts, np.int64)
        # Neighbour slots: row ± 1 within the same unit's slot run.
        slot_prev = np.full(n_slots, -1, dtype=np.int64)
        slot_next = np.full(n_slots, -1, dtype=np.int64)
        for lo, hi in counter_slots.values():
            adjacent = np.flatnonzero(np.diff(slot_rows[lo:hi]) == 1) + lo
            slot_prev[adjacent + 1] = adjacent
            slot_next[adjacent] = adjacent + 1
        lengths = np.zeros((J, U), dtype=np.int64)
        uniq_len = np.zeros((J, U), dtype=np.int64)
        c_tcap = np.zeros((J, U), dtype=np.int64)
        reset_len = np.zeros((J, U), dtype=np.int64)
        victim_len = np.zeros((J, U), dtype=np.int64)
        exact = np.zeros((J, U), dtype=np.int64)
        parts: dict[str, list] = {
            name: [] for name in (
                "reset_keys", "victims", "delta", "since_keys",
                "since_counts", "acts", "act_skey", "act_slot",
                "uniq_slot",
            )
        }
        for j, plan in enumerate(plans):
            (absorb, exact_units, _, reset_keys, victims, delta, since_keys,
             since_counts, overflow, demand_keys, _, _) = plan
            if exact_units:
                # Exact units always replay in act order; their victims
                # only size the flip-event room.
                exact[j, [unit for _, _, unit, _ in exact_units]] = 1
                victims = np.concatenate(
                    [victims, *(keys for _, _, _, keys in exact_units)]
                )
                order = np.argsort(victims, kind="stable")
                victims = victims[order]
                delta = np.concatenate(
                    (delta, np.zeros(victims.size - delta.size))
                )[order]
            parts["reset_keys"].append(reset_keys)
            parts["victims"].append(victims)
            parts["delta"].append(delta)
            # Out-of-range activated rows count after the in-range ones.
            out = [(-1 - o_index[unit, row], count)
                   for unit, _, _, items in overflow for row, count in items]
            parts["since_keys"].append(np.concatenate(
                (since_keys, np.array([k for k, _ in out], dtype=np.int64))
            ))
            parts["since_counts"].append(np.concatenate(
                (since_counts, np.array([c for _, c in out], dtype=np.int64))
            ))
            # The packed keys ascend by unit, so each unit's resets and
            # victims are contiguous: the march scatters unit by unit.
            reset_len[j] = np.bincount(reset_keys // rows_n, minlength=U)
            victim_len[j] = np.bincount(victims // rows_n, minlength=U)
            # ``absorb`` entries parallel ``demand_keys`` (both are
            # built per segment, unit-ascending), so this pairs each
            # unit with its raw act rows.
            for (_, acts, (uniq, counts)), unit in zip(
                absorb, demand_keys.tolist()
            ):
                arr = np.ascontiguousarray(acts, dtype=np.int64)
                lengths[j, unit] = arr.shape[0]
                parts["acts"].append(arr)
                parts["act_skey"].append(skeys(unit, arr))
                if unit in counter_slots:
                    lo, hi = counter_slots[unit]
                    rows = slot_rows[lo:hi]
                    parts["act_slot"].append(lo + np.searchsorted(rows, arr))
                    parts["uniq_slot"].append(
                        lo + np.searchsorted(rows, uniq)
                    )
                    uniq_len[j, unit] = uniq.size
                    # A row trips at most once per threshold's worth of
                    # its activations (its count starts below it).
                    thr = int(c_thr[unit])
                    c_tcap[j, unit] = int(((counts + thr - 1) // thr).sum())
                else:
                    parts["act_slot"].append(
                        np.full(arr.shape[0], -1, np.int64)
                    )

        def offsets(counts):
            off = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=off[1:])
            return off

        want = [
            interval.postpone and self.allow_postponement
            for plan in plans for _, interval in plan[11]
        ]
        return {
            "step_ranks": np.array(step_ranks, dtype=np.int64),
            "want": np.array(want, dtype=np.int64),
            "reset_keys": flat(parts["reset_keys"], np.int64),
            "reset_off": offsets(reset_len.reshape(-1)),
            "victims": flat(parts["victims"], np.int64),
            "delta": flat(parts["delta"], np.float64),
            "victim_off": offsets(victim_len.reshape(-1)),
            "exact": exact.reshape(-1),
            "max_victims": int(victim_len.sum(axis=1).max()),
            "since_keys": flat(parts["since_keys"], np.int64),
            "since_counts": flat(parts["since_counts"], np.int64),
            "since_off": offsets(
                [part.size for part in parts["since_keys"]]
            ),
            "acts": flat(parts["acts"], np.int64),
            "act_skey": flat(parts["act_skey"], np.int64),
            "acts_off": offsets(lengths.reshape(-1)),
            "act_slot": flat(parts["act_slot"], np.int64),
            "lengths": lengths,
            "c_tcap": c_tcap.reshape(-1),
            "tcap_max": c_tcap.max(axis=0),
            "slot_rows": slot_rows,
            "slot_prev": slot_prev,
            "slot_next": slot_next,
            "slot_skey": flat(skey_parts, np.int64),
            "uniq_off": offsets(uniq_len.reshape(-1)),
            "uniq_slot": flat(parts["uniq_slot"], np.int64),
            "counter_slots": counter_slots,
            "o_index": o_index,
            "o_rows": o_rows,
        }

    def _march_call(
        self, state: dict, lowered: dict, pos_plan, phase: int, n: int,
        refs: int,
    ) -> tuple[int, bool]:
        """One compiled call: sync in, load the twister states, march,
        settle the streams, sync out.

        Marches up to ``n`` steps of the window ``pos_plan`` from
        position ``phase``, on which no step issues more than ``refs``
        REFs per rank (see :meth:`_most_refs`), and appends the flip
        events it recorded to their banks' models. Returns ``(steps,
        finished)``; ``finished`` is False when the march stopped at a
        state limit (not a full event buffer) or never started, so no
        further call should follow.
        """
        rank_list = lowered["step_ranks"].tolist()
        postponed = state["postponed"]
        postponed[:] = [sim.scheduler.postponed for sim in self.ranks]
        synced = self._sync_in(state, lowered, rank_list, refs)
        if synced is None:
            self.compiled_skip_state += 1
            return 0, False
        active, c_cnt, q_buf, q_cap = synced
        # Each drawing unit's stream: the march draws from its state
        # row, and the generator then moves on by the words it drew.
        mt = state["mt"]
        streams = []
        for march, _ in active:
            stream = state["lowerings"][march.index].stream
            if stream is not None:
                gauss = load_stream(stream, mt[march.index])
                streams.append((march.index, stream, gauss))
        ref_counts = state["ref_counts"]
        ref_counts[:] = self._ref_counts
        # The out-of-range rows' counters, from their rank dicts.
        o_rows = lowered["o_rows"]
        o_since = np.array(
            [since.get(row, 0) for since, _, row in o_rows], dtype=np.int64
        )
        o_speak = np.array(
            [peak.get(row, 0) for _, peak, row in o_rows], dtype=np.int64
        )
        loaded = list(zip(o_since.tolist(), o_speak.tolist()))
        # Room for any one step's flips: each victim of a plan and four
        # per mitigation, at most q_cap (a counter unit, see _sync_in)
        # or refs (MINT, PARA) mitigations per unit and step.
        ev_cap = lowered["max_victims"] + 4 * self.units * max(q_cap, refs)
        ev = np.empty(2 * ev_cap, dtype=np.int64)
        ev_dist = np.empty(ev_cap, dtype=np.float64)
        # Every march parameter by name: the kernel's packed arrays and
        # geometry, the per-kernel tracker state, the lowered window and
        # this call's buffers.
        args = {
            **state,
            **lowered,
            "pos_plan": pos_plan,
            "dist": self.dist_flat,
            "peak": self.peak_flat,
            "flipped": self.flipped_flat.view(np.uint8),
            "since": self.since_flat,
            "speak": self.speak_flat,
            "env": self.env.reshape(-1),
            "o_since": o_since,
            "o_speak": o_speak,
            "num_banks": self.num_banks,
            "num_rows": self.num_rows,
            "refw": self._refw,
            "slice_rows": self._slice_rows,
            "max_postponed": self.max_postponed,
            "phase": phase,
            "c_cnt": c_cnt,
            "q_buf": q_buf,
            "q_cap": q_cap,
            "ev": ev,
            "ev_dist": ev_dist,
            "ev_cap": ev_cap,
            "num_steps": n,
            "trh": self.trh,
        }
        done, stop, events, flip_steps = self._march_fn(
            *[args[name] for name in MARCH_PARAMS]
        )
        self.compiled_calls += 1
        used = state["mt_used"]
        for unit, stream, gauss in streams:
            settle_stream(stream, mt[unit], int(used[unit]), gauss)
        if stop == STOP_STATE:
            self.compiled_skip_state += 1
        if done == 0:
            return 0, False
        # Each event at the time the per-step path would stamp it.
        B = self.num_banks
        for (key, offset), value in zip(
            ev[: 2 * events].reshape(-1, 2).tolist(), ev_dist[:events].tolist()
        ):
            unit, row = divmod(key, self.num_rows)
            self.ranks[unit // B].device.banks[unit % B].flips.append(
                FlipEvent(row, value, (self.steps + offset + 1) * self.t_refi_ns)
            )
        self.compiled_steps += done
        self.compiled_flip_steps += flip_steps
        self.steps += done
        self._sync_out(state, lowered, active, q_buf, q_cap)
        for (since, peak, row), (since0, peak0), since1, peak1 in zip(
            o_rows, loaded, o_since.tolist(), o_speak.tolist()
        ):
            if since1 != since0:
                since[row] = since1
            if peak1 != peak0:
                peak[row] = peak1
        # Engine-side tallies of the executed steps.
        self.demand_acc += np.bincount(
            pos_plan[phase : phase + done], minlength=len(lowered["lengths"])
        ) @ lowered["lengths"]
        for rank in rank_list:
            sim = self.ranks[rank]
            sched = sim.scheduler
            sim.intervals += done
            sched.interval_index += done
            sched.total_refreshes += int(ref_counts[rank]) - self._ref_counts[rank]
            sched.postponed = int(postponed[rank])
            self._ref_counts[rank] = int(ref_counts[rank])
        return done, stop != STOP_STATE

    def _sync_in(self, state: dict, lowered: dict, rank_list: list, refs: int):
        """Load the active units' tracker state into the march arrays.

        Returns ``(active, c_cnt, q_buf, q_cap)`` — ``active`` the
        ``(MarchUnit, tracker)`` pairs of the active ranks' non-null
        units — or ``None`` when some tracker is not at a state the
        march can start from (:meth:`~repro.trackers.base.Tracker.march_in`
        refuses, it queues a row that is not a counter slot, or its
        selected row is outside the bank and the window never activates
        it). Nothing outside the march arrays is touched, so a refusal
        needs no undo.
        """
        kind = state["kind"]
        trackers = state["trackers"]
        counter_slots = lowered["counter_slots"]
        slot_rows = lowered["slot_rows"]
        c_cnt = np.empty(slot_rows.size, dtype=np.int64)
        B = self.num_banks
        active = []
        for rank in rank_list:
            for unit in range(rank * B, (rank + 1) * B):
                if not kind[unit]:
                    continue
                lo, hi = counter_slots.get(unit, (0, 0))
                rows = slot_rows[lo:hi]
                march = MarchUnit(state, unit, rows.tolist(), c_cnt[lo:hi])
                if not trackers[unit].march_in(march):
                    return None
                if march.queued:
                    # The march queues slots: every queued row must be one.
                    if not set(march.queued).issubset(march.rows):
                        return None
                    at = np.searchsorted(rows, march.queued)
                    march.queued = (at + lo).tolist()
                if march["m_valid"]:
                    # The selected row's counter key (see _build_lowered).
                    sar = march["m_sar"]
                    if 0 <= sar < self.num_rows:
                        march["m_skey"] = unit * self.num_rows + sar
                    elif (unit, sar) in lowered["o_index"]:
                        march["m_skey"] = -1 - lowered["o_index"][unit, sar]
                    else:
                        return None
                active.append((march, trackers[unit]))
        # Per counter unit, room for the step-start queue, the acts'
        # trips and the victim refreshes' alerts, which with PRAC can
        # double at every REF of a batch of ``refs`` (growth capped near
        # a unit's slot count), with slack to grow; the march stops
        # before a step that could outgrow it, and the per-step path
        # runs the rest. Only counter units queue.
        counters = [m for m, _ in active if kind[m.index] == KIND_COUNTER]
        grow = 1
        if any(state["c_cap"][m.index] < 0 for m in counters):
            slots = max(len(m.rows) for m in counters)
            grow = 1 << min(refs - 1, slots.bit_length())
        tcap = lowered["tcap_max"]
        q_cap = 3 * grow * (16 + max(
            (len(m.queued) + int(tcap[m.index]) for m in counters),
            default=0,
        ))
        q_buf = np.empty(self.units * q_cap if counters else 0, np.int64)
        q_len = state["q_len"]
        for march, _ in active:
            first = march.index * q_cap
            q_len[march.index] = len(march.queued)
            q_buf[first : first + len(march.queued)] = march.queued
        state["mitig"][:] = 0
        state["transmit"][:] = 0
        state["c_trips"][:] = 0
        state["mt_used"][:] = 0
        return active, c_cnt, q_buf, q_cap

    def _sync_out(
        self,
        state: dict,
        lowered: dict,
        active: list,
        q_buf: "np.ndarray",
        q_cap: int,
    ) -> None:
        """Write the marched state back to its Python-side owners: the
        engine-side tallies here, the rest through each tracker's
        :meth:`~repro.trackers.base.Tracker.march_out`."""
        mitig = state["mitig"]
        transmit = state["transmit"]
        q_len = state["q_len"]
        slot_rows = lowered["slot_rows"]
        B = self.num_banks
        for march, tracker in active:
            unit = march.index
            sim = self.ranks[unit // B]
            sim.bank_mitigations[unit % B] += int(mitig[unit])
            sim.bank_transitive_mitigations[unit % B] += int(transmit[unit])
            first = unit * q_cap
            queued = q_buf[first : first + q_len[unit]]
            march.queued = slot_rows[queued].tolist()
            q_len[unit] = 0
            tracker.march_out(march)

    def stats(self) -> dict:
        """Kernel-path telemetry for this run (see ``__init__``)."""
        return {
            "provider": self._provider,
            "no_provider": self._no_provider,
            "steps": self.steps,
            "fast_path_steps": self.fast_steps,
            "slow_path_steps": self.slow_steps,
            "compiled_steps": self.compiled_steps,
            "compiled_calls": self.compiled_calls,
            "compiled_flip_steps": self.compiled_flip_steps,
            "compiled_skip_tracker": self.compiled_skip_tracker,
            "compiled_skip_state": self.compiled_skip_state,
            "plan_cache_hits": self.plan_hits,
            "plan_cache_misses": self.plan_misses,
        }

    def materialize(self) -> None:
        """Merge the packed unmitigated-run peaks back into the rank
        dicts that :meth:`RankSimulator.collect` reads.

        The packed array holds every in-range row's peak; the dicts
        hold only the out-of-range overflow, so the merge is a disjoint
        union. Values come back as Python ints, matching what the
        scalar path accumulates (dict ordering may differ, which
        neither equality nor the canonical sorted-JSON form observes).
        """
        for rank, sim in enumerate(self.ranks):
            for bank in range(self.num_banks):
                unit = rank * self.num_banks + bank
                # speak only ever gets written at in-range activated
                # rows, all inside the unit's touched-row envelope —
                # scan the window, not the whole row space.
                lo = self._row_lo[unit]
                hi = self._row_hi[unit]
                if lo < hi:
                    window = self.speak[unit, lo:hi]
                    rows = np.flatnonzero(window)
                    merged = dict(
                        zip(
                            (rows + lo).tolist(),
                            window[rows].tolist(),
                        )
                    )
                else:
                    merged = {}
                merged.update(sim._bank_peak[bank])
                # repro-lint: allow[private-poke] folds packed peaks back
                sim._bank_peak[bank] = merged
                demand = int(self.demand_acc[unit])
                if demand:
                    sim.bank_demand_acts[bank] += demand
            # REFs ran against the kernel-side counters; bring the idle
            # device counters up to date (idempotent assignment).
            # repro-lint: allow[private-poke] kernel ran the REF rounds
            sim.device._ref_counter = [self._ref_counts[rank]] * self.num_banks
        # Zeroed after folding so a second materialize is a no-op.
        self.demand_acc[:] = 0
