"""Property pins for the fast engine against the scalar reference.

The fast engine's contract is *exact* equivalence with the reference
engine, not statistical similarity: the dense NumPy oracle must
reproduce the sparse dict oracle event for event (disturbance vectors,
peaks, flip streams), every registry tracker's ``on_activate_batch``
must be indistinguishable from repeated ``on_activate`` (including RNG
consumption), and the packed kernel — without and with its compiled
march — must emit bit-identical rank and channel results. Hypothesis
drives adversarial shapes through all three layers: adjacent
aggressors (the aggressor/victim interleavings the vector fast path
must bail on), thresholds low enough to flip, table-overflow act
streams, and mixed batch/scalar call sequences.
"""

import json
from contextlib import nullcontext
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.dram.rowstate import (
    DenseRowDisturbanceModel,
    PackedRows,
    RowDisturbanceModel,
)
from repro.kernels import forced_provider
from repro.sim.engine import ChannelSimulator, EngineConfig, RankSimulator
from repro.sim.kernel import _FusedChannelKernel
from repro.sim.trace import (
    ChannelTrace,
    CycleStream,
    MaterializedStream,
    RankInterval,
    RankTrace,
)
from repro.trackers.graphene import GrapheneTracker
from repro.trackers.registry import (
    available_trackers,
    bank_tracker_factory,
    channel_tracker_factory,
    make_tracker,
)

from tests.property.settings import SLOW_SETTINGS, STANDARD_SETTINGS
from tests.providers import MARCH_PROVIDERS

NUM_ROWS = 64

#: The fast engine without and with its compiled march, each pinned
#: against the reference, as the provider it forces: ``"none"`` pins
#: the pure-NumPy kernel, ``None`` marches the provider under test.
FAST_ENGINES = {
    "fast-numpy": "none",
    "fast-compiled": None,
}


def _reference_vs(engine, simulate, provider=None):
    """Canonical JSON of ``simulate(overrides)`` on the reference and on
    ``engine``. The compiled march runs under ``provider`` (by default
    the one production resolves: the host's, or ``REPRO_KERNELS``'s)
    and marches every lookahead window — single-step marches, flips
    inside the march, and mid-run plan switches included."""
    outputs = []
    for overrides, force in (
        (dict(vectorized=False), provider),
        ({}, FAST_ENGINES[engine] or provider),
    ):
        pin = forced_provider(force) if force else nullcontext()
        with pin:
            outputs.append(
                json.dumps(asdict(simulate(overrides)), sort_keys=True)
            )
    return outputs

# Batches deliberately include out-of-range rows (legal no-op targets),
# adjacent rows, and repeats.
batches = st.lists(
    st.lists(st.integers(-2, NUM_ROWS + 2), min_size=0, max_size=60),
    min_size=1,
    max_size=6,
)


def _flip_stream(model):
    return [(f.row, f.disturbance, f.time_ns) for f in model.flips]


def _dense(trh):
    """A standalone dense model on a one-bank packed family."""
    return DenseRowDisturbanceModel(
        NUM_ROWS, trh, storage=PackedRows.zeros(1, NUM_ROWS).unit(0)
    )


class TestOracleBackendEquivalence:
    """sparse dict == dense NumPy, bit for bit, through mixed op streams."""

    @given(
        batch_list=batches,
        trh=st.one_of(st.integers(1, 30), st.just(10**9)),
        ops=st.lists(st.integers(0, 3), min_size=0, max_size=6),
    )
    @STANDARD_SETTINGS
    def test_disturbance_peak_and_flip_streams_match(
        self, batch_list, trh, ops
    ):
        sparse = RowDisturbanceModel(NUM_ROWS, trh)
        dense = _dense(trh)
        for index, batch in enumerate(batch_list):
            time_ns = float(index)
            sparse.activate_many(batch, time_ns)
            dense.activate_many(
                np.asarray(batch, dtype=np.intp), time_ns
            )
            op = ops[index % len(ops)] if ops else 0
            if op == 1 and batch:
                sparse.mitigate(batch[0], time_ns)
                dense.mitigate(batch[0], time_ns)
            elif op == 2:
                sparse.refresh_range(index * 4, index * 4 + 8, time_ns)
                dense.refresh_range(index * 4, index * 4 + 8, time_ns)
            elif op == 3:
                sparse.auto_refresh_all(time_ns)
                dense.auto_refresh_all(time_ns)
        for row in range(-1, NUM_ROWS + 1):
            assert sparse.disturbance(row) == dense.disturbance(row)
            assert sparse.peak_disturbance(row) == dense.peak_disturbance(row)
        assert _flip_stream(sparse) == _flip_stream(dense)
        assert sparse.max_disturbance() == dense.max_disturbance()
        assert sparse.most_disturbed_row() == dense.most_disturbed_row()
        assert sorted(sparse.disturbed_rows()) == dense.disturbed_rows()

    @given(
        batch=st.lists(st.integers(0, NUM_ROWS - 1), min_size=1, max_size=80),
        trh=st.integers(1, 25),
    )
    @STANDARD_SETTINGS
    def test_batch_equals_sequential_activates_on_dense(self, batch, trh):
        """Dense activate_many == per-act activate (the scalar pin the
        sparse model already carries, replayed on the packed rows)."""
        batched = _dense(trh)
        sequential = _dense(trh)
        batched.activate_many(np.asarray(batch, dtype=np.intp), time_ns=3.0)
        for row in batch:
            sequential.activate(row, time_ns=3.0)
        for row in range(NUM_ROWS):
            assert batched.disturbance(row) == sequential.disturbance(row)
            assert batched.peak_disturbance(row) == sequential.peak_disturbance(
                row
            )
        assert _flip_stream(batched) == _flip_stream(sequential)


class TestTrackerBatchEquivalence:
    """on_activate_batch == repeated on_activate for every registry
    tracker, including RNG stream consumption and refresh boundaries."""

    @pytest.mark.parametrize("name", available_trackers())
    @given(
        batch_list=st.lists(
            st.lists(st.integers(0, 40), min_size=0, max_size=90),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(0, 2**20),
        with_counts=st.booleans(),
        entries=st.integers(1, 8),
    )
    @SLOW_SETTINGS
    def test_batch_equals_scalar_stream(
        self, name, batch_list, seed, with_counts, entries
    ):
        scalar = make_tracker(name, seed=seed)
        batched = make_tracker(name, seed=seed)
        # Shrink the counter-table trackers so overflow/eviction paths
        # (where the batch fast paths must fall back to the scalar
        # loop) are reachable within a few small batches.
        for tracker in (scalar, batched):
            if hasattr(tracker, "num_entries"):
                tracker.num_entries = entries
        for index, batch in enumerate(batch_list):
            for row in batch:
                scalar.on_activate(row)
            rows = np.asarray(batch, dtype=np.intp)
            counts = None
            if with_counts and batch:
                uniq, first, cnt = np.unique(
                    rows, return_index=True, return_counts=True
                )
                order = np.argsort(first, kind="stable")
                counts = (uniq[order], cnt[order])
            batched.on_activate_batch(rows, counts)
            if index % 2 == 1:
                assert scalar.on_refresh() == batched.on_refresh()
        assert scalar.on_refresh() == batched.on_refresh()
        scalar_table = getattr(scalar, "counters", None)
        if scalar_table is not None:
            assert dict(scalar_table) == dict(batched.counters)


class _NaiveGraphene:
    """The pre-offset Misra-Gries reference: decrement-all on overflow.

    Deliberately the seed implementation, kept verbatim as the oracle
    for the lazy global-offset rewrite."""

    def __init__(self, num_entries: int, mitigation_threshold: int) -> None:
        self.num_entries = num_entries
        self.mitigation_threshold = mitigation_threshold
        self.counters: dict[int, int] = {}
        self.pending: list[int] = []

    def on_activate(self, row: int) -> None:
        if row in self.counters:
            self.counters[row] += 1
        elif len(self.counters) < self.num_entries:
            self.counters[row] = 1
        else:
            for key in list(self.counters):
                self.counters[key] -= 1
                if self.counters[key] <= 0:
                    del self.counters[key]
            return
        if self.counters[row] >= self.mitigation_threshold:
            del self.counters[row]
            self.pending.append(row)


class TestGrapheneOffsetRegression:
    """The O(1)-amortized offset table matches the naive decrement-all
    implementation row for row, through overflow and threshold trips."""

    @given(
        acts=st.lists(st.integers(0, 30), min_size=0, max_size=400),
        entries=st.integers(1, 6),
        batched=st.booleans(),
    )
    @STANDARD_SETTINGS
    def test_table_contents_match_naive(self, acts, entries, batched):
        from repro.trackers.graphene import GrapheneTracker

        tracker = GrapheneTracker(trh=40, acts_per_refw=100)  # threshold 10
        tracker.num_entries = entries
        naive = _NaiveGraphene(entries, tracker.mitigation_threshold)
        if batched:
            # Feed in engine-sized chunks through the batch entry point.
            for start in range(0, len(acts), 73):
                tracker.on_activate_batch(
                    np.asarray(acts[start : start + 73], dtype=np.intp)
                )
        else:
            for row in acts:
                tracker.on_activate(row)
        for row in acts:
            naive.on_activate(row)
        assert tracker.counters == naive.counters
        assert [req.row for req in tracker.drain()] == naive.pending
        assert tracker.mitigations_issued == len(naive.pending)


class TestDmqBatchEquivalence:
    """The DMQ wrapper chunks batches at pseudo-refresh boundaries
    exactly as the scalar stream would fall across them."""

    @given(
        batch_list=st.lists(
            st.lists(st.integers(0, 30), min_size=0, max_size=200),
            min_size=1,
            max_size=4,
        ),
        inner=st.sampled_from(["mint", "para", "graphene"]),
        seed=st.integers(0, 2**20),
        max_act=st.integers(1, 73),
    )
    @SLOW_SETTINGS
    def test_batch_equals_scalar_stream(self, batch_list, inner, seed, max_act):
        scalar = make_tracker(inner, seed=seed, dmq=True, max_act=max_act)
        batched = make_tracker(inner, seed=seed, dmq=True, max_act=max_act)
        for index, batch in enumerate(batch_list):
            for row in batch:
                scalar.on_activate(row)
            batched.on_activate_batch(np.asarray(batch, dtype=np.intp))
            assert scalar.num_acts == batched.num_acts
            assert scalar.pseudo_mitigations == batched.pseudo_mitigations
            assert list(scalar.queue) == list(batched.queue)
            if index % 2 == 1:
                assert scalar.on_refresh() == batched.on_refresh()
        assert scalar.on_refresh() == batched.on_refresh()


class TestEngineKernelEquivalence:
    """reference engine == fast engine on a rank, bit for bit."""

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @given(
        tracker=st.sampled_from(
            ["mint", "para", "graphene", "prac", "mithril", "none"]
        ),
        num_banks=st.integers(1, 3),
        trh=st.sampled_from([5, 40, 10**9]),
        seed=st.integers(0, 2**20),
        interval_specs=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(st.integers(0, 2), st.integers(0, 2047)),
                    min_size=0,
                    max_size=40,
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        ),
        allow_postponement=st.booleans(),
    )
    @SLOW_SETTINGS
    def test_rank_sim_results_bit_identical(
        self,
        engine,
        tracker,
        num_banks,
        trh,
        seed,
        interval_specs,
        allow_postponement,
    ):
        trace = RankTrace(
            name="prop",
            intervals=[
                RankInterval(
                    tuple((bank % num_banks, row) for bank, row in acts),
                    postpone,
                )
                for acts, postpone in interval_specs
            ],
        )
        config = EngineConfig(
            num_banks=num_banks,
            trh=trh,
            num_rows=2048,
            allow_postponement=allow_postponement,
            validate_budget=False,
        )
        reference, fast = _reference_vs(
            engine,
            lambda overrides: RankSimulator(
                bank_tracker_factory(tracker, base_seed=seed),
                replace(config, **overrides),
            ).run(trace),
        )
        assert reference == fast


class TestChannelEngineEquivalence:
    """reference engine == fast engine on a channel, bit for bit.

    The packed kernel reorders freely across (rank, bank) units and
    falls back to the per-bank paths for anything order-sensitive
    within a unit, so its contract is exact equivalence with the scalar
    reference — across every registry tracker, rank count, streamed and
    materialized input, empty intervals, and flip-heavy thresholds.
    """

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @given(
        tracker=st.sampled_from(
            ["mint", "para", "graphene", "prac", "mithril", "protrr", "none"]
        ),
        num_ranks=st.integers(1, 3),
        num_banks=st.integers(1, 3),
        trh=st.sampled_from([5, 40, 10**9]),
        seed=st.integers(0, 2**20),
        streamed=st.booleans(),
        allow_postponement=st.booleans(),
        rank_specs=st.lists(  # one list of interval specs per rank
            st.lists(
                st.tuples(
                    st.lists(
                        st.tuples(
                            st.integers(0, 2), st.integers(-2, NUM_ROWS + 2)
                        ),
                        min_size=0,
                        max_size=30,
                    ),
                    st.booleans(),
                ),
                min_size=0,
                max_size=6,
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @SLOW_SETTINGS
    def test_channel_results_bit_identical(
        self,
        engine,
        tracker,
        num_ranks,
        num_banks,
        trh,
        seed,
        streamed,
        allow_postponement,
        rank_specs,
    ):
        per_rank = {}
        for rank, specs in enumerate(rank_specs[:num_ranks]):
            trace = RankTrace(
                name=f"r{rank}",
                intervals=[
                    RankInterval(
                        tuple((bank % num_banks, row) for bank, row in acts),
                        postpone,
                    )
                    for acts, postpone in specs
                ],
            )
            per_rank[rank] = (
                MaterializedStream(trace) if streamed else trace
            )
        channel = ChannelTrace(name="prop", per_rank=per_rank)
        config = EngineConfig(
            num_banks=num_banks,
            num_ranks=num_ranks,
            trh=trh,
            num_rows=NUM_ROWS,
            allow_postponement=allow_postponement,
            validate_budget=False,
            refi_per_refw=8,
        )
        reference, fast = _reference_vs(
            engine,
            lambda overrides: ChannelSimulator(
                channel_tracker_factory(tracker, seed=seed),
                replace(config, **overrides),
            ).run(channel),
        )
        assert reference == fast


def _cycle_shapes(rows=st.integers(-2, NUM_ROWS + 2)):
    """Cyclic channel schedules for the compiled-march pins: a short
    pattern of interval specs over ``rows``, each rank replaying it
    ``cycles`` times."""
    return dict(
        num_ranks=st.integers(1, 3),
        num_banks=st.integers(1, 3),
        trh=st.sampled_from([5, 40, 10**9]),
        streamed=st.booleans(),
        allow_postponement=st.booleans(),
        pattern_specs=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(st.integers(0, 2), rows),
                    min_size=0,
                    max_size=20,
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=3,
        ),
        cycles=st.integers(1, 12),
    )


#: Even rows only: no aggressor is another's victim, so every plan
#: lowers and the trips run inside the march.
_LOWERABLE = _cycle_shapes(st.integers(0, NUM_ROWS // 2 - 1).map(
    lambda k: 2 * k))

#: Registry trackers with parameters that make the counter kinds trip
#: (and PARA sample) within a few activations.
_TRIP_HEAVY = st.one_of(
    st.tuples(st.just("graphene"), st.fixed_dictionaries(
        {"trh": st.integers(4, 16)})),
    # Threshold 1 doubles PRAC's alert queue at every REF (each victim
    # refresh alerts) in every engine; it has a short-horizon pin below.
    st.tuples(st.just("prac"), st.fixed_dictionaries(
        {"alert_threshold": st.integers(2, 8)})),
    st.tuples(st.just("para"), st.fixed_dictionaries(
        {"max_act": st.integers(1, 4)})),
)


def _cycle_channel(
    num_ranks, num_banks, streamed, pattern_specs, cycles, shifts=(), tail=0
):
    """A builder of fresh cyclic channel schedules: rank ``r`` replays
    the pattern rotated by ``shifts[r]`` (so ranks enter the cycle at
    different phases) for ``cycles`` periods plus ``tail`` steps of a
    partial last one."""
    pattern = tuple(
        RankInterval(
            tuple((bank % num_banks, row) for bank, row in acts),
            postpone,
        )
        for acts, postpone in pattern_specs
    )
    count = len(pattern) * cycles + tail

    def make_channel():
        per_rank = {}
        for rank in range(num_ranks):
            shift = shifts[rank] % len(pattern) if rank < len(shifts) else 0
            rotated = pattern[shift:] + pattern[:shift]
            if streamed:
                per_rank[rank] = CycleStream(f"r{rank}", rotated, count)
            else:
                per_rank[rank] = RankTrace(
                    name=f"r{rank}",
                    intervals=list(rotated * (cycles + 1))[:count],
                )
        return ChannelTrace(name="prop-cycle", per_rank=per_rank)

    return make_channel


def _cycle_config(num_ranks, num_banks, trh, allow_postponement):
    return EngineConfig(
        num_banks=num_banks,
        num_ranks=num_ranks,
        trh=trh,
        num_rows=NUM_ROWS,
        allow_postponement=allow_postponement,
        validate_budget=False,
        refi_per_refw=8,
    )


def _bank_state(model):
    """A bank oracle's flip stream and its full disturbance and peak
    vectors."""
    rows = range(model.num_rows)
    return (
        _flip_stream(model),
        [model.disturbance(row) for row in rows],
        [model.peak_disturbance(row) for row in rows],
    )


def _marched_peak(factory, num_ranks, num_banks, allow_postponement,
                  **schedule):
    """The highest disturbance any cell reaches on a threshold-free run
    of the cyclic schedule (see :func:`_cycle_channel`)."""
    simulator = ChannelSimulator(factory(), _cycle_config(
        num_ranks, num_banks, 10**9, allow_postponement))
    simulator.run(_cycle_channel(num_ranks, num_banks, **schedule)())
    return max(
        max(_bank_state(model)[2])
        for rank in simulator.ranks
        for model in rank.device.banks
    )


def _assert_cycle_identity(
    provider,
    factory,
    num_ranks,
    num_banks,
    trh,
    streamed,
    allow_postponement,
    pattern_specs,
    cycles,
    shifts=(),
    tail=0,
    chunk=None,
):
    """Reference vs compiled march on one cyclic channel schedule (see
    :func:`_cycle_channel`); ``factory()`` builds a fresh per-(rank,
    bank) tracker factory, and a ``chunk`` splits the march into calls
    that start mid-cycle (see :func:`_chunked_calls`). Returns the
    compiled run's result.
    """
    make_channel = _cycle_channel(
        num_ranks, num_banks, streamed, pattern_specs, cycles, shifts, tail
    )
    config = _cycle_config(num_ranks, num_banks, trh, allow_postponement)
    states = []
    results = []

    def simulate(overrides):
        simulator = ChannelSimulator(factory(), replace(config, **overrides))
        with _chunked_calls(chunk):
            result = simulator.run(make_channel())
        states.append([
            (_tracker_state(rank.trackers[bank]), _bank_state(model))
            for rank in simulator.ranks
            for bank, model in enumerate(rank.device.banks)
        ])
        results.append(result)
        return result

    reference, compiled = _reference_vs(
        "fast-compiled", simulate, provider=provider
    )
    assert reference == compiled
    # The march syncs tracker state back and flips cells in place:
    # tables, queues, tallies, random streams, every bank's flip stream
    # and its disturbance and peak vectors must match the reference's,
    # not just the results they produced so far.
    assert states[0] == states[1]
    return results[1]


def _chunked_calls(chunk):
    """Cap every compiled call at ``chunk`` steps (``None`` leaves the
    driver's calls whole): a window then marches in several calls that
    resume at a later window position, each tracker's random stream
    and refresh scheduler part-way through, from the state the
    previous call wrote back."""
    if chunk is None:
        return nullcontext()
    march_call = _FusedChannelKernel._march_call

    def capped(self, state, lowered, pos_plan, phase, n, *rest):
        return march_call(
            self, state, lowered, pos_plan, phase, min(n, chunk), *rest
        )

    return mock.patch.object(_FusedChannelKernel, "_march_call", capped)


def _tracker_state(tracker):
    """A tracker's full state, its random stream by generator state."""
    state = dict(vars(tracker))
    rng = state.pop("rng", None)
    if rng is not None:
        state["rng"] = rng.getstate()
    return state


def _event_capacity(cap):
    """Make every march the kernel resolves claim an event buffer of
    ``cap`` flip events (``None`` leaves the driver's size): a call
    then stops once the buffer might not hold the next step's flips,
    and the driver resumes in a fresh call (or, below one step's
    worth, replays the step per step)."""
    from repro import kernels
    from repro.kernels.march import MARCH_PARAMS

    resolve = kernels.get_march
    at = MARCH_PARAMS.index("ev_cap")

    def get_march():
        march = resolve()
        if cap is None or march is None:
            return march

        def shrunk(*args):
            args = list(args)
            args[at] = cap
            return march(*args)

        return shrunk

    return mock.patch.object(kernels, "get_march", get_march)


class TestCompiledMarchEquivalence:
    """compiled march == reference engine, bit for bit.

    These pins drive *cyclic* channel schedules (each rank replays a
    couple of shared intervals), which the kernel marches window by
    window as written; the C march must agree with the reference.
    """

    @pytest.mark.parametrize("provider", MARCH_PROVIDERS)
    @given(
        tracker=st.sampled_from(
            ["mint", "para", "graphene", "prac", "mithril", "protrr", "none"]
        ),
        seed=st.integers(0, 2**20),
        **_cycle_shapes(),
    )
    @SLOW_SETTINGS
    def test_channel_results_bit_identical_across_backends(
        self, provider, tracker, seed, **shape
    ):
        _assert_cycle_identity(
            provider,
            lambda: channel_tracker_factory(tracker, seed=seed),
            **shape,
        )

    @pytest.mark.parametrize("provider", MARCH_PROVIDERS)
    @given(spec=_TRIP_HEAVY, seed=st.integers(0, 2**20), **_LOWERABLE)
    @SLOW_SETTINGS
    def test_trip_heavy_counter_and_sampler_kinds(
        self, provider, spec, seed, **shape
    ):
        # Graphene thresholds of 1-4 activations, PRAC alerts every 1-8
        # (victim refreshes raise alerts of their own), PARA sampling
        # with p >= 1/4: trips and samples on most steps.
        tracker, params = spec
        _assert_cycle_identity(
            provider,
            lambda: channel_tracker_factory(tracker, seed=seed, **params),
            **shape,
        )

    @pytest.mark.parametrize("provider", MARCH_PROVIDERS)
    @given(
        entries=st.integers(1, 6),
        graphene_trh=st.integers(4, 12),
        **_LOWERABLE,
    )
    @SLOW_SETTINGS
    def test_graphene_table_overflowing_mid_run(
        self, provider, entries, graphene_trh, **shape
    ):
        # A table of a handful of entries: the march must hand every
        # step whose new rows could overflow it (the Misra-Gries
        # decrement) back to the per-step path.
        threshold = graphene_trh // 4

        def factory():
            return lambda rank, bank: GrapheneTracker(
                trh=graphene_trh, acts_per_refw=entries * threshold
            )

        _assert_cycle_identity(provider, factory, **shape)

    @pytest.mark.parametrize("provider", MARCH_PROVIDERS)
    @pytest.mark.parametrize("intervals", [3, 6, 9])
    def test_prac_alert_cascade(self, provider, intervals):
        # alert_threshold=1: every activation alerts, and so does every
        # victim refresh, so the queue doubles per REF until its rows
        # leave the plan's slots and the march hands back.
        _assert_cycle_identity(
            provider,
            lambda: channel_tracker_factory(
                "prac", seed=1, alert_threshold=1
            ),
            num_ranks=1,
            num_banks=2,
            trh=10**9,
            streamed=True,
            allow_postponement=False,
            pattern_specs=[([(0, 20), (1, 40), (0, 24)], False)],
            cycles=intervals,
        )

    @pytest.mark.parametrize("provider", MARCH_PROVIDERS)
    def test_multi_request_ref_bumps_flip_inside_the_march(self, provider):
        # Graphene at threshold 1 mitigates rows 10 and 14 five times
        # each per REF: row 12 (neither activated nor refreshed) gains
        # 2 per mitigation, 20 per step — far more than one request's
        # worth. Its crossing is a REF bump, and the march records it
        # without handing a step back to the per-step path.
        result = _assert_cycle_identity(
            provider,
            lambda: channel_tracker_factory("graphene", seed=1, trh=4),
            num_ranks=1,
            num_banks=1,
            trh=40,
            streamed=True,
            allow_postponement=False,
            pattern_specs=[([(0, 10), (0, 14)] * 5, False)],
            cycles=12,
        )
        assert 12 in [flip.row for flip in result.flips]
        stats = result.kernel_stats
        assert stats["compiled_steps"] == stats["steps"] == 12

    @pytest.mark.parametrize("provider", MARCH_PROVIDERS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sampler_stream_rewinds_after_a_mid_march_stop(
        self, provider, seed
    ):
        # PARA at p = 1/73 barely mitigates eight ACTs per tREFI, so the
        # victims climb 8 per step and flip a few steps in. An event
        # buffer of one step's worth (two victims, one mitigation's
        # four bumps) then stops the call right after the flips: PARA's
        # stream must settle at exactly the words the call drew for the
        # next call to continue it.
        with _event_capacity(6):
            result = _assert_cycle_identity(
                provider,
                lambda: channel_tracker_factory("para", seed=seed),
                num_ranks=1,
                num_banks=1,
                trh=40,
                streamed=True,
                allow_postponement=False,
                pattern_specs=[([(0, 10)] * 8, False)],
                cycles=12,
            )
        assert result.flips
        stats = result.kernel_stats
        assert stats["compiled_steps"] == stats["steps"]
        assert stats["compiled_calls"] >= 2


#: Even rows (no aggressor is another's victim, so every plan lowers)
#: plus a few outside the bank, one of them (64) with an in-range victim.
_CYCLE_ROWS = st.one_of(
    st.integers(0, NUM_ROWS // 2 - 1).map(lambda k: 2 * k),
    st.sampled_from([-4, -2, NUM_ROWS, NUM_ROWS + 2, 3 * NUM_ROWS]),
)

#: Registry trackers of every lowered kind, at their default parameters
#: or trip-heavy ones.
_LOWERED_SPECS = st.one_of(
    st.tuples(
        st.sampled_from(["mint", "para", "graphene", "prac", "none"]),
        st.just({}),
    ),
    _TRIP_HEAVY,
)


class TestPostponementCycleEquivalence:
    """The window march under refresh postponement == the reference.

    Each rank replays a period-1..8 pattern of intervals with random
    postpone flags, so steps execute 0 to ``max_postponed + 1`` REFs
    and ranks postpone on different steps; some activations fall
    outside the bank (trackers may select and mitigate them); the
    scheduler's state need not repeat with the pattern (the march runs
    the schedulers itself), ranks enter the cycle at different phases,
    the last cycle is partial, and a tiny call cap splits marches into
    calls that resume mid-window. Results and the full tracker state must
    match the scalar reference across the 1x1, 8x1 and 8x4 geometries.
    """

    @pytest.mark.parametrize("provider", MARCH_PROVIDERS)
    @given(
        spec=_LOWERED_SPECS,
        seed=st.integers(0, 2**20),
        geometry=st.sampled_from([(1, 1), (8, 1), (8, 4)]),
        trh=st.sampled_from([40, 10**9]),
        streamed=st.booleans(),
        pattern_specs=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(st.integers(0, 7), _CYCLE_ROWS),
                    min_size=0,
                    max_size=12,
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        ),
        shifts=st.lists(st.integers(0, 7), min_size=4, max_size=4),
        cycles=st.integers(2, 8),
        tail=st.integers(0, 7),
        chunk=st.sampled_from([5, None]),
    )
    @SLOW_SETTINGS
    def test_cycle_march_matches_the_reference(
        self, provider, spec, seed, geometry, **shape
    ):
        tracker, params = spec
        num_banks, num_ranks = geometry
        _assert_cycle_identity(
            provider,
            lambda: channel_tracker_factory(tracker, seed=seed, **params),
            num_ranks=num_ranks,
            num_banks=num_banks,
            allow_postponement=True,
            **shape,
        )

    @pytest.mark.parametrize("provider", MARCH_PROVIDERS)
    @pytest.mark.parametrize("tracker", ["mint", "para", "graphene", "prac"])
    def test_decoy_cycle_compiles_with_batched_refs(self, provider, tracker):
        # The decoy's super-window: one postponing decoy step, three
        # postponing hammer steps, then a five-REF batch: every step
        # marches.
        decoy = RankInterval.of([(0, 2 * k) for k in range(4, 12)], True)
        hammer = RankInterval.of([(0, 40)] * 8, True)
        last = RankInterval.of([(0, 40)] * 8, False)
        trace = ChannelTrace(name="decoy", per_rank={0: CycleStream(
            "r0", (decoy, hammer, hammer, hammer, last), 200)})
        config = EngineConfig(
            num_rows=NUM_ROWS, trh=10**9, allow_postponement=True,
            validate_budget=False, refi_per_refw=8,
        )

        def run(overrides, force):
            with forced_provider(force):
                simulator = ChannelSimulator(
                    channel_tracker_factory(tracker, seed=3),
                    replace(config, **overrides),
                )
                result = simulator.run(trace)
            return result, _tracker_state(simulator.trackers[0][0])

        reference, ref_state = run(dict(vectorized=False), provider)
        fast, fast_state = run({}, provider)
        assert asdict(fast) == asdict(reference)
        assert fast_state == ref_state
        stats = fast.kernel_stats
        assert stats["compiled_steps"] == stats["steps"] == 200


#: Every lowered kind, plus MINT at tiny M: its transitive slot (draw
#: 0, probability 1/(M+1)) then mitigates at distance 2 and beyond.
_THRESHOLD_SPECS = st.one_of(
    _LOWERED_SPECS,
    st.tuples(st.just("mint"), st.fixed_dictionaries(
        {"max_act": st.integers(1, 3)})),
)


class TestThresholdTerritoryMarch:
    """Flips recorded inside the compiled march == the reference's.

    Each draw first marches its schedule without a threshold to find
    the highest disturbance any cell reaches, then reruns it with
    ``trh`` a few units below that peak, so crossings land inside
    compiled steps: from activations and from REF bumps (MINT's
    transitive mitigations included), several in one unit in one step
    and in several units of one step. Every bank's flip stream (row,
    disturbance, time and order), its disturbance and peak vectors and
    every tracker's state must match the scalar reference's across the
    1x1, 8x1 and 8x4 geometries and ``run_many`` window groups; a tiny
    event buffer makes calls stop and resume mid-run.
    """

    @pytest.mark.parametrize("provider", MARCH_PROVIDERS)
    @given(
        spec=_THRESHOLD_SPECS,
        seed=st.integers(0, 2**20),
        geometry=st.sampled_from([(1, 1), (8, 1), (8, 4)]),
        below=st.integers(0, 4),
        streamed=st.booleans(),
        allow_postponement=st.booleans(),
        pattern_specs=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(st.integers(0, 7), _CYCLE_ROWS),
                    min_size=1,
                    max_size=16,
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        ),
        shifts=st.lists(st.integers(0, 7), min_size=4, max_size=4),
        cycles=st.integers(2, 8),
        tail=st.integers(0, 3),
        event_cap=st.sampled_from([None, 8]),
    )
    @SLOW_SETTINGS
    def test_flips_near_the_peak_match_the_reference(
        self, provider, spec, seed, geometry, below, allow_postponement,
        event_cap, **schedule
    ):
        tracker, params = spec
        num_banks, num_ranks = geometry

        def factory():
            return channel_tracker_factory(tracker, seed=seed, **params)

        peak = _marched_peak(
            factory, num_ranks, num_banks, allow_postponement, **schedule
        )
        with _event_capacity(event_cap):
            _assert_cycle_identity(
                provider,
                factory,
                num_ranks=num_ranks,
                num_banks=num_banks,
                trh=max(1, int(peak) - below),
                allow_postponement=allow_postponement,
                **schedule,
            )

    @pytest.mark.parametrize("provider", MARCH_PROVIDERS)
    @given(
        tracker=st.sampled_from(["mint", "para", "graphene", "prac", "none"]),
        attack=st.sampled_from(
            ["pattern2", "double-sided", "single-sided", "blacksmith"]
        ),
        seed=st.integers(0, 2**16),
        windows=st.integers(1, 6),
        below=st.integers(0, 4),
        chunk=st.sampled_from([5, None]),
    )
    @SLOW_SETTINGS
    def test_run_many_groups_match_the_reference(
        self, provider, tracker, attack, seed, windows, below, chunk
    ):
        # Scaled Monte-Carlo windows (M=8, 64 tREFI per window), marched
        # as the ranks of one packed group. Blacksmith draws each
        # window's pattern from the window RNG, so its groups mix
        # intervals the windows share with ones they do not; a small
        # chunk splits the group's march, and every window's streams,
        # over many calls.
        from repro.scenario import Scenario

        scenario = Scenario(
            tracker=tracker, attack=attack, trh=10**9, max_act=8,
            intervals=64, refi_per_refw=64, num_rows=256, base_row=100,
            scaled_timing=True, seed=seed,
        )
        _, marched = _window_groups(scenario, windows, provider)
        peak = max(max(bank[2]) for group in marched for _, bank in group)
        scenario = replace(scenario, trh=max(1.0, peak - below))
        outputs = [
            _window_groups(
                replace(scenario, vectorized=vectorized), windows, provider,
                chunk,
            )
            for vectorized in (False, None)
        ]
        (reference, ref_groups), (fast, fast_groups) = outputs
        assert fast.to_payload() == reference.to_payload()
        assert fast_groups == ref_groups
        assert fast.kernel_stats["compiled_steps"] > 0


def _window_groups(scenario, windows, provider, chunk=None):
    """``run_many(windows)`` of ``scenario`` with the compiled march on
    every replay run (at most ``chunk`` steps per call, see
    :func:`_chunked_calls`), plus each window group's per-unit tracker
    and bank state (see :func:`_bank_state`) as the group left them."""
    from repro.scenario import Session
    from repro.sim import engine

    march = engine._validate_and_march
    groups = []

    def capture(ranks, storage, streams, **kwargs):
        stats = march(ranks, storage, streams, **kwargs)
        groups.append([
            (_tracker_state(sim.trackers[bank]), _bank_state(model))
            for sim in ranks
            for bank, model in enumerate(sim.device.banks)
        ])
        return stats

    with forced_provider(provider), mock.patch.object(
        engine, "_validate_and_march", capture
    ), _chunked_calls(chunk):
        result = Session(scenario).run_many(windows)
    return result, groups
