"""The disturbance envelope: every disturbed row lies inside it.

Each bank of the fast engine keeps a ``[lo, hi)`` envelope next to its
packed disturbance row (``PackedRows.env``), and the disturbance
queries — ``collect`` included — scan only that window. The scan is
exact only while every row ever written nonzero lies inside, so these
tests drive every writer — the plan-build scatter, the fused REF
rounds, the compiled march's mitigations (MINT's transitive distances
included), the per-bank model methods — and check the invariant and
the queries against a full scan afterwards, with and without the C
march (``none`` is the pure-NumPy per-step tier).
"""

import mmap

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.dram.device import DeviceConfig, DramDevice
from repro.dram.rowstate import DenseRowDisturbanceModel, PackedRows
from repro.kernels import forced_provider
from repro.scenario import AttackSpec, Scenario, Session
from repro.sim.engine import (
    ChannelSimulator,
    EngineConfig,
    RankSimulator,
)
from repro.sim.trace import ChannelTrace, CycleStream, RankInterval, RankTrace
from repro.trackers.registry import bank_tracker_factory, channel_tracker_factory

from tests.property.settings import SLOW_SETTINGS, STANDARD_SETTINGS
from tests.providers import MARCH_PROVIDERS

NUM_ROWS = 64

#: The C march and ``none``, which runs no compiled march.
PROVIDERS = ["none", *MARCH_PROVIDERS]

#: Rows in and around the bank: edges, neighbours of each other (exact
#: replays), and out-of-range rows (legal no-ops, some with in-range
#: victims).
_ROWS = st.one_of(
    st.integers(0, NUM_ROWS - 1),
    st.sampled_from([-5, -2, -1, NUM_ROWS, NUM_ROWS + 1, 3 * NUM_ROWS]),
)

#: Every tracker kind the march lowers, plus the trip-heavy and
#: transitive shapes: MINT at tiny M draws its transitive slot often.
_TRACKERS = st.sampled_from([
    ("mint", {}),
    ("mint", {"max_act": 1}),
    ("mint", {"max_act": 2}),
    ("para", {}),
    ("para", {"max_act": 2}),
    ("graphene", {}),
    ("graphene", {"trh": 8}),
    ("prac", {}),
    ("prac", {"alert_threshold": 2}),
    ("none", {}),
])


def envelope(model):
    lo, hi = model._env.tolist()
    return lo, hi


def assert_enveloped(model):
    """``model``'s disturbed rows lie in its envelope, and every query
    answers what a full scan of the row space would."""
    dist = model._dist
    rows = np.flatnonzero(dist)
    lo, hi = envelope(model)
    if rows.size:
        assert lo <= int(rows[0]) and int(rows[-1]) < hi, (rows, lo, hi)
    best = float(dist.max())
    full = (best, int(dist.argmax()) if best > 0.0 else None)
    assert model.disturbance_summary() == full
    assert model.max_disturbance() == full[0]
    assert model.most_disturbed_row() == full[1]
    assert model.disturbed_rows() == rows.tolist()


def _models(simulator):
    ranks = getattr(simulator, "ranks", [simulator])
    return [model for rank in ranks for model in rank.device.banks]


def _cycle_trace(num_ranks, num_banks, pattern, count):
    intervals = tuple(
        RankInterval(
            tuple((bank % num_banks, row) for bank, row in acts), postpone
        )
        for acts, postpone in pattern
    )
    return ChannelTrace(
        name="envelope",
        per_rank={
            rank: CycleStream(f"r{rank}", intervals, count)
            for rank in range(num_ranks)
        },
    )


def _run_cycle(provider, tracker, params, seed, num_ranks, num_banks,
               pattern, count, trh, allow_postponement):
    config = EngineConfig(
        num_banks=num_banks,
        num_ranks=num_ranks,
        trh=trh,
        num_rows=NUM_ROWS,
        allow_postponement=allow_postponement,
        validate_budget=False,
        # One row per REF: disturbance outlives many mitigations.
        refi_per_refw=NUM_ROWS,
    )
    with forced_provider(provider):
        simulator = ChannelSimulator(
            channel_tracker_factory(tracker, seed=seed, **params), config
        )
        result = simulator.run(
            _cycle_trace(num_ranks, num_banks, pattern, count)
        )
    return simulator, result


@pytest.mark.parametrize("provider", PROVIDERS)
@given(
    spec=_TRACKERS,
    seed=st.integers(0, 2**16),
    geometry=st.sampled_from([(1, 1), (4, 2)]),
    pattern=st.lists(
        st.tuples(
            st.lists(
                st.tuples(st.integers(0, 7), _ROWS), min_size=0, max_size=12
            ),
            st.booleans(),
        ),
        min_size=1,
        max_size=5,
    ),
    count=st.integers(1, 60),
    trh=st.sampled_from([6, 10**9]),
    allow_postponement=st.booleans(),
)
@SLOW_SETTINGS
def test_every_disturbed_row_lies_in_the_envelope(
    provider, spec, seed, geometry, **schedule
):
    tracker, params = spec
    num_banks, num_ranks = geometry
    simulator, _ = _run_cycle(
        provider, tracker, params, seed, num_ranks, num_banks, **schedule
    )
    for model in _models(simulator):
        assert_enveloped(model)


@pytest.mark.parametrize("provider", PROVIDERS)
def test_mint_transitive_mitigations_stay_enveloped(provider):
    # M=1: the transitive slot (draw 0) comes up half the time, so the
    # SAR is mitigated at distance 2 and beyond.
    pattern = [([(0, 30)], False), ([(0, 34)], True)]
    simulator, result = _run_cycle(
        provider, "mint", {"max_act": 1}, 5, 1, 1, pattern, 200,
        10**9, True,
    )
    assert result.per_rank[0].per_bank[0].transitive_mitigations > 0
    assert_enveloped(_models(simulator)[0])


@pytest.mark.parametrize("provider", PROVIDERS)
def test_shared_ref_rounds_stay_enveloped(provider):
    # Every bank of two ranks selects one row per REF: on the per-step
    # tier each round lands all eight distance-1 mitigations, one per
    # bank, whose bumps at the aggressor ± 2 leave the activated rows'
    # ± 1.
    pattern = [([(bank, 20) for bank in range(4)] * 3, False)]
    simulator, _ = _run_cycle(
        provider, "mint", {}, 1, 2, 4, pattern, 40, 10**9, False,
    )
    for model in _models(simulator):
        assert_enveloped(model)


@pytest.mark.parametrize("provider", PROVIDERS)
def test_prac_cascades_and_edge_rows_stay_enveloped(provider):
    # Alert threshold 2 with REF batches: victim refreshes alert in
    # turn and the cascade walks away from the hammered rows; the
    # out-of-range rows -1 and NUM_ROWS have in-range victims.
    pattern = [
        ([(0, 20)] * 6 + [(0, -1)] * 2, True),
        ([(0, 40)] * 6 + [(0, NUM_ROWS)] * 2, True),
        ([(0, 20), (0, 40)], False),
    ]
    simulator, _ = _run_cycle(
        provider, "prac", {"alert_threshold": 2}, 1, 1, 1, pattern, 120,
        10**9, True,
    )
    assert_enveloped(_models(simulator)[0])


def test_a_rank_fed_after_its_run_keeps_one_envelope():
    """The envelope lives with the storage: the per-bank model methods
    that ``feed`` drives after a kernel ``run`` widen the same pair."""
    config = EngineConfig(num_rows=NUM_ROWS, num_banks=2, refi_per_refw=8)
    simulator = RankSimulator(bank_tracker_factory("mint", seed=3), config)
    hammer = RankInterval.of([(0, 10), (1, 50)] * 10)
    simulator.run(RankTrace(name="first", intervals=[hammer] * 40))
    before = [envelope(model) for model in simulator.device.banks]
    far = RankInterval.of([(0, 60), (1, 2), (0, 61)] * 5)
    simulator.feed([far] * 20)
    for model, (lo, hi) in zip(simulator.device.banks, before):
        new_lo, new_hi = envelope(model)
        assert new_lo <= lo and new_hi >= hi
        assert_enveloped(model)


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("activate_many"),
                      st.lists(_ROWS, min_size=1, max_size=8)),
            st.tuples(st.just("mitigate"), _ROWS, st.integers(1, 3)),
            st.tuples(st.just("victim_refresh"), _ROWS),
            st.tuples(st.just("auto_refresh"), st.just(0)),
        ),
        max_size=40,
    ),
    trh=st.sampled_from([3, 10**9]),
)
@STANDARD_SETTINGS
def test_a_standalone_model_keeps_its_envelope(ops, trh):
    device = DramDevice(
        DeviceConfig(rows_per_bank=NUM_ROWS, trh=trh, refi_per_refw=8),
        storage=PackedRows.zeros(1, NUM_ROWS),
    )
    model = device.banks[0]
    assert isinstance(model, DenseRowDisturbanceModel)
    assert envelope(model)[0] >= envelope(model)[1]
    assert model.disturbance_summary() == (0.0, None)
    for op, *args in ops:
        if op == "activate_many":
            device.activate_many(0, args[0])
        elif op == "mitigate":
            device.mitigate(0, args[0], args[1])
        elif op == "victim_refresh":
            device.victim_refresh(0, args[0])
        else:
            device.auto_refresh(0)
        assert_enveloped(model)


@pytest.mark.parametrize(
    "packed, blast_radius, reason",
    [(False, 1, "a view on packed rows"), (True, 2, "blast radius 1 only")],
    ids=["no-storage", "radius-2"],
)
def test_the_dense_model_refuses_what_it_does_not_model(
    packed, blast_radius, reason
):
    """The dense model exists only as a bank's view of packed rows at
    blast radius 1; anything else fails loudly and names the sparse
    model instead of silently building another oracle."""
    storage = PackedRows.zeros(1, NUM_ROWS).unit(0) if packed else None
    with pytest.raises(ValueError, match=reason) as info:
        DenseRowDisturbanceModel(NUM_ROWS, 10, blast_radius, storage=storage)
    assert "sparse RowDisturbanceModel" in str(info.value)


# ---------------------------------------------------------------------
# What the envelope saves on the paper's channel geometry
# ---------------------------------------------------------------------

_MULTIBANK = dict(
    tracker="mint", trh=4800.0, intervals=200, max_act=73,
    num_rows=128 * 1024, num_banks=8, num_ranks=4, allow_postponement=True,
)


@pytest.mark.parametrize("attack", [
    AttackSpec.of("rank-synchronized", sides=12),
    AttackSpec.of("channel-stripe-decoy", target=60_000),
], ids=lambda spec: spec.name)
def test_collect_scans_a_sliver_of_the_channel(attack):
    scenario = Scenario(attack=attack, **_MULTIBANK)
    result = Session(scenario).run()
    stats = result.kernel_stats
    cells = scenario.num_ranks * scenario.num_banks * scenario.num_rows
    assert 0 < stats["scan_rows"] <= cells // 100
    # Telemetry only: the payload does not carry it.
    assert "scan_rows" not in str(result.to_payload())


def test_large_families_map_small_pages_and_small_ones_stay_plain():
    large = PackedRows.zeros(8, 128 * 1024)  # 8 MiB float64 arrays
    small = PackedRows.zeros(8, 1024)
    mapped = hasattr(mmap, "MADV_NOHUGEPAGE")
    for family, owned in ((large, not mapped), (small, True)):
        for array in family[:5]:
            assert array.flags.writeable and array.flags.c_contiguous
            assert array.flags.owndata is owned
            assert not array.any()
        assert family.env.tolist() == [[family.dist.shape[1], 0]] * 8
    if mapped:
        # Each array of the mapped family starts on a page of its own.
        addresses = [array.ctypes.data for array in large[:5]]
        assert all(address % mmap.PAGESIZE == 0 for address in addresses)
