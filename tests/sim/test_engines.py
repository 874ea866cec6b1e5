"""Reference vs fast engine at the entry points users call.

The fast engine (the packed kernel) runs every geometry: a rank-scoped
``Session.run`` — the paper's row-only single-bank attacks included —
marches through it as a 1-rank unit set, and ``run_many`` marches each
group of Monte-Carlo windows as the ranks of one packed family. Both
report which path ran via ``kernel_stats`` and reproduce the scalar
reference (``vectorized=False``) byte for byte, for any window count,
group split or worker count. A finished simulator holds no reference
cycle, so its packed arrays are freed as soon as it is dropped,
without the cyclic collector.
"""

import gc
import json
import weakref
from dataclasses import replace

import pytest

from repro.scenario import AttackSpec, Scenario, Session
from repro.sim import engine, montecarlo
from repro.sim.engine import ChannelSimulator

#: Rank-scoped scenarios: the classic row-only attacks on one bank,
#: the decoy under postponement, and full-rate striped ranks of 1, 4
#: and 8 banks (three aggressors per bank) under the trackers that
#: hold per-bank state.
RANK_SCENARIOS = [
    Scenario(tracker="mint", attack="double-sided", intervals=300),
    Scenario(tracker="para", attack="pattern2", intervals=300),
    Scenario(tracker="graphene", attack="single-sided", intervals=300,
             trh=500.0),
    Scenario(tracker="prac", attack=AttackSpec.of("decoy", target=60_000),
             intervals=300, allow_postponement=True),
] + [
    Scenario(tracker=tracker,
             attack=AttackSpec.of("rank-stripe", sides=3 * banks),
             intervals=200, num_banks=banks)
    for tracker in ("mint", "graphene", "para", "mithril")
    for banks in (1, 4, 8)
]

#: A scaled Monte-Carlo window that flips often (M=8, TRH 40).
MC_SCENARIO = Scenario(
    tracker="mint", attack="pattern2", trh=40.0, max_act=8, intervals=64,
    refi_per_refw=64, num_rows=1024, base_row=100, scaled_timing=True,
)


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("scenario", RANK_SCENARIOS, ids=lambda s: s.label)
def test_rank_session_runs_on_the_kernel_and_matches_the_reference(scenario):
    fast = Session(scenario).run()
    reference = Session(replace(scenario, vectorized=False)).run()
    assert fast.kernel_stats is not None
    assert fast.kernel_stats["steps"] == scenario.intervals
    assert reference.kernel_stats is None
    assert _canonical(fast.to_payload()) == _canonical(reference.to_payload())


@pytest.mark.parametrize("tracker", ["mint", "para"])
def test_run_many_windows_run_on_the_kernel_and_match_the_reference(tracker):
    scenario = replace(MC_SCENARIO, tracker=tracker)
    fast = Session(scenario).run_many(12)
    reference = Session(replace(scenario, vectorized=False)).run_many(12)
    assert fast.kernel_stats is not None
    # All 12 windows march as one group under one shared tREFI clock.
    assert fast.kernel_stats["steps"] == scenario.intervals
    assert reference.kernel_stats is None
    assert fast.failures > 0  # the window is scaled to flip
    assert _canonical(fast.to_payload()) == _canonical(reference.to_payload())


#: Monte-Carlo scenarios of every geometry a window group packs — a
#: 1-bank rank, an 8-bank rank and a 2-rank channel (2 banks per rank)
#: — under the compiled-tier tracker (mint) and a sampling one (para).
MC_GEOMETRIES = [
    replace(MC_SCENARIO, tracker=tracker, **geometry)
    for geometry in (
        {},
        {"num_banks": 8, "attack": AttackSpec.of("rank-stripe", sides=6)},
        {"num_banks": 2, "num_ranks": 2,
         "attack": AttackSpec.of("rank-synchronized", sides=4)},
    )
    for tracker in ("mint", "para")
]


def _group_size(scenario) -> int:
    """Windows per packed march (the cell budget over one window)."""
    cells = scenario.num_ranks * scenario.num_banks * scenario.num_rows
    return montecarlo._GROUP_CELLS // cells


@pytest.mark.parametrize("offset", [None, -1, 1], ids=["1", "group-1", "group+1"])
@pytest.mark.parametrize("scenario", MC_GEOMETRIES, ids=lambda s: s.label)
def test_run_many_window_groups_match_the_reference(scenario, offset):
    group = _group_size(scenario)
    assert group > 1
    windows = 1 if offset is None else group + offset
    fast = Session(scenario).run_many(windows)
    reference = Session(replace(scenario, vectorized=False)).run_many(windows)
    groups = -(-windows // group)
    assert fast.kernel_stats["steps"] == groups * scenario.intervals
    assert fast.kernel_stats["plan_cache_misses"] >= groups
    assert fast.windows == windows
    assert _canonical(fast.to_payload()) == _canonical(reference.to_payload())


@pytest.mark.parametrize("scenario", MC_GEOMETRIES, ids=lambda s: s.label)
def test_run_many_worker_count_does_not_change_a_byte(scenario):
    windows = 9
    serial = Session(scenario).run_many(windows, n_workers=1)
    pooled = Session(scenario).run_many(windows, n_workers=2)
    reference = Session(replace(scenario, vectorized=False)).run_many(
        windows, n_workers=2
    )
    assert _canonical(serial.to_payload()) == _canonical(pooled.to_payload())
    assert _canonical(serial.to_payload()) == _canonical(
        reference.to_payload()
    )


def test_run_many_group_mixes_flipping_and_surviving_windows():
    """Windows sharing one march keep their own outcomes: some flip,
    some survive, and the counts equal the reference's."""
    windows = 40
    fast = Session(MC_SCENARIO).run_many(windows)
    reference = Session(replace(MC_SCENARIO, vectorized=False)).run_many(
        windows
    )
    assert fast.kernel_stats["steps"] == MC_SCENARIO.intervals  # one group
    assert 0 < fast.failures < windows
    assert _canonical(fast.to_payload()) == _canonical(reference.to_payload())


def test_run_many_keeps_production_sized_windows_within_the_cell_budget(
    monkeypatch,
):
    """A 128K-row window alone fills the budget, so every march packs
    one window: no packed family beyond the budget is ever built."""
    built = []
    real = engine._packed_family

    def spy(units, num_rows):
        built.append(units * num_rows)
        return real(units, num_rows)

    monkeypatch.setattr(engine, "_packed_family", spy)
    scenario = Scenario(tracker="mint", attack="double-sided", intervals=20)
    assert scenario.num_rows == 128 * 1024
    result = Session(scenario).run_many(64)
    assert result.windows == 64
    assert len(built) == 64
    assert max(built) <= montecarlo._GROUP_CELLS


@pytest.mark.parametrize("num_ranks", [1, 2])
def test_finished_simulator_frees_its_packed_arrays_without_gc(num_ranks):
    scenario = Scenario(
        tracker="mint", attack="double-sided", intervals=50,
        num_rows=4096, num_ranks=num_ranks,
    )
    gc.collect()
    gc.disable()
    try:
        session = Session(scenario)
        session.run()
        simulator = session.last_simulator
        if isinstance(simulator, ChannelSimulator):
            simulator = simulator.ranks[0]
        packed = simulator.device.banks[0]._dist.base
        assert packed is not None  # a row view of the packed family
        freed = weakref.ref(packed)
        del packed, simulator, session
        assert freed() is None
    finally:
        gc.enable()
