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

from repro.dram.rowstate import PackedRows
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


def test_run_many_reports_a_single_runs_telemetry_keys(monkeypatch):
    """``run_many``'s ``kernel_stats`` carries every key a single run
    reports, ``scan_rows`` included and summed across groups. Windows
    read only flip flags and mitigation counts, so on their own they
    scan no disturbance envelope; the spy gives each group a nonzero
    count to pin the sum."""
    windows = 2 * _group_size(MC_SCENARIO) + 1
    plain = Session(MC_SCENARIO).run_many(windows)
    assert set(plain.kernel_stats) == set(
        Session(MC_SCENARIO).run().kernel_stats
    )
    assert plain.kernel_stats["scan_rows"] == 0
    real = engine._with_scan_rows
    seen = []

    def spy(stats, ranks):
        stats = real(stats, ranks)
        stats["scan_rows"] += len(ranks)
        seen.append(stats["scan_rows"])
        return stats

    monkeypatch.setattr(engine, "_with_scan_rows", spy)
    spied = Session(MC_SCENARIO).run_many(windows)
    assert len(seen) == 3
    assert spied.kernel_stats["scan_rows"] == sum(seen) == windows


def test_run_many_keeps_production_sized_windows_within_the_cell_budget(
    monkeypatch,
):
    """A 128K-row window alone fills the budget, so every march packs
    one window: no packed family beyond the budget is ever built."""
    built = []
    real = PackedRows.zeros

    def spy(cls, units, num_rows):
        built.append(units * num_rows)
        return real(units, num_rows)

    monkeypatch.setattr(PackedRows, "zeros", classmethod(spy))
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


# ---------------------------------------------------------------------
# Window groups share their set-up
# ---------------------------------------------------------------------

def _group_streams(monkeypatch, scenario, windows):
    """The per-rank streams each window group of ``run_many`` marched."""
    groups = []
    march = engine._validate_and_march

    def capture(ranks, storage, streams, **kwargs):
        groups.append(dict(streams))
        return march(ranks, storage, streams, **kwargs)

    monkeypatch.setattr(engine, "_validate_and_march", capture)
    Session(scenario).run_many(windows)
    return groups


@pytest.mark.parametrize("tracker", ["mint", "para"])
@pytest.mark.parametrize("attack", ["pattern2", "double-sided", "blacksmith"])
def test_window_group_lifts_one_object_per_distinct_interval(
    monkeypatch, tracker, attack
):
    """Every window rebuilds its trace from fresh objects; the group
    interns them, so distinct interval objects == distinct contents
    across the whole group, and a uniform group (an attack that ignores
    the window RNG) marches one shared stream."""
    scenario = replace(MC_SCENARIO, tracker=tracker, attack=attack)
    groups = _group_streams(monkeypatch, scenario, 8)
    assert len(groups) == 1
    streams = list(groups[0].values())
    assert len(streams) == 8
    intervals = [iv for stream in streams for iv in stream.trace.intervals]
    objects = {id(iv) for iv in intervals}
    assert len(objects) == len({(iv.acts, iv.postpone) for iv in intervals})
    traces = {tuple(map(id, stream.trace.intervals)) for stream in streams}
    assert len({id(stream) for stream in streams}) == len(traces)
    if attack == "blacksmith":
        assert len(traces) == 8  # every window draws its own pattern
    else:
        assert len(traces) == 1


def _budget_windows(config, traces):
    """``_run_windows`` over hand-built window traces (trackers as in
    ``MC_SCENARIO``), and a lone run of each window's trace."""

    def factory(rank, bank):
        return MC_SCENARIO.build_tracker(bank, rank=rank)

    def build_window(index):
        return (
            [[factory(rank, bank) for bank in range(config.num_banks)]
             for rank in range(config.num_ranks)],
            traces[index],
        )

    def grouped():
        montecarlo._run_windows(config, build_window, len(traces), 1)

    def alone(index):
        ChannelSimulator(factory, config).run(traces[index])

    return grouped, alone


def _error(run, *args) -> str:
    with pytest.raises(ValueError) as raised:
        run(*args)
    return str(raised.value)


@pytest.mark.parametrize("vectorized", [False, None], ids=["reference", "fast"])
def test_over_budget_interval_first_seen_in_a_later_window(vectorized):
    """A group checks each shared interval once, yet an offending
    interval first used by window 1 raises exactly the message a lone
    run of window 1 gives — its own first offending index — even when
    window 2 holds an equal interval earlier in its trace."""
    from repro.sim.trace import Interval, Trace

    config = replace(MC_SCENARIO.engine_config(), vectorized=vectorized)
    budget = config.timing.max_act

    def interval(acts):
        return Interval.of(range(100, 100 + 2 * acts, 2))

    fits = interval(budget)
    traces = [
        Trace("w", [fits] * 8),
        Trace("w", [interval(budget)] * 3 + [interval(budget + 1)] * 5),
        Trace("w", [interval(budget + 1)] + [fits] * 7),
    ]
    grouped, alone = _budget_windows(config, traces)
    message = _error(alone, 1)
    assert message.startswith("interval 3 has")
    assert _error(grouped) == message


@pytest.mark.parametrize("vectorized", [False, None], ids=["reference", "fast"])
def test_over_budget_stream_names_its_rank_within_the_window(vectorized):
    """A declared over-budget stream on rank 1 of window 1 names rank 1,
    as a lone channel run of window 1 does, not its unit-set rank 3."""
    from repro.sim.trace import ChannelTrace, CycleStream, RankInterval

    config = replace(
        MC_SCENARIO.engine_config(), num_ranks=2, vectorized=vectorized
    )
    budget = config.timing.max_act

    def window(acts):
        rows = [(0, row) for row in range(100, 100 + 2 * acts, 2)]
        return ChannelTrace("w", {
            0: CycleStream("r0", [RankInterval.of(rows[:budget])], 8),
            1: CycleStream("r1", [RankInterval.of(rows)], 8),
        })

    traces = [window(budget), window(budget + 1)]
    grouped, alone = _budget_windows(config, traces)
    message = _error(alone, 1)
    assert message.startswith("rank 1 stream 'r1' declares")
    assert _error(grouped) == message
