"""Reference vs fast engine at the entry points users call.

The fast engine (the packed kernel) runs every geometry: a rank-scoped
``Session.run`` — the paper's row-only single-bank attacks included —
and every ``run_many`` Monte-Carlo window march through it as a 1-rank
unit set, report which path ran via ``kernel_stats``, and reproduce
the scalar reference (``vectorized=False``) byte for byte. A finished
simulator holds no reference cycle, so its packed arrays are freed as
soon as it is dropped, without the cyclic collector.
"""

import gc
import json
import weakref
from dataclasses import replace

import pytest

from repro.scenario import AttackSpec, Scenario, Session
from repro.sim.engine import ChannelSimulator

#: Rank-scoped scenarios: the classic row-only attacks on one bank,
#: the decoy under postponement, and a striped multi-bank rank.
RANK_SCENARIOS = [
    Scenario(tracker="mint", attack="double-sided", intervals=300),
    Scenario(tracker="para", attack="pattern2", intervals=300),
    Scenario(tracker="graphene", attack="single-sided", intervals=300,
             trh=500.0),
    Scenario(tracker="prac", attack=AttackSpec.of("decoy", target=60_000),
             intervals=300, allow_postponement=True),
    Scenario(tracker="mint", attack=AttackSpec.of("rank-stripe", sides=12),
             intervals=200, num_banks=4),
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
    assert fast.kernel_stats["steps"] == 12 * scenario.intervals
    assert reference.kernel_stats is None
    assert fast.failures > 0  # the window is scaled to flip
    assert _canonical(fast.to_payload()) == _canonical(reference.to_payload())


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
