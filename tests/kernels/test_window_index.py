"""The fast engine's window index, pinned against the reference.

The kernel marches each window of up to ``_max_compiled_chunk`` shared
tREFIs by one per-step plan index coded from interval identity
(``_FusedChannelKernel._index``): a window ends at the cap or where a
rank's schedule ends, each rank's intervals are coded per distinct
object, and the ranks' codes combine into channel steps. The property
draws the schedules that stress that coding — a few interval objects
shared across ranks, runs down to 1-step alternation, unequal horizons
on either side of the cap, lazy streams in odd chunk sizes — and the
pins fix the windows the paper's decoy and a two-horizon channel march
in.
"""

import json
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro import kernels
from repro.scenario import AttackSpec, Scenario, Session
from repro.sim.engine import ChannelSimulator, EngineConfig
from repro.sim.kernel import _FusedChannelKernel
from repro.sim.trace import (
    ChannelTrace,
    GeneratorStream,
    RankInterval,
    RankTrace,
)
from repro.trackers.registry import channel_tracker_factory

from tests.property.settings import DETERMINISM_SETTINGS

CAP = _FusedChannelKernel._max_compiled_chunk

#: The interval objects every drawn schedule shares: double-sided
#: pairs on either bank of a 2-bank rank, the last two asking to
#: postpone their REF.
OBJECTS = tuple(
    RankInterval.of(
        [(k % 2, 8 + 4 * k), (k % 2, 10 + 4 * k), (1 - k % 2, 40)],
        postpone=k >= 2,
    )
    for k in range(4)
)

#: One rank's schedule: ``(object, run length)`` pairs cycled out to a
#: horizon, played as a materialized trace (chunk ``None``) or as a
#: lazy stream in chunks of the drawn size.
rank_schedules = st.tuples(
    st.lists(
        st.tuples(st.integers(0, len(OBJECTS) - 1), st.integers(1, 5)),
        min_size=1,
        max_size=6,
    ),
    st.integers(1, CAP + 300),
    st.one_of(st.none(), st.integers(1, CAP + 300)),
)


def _stream(rank, runs, horizon, chunk):
    pattern = [OBJECTS[k] for k, length in runs for _ in range(length)]
    intervals = (pattern * (horizon // len(pattern) + 1))[:horizon]
    if chunk is None:
        return RankTrace(f"r{rank}", intervals)
    return GeneratorStream(
        f"r{rank}", lambda: iter(intervals), horizon=horizon,
        chunk_intervals=chunk,
    )


def _run(tracker, schedules, trh, vectorized=None):
    config = EngineConfig(
        num_banks=2,
        num_ranks=len(schedules),
        num_rows=64,
        trh=trh,
        refi_per_refw=8,
        allow_postponement=True,
        vectorized=vectorized,
    )
    simulator = ChannelSimulator(channel_tracker_factory(tracker, seed=5), config)
    return simulator.run(
        ChannelTrace(
            "window-index",
            {rank: _stream(rank, *s) for rank, s in enumerate(schedules)},
        )
    )


@given(
    tracker=st.sampled_from(["mint", "para", "graphene", "prac"]),
    schedules=st.lists(rank_schedules, min_size=1, max_size=3),
    trh=st.sampled_from([12.0, 24.0, 1e9]),
)
@DETERMINISM_SETTINGS
def test_the_window_index_matches_the_reference(tracker, schedules, trh):
    fast = _run(tracker, schedules, trh)
    reference = _run(tracker, schedules, trh, vectorized=False)
    assert json.dumps(asdict(fast), sort_keys=True) == json.dumps(
        asdict(reference), sort_keys=True
    )
    stats = fast.kernel_stats
    assert stats["steps"] == max(horizon for _, horizon, _ in schedules)
    assert (
        stats["plan_cache_hits"] + stats["plan_cache_misses"]
        == stats["steps"]
    )


@pytest.mark.skipif(not kernels.available(), reason="no provider")
class TestWindowShapes:
    @pytest.mark.parametrize(
        "tracker", ["mint", "para", "graphene", "prac", "none"]
    )
    def test_the_decoy_marches_in_one_call(self, tracker):
        # paperbench's attack_1bank decoy class: one decoy tREFI, then
        # four hammer tREFIs that postpone their REFs, over 1000
        # tREFIs — 600 runs of three distinct channel steps, one window.
        scenario = Scenario(
            tracker=tracker,
            attack=AttackSpec.of("decoy", target=60_000),
            allow_postponement=True,
            trh=4800.0,
            intervals=1000,
            max_act=73,
            num_rows=128 * 1024,
        )
        stats = Session(scenario).run().kernel_stats
        assert stats["compiled_calls"] == 1
        assert stats["compiled_steps"] == stats["steps"] == 1000
        assert stats["plan_cache_misses"] == 3
        assert stats["plan_cache_hits"] == 997

    def test_unequal_horizons_split_the_window_at_the_first_end(self):
        windows = []
        march = _FusedChannelKernel._compiled_march

        def spy(self, plans, pos_plan):
            windows.append(pos_plan.size)
            return march(self, plans, pos_plan)

        schedules = [([(0, 1), (1, 3)], 300, None), ([(2, 2)], 1000, None)]
        with mock.patch.object(_FusedChannelKernel, "_compiled_march", spy):
            result = _run("mint", schedules, 1e9)
        assert windows == [300, 700]
        stats = result.kernel_stats
        assert stats["compiled_calls"] == 2
        assert stats["compiled_steps"] == stats["steps"] == 1000
        reference = _run("mint", schedules, 1e9, vectorized=False)
        assert asdict(result) == asdict(reference)
