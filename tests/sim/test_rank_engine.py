"""Rank-level engine tests: the equivalence pins.

The load-bearing guarantee of the rank engine:

* **Rank equivalence** — one ``RankSimulator`` run over a
  bank-partitioned trace is bit-identical, bank for bank, to N
  independent 1-bank ``RankSimulator`` runs (banks share only the
  refresh *schedule*, never disturbance or tracker state).
* **Row-only input** — a row-only ``Trace`` runs on bank 0 exactly as
  its lifted bank-addressed twin does.
"""

import pytest
from hypothesis import given, strategies as st

from repro.attacks import AttackParams, cross_bank_decoy, double_sided
from repro.sim.engine import EngineConfig, RankSimulator
from repro.sim.trace import (
    RankInterval,
    RankTrace,
    Trace,
    lift_trace,
    repeat_interval,
)
from repro.trackers.base import NullTracker
from repro.trackers.registry import bank_tracker_factory, make_tracker
from tests.conftest import run_bank
from tests.property.settings import SLOW_SETTINGS

CONFIG_KWARGS = dict(trh=150.0, num_rows=2048, refi_per_refw=64)


def mint_factory(base_seed=7, **kwargs):
    return bank_tracker_factory("mint", base_seed=base_seed, **kwargs)


def partitioned_traces(bank_rows, intervals):
    """One full-budget row trace per bank from a row-seed list."""
    traces = []
    for rows in bank_rows:
        acts = [rows[i % len(rows)] for i in range(8)]
        traces.append(Trace("equiv", repeat_interval(acts, intervals)))
    return traces


@st.composite
def bank_partitions(draw):
    num_banks = draw(st.integers(min_value=1, max_value=3))
    intervals = draw(st.integers(min_value=1, max_value=24))
    bank_rows = [
        draw(
            st.lists(
                st.integers(min_value=2, max_value=2000),
                min_size=1,
                max_size=4,
            )
        )
        for _ in range(num_banks)
    ]
    return num_banks, intervals, bank_rows


class TestRankEquivalence:
    @given(bank_partitions())
    @SLOW_SETTINGS
    def test_rank_run_equals_independent_bank_runs(self, partition):
        """N independent 1-bank runs == one N-bank rank run, bitwise."""
        num_banks, intervals, bank_rows = partition
        traces = partitioned_traces(bank_rows, intervals)
        factory = mint_factory(base_seed=13, max_act=8)

        expected = [
            run_bank(factory(bank), trace, EngineConfig(**CONFIG_KWARGS))
            for bank, trace in enumerate(traces)
        ]

        rank = RankSimulator(
            mint_factory(base_seed=13, max_act=8),
            EngineConfig(num_banks=num_banks, **CONFIG_KWARGS),
        )
        result = rank.run(RankTrace.from_bank_traces("equiv", traces))

        assert result.num_banks == num_banks
        for bank in range(num_banks):
            assert result.per_bank[bank] == expected[bank]

    def test_lifted_trace_matches_row_only_trace(self):
        trace = Trace("t", repeat_interval([100] * 8, 40, postpone=True))
        config = EngineConfig(allow_postponement=True, **CONFIG_KWARGS)
        plain = run_bank(make_tracker("mint", seed=3), trace, config)
        lifted = RankSimulator(
            lambda bank: make_tracker("mint", seed=3), config
        ).run(lift_trace(trace))
        assert lifted.per_bank[0] == plain

    def test_row_trace_runs_on_bank_zero(self):
        trace = Trace("t", repeat_interval([100] * 73, 10))
        result = run_bank(NullTracker(), trace, trh=100)
        assert result.failed
        assert result.flips[0].row in (99, 101)
        assert result.demand_acts == 730


class TestRankSimulator:
    def test_rejects_reuse_across_runs(self):
        """A simulator accumulates tracker/oracle/counter state, so a
        second ``run`` would silently mix windows; it must raise."""
        trace = RankTrace("w", [RankInterval.of([(0, 5)])] * 4)
        sim = RankSimulator(
            lambda bank: NullTracker(),
            EngineConfig(num_banks=1, **CONFIG_KWARGS),
        )
        first = sim.run(trace)
        assert first.intervals == 4
        with pytest.raises(RuntimeError, match="already consumed"):
            sim.run(trace)
        # The rejected run must not have touched any state.
        assert sim.intervals == 4

    def test_run_rejected_after_incremental_feeding(self):
        """``feed`` is the incremental entry point (many calls build one
        window), but a later ``run`` on the same simulator would graft a
        whole second schedule onto that window — reject it too."""
        sim = RankSimulator(
            lambda bank: NullTracker(),
            EngineConfig(num_banks=1, **CONFIG_KWARGS),
        )
        sim.feed([RankInterval.of([(0, 5)])])
        with pytest.raises(RuntimeError, match="already consumed"):
            sim.run(RankTrace("w", [RankInterval.of([(0, 5)])] * 2))

    def test_banks_are_isolated(self):
        """Hammering bank 0 must not disturb bank 1's rows."""
        trace = RankTrace(
            "iso", [RankInterval.of([(0, 100)] * 8)] * 30
        )
        result = RankSimulator(
            lambda bank: NullTracker(),
            EngineConfig(num_banks=2, trh=60.0, num_rows=1024),
        ).run(trace)
        assert result.failed_banks == [0]
        assert result.per_bank[1].demand_acts == 0
        assert result.per_bank[1].max_disturbance == 0

    def test_shared_refresh_schedule(self):
        """One rank REF refreshes every bank: per-bank counts match."""
        trace = RankTrace("r", [RankInterval.of([(0, 5), (1, 9)])] * 7)
        result = RankSimulator(
            lambda bank: NullTracker(),
            EngineConfig(num_banks=2, trh=1e9, num_rows=1024),
        ).run(trace)
        assert result.refreshes == 7
        assert [r.refreshes for r in result.per_bank] == [7, 7]

    def test_postponement_is_rank_scoped(self):
        trace = RankTrace(
            "p", [RankInterval.of([(1, 5)], postpone=True)] * 10
        )
        result = RankSimulator(
            lambda bank: NullTracker(),
            EngineConfig(
                num_banks=2, trh=1e9, num_rows=1024,
                allow_postponement=True,
            ),
        ).run(trace)
        # Ceiling of 4 postponed: all owed REFs still land by the end.
        assert result.refreshes == 10

    def test_rejects_out_of_range_bank(self):
        trace = RankTrace("bad", [RankInterval.of([(5, 1)])])
        simulator = RankSimulator(
            lambda bank: NullTracker(),
            EngineConfig(num_banks=2, num_rows=1024),
        )
        with pytest.raises(ValueError):
            simulator.run(trace)

    def test_rejects_zero_banks(self):
        with pytest.raises(ValueError):
            RankSimulator(
                lambda bank: NullTracker(), EngineConfig(num_banks=0)
            )

    def test_positional_num_banks_rejected_clearly(self):
        """A bank count passed where the EngineConfig belongs gets a
        pointed TypeError, not a crash deep in config access."""
        with pytest.raises(TypeError, match="num_banks=N"):
            RankSimulator(lambda bank: NullTracker(), 4)

    def test_tracker_factory_called_per_bank(self):
        built = []

        def factory(bank):
            built.append(bank)
            return NullTracker()

        RankSimulator(factory, EngineConfig(num_banks=3, num_rows=1024))
        assert built == [0, 1, 2]

    def test_cross_bank_decoy_runs_on_a_two_bank_rank(self):
        trace = cross_bank_decoy(
            500, 2, AttackParams(max_act=8, intervals=20), postponed=4
        )
        result = RankSimulator(
            mint_factory(max_act=8),
            EngineConfig(
                trh=1e9, num_banks=2, num_rows=2048,
                allow_postponement=True,
            ),
        ).run(trace)
        assert result.num_banks == 2
        assert result.per_bank[0].demand_acts > 0

    def test_per_bank_trace_list_runs(self):
        """The per-bank input format: one row trace per bank."""
        params = AttackParams(max_act=8, intervals=30)
        traces = [double_sided(params, victim=500)] * 2
        simulator = RankSimulator(
            mint_factory(max_act=8),
            EngineConfig(num_banks=2, trh=1e9, num_rows=1024),
        )
        result = simulator.run(traces)
        assert result.num_banks == 2
        assert all(r.demand_acts > 0 for r in result.per_bank)
        assert result.mitigations == sum(
            r.mitigations for r in result.per_bank
        )

    def test_tfaw_ceiling_enforced_on_trace_lists(self):
        params = AttackParams(max_act=8, intervals=5)
        simulator = RankSimulator(
            lambda bank: NullTracker(),
            EngineConfig(num_banks=8, num_rows=1024, concurrent_banks=4),
        )
        with pytest.raises(ValueError):
            simulator.run([double_sided(params, victim=500)] * 5)

    def test_tfaw_ceiling_applies_to_rank_traces_too(self):
        """Bank-addressed input obeys the same physical ceiling as the
        per-bank-trace format."""
        simulator = RankSimulator(
            lambda bank: NullTracker(),
            EngineConfig(num_banks=8, num_rows=1024, concurrent_banks=4),
        )
        trace = RankTrace(
            "wide", [RankInterval.of([(b, 100) for b in range(5)])]
        )
        with pytest.raises(ValueError):
            simulator.run(trace)


class TestCrossBankDecoyExposure:
    def test_target_bank_absorbs_postponed_hammering(self):
        """The §VI-B blow-up, rank edition: with postponement granted,
        the target row's unmitigated run spans a whole super-window."""
        params = AttackParams(max_act=8, intervals=50)
        trace = cross_bank_decoy(500, 2, params, postponed=4)
        result = RankSimulator(
            lambda bank: NullTracker(),
            EngineConfig(
                num_banks=2, trh=1e9, num_rows=2048,
                allow_postponement=True,
            ),
        ).run(trace)
        target_bank = result.per_bank[0]
        # 4 hammer intervals x 8 ACTs per super-window, all on bank 0.
        assert target_bank.max_unmitigated[500] >= 32
        decoy_bank = result.per_bank[1]
        assert 500 not in decoy_bank.max_unmitigated
