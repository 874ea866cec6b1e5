"""Tests for the bank-level security simulation engine."""

import random

import pytest

from repro.core.mint import MintTracker
from repro.sim import with_dmq
from repro.sim.engine import EngineConfig, RankSimulator
from repro.sim.trace import Interval, Trace, repeat_interval
from repro.trackers.base import NullTracker
from repro.trackers.prct import PrctTracker
from repro.trackers.protrr import ProTrrTracker
from tests.conftest import run_bank


def simple_trace(row=100, intervals=50, acts=73, postpone=False):
    return Trace(
        "test", repeat_interval([row] * acts, intervals, postpone=postpone)
    )


class TestBasicOperation:
    def test_unprotected_bank_flips(self):
        result = run_bank(NullTracker(), simple_trace(intervals=10), trh=100)
        assert result.failed
        assert result.flips[0].row in (99, 101)

    def test_mint_prevents_classic_attack(self):
        tracker = MintTracker(rng=random.Random(1))
        result = run_bank(tracker, simple_trace(intervals=200), trh=1000)
        assert not result.failed

    def test_counts_demand_acts(self):
        result = run_bank(NullTracker(), simple_trace(intervals=5), trh=1e9)
        assert result.demand_acts == 5 * 73

    def test_refresh_per_interval(self):
        result = run_bank(NullTracker(), simple_trace(intervals=7), trh=1e9)
        assert result.refreshes == 7

    def test_budget_validation(self):
        trace = Trace("bad", [Interval.of([1] * 80)])
        with pytest.raises(ValueError):
            run_bank(NullTracker(), trace, trh=1e9)

    def test_summary_format(self):
        result = run_bank(NullTracker(), simple_trace(intervals=2), trh=1e9)
        assert "ok" in result.summary()
        assert "146" in result.summary() or "disturbance" in result.summary()


class TestMitigationPlumbing:
    def test_mitigations_counted(self):
        tracker = MintTracker(rng=random.Random(1))
        result = run_bank(tracker, simple_trace(intervals=100), trh=1e9)
        # Single-sided full-window: selection nearly every interval.
        assert result.mitigations > 80

    def test_transitive_mitigations_counted(self):
        tracker = MintTracker(transitive=True, rng=random.Random(1))
        result = run_bank(tracker, simple_trace(intervals=2000), trh=1e9)
        assert result.transitive_mitigations > 0
        assert result.transitive_mitigations < result.mitigations / 10

    def test_counter_tracker_sees_victim_refreshes(self):
        """PRCT counters grow from mitigative activations too."""
        tracker = PrctTracker(num_rows=1024)
        run_bank(tracker, simple_trace(row=100, intervals=3),
                 trh=1e9, num_rows=1024)
        # Victim refreshes of rows 99/101 credited them as activations.
        assert tracker.count(99) > 0 or tracker.count(101) > 0

    def test_protrr_victim_refresh_path(self):
        tracker = ProTrrTracker(num_entries=16, num_rows=1024)
        result = run_bank(tracker, simple_trace(row=100, intervals=20),
                          trh=1e9, num_rows=1024)
        assert result.mitigations > 0

    def test_unmitigated_peak_tracked(self):
        result = run_bank(NullTracker(), simple_trace(intervals=4), trh=1e9)
        assert result.max_unmitigated[100] == 4 * 73


class TestPostponement:
    def test_disabled_by_default(self):
        trace = simple_trace(intervals=10, postpone=True)
        result = run_bank(NullTracker(), trace, trh=1e9)
        # Engine refuses to postpone: one refresh per interval.
        assert result.refreshes == 10

    def test_enabled_batches_refreshes(self):
        trace = simple_trace(intervals=10, postpone=True)
        result = run_bank(
            NullTracker(), trace, trh=1e9, allow_postponement=True
        )
        # Ceiling of 4: refreshes arrive in batches of 5.
        assert result.refreshes == 10

    def test_dmq_pseudo_mitigations_recorded(self):
        tracker = with_dmq(MintTracker(rng=random.Random(1)))
        trace = simple_trace(intervals=10, postpone=True)
        result = run_bank(tracker, trace, trh=1e9, allow_postponement=True)
        assert result.pseudo_mitigations > 0


class TestAutoRefresh:
    def test_slow_attack_never_flips(self):
        """A row hammered once per window cannot beat auto-refresh."""
        trace = Trace(
            "slow", repeat_interval([100], 128)
        )
        result = run_bank(
            NullTracker(), trace, trh=100, num_rows=1024, refi_per_refw=64
        )
        assert not result.failed

    def test_engine_uses_row_count(self):
        config = EngineConfig(trh=10, num_rows=256, refi_per_refw=64)
        simulator = RankSimulator(lambda _bank: NullTracker(), config)
        assert simulator.device.config.rows_per_bank == 256
