"""Tests for the Row-Press simulation (paper Appendix C)."""

import random

import pytest

from repro.core.mint import MintTracker
from repro.core.rowpress import RowPressMintTracker, equivalent_activations
from repro.dram.timing import DEFAULT_TIMING
from repro.sim.rowpress import (
    RowPressSimulator,
    TimedAct,
    TimedInterval,
    TimedTrace,
    rowpress_trace,
)


class TestTimedTrace:
    def test_generator_packs_interval(self):
        trace = rowpress_trace(row=100, t_on_ns=1000.0, intervals=5)
        per_interval = len(trace.intervals[0].acts)
        # ~3490 ns budget / ~1016 ns per act = 3.
        assert per_interval == 3

    def test_long_open_means_few_acts(self):
        long_open = rowpress_trace(100, 3400.0, 1)
        assert len(long_open.intervals[0].acts) == 1

    def test_budget_validation(self):
        trace = TimedTrace(
            "bad", [TimedInterval(tuple(TimedAct(1, 3000.0) for _ in range(2)))]
        )
        with pytest.raises(ValueError):
            trace.validate(DEFAULT_TIMING)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            TimedAct(1, -1.0)


class TestRowPressDamage:
    def test_rowpress_beats_plain_mint_below_trh_acts(self):
        """The Appendix C vulnerability: with tON ~ 1 us each activation
        deposits ~21 EACT of disturbance, but plain MINT counts it as
        one activation — the victim crosses TRH with ~TRH/21 ACTs."""
        trh = 2000
        tracker = MintTracker(rng=random.Random(1))
        simulator = RowPressSimulator(tracker, trh=trh)
        trace = rowpress_trace(row=1000, t_on_ns=1000.0, intervals=300)
        result = simulator.run(trace)
        assert result.failed
        assert result.demand_acts < trh  # far fewer ACTs than TRH

    def test_impress_extension_holds(self):
        """MINT+ImPress advances CAN by EACT: long-open rows are
        selected proportionally more often and the victim is refreshed
        in time."""
        trh = 2000
        tracker = RowPressMintTracker(rng=random.Random(1))
        simulator = RowPressSimulator(tracker, trh=trh)
        trace = rowpress_trace(row=1000, t_on_ns=1000.0, intervals=300)
        result = simulator.run(trace)
        assert not result.failed
        assert result.mitigations > 100

    def test_normal_traffic_equivalent_for_both(self):
        """With ordinary open times the two trackers behave alike."""
        t_on = DEFAULT_TIMING.t_rc_ns - DEFAULT_TIMING.t_rp_ns
        outcomes = {}
        for name, tracker in (
            ("plain", MintTracker(rng=random.Random(2))),
            ("impress", RowPressMintTracker(rng=random.Random(2))),
        ):
            simulator = RowPressSimulator(tracker, trh=500)
            result = simulator.run(
                rowpress_trace(1000, t_on, intervals=200, name="normal")
            )
            outcomes[name] = result.failed
        assert outcomes["plain"] == outcomes["impress"] is False

    def test_eact_weighting_in_oracle(self):
        """One 5-tREFI Row-Press activation deposits ~400 disturbance."""
        tracker = MintTracker(rng=random.Random(3))
        simulator = RowPressSimulator(tracker, trh=1e9)
        t_on = 3400.0
        trace = rowpress_trace(1000, t_on, intervals=1)
        simulator.run(trace)
        model = simulator.device.banks[0]
        expected = equivalent_activations(t_on)
        assert model.peak_disturbance(999) == pytest.approx(expected, rel=0.01)
