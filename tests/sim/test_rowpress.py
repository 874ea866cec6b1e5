"""Tests for the Row-Press simulation (paper Appendix C)."""

import hashlib
import random
from dataclasses import asdict

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
from repro.sim.seeding import canonical_json

#: Result bytes of every :class:`TestRowPressDamage` simulation: the
#: sha256 of its ``asdict(SimResult)`` canonical JSON and the bank's
#: final ``disturbance_summary()``. The outcome assertions alone would
#: let a change to the EACT-weighted oracle path through unnoticed.
PINNED = {
    "plain-rowpress": (
        "73f10fdb78a750e9e674139852f6ae82b5f5b68184552f5c30d46acbab85b565",
        (13.0, 998),
    ),
    "impress-rowpress": (
        "4e3dace25125e228c59af014ff0f5053670cbf206375974f61e1d8e63559a1aa",
        (152.0, 998),
    ),
    "plain-normal": (
        "748aceeb39f6b61809a0e06bbac53b02014ec4cc84b5b5a8389bd2fc530fbe57",
        (14.0, 998),
    ),
    "impress-normal": (
        "249f58792959f057de059fef51359012ad8e406fb758167873b0c4f5a8344e00",
        (14.0, 998),
    ),
    "eact": (
        "4df87736585383281fafec7491bb2673d142b2dc7896e86a605c113765eeccc1",
        (71.16666666666667, 999),
    ),
}


def _run_pinned(key, tracker, trh, trace):
    """Run ``trace`` and check its result bytes against ``PINNED[key]``."""
    simulator = RowPressSimulator(tracker, trh=trh)
    result = simulator.run(trace)
    digest = hashlib.sha256(
        canonical_json(asdict(result)).encode()
    ).hexdigest()
    summary = simulator.device.banks[0].disturbance_summary()
    assert (digest, summary) == PINNED[key]
    return simulator, result


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
        trace = rowpress_trace(row=1000, t_on_ns=1000.0, intervals=300)
        _, result = _run_pinned(
            "plain-rowpress", MintTracker(rng=random.Random(1)), trh, trace
        )
        assert result.failed
        assert result.demand_acts < trh  # far fewer ACTs than TRH

    def test_impress_extension_holds(self):
        """MINT+ImPress advances CAN by EACT: long-open rows are
        selected proportionally more often and the victim is refreshed
        in time."""
        trh = 2000
        trace = rowpress_trace(row=1000, t_on_ns=1000.0, intervals=300)
        _, result = _run_pinned(
            "impress-rowpress", RowPressMintTracker(rng=random.Random(1)),
            trh, trace,
        )
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
            _, result = _run_pinned(
                f"{name}-normal", tracker, 500,
                rowpress_trace(1000, t_on, intervals=200, name="normal"),
            )
            outcomes[name] = result.failed
        assert outcomes["plain"] == outcomes["impress"] is False

    def test_eact_weighting_in_oracle(self):
        """One 5-tREFI Row-Press activation deposits ~400 disturbance."""
        t_on = 3400.0
        simulator, _ = _run_pinned(
            "eact", MintTracker(rng=random.Random(3)), 1e9,
            rowpress_trace(1000, t_on, intervals=1),
        )
        model = simulator.device.banks[0]
        expected = equivalent_activations(t_on)
        assert model.peak_disturbance(999) == pytest.approx(expected, rel=0.01)
