"""Tests for the PRAC extension tracker (paper Section IX)."""

import pytest

from repro.attacks import AttackParams, double_sided, postponement_decoy
from repro.trackers.prac import (
    PRAC_TRC_NS,
    PracTracker,
    prac_throughput_cost,
    prac_timing,
)
from tests.conftest import run_bank


class TestAlertMechanism:
    def test_alert_at_threshold(self):
        tracker = PracTracker(alert_threshold=4)
        for _ in range(4):
            tracker.on_activate(9)
        assert tracker.alerts_raised == 1
        assert tracker.count(9) == 0

    def test_alert_drained_at_refresh(self):
        tracker = PracTracker(alert_threshold=2)
        tracker.on_activate(9)
        tracker.on_activate(9)
        requests = tracker.on_refresh()
        assert requests and requests[0].row == 9
        assert tracker.on_refresh() == []

    def test_counts_mitigation_activations(self):
        tracker = PracTracker(alert_threshold=4)
        assert tracker.observes_mitigations
        tracker.on_mitigation_activate(9)
        assert tracker.count(9) == 1

    def test_multiple_alerts_batch(self):
        tracker = PracTracker(alert_threshold=1)
        tracker.on_activate(1)
        tracker.on_activate(2)
        assert len(tracker.on_refresh()) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            PracTracker(alert_threshold=0)


class TestSecurity:
    def test_deterministic_protection(self):
        """PRAC has no probabilistic tail: the double-sided attack is
        bounded at the alert threshold."""
        params = AttackParams(max_act=73, intervals=2000)
        tracker = PracTracker(alert_threshold=512)
        result = run_bank(
            tracker, double_sided(params, victim=params.base_row),
            trh=tracker.mintrh_d() * 2,
        )
        assert not result.failed

    def test_postponement_immune_without_dmq(self):
        """Counters live in the rows: postponement cannot dislodge them
        (unlike MINT/PARFM, Table IV)."""
        params = AttackParams(max_act=73, intervals=500)
        tracker = PracTracker(alert_threshold=512)
        result = run_bank(
            tracker, postponement_decoy(60_000, params), trh=2000,
            allow_postponement=True,
        )
        assert not result.failed

    def test_mintrh_d_scales_with_threshold(self):
        low = PracTracker(alert_threshold=128).mintrh_d()
        high = PracTracker(alert_threshold=1024).mintrh_d()
        assert low < high


class TestCosts:
    def test_trc_stretched_to_52ns(self):
        timing = prac_timing()
        assert timing.t_rc_ns == PRAC_TRC_NS
        # Fewer activations fit per interval: the throughput cost.
        assert timing.max_act < 73

    def test_throughput_cost_near_8_percent(self):
        """Section IX: tRC 48 -> 52 ns is ~10% slower; the activation
        throughput loss is 1 - 48/52 ~ 7.7%."""
        assert prac_throughput_cost() == pytest.approx(0.077, abs=0.005)

    def test_storage_is_dram_array_bits(self):
        tracker = PracTracker(counter_bits=10, num_rows=1024)
        assert tracker.storage_bits == 10 * 1024
