"""Monte-Carlo cross-validation of the analytic model (scaled regime)."""

import random
import re

import pytest

from repro.analysis.saroiu_wolman import failure_probability
from repro.core.mint import MintTracker
from repro.scenario import AttackSpec, Scenario, Session, TrackerSpec
from repro.sim.engine import EngineConfig, RankSimulator
from repro.sim.montecarlo import scaled_timing
from repro.sim.trace import Interval, Trace


MAX_ACT = 8
REFI_PER_REFW = 64

#: The scaled device: M = 8 ACTs per tREFI, 64 tREFI per window.
SCALED = dict(
    max_act=MAX_ACT,
    intervals=REFI_PER_REFW,
    refi_per_refw=REFI_PER_REFW,
    num_rows=1024,
    scaled_timing=True,
)


def scaled_pattern2(trh, seed):
    """Scaled pattern-2 against MINT without the transitive slot: M
    rows, one activation each per interval.

    Rows sit in the auto-refresh slice served at the *last* REF of the
    window (rows 940+ of 1024 with 64 slices), so the rolling refresh
    cannot interrupt a failure run mid-window and the analytic model
    applies without the geometric correction.
    """
    return Scenario(
        tracker=TrackerSpec.of("mint", transitive=False),
        attack=AttackSpec.of("pattern2", spacing=10),
        base_row=940,
        trh=trh,
        seed=seed,
        **SCALED,
    )


class TestScaledTiming:
    def test_max_act(self):
        assert scaled_timing(MAX_ACT, REFI_PER_REFW).max_act == MAX_ACT

    def test_refw(self):
        timing = scaled_timing(MAX_ACT, REFI_PER_REFW)
        assert timing.refi_per_refw == REFI_PER_REFW


class TestCrossValidation:
    @pytest.mark.slow
    def test_mint_failure_rate_matches_analytic_model(self):
        """The headline validation: empirical failure probability of the
        real MINT implementation matches the Saroiu-Wolman prediction in
        a scaled-down regime (M=8, 64 tREFI per window, TRH=40).

        Analytic: rows * SW(n=64, p=1/8, T=40), union-bounded over the
        8 attacked rows; auto-refresh interference is avoided by row
        placement (see the trace factory docstring).
        """
        trh = 40
        rows = MAX_ACT
        result = Session(scaled_pattern2(trh, seed=42)).run_many(4000)
        per_row = failure_probability(REFI_PER_REFW, 1.0 / MAX_ACT, trh)
        predicted = rows * per_row  # union bound over aggressor rows
        lo, hi = result.confidence_interval(z=3.0)
        assert lo <= predicted <= hi, (
            f"predicted {predicted:.4f} outside CI ({lo:.4f}, {hi:.4f}); "
            f"measured {result.failure_probability:.4f}"
        )

    def test_unprotected_always_fails(self):
        scenario = Scenario(
            tracker="none",
            attack=AttackSpec.of("single-sided", row=100),
            trh=50,
            seed=1,
            **{**SCALED, "intervals": 32},
        )
        result = Session(scenario).run_many(20)
        assert result.failure_probability == 1.0

    def test_guaranteed_protection_bounds_direct_victims(self):
        """Classic single-sided vs MINT: the direct victims never see
        more than ~2M unmitigated hammers (Section V-C). The transitive
        channel is asserted separately (it needs the transitive slot)."""
        timing = scaled_timing(MAX_ACT, REFI_PER_REFW)
        for seed in range(10):
            tracker = MintTracker(
                max_act=MAX_ACT, transitive=False, rng=random.Random(seed)
            )
            simulator = RankSimulator(
                lambda _bank: tracker,
                EngineConfig(
                    timing=timing, trh=1e9, num_rows=1024,
                    refi_per_refw=REFI_PER_REFW,
                ),
            )
            simulator.run(
                Trace("classic", [Interval.of([500] * MAX_ACT)] * REFI_PER_REFW)
            )
            model = simulator.device.banks[0]
            for victim in (499, 501):
                # Selection is guaranteed each interval; the victim can
                # carry at most one interval of hammers plus the current
                # interval before its refresh lands.
                assert model.peak_disturbance(victim) <= 2 * MAX_ACT

    def test_confidence_interval_sane(self):
        from repro.sim.montecarlo import MonteCarloResult

        result = MonteCarloResult(windows=1000, failures=100, total_mitigations=0)
        lo, hi = result.confidence_interval()
        assert lo < 0.1 < hi
        assert 0.0 <= lo and hi <= 1.0


class TestWilsonInterval:
    """The CI must stay informative at the boundaries — the Wald form
    previously returned the degenerate ``(0.0, 0.0)`` at zero observed
    failures, a claim of certainty exactly in the rare-event regime
    this module exists to probe."""

    def _result(self, windows, failures):
        from repro.sim.montecarlo import MonteCarloResult

        return MonteCarloResult(
            windows=windows, failures=failures, total_mitigations=0
        )

    def test_zero_failures_upper_bound_is_positive(self):
        result = self._result(windows=1000, failures=0)
        lo, hi = result.confidence_interval()
        assert lo == 0.0
        assert hi > 0.0
        # Wilson at p=0: upper bound is z^2 / (n + z^2).
        z = 1.96
        assert hi == pytest.approx(z * z / (1000 + z * z))

    def test_all_failures_lower_bound_below_one(self):
        result = self._result(windows=1000, failures=1000)
        lo, hi = result.confidence_interval()
        assert hi == 1.0
        assert lo < 1.0
        z = 1.96
        assert lo == pytest.approx(1000 / (1000 + z * z))

    def test_zero_windows_is_vacuous(self):
        assert self._result(0, 0).confidence_interval() == (0.0, 1.0)

    def test_interval_brackets_point_estimate(self):
        result = self._result(windows=500, failures=37)
        lo, hi = result.confidence_interval()
        assert 0.0 <= lo < result.failure_probability < hi <= 1.0

    def test_wider_z_widens_interval(self):
        result = self._result(windows=500, failures=37)
        lo95, hi95 = result.confidence_interval(z=1.96)
        lo99, hi99 = result.confidence_interval(z=3.0)
        assert lo99 < lo95 and hi95 < hi99

    def test_payload_carries_wilson_bounds(self):
        result = self._result(windows=1000, failures=0)
        payload = result.to_payload()
        lo, hi = result.confidence_interval()
        assert payload["ci95_low"] == lo
        assert payload["ci95_high"] == hi
        assert payload["ci95_high"] > 0.0


class TestWindowCount:
    """``run_many`` rejects window counts that are not a non-negative
    int instead of reporting nonsense (``-3`` used to yield
    ``ci95_low > ci95_high``; ``True`` ran one window and reported
    ``"windows": true``)."""

    SCENARIO = Scenario(
        tracker="mint", attack="pattern2", trh=40.0, max_act=8,
        intervals=64, refi_per_refw=64, num_rows=1024, scaled_timing=True,
    )

    @pytest.mark.parametrize("windows", [-3, -1, True, False, 2.0, "3", None])
    def test_run_many_rejects_invalid_counts(self, windows):
        with pytest.raises(ValueError, match="windows"):
            Session(self.SCENARIO).run_many(windows)

    @pytest.mark.parametrize(
        "n_workers", [0, -1, True, False, 2.0, 1.5, "2", None]
    )
    def test_run_many_rejects_invalid_worker_counts(self, n_workers):
        # Named with its value, like an invalid window count — never a
        # silent serial run.
        with pytest.raises(
            ValueError, match=rf"n_workers .* got {re.escape(repr(n_workers))}"
        ):
            Session(self.SCENARIO).run_many(5, n_workers=n_workers)

    def test_numpy_integer_worker_counts_are_accepted(self):
        np = pytest.importorskip("numpy")
        serial = Session(self.SCENARIO).run_many(5)
        assert Session(self.SCENARIO).run_many(
            5, n_workers=np.int64(2)
        ) == serial

    def test_zero_windows_is_vacuous(self):
        result = Session(self.SCENARIO).run_many(0)
        assert result.to_payload() == {
            "windows": 0,
            "failures": 0,
            "total_mitigations": 0,
            "failure_probability": 0.0,
            "ci95_low": 0.0,
            "ci95_high": 1.0,
        }

    def test_numpy_integer_counts_are_accepted(self):
        np = pytest.importorskip("numpy")
        result = Session(self.SCENARIO).run_many(np.int64(3))
        assert result.to_payload()["windows"] == 3
        assert type(result.windows) is int


class TestParallelFanOut:
    def _estimate(self, n_workers):
        return Session(scaled_pattern2(30, seed=42)).run_many(
            80, n_workers=n_workers
        )

    def test_worker_count_does_not_change_counts(self):
        """Per-window seeds are a stable hash of (task seed, index), so
        the fan-out is bit-identical to the serial run."""
        serial = self._estimate(n_workers=1)
        pooled = self._estimate(n_workers=4)
        assert serial == pooled

    def test_windows_are_not_all_identical(self):
        """Distinct windows get distinct random streams: MINT's random
        selections must differ across windows (equal mitigation totals
        per window would mean a constant stream)."""
        single = self._estimate(n_workers=1)
        assert 0 < single.windows == 80
        # With TRH=30 in this regime some windows fail and some survive,
        # which can only happen if the per-window RNG varies.
        assert 0 < single.failures < single.windows
