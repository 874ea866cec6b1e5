"""Attack-vs-tracker matchups: the qualitative security claims (§II, §V)."""

import random

import pytest

from repro.attacks import (
    AttackParams,
    FeintingOutcome,
    double_sided,
    many_sided,
    pattern2,
    random_blacksmith,
    run_feinting,
)
from repro.core.mint import MintTracker
from repro.scenario import AttackSpec, Scenario, Session, TrackerSpec
from repro.trackers.mithril import MithrilTracker
from repro.trackers.prct import PrctTracker
from tests.conftest import run_bank

PARAMS = AttackParams(max_act=73, intervals=300)


def run_trr(attack, trh):
    """A 4-entry TRR table against a registry attack over PARAMS."""
    scenario = Scenario(
        tracker=TrackerSpec.of("trr", num_entries=4),
        attack=attack,
        trh=trh,
        intervals=PARAMS.intervals,
    )
    return Session(scenario).run().per_bank[0]


class TestDeployedTrackersAreBreakable:
    def test_trr_defeated_by_many_sided(self):
        """The TRRespass result (Section II-F): more aggressors than
        entries thrash the table and rows hammer unmitigated."""
        result = run_trr(AttackSpec.of("many-sided", sides=12), trh=1300)
        assert result.mitigations == 0  # table fully thrashed
        assert result.failed

    def test_trr_defeated_by_blacksmith(self):
        result = run_trr(
            AttackSpec.of("blacksmith", count=16, seed=13), trh=2000
        )
        # Blacksmith needs enough intervals to accumulate; use peak.
        assert result.failed or result.max_unmitigated

    def test_trr_stops_naive_single_sided(self):
        """TRR does catch the textbook attack — that is why it shipped."""
        result = run_trr(AttackSpec.of("single-sided"), trh=2000)
        assert not result.failed


class TestMintHoldsWhereTrrFalls:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mint_stops_many_sided(self, seed):
        tracker = MintTracker(rng=random.Random(seed))
        result = run_bank(tracker, many_sided(12, PARAMS), trh=1300)
        assert not result.failed

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mint_stops_blacksmith(self, seed):
        """Section V-D property 2: layout within tREFI is irrelevant to
        MINT, so frequency-domain structure buys nothing."""
        tracker = MintTracker(rng=random.Random(seed))
        result = run_bank(tracker, random_blacksmith(16, PARAMS), trh=2000)
        assert not result.failed

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mint_stops_classic_double_sided(self, seed):
        tracker = MintTracker(rng=random.Random(seed))
        result = run_bank(tracker, double_sided(PARAMS), trh=500)
        assert not result.failed

    def test_mint_stops_pattern2_at_realistic_trh(self):
        """Pattern-2 is MINT's worst case, and still needs ~2800
        unmitigated chances: far beyond a 300-interval run."""
        tracker = MintTracker(rng=random.Random(9))
        result = run_bank(tracker, pattern2(73, PARAMS), trh=2800)
        assert not result.failed


class TestFeintingDriver:
    def test_feinting_raises_water_level_on_prct(self):
        """The adaptive feinting driver achieves a water level well
        above what a static pattern gets against PRCT."""
        params = AttackParams(max_act=73, intervals=260)
        outcome = run_feinting(
            PrctTracker(num_rows=128 * 1024),
            initial_rows=256,
            params=params,
        )
        # Closed form for 256 rows: 73 * (H_256 - 1) ~ 365.
        assert outcome.peak_unmitigated > 250

    @pytest.mark.parametrize(
        "tracker, survivor",
        [
            (lambda: PrctTracker(num_rows=128 * 1024), 1576),
            (lambda: MithrilTracker(num_entries=16), 1352),
        ],
        ids=["prct", "mithril"],
    )
    def test_exact_outcome_is_pinned(self, tracker, survivor):
        """The driver's exact outcome, pinned so a change to how it
        drives the engine cannot move it. (Rows the first round leaves
        unactivated drop out of the pool, so the water level is that of
        73 rows, below the 256-row closed form.)"""
        outcome = run_feinting(
            tracker(),
            initial_rows=256,
            params=AttackParams(max_act=73, intervals=260),
        )
        assert outcome == FeintingOutcome(
            rounds=72,
            peak_unmitigated=282,
            survivor_rows=[survivor],
            flips=0,
        )

    def test_feinting_weaker_against_mithril_with_many_entries(self):
        params = AttackParams(max_act=73, intervals=260)
        prct = run_feinting(
            PrctTracker(num_rows=128 * 1024), initial_rows=256, params=params
        )
        # Mithril with few entries can be fooled harder than PRCT.
        mithril = run_feinting(
            MithrilTracker(num_entries=16), initial_rows=256, params=params
        )
        assert mithril.peak_unmitigated >= prct.peak_unmitigated * 0.5
