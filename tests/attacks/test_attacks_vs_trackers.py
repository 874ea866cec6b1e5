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
from repro.analysis.feinting import feinting_level_closed_form
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
        """The adaptive feinting driver reaches the closed-form water
        level against PRCT, far above what a static pattern gets."""
        params = AttackParams(max_act=73, intervals=260)
        outcome = run_feinting(
            PrctTracker(num_rows=128 * 1024),
            initial_rows=256,
            params=params,
        )
        # Closed form for 256 rows: 73 * (H_256 - 1) ~ 374.
        closed = feinting_level_closed_form(initial_rows=256, max_act=73)
        assert outcome.peak_unmitigated == pytest.approx(closed, rel=0.01)

    def test_water_level_grows_with_the_initial_pool(self):
        """Every initial row joins the water-fill, so a larger pool
        lifts the peak (the closed form grows with H_n)."""
        params = AttackParams(max_act=73, intervals=260)
        peaks = [
            run_feinting(
                PrctTracker(num_rows=128 * 1024),
                initial_rows=rows,
                params=params,
            ).peak_unmitigated
            for rows in (73, 128, 256)
        ]
        assert peaks[0] < peaks[1] < peaks[2]

    @pytest.mark.parametrize(
        "tracker, peak, survivor",
        [
            (lambda: PrctTracker(num_rows=128 * 1024), 372, 3040),
            (lambda: MithrilTracker(num_entries=16), 373, 1376),
        ],
        ids=["prct", "mithril"],
    )
    def test_exact_outcome_is_pinned(self, tracker, peak, survivor):
        """The driver's exact outcome, pinned so a change to how it
        drives the engine cannot move it. Each round the tracker
        mitigates one of the 256 rows, so the pool shrinks to its last
        survivor after 255 rounds."""
        outcome = run_feinting(
            tracker(),
            initial_rows=256,
            params=AttackParams(max_act=73, intervals=260),
        )
        assert outcome == FeintingOutcome(
            rounds=255,
            peak_unmitigated=peak,
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
