"""Decoy horizons: whole super-windows, and no silently empty schedule.

Every postponement-decoy generator plays whole ``postponed + 1``
interval super-windows and drops a trailing partial one. A horizon
shorter than one super-window used to yield an empty schedule, which
simulates nothing and reports "secure"; it must raise instead, naming
``intervals`` and the super-window length.
"""

import pytest

from repro.attacks import (
    AttackParams,
    channel_stripe_decoy,
    cross_bank_decoy,
    cross_bank_decoy_stream,
    decoy_assisted,
    postponement_decoy,
    postponement_decoy_multi,
)
from repro.scenario import AttackSpec, Scenario, Session

GENERATORS = {
    "decoy": lambda p, n: postponement_decoy(60_000, p, postponed=n),
    "decoy-multi": lambda p, n: postponement_decoy_multi(
        [60_000 + 10 * i for i in range(n)], p, postponed=n
    ),
    "cross-bank-decoy": lambda p, n: cross_bank_decoy(
        60_000, 2, p, postponed=n
    ),
    "cross-bank-decoy-stream": lambda p, n: cross_bank_decoy_stream(
        60_000, 2, p, postponed=n
    ),
    "channel-stripe-decoy": lambda p, n: channel_stripe_decoy(
        60_000, 2, p, postponed=n
    ),
}


def horizon(schedule) -> int:
    per_rank = getattr(schedule, "per_rank", None)
    if per_rank is not None:
        return max(len(list(trace)) for trace in per_rank.values())
    return len(list(schedule))


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("postponed, intervals", [(4, 1), (4, 4), (2, 2)])
def test_shorter_than_one_super_window_raises(name, postponed, intervals):
    params = AttackParams(max_act=8, intervals=intervals)
    window = postponed + 1
    with pytest.raises(
        ValueError,
        match=rf"intervals={intervals} is shorter than one decoy "
              rf"super-window of {window} intervals",
    ):
        GENERATORS[name](params, postponed)


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("intervals, played", [(5, 5), (9, 5), (10, 10)])
def test_plays_whole_super_windows_only(name, intervals, played):
    params = AttackParams(max_act=8, intervals=intervals)
    assert horizon(GENERATORS[name](params, 4)) == played


@pytest.mark.parametrize("attack", ["decoy", "decoy-multi"])
def test_scenario_run_rejects_short_horizon(attack):
    scenario = Scenario(
        tracker="mint", attack=AttackSpec.of(attack), intervals=3,
        allow_postponement=True,
    )
    with pytest.raises(ValueError, match="intervals=3"):
        Session(scenario).run()


def test_run_many_rejects_short_horizon():
    scenario = Scenario(
        tracker="mint", attack=AttackSpec.of("decoy"), intervals=4,
        allow_postponement=True,
    )
    with pytest.raises(ValueError, match="intervals=4"):
        Session(scenario).run_many(4)


@pytest.mark.parametrize("decoys", [0, -3])
def test_decoy_assisted_rejects_no_decoys(decoys):
    with pytest.raises(ValueError, match=rf"decoys must be >= 1, got {decoys}"):
        decoy_assisted(60_000, decoys, 8, AttackParams(intervals=4))
