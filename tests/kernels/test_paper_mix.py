"""The benchmark's paper workload mix, end to end, against its reference.

``paperbench`` replays the paper's attacks against the trackers of
three workloads — the classic attacks (single-sided, double-sided,
one-location, pattern 2, decoy) on one 128K-row bank, the multi-bank
and multi-rank geometries (8 banks x 4 ranks and 8 x 1, postponement
allowed), and scaled-timing Monte-Carlo batches — and its
``reference.json`` holds the scalar engine's payload digest for every
scenario. Variant 0 of every class must reproduce its digest on
whatever engine path runs here, and the classes whose steady state is
a lowered tracker's replay cycle — identical-interval runs, and the
refresh-postponement decoys' super-windows with their batched REFs —
must run (almost) entirely inside the compiled march — the classes
that cross the threshold too, since the march records their flips.
"""

import sys
from pathlib import Path

import pytest

from repro import kernels
from repro.scenario import Session

from tests.providers import MARCH_PROVIDERS

BENCH_DIR = Path(__file__).resolve().parents[2] / "paperbench"

#: ``attack_1bank``: trackers whose steady state the compiled march
#: implements, and the attacks whose every interval replays one
#: interval object.
LOWERED_TRACKERS = ("para", "graphene", "prac")
STEADY_ATTACKS = ("single-sided", "double-sided", "one-location", "pattern2")

#: Classes that never flip and whose postponement cycle must compile.
CYCLE_CLASSES = {
    "attack_1bank": ("para/decoy", "graphene/decoy", "prac/decoy"),
    "multibank": (
        "mint/channel-stripe-decoy@8x4",
        "graphene/channel-stripe-decoy@8x4",
        "mint/cross-bank-decoy@8x1",
        "graphene/cross-bank-decoy@8x1",
    ),
}

#: Classes whose disturbance climbs to TRH: every Monte-Carlo class at
#: its scaled threshold (most of their windows flip), MINT and the
#: unprotected baseline on the decoy, the baseline on the hammering
#: attacks. The march records their flips and keeps going.
FLIPPING_CLASSES = {
    "attack_1bank": (
        "mint/decoy",
        "none/decoy",
        "none/single-sided",
        "none/double-sided",
    ),
    "mc_scaled": (
        "mint/pattern2",
        "mint/double-sided",
        "para/pattern2",
        "para/double-sided",
    ),
    "multibank": (
        "none/rank-synchronized@8x4",
        "none/channel-stripe-decoy@8x4",
        "none/rank-stripe@8x1",
        "none/cross-bank-decoy@8x1",
    ),
}


def _bench_modules():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import common
        import sim_workloads
    finally:
        sys.path.remove(str(BENCH_DIR))
    return common, sim_workloads


def _classes():
    _, sim_workloads = _bench_modules()
    return [
        (workload.name, label, kwargs)
        for workload in sim_workloads.SIM_WORKLOADS.values()
        for label, kwargs in workload.classes
    ]


@pytest.mark.parametrize(
    "workload, label, kwargs",
    _classes(),
    ids=[f"{name}:{label}" for name, label, _ in _classes()],
)
def test_variant_zero_matches_the_reference_digest(workload, label, kwargs):
    common, sim_workloads = _bench_modules()
    bench = sim_workloads.SIM_WORKLOADS[workload]
    scenario = bench.scenario(kwargs, 0)
    entry = common.load_reference()[workload][scenario.fingerprint()]
    session = Session(scenario)
    if bench.monte_carlo:
        result = session.run_many(sim_workloads.MC_WINDOWS)
    else:
        result = session.run()
    assert common.digest(result.to_payload()) == entry["sha256"]
    if not kernels.available():
        return
    stats = result.kernel_stats
    tracker, attack = label.split("/")
    if (
        workload == "attack_1bank"
        and tracker in LOWERED_TRACKERS
        and attack in STEADY_ATTACKS
    ):
        assert stats["compiled_steps"] >= 0.95 * stats["steps"]
    if label in CYCLE_CLASSES.get(workload, ()):
        assert stats["compiled_steps"] >= 0.9 * stats["steps"]
    if label in FLIPPING_CLASSES.get(workload, ()):
        assert stats["compiled_steps"] >= 0.95 * stats["steps"]


def test_every_pool_scenario_resolves_its_reference_entry():
    # Scenario validation must leave every valid scenario's fingerprint
    # alone: each scenario any benchmark seed can draw keys its digest.
    common, sim_workloads = _bench_modules()
    reference = common.load_reference()
    for name, workload in sim_workloads.SIM_WORKLOADS.items():
        for scenario in workload.pool():
            assert scenario.fingerprint() in reference[name]


@pytest.mark.parametrize("provider", MARCH_PROVIDERS)
@pytest.mark.parametrize("label", ["mint/double-sided", "para/double-sided"])
def test_a_drawing_tracker_marches_in_one_call(provider, label):
    # MINT draws one randint per REF and PARA one uniform per ACT from
    # their twister states inside the march, so nothing bounds a call
    # by its draws: the benchmark's 1000-tREFI run marches whole in one
    # compiled call.
    _, sim_workloads = _bench_modules()
    bench = sim_workloads.SIM_WORKLOADS["attack_1bank"]
    kwargs = dict(bench.classes)[label]
    with kernels.forced_provider(provider):
        stats = Session(bench.scenario(kwargs, 0)).run().kernel_stats
    assert stats["compiled_steps"] == stats["steps"] == 1000
    assert stats["compiled_calls"] == 1
