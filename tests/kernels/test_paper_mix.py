"""The benchmark's paper attack mix, end to end, against its reference.

``paperbench`` replays the paper's classic attacks (single-sided,
double-sided, one-location, pattern 2, decoy) against MINT, PARA,
Graphene, PRAC and the unprotected baseline on one 128K-row bank, and
its ``reference.json`` holds the scalar engine's payload digest for
every scenario. Variant 0 of every class must reproduce its digest on
whatever engine path runs here, and the steady-state classes of the
four lowered tracker kinds must run (almost) entirely inside the
compiled march.
"""

import sys
from pathlib import Path

import pytest

from repro import kernels
from repro.scenario import Session

BENCH_DIR = Path(__file__).resolve().parents[2] / "paperbench"

#: Trackers whose steady state the compiled march implements, and the
#: attacks whose every interval replays one interval object.
LOWERED_TRACKERS = ("para", "graphene", "prac")
STEADY_ATTACKS = ("single-sided", "double-sided", "one-location", "pattern2")


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
    return sim_workloads.ATTACK_1BANK.classes


@pytest.mark.parametrize(
    "label, kwargs", _classes(), ids=[label for label, _ in _classes()]
)
def test_variant_zero_matches_the_reference_digest(label, kwargs):
    common, sim_workloads = _bench_modules()
    scenario = sim_workloads.ATTACK_1BANK.scenario(kwargs, 0)
    entry = common.load_reference()["attack_1bank"][scenario.fingerprint()]
    result = Session(scenario).run()
    assert common.digest(result.to_payload()) == entry["sha256"]
    tracker, attack = label.split("/")
    if (
        kernels.available()
        and tracker in LOWERED_TRACKERS
        and attack in STEADY_ATTACKS
    ):
        stats = result.kernel_stats
        assert stats["compiled_steps"] >= 0.95 * stats["steps"]
