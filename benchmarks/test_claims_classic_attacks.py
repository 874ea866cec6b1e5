"""Section V-C claims: classic attacks bounded by construction.

Runs the live simulator: single-sided and double-sided patterns against
MINT, measuring the worst unmitigated disturbance any victim ever
accumulates — the executable version of "MINT would limit such a
classic attack to at-most M activations".
"""

import random

from conftest import print_header, print_rows

from repro.attacks import AttackParams, double_sided, half_double, single_sided
from repro.core.mint import MintTracker
from repro.sim.engine import EngineConfig, RankSimulator


def _run(tracker, trace):
    simulator = RankSimulator(lambda _bank: tracker, EngineConfig(trh=1e9))
    simulator.run(trace)
    return simulator.device.banks[0]


def test_classic_attacks_bounded(benchmark):
    params = AttackParams(max_act=73, intervals=2000)

    def run():
        results = {}
        model = _run(MintTracker(rng=random.Random(1)), single_sided(params))
        results["single-sided"] = max(
            model.peak_disturbance(params.base_row - 1),
            model.peak_disturbance(params.base_row + 1),
        )
        model = _run(MintTracker(rng=random.Random(2)),
                     double_sided(params, victim=params.base_row))
        results["double-sided"] = model.peak_disturbance(params.base_row)
        model = _run(MintTracker(transitive=False, rng=random.Random(3)),
                     half_double(params))
        results["half-double (no slot)"] = max(
            model.peak_disturbance(params.base_row - 2),
            model.peak_disturbance(params.base_row + 2),
        )
        model = _run(MintTracker(transitive=True, rng=random.Random(3)),
                     half_double(params))
        results["half-double (with slot)"] = max(
            model.peak_disturbance(params.base_row - 2),
            model.peak_disturbance(params.base_row + 2),
        )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Section V-C/V-E — worst victim disturbance, 2000 tREFI")
    print_rows(
        ["Attack", "Peak unmitigated disturbance", "Paper bound"],
        [
            ("single-sided", results["single-sided"], "~M-2M (73-146)"),
            ("double-sided", results["double-sided"], "~M-2M (73-146)"),
            ("half-double vs plain MINT", results["half-double (no slot)"],
             "grows 1/REF (8192 per tREFW)"),
            ("half-double vs MINT+slot", results["half-double (with slot)"],
             "bounded (mean run 74)"),
        ],
    )
    # Classic attacks: within the geometric-tail bound of ~2M + jM/74^j.
    assert results["single-sided"] <= 4 * 73 + 4
    assert results["double-sided"] <= 4 * 73 + 4
    # The transitive channel is the ONLY one that grows without the slot.
    assert results["half-double (no slot)"] > 1500
    assert results["half-double (with slot)"] < 800
