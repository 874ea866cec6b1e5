"""Ablation: the transitive-mitigation slot (URAND over 74 vs 73).

Trade: the slot costs a slightly higher direct-attack threshold
(2763 -> 2800, selection probability 1/73 -> 1/74) and buys immunity to
Half-Double — without it the effective threshold is the 8192 victim
refreshes per tREFW (Section V-E).
"""

import random

from conftest import print_header, print_rows

from repro.analysis.patterns import pattern2_mintrh
from repro.attacks import AttackParams, half_double
from repro.constants import REFI_PER_REFW
from repro.core.mint import MintTracker
from repro.sim.engine import EngineConfig, RankSimulator


def test_ablation_transitive_slot(benchmark):
    def run():
        direct_without = pattern2_mintrh(73, transitive=False)
        direct_with = pattern2_mintrh(73, transitive=True)
        params = AttackParams(max_act=73, intervals=2000)
        peaks = {}
        for transitive in (False, True):
            simulator = RankSimulator(
                lambda _bank: MintTracker(
                    transitive=transitive, rng=random.Random(7)
                ),
                EngineConfig(trh=1e9),
            )
            simulator.run(half_double(params))
            model = simulator.device.banks[0]
            peaks[transitive] = max(
                model.peak_disturbance(params.base_row - 2),
                model.peak_disturbance(params.base_row + 2),
            )
        return direct_without, direct_with, peaks

    direct_without, direct_with, peaks = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print_header("Ablation — transitive slot (0-slot in the URAND draw)")
    transitive_without = REFI_PER_REFW  # 1 silent ACT per REF, unbounded
    print_rows(
        ["Design", "Direct MinTRH", "Half-Double exposure/tREFW"],
        [
            ("MINT (73 slots)", direct_without,
             f"{transitive_without} (unmitigated)"),
            ("MINT (74 slots)", direct_with,
             f"~74/run (measured peak {peaks[True]:.0f} in 2000 tREFI)"),
        ],
    )
    print(f"cost of the slot: +{direct_with - direct_without} direct MinTRH;"
          f" benefit: transitive exposure drops from 8192/tREFW to a"
          f" geometric run (measured {peaks[False]:.0f} -> {peaks[True]:.0f})")

    # The slot costs ~1.3% direct threshold...
    assert 0 < direct_with - direct_without < 0.03 * direct_without
    # ...and removes the dominant transitive channel.
    assert peaks[False] > 3 * peaks[True]
    # Without the slot, the design's real threshold is the transitive
    # one (8192 > 2763): the slot is a net win.
    assert transitive_without > direct_without
