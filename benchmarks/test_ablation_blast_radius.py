"""Ablation: blast radius 1 vs 2 for victim refresh.

Section V-E: "refreshing two rows on either side of an aggressor does
not mitigate transitive attacks, as the third row now experiences
failures" — the failure just moves outward. The transitive slot, not a
wider refresh, is the fix.
"""

import random

from conftest import print_header, print_rows

from repro.attacks import AttackParams, half_double
from repro.core.mint import MintTracker
from repro.sim.engine import EngineConfig, RankSimulator


def test_ablation_blast_radius(benchmark):
    params = AttackParams(max_act=73, intervals=2000)

    def run():
        peaks = {}
        for radius in (1, 2):
            simulator = RankSimulator(
                lambda _bank: MintTracker(
                    transitive=False, rng=random.Random(5)
                ),
                EngineConfig(trh=1e9, blast_radius=radius),
            )
            simulator.run(half_double(params))
            model = simulator.device.banks[0]
            peaks[radius] = {
                distance: max(
                    model.peak_disturbance(params.base_row - distance),
                    model.peak_disturbance(params.base_row + distance),
                )
                for distance in (1, 2, 3)
            }
        return peaks

    peaks = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation — blast radius vs the transitive channel")
    rows = []
    for radius, by_distance in sorted(peaks.items()):
        rows.append(
            (
                f"radius {radius}",
                f"{by_distance[1]:.0f}",
                f"{by_distance[2]:.0f}",
                f"{by_distance[3]:.0f}",
            )
        )
    print_rows(
        ["Victim refresh", "peak @ d=1", "peak @ d=2", "peak @ d=3"], rows
    )
    print("radius 2 moves the unbounded accumulation from d=2 to d=3 —"
          " it does not remove it (Section V-E)")

    # Radius 1: d=2 accumulates without bound (one per REF).
    assert peaks[1][2] > 1500
    # Radius 2: d=2 is now refreshed every REF...
    assert peaks[2][2] < 300
    # ...but d=3 inherits the unbounded accumulation.
    assert peaks[2][3] > 1500
