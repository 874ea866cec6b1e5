"""Regenerate the scalar-engine reference digests, or take readings.

    python3 paperbench/regen.py                 # rewrite reference.json
    python3 paperbench/regen.py --readings      # scalar vs default ops/s

The table holds, for every scenario any ``--seed`` of the three
simulation workloads can draw, the sha256 of the canonical
``to_payload()`` of its result under the scalar reference engine
(``vectorized=False``) and its simulated demand ACTs. The benchmark
checks every op of every seed against it. For ``mc_scaled`` the entry
is the ``run_many`` batch, and regeneration also asserts that the
benchmark's window-loop replica reproduces ``run_many`` exactly.

``--readings`` runs each simulation workload's closed loop for
``--seconds`` twice, on the scalar engine and on the default one, and
prints both throughputs (one op as defined by the workload).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

from common import (
    REFERENCE_PATH, digest, load_reference, settle, use_source_tree,
)


def regenerate() -> dict:
    from repro.scenario import Session

    from sim_workloads import MC_WINDOWS, SIM_WORKLOADS, mc_replica
    from spans import NullRecorder

    table: dict[str, dict] = {}
    for name, workload in SIM_WORKLOADS.items():
        entries: dict[str, dict] = {}
        started = time.perf_counter()
        for scenario in workload.pool():
            scalar = replace(scenario, vectorized=False)
            if workload.monte_carlo:
                payload = Session(scalar).run_many(MC_WINDOWS).to_payload()
                replica, acts = mc_replica(scalar, MC_WINDOWS, NullRecorder())
                if replica.to_payload() != payload:
                    raise SystemExit(
                        f"replica != run_many for {scenario.label}"
                    )
            else:
                result = Session(scalar).run()
                payload, acts = result.to_payload(), result.demand_acts
            entries[scenario.fingerprint()] = {
                "sha256": digest(payload), "demand_acts": acts,
            }
        table[name] = entries
        print(
            f"{name}: {len(entries)} scenarios in "
            f"{time.perf_counter() - started:.1f}s", flush=True,
        )
    return table


def readings(seed: int, seconds: float) -> None:
    from sim_workloads import SIM_WORKLOADS, run_phase
    from spans import NullRecorder

    reference = load_reference()
    settle()
    for name, default in SIM_WORKLOADS.items():
        scalar = replace(default, classes=tuple(
            (label, {**kwargs, "vectorized": False})
            for label, kwargs in default.classes
        ))
        line = [f"{name:<14}"]
        for engine, workload in (("scalar", scalar), ("default", default)):
            tally, _ = run_phase(workload, seed, seconds, reference[name],
                                 NullRecorder(), traced=False)
            line.append(
                f"{engine} {tally.ops_per_s:8.2f} ops/s "
                f"({len(tally.latencies)} ops, {tally.failed} failed)"
            )
        print("  ".join(line), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--readings", action="store_true",
                        help="print scalar vs default ops/s instead")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    use_source_tree()
    if args.readings:
        readings(args.seed, args.seconds)
        return 0
    REFERENCE_PATH.write_text(_render(regenerate()))
    print(f"wrote {REFERENCE_PATH.name}")
    return 0


def _render(table: dict) -> str:
    """The reference document, one entry per line (diff-friendly)."""
    blocks = []
    for name in sorted(table):
        entries = table[name]
        lines = ",\n".join(
            f"   {json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
            for key in sorted(entries)
        )
        blocks.append(f"  {json.dumps(name)}: {{\n{lines}\n  }}")
    body = ",\n".join(blocks)
    return (
        '{\n "engine": "scalar reference (vectorized=False)",\n'
        ' "format": 1,\n'
        f' "workloads": {{\n{body}\n }}\n}}\n'
    )


if __name__ == "__main__":
    sys.exit(main())
