"""paperbench — end-to-end, layer-by-layer benchmark of the MINT
reproduction over the paper's workload mix.

    python3 paperbench/run.py --workload attack_1bank --seed 0 \\
        --seconds 10 --trace 0

Workloads: ``attack_1bank``, ``mc_scaled``, ``multibank``,
``grid_serve`` (see ``BENCHMARK.json`` and ``predictions.json``). Each
is a closed loop: one thread issues one operation at a time and waits
for it. Every output is checked (against the scalar-engine digests in
``reference.json``, or for ``grid_serve`` against the points written).

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
splits the time between the same phase untraced and then traced,
reports every per-layer metric plus ``trace.overhead_ratio``, and
writes the spans to ``.paperbench/spans/``. The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Run from the root of a checkout; only ``src/`` and this
directory are used.

The whole run, the HTTP server thread of ``grid_serve`` and the set-up
children included, stays on one CPU: with one operation in flight a
second CPU adds no work, only cross-CPU wake-ups whose delay depends on
what the host runs on that other CPU.

Every time reported (rates, latencies, set-up) is scaled to a
reference host by a fixed probe that does not use the program, timed
between the ops (``common.py`` says why and how). A run prints how much
slower than the reference its host ran, and the rate as timed.

``regen.py`` rebuilds the reference digests (and prints scalar vs
default throughputs); ``selftest.py`` checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    END_TO_END, OUT_DIR, PER_LAYER, WORKLOADS, digest, end_to_end,
    env_stamp, load_reference, settle, slowness, use_source_tree,
)

#: Set-up time is measured from here: it covers importing the program,
#: loading (or building) the compiled provider, and the warm-up; probes
#: right after it scale it to the reference host.
STARTED = time.perf_counter()

#: Set-ups per untraced run: this process plus child processes that
#: only set up; ``setup_s`` is their median.
SETUP_SAMPLES = 5


def pin_to_one_cpu() -> None:
    """Keep this process, and the threads and children it starts, on
    the highest-numbered CPU it may use."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SimBench:
    """``attack_1bank``, ``mc_scaled`` and ``multibank``."""

    def __init__(self, name: str, seed: int) -> None:
        from sim_workloads import SIM_WORKLOADS

        self.workload = SIM_WORKLOADS[name]
        self.seed = seed

    def setup(self) -> bool:
        from repro import kernels
        from sim_workloads import warm_up

        kernels.get_march()
        self.reference = load_reference()[self.workload.name]
        return warm_up(self.workload, self.reference)

    def echo(self) -> str:
        ops = self.workload.ops(self.seed)
        first = [next(ops) for _ in range(200)]
        labels = ", ".join(
            f"{s.label}#{s.seed}" for s in first[:3]
        )
        ident = digest([s.fingerprint() for s in first])[:16]
        return f"scenarios {labels}, ... (first 200 ops: {ident})"

    def run(self, seconds: float, recorder, traced: bool) -> dict:
        from sim_workloads import run_phase

        tally, stats = run_phase(
            self.workload, self.seed, seconds, self.reference, recorder,
            traced,
        )
        return {"tally": tally, "stats": stats}

    def end_to_end(self, phase: dict, setup_s: float) -> dict:
        return end_to_end(phase["tally"], setup_s, peak_rss_mb())

    def per_layer(self, phase: dict, layers: dict) -> dict:
        from sim_workloads import layer_metrics

        return layer_metrics(layers, phase["tally"], phase["stats"])

    def teardown(self) -> None:
        pass


class GridBench:
    """``grid_serve``."""

    def __init__(self, seed: int) -> None:
        from grid_serve import GridServe

        self.seed = seed
        self.serve = GridServe(seed, OUT_DIR / f"run-{os.getpid()}")

    def setup(self) -> bool:
        from repro import kernels

        kernels.get_march()
        return self.serve.warm_up()

    def echo(self) -> str:
        return (
            f"scenarios shootout grid x base seed {self.seed}, "
            f"writes from base seed {self.serve.write_seed(1)}"
        )

    def run(self, seconds: float, recorder, traced: bool) -> dict:
        return self.serve.run_phase(seconds, recorder, traced)

    def end_to_end(self, phase: dict, setup_s: float) -> dict:
        return end_to_end(
            phase["tally"], setup_s, peak_rss_mb(),
            acts_per_s=phase["sim_acts_per_s"],
        )

    def per_layer(self, phase: dict, layers: dict) -> dict:
        def mean(name: str, scale: float) -> float:
            row = layers.get(name)
            return row["total_s"] / row["count"] * scale if row else 0.0

        request = layers.get("exp.serve.request")
        call = layers.get("exp.query.call")
        overhead = 0.0
        if request and call:
            overhead = (
                (request["total_s"] - call["total_s"]) / request["count"] * 1e6
            )
        return {
            "results.to_payload_ms": mean("results.to_payload", 1e3),
            "exp.runner.exec_s": phase["exec_s"],
            "exp.runner.commit_s": phase["commit_s"],
            "exp.runner.resume_ms": phase["resume_ms"],
            "exp.store.open_ms": mean("exp.store.open", 1e3),
            "exp.store.flush_bytes": phase["flush_bytes"],
            "exp.store.disk_bytes": phase["disk_bytes"],
            "exp.query.call_us": mean("exp.query.call", 1e6),
            "exp.query.hit_ratio": phase["hit_ratio"],
            "exp.serve.overhead_us": overhead,
            "grid_points_per_s": phase["grid_points_per_s"],
            "write_p50_ms": phase["write_p50_ms"],
        }

    def teardown(self) -> None:
        self.serve.teardown()


def child_setup_s(args: argparse.Namespace) -> float:
    """Time one more complete set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "1", "--trace", "0", "--setup-only"],
        capture_output=True, text=True, timeout=60,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"paperbench: set-up child failed ({done.returncode}):\n"
            f"{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end, layer-by-layer benchmark (see module doc)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    use_source_tree()
    from spans import NullRecorder, Recorder

    bench = (
        GridBench(args.seed) if args.workload == "grid_serve"
        else SimBench(args.workload, args.seed)
    )
    try:
        warm_ok = bench.setup()
        setup_s = (time.perf_counter() - STARTED) / slowness()
        settle()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0 if warm_ok else 1
        env = env_stamp()
        print(
            f"paperbench workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace}"
        )
        print(f"env {json.dumps(env, sort_keys=True)}")
        print(bench.echo())
        sys.stdout.flush()

        # A traced run gives half its time to an untraced phase and half
        # to the traced one; the two throughputs give the tracing cost.
        seconds = args.seconds / (1 + args.trace)
        phase = bench.run(seconds, NullRecorder(), traced=False)
        tallies = [phase["tally"]]
        if args.trace == 0:
            setups = [setup_s] + [
                child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)
            ]
            metrics = bench.end_to_end(phase, statistics.median(setups))
            units = END_TO_END
            notes = [
                f"setup samples {', '.join(f'{s:.3f}' for s in setups)} s",
                phase["tally"].summary(),
            ]
        else:
            recorder = Recorder()
            traced = bench.run(seconds, recorder, traced=True)
            tallies.append(traced["tally"])
            layers = recorder.layers()
            metrics = {name: 0.0 for name in PER_LAYER}
            metrics.update(bench.per_layer(traced, layers))
            metrics["trace.overhead_ratio"] = (
                traced["tally"].ops_per_s / phase["tally"].ops_per_s - 1.0
            )
            units = PER_LAYER
            spans_path = (
                OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            )
            recorder.write(spans_path, {
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "env": env, "layers": layers,
            })
            notes = [
                phase["tally"].summary(),
                f"{len(recorder.spans)} spans -> {spans_path}",
            ]
    finally:
        bench.teardown()

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    if args.trace == 1:
        metrics["failed_ops_ratio"] = failed / max(attempted, 1)
    latencies = phase["tally"].latencies
    beyond_p90 = len(latencies) - int(0.9 * len(latencies))
    print(
        f"ops {len(latencies)} timed (~{beyond_p90} beyond p90), "
        f"attempted {attempted}, failed {failed}, "
        f"failed_ops_ratio {failed / max(attempted, 1):g}; "
        + "; ".join(notes)
    )
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(warm_ok and failed == 0),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
