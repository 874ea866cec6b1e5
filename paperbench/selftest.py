"""Self-test of the benchmark at tiny size.

    python3 paperbench/selftest.py

Checks that:

1. every metric named in ``BENCHMARK.json`` is printed, with its unit,
   by every workload (untraced and traced one-second runs), and the
   units in the code agree with the file;
2. a corrupted reference digest drives the failed-op count above 0;
3. a different seed changes the generated scenarios, and the seed is
   echoed in the output;
4. the benchmark's replicas equal the entry points they stand for: the
   Monte-Carlo window loop equals ``Session.run_many`` and the traced
   ``Session.run`` replica equals ``Session.run``;
5. every per-layer metric has an entry in ``predictions.json``.

Prints one ``[ok]``/``[FAIL]`` line per check and exits 1 on any
failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

from common import (
    BENCH_DIR, END_TO_END, PER_LAYER, ROOT, WORKLOADS, load_reference,
    use_source_tree,
)

SEED = 7
FAILURES: list[str] = []


def report(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_metrics_printed(spec: dict) -> dict[str, str]:
    """Check 1 (and the seed echo of check 3); returns each workload's
    echoed scenario line."""
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    report(wanted[0] == END_TO_END and wanted[1] == PER_LAYER,
           "metric names and units in the code match BENCHMARK.json")
    echoes = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"),
                 "--workload", workload, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170, cwd=ROOT,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                report(False, f"{workload} trace={trace} exited "
                              f"{done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            printed = {
                name: metric["unit"]
                for name, metric in result["metrics"].items()
            }
            text_units = all(
                any(line.split()[:1] == [name] and line.split()[-1] == unit
                    for line in lines)
                for name, unit in wanted[trace].items()
            )
            report(
                printed == wanted[trace] and text_units
                and result["correct"] and result["failed"] == 0,
                f"{workload} trace={trace}: {len(printed)} metrics with "
                f"units, {result['attempted']} ops, all correct",
            )
            report(f"seed={SEED}" in lines[0],
                   f"{workload} trace={trace} echoes seed={SEED}")
            echoes[workload] = next(
                line for line in lines if line.startswith("scenarios ")
            )
    return echoes


def check_corrupt_reference() -> None:
    """Check 2: flip one character of every reference digest."""
    from sim_workloads import MC_SCALED, run_phase
    from spans import NullRecorder

    corrupted = {
        key: {**entry, "sha256": "0" + entry["sha256"][1:]
              if entry["sha256"][0] != "0" else "1" + entry["sha256"][1:]}
        for key, entry in load_reference()[MC_SCALED.name].items()
    }
    with contextlib.redirect_stderr(io.StringIO()):
        tally, _ = run_phase(MC_SCALED, SEED, 0.3, corrupted,
                             NullRecorder(), traced=False)
    report(tally.attempted > 0 and tally.failed == tally.attempted,
           f"corrupted digests fail every op ({tally.failed}/"
           f"{tally.attempted}), so failed_ops_ratio > 0")


def check_seeds(echoes: dict[str, str]) -> None:
    """Check 3: another seed, other scenarios."""
    from run import GridBench, SimBench
    from sim_workloads import SIM_WORKLOADS

    for name, workload in SIM_WORKLOADS.items():
        first = [
            [s.fingerprint() for s, _ in zip(workload.ops(seed), range(50))]
            for seed in (SEED, SEED + 1)
        ]
        other = SimBench(name, SEED + 1).echo()
        report(first[0] != first[1] and echoes.get(name) not in (None, other),
               f"{name}: seed {SEED + 1} draws other scenarios than "
               f"seed {SEED}, and the echo shows it")
    report(GridBench(SEED).echo() != GridBench(SEED + 1).echo(),
           "grid_serve: the base seeds follow the run seed")


def check_replicas() -> None:
    """Check 4: replicas equal the real entry points."""
    from repro.scenario import Session

    from sim_workloads import (
        ATTACK_1BANK, MC_SCALED, MC_WINDOWS, MULTIBANK, mc_replica,
        run_replica,
    )
    from spans import NullRecorder, Recorder

    # One scenario per class, each with a traced (Recorder) replica run.
    for scenario in MC_SCALED.pool()[::MC_SCALED.variants]:
        replica, _ = mc_replica(scenario, MC_WINDOWS, Recorder())
        report(
            replica.to_payload()
            == Session(scenario).run_many(MC_WINDOWS).to_payload(),
            f"MC replica == run_many for {scenario.label}#{scenario.seed}",
        )
    for workload in (ATTACK_1BANK, MULTIBANK):
        scenario = workload.pool()[workload.variants * 2]
        result, _ = run_replica(scenario, NullRecorder())
        report(
            result.to_payload() == Session(scenario).run().to_payload(),
            f"Session.run replica == Session.run for {scenario.label}",
        )


def check_predictions(spec: dict) -> None:
    """Check 5: the layer -> end-to-end table covers every metric."""
    table = json.loads((BENCH_DIR / "predictions.json").read_text())
    predicted = {row["metric"] for row in table["predictions"]}
    missing = sorted(
        m["name"] for m in spec["per_layer"] if m["name"] not in predicted
    )
    report(not missing and set(table["workloads"]) == set(WORKLOADS),
           f"predictions.json covers every workload and per-layer metric"
           f"{' (missing ' + ', '.join(missing) + ')' if missing else ''}")


def main() -> int:
    use_source_tree()
    spec = benchmark_spec()
    check_predictions(spec)
    check_replicas()
    check_corrupt_reference()
    echoes = check_metrics_printed(spec)
    check_seeds(echoes)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
