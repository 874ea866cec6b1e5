#!/usr/bin/env python
"""Record the engine's performance trajectory into ``BENCH_engine.json``.

Runs the rank-scaling benchmark (full-rate ``rank_stripe`` traces) for
each requested tracker at each requested bank count, through both the
scalar reference engine and the fast engine (the packed kernel;
recorded under the ``vectorized`` label), and verifies the two produce
bit-identical ``RankSimResult``s while timing them. On top
of that it records the channel trajectory (``channel_points``: acts/sec
vs rank count through ``ChannelSimulator``) and the streaming pipeline
(``streaming``: streamed-vs-materialized overhead with bit-identity,
plus the bounded-memory check — peak traced memory of a streamed run
must stay flat as the horizon grows 16x). Also times the Scenario
``Session`` facade against driving the engine directly (the facade must
cost <5%, recorded as ``scenario_overhead``) and the parallel
experiment runner's fan-out (the exp-speedup benchmark) unless
``--no-exp`` is given.

The output JSON is the machine-readable perf trajectory: acts/sec per
(tracker, banks, kernel) plus the reference→fast speedup, suitable
for diffing across commits. CI uploads it as a build artifact on every
push (non-blocking: wall-clock numbers on shared runners inform, they
do not gate).

The fast-engine acceptance point (``fast_channel_points``) times the
8-bank/4-rank channel config through the reference engine and the fast
engine without and with its compiled march, verifying all three are
bit-identical and recording the speedups between them.

Usage::

    PYTHONPATH=src python scripts/bench_trajectory.py            # full
    PYTHONPATH=src python scripts/bench_trajectory.py --quick    # CI
    PYTHONPATH=src python scripts/bench_trajectory.py --smoke    # gate
    PYTHONPATH=src python scripts/bench_trajectory.py -o out.json

``--smoke`` runs only the behavioural gates (small horizon, no timing
thresholds, no file write) and exits non-zero on any mismatch — the
blocking CI gate; wall-clock numbers never gate. It covers the
reference vs fast-numpy vs fast-compiled bit-identity checks plus the
experiment-service lifecycle: run a grid, crash it mid-run, resume to
a bit-identical store, and answer a query over HTTP (``repro serve``).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import asdict
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.attacks.base import AttackParams  # noqa: E402
from repro.attacks.channel import rank_synchronized  # noqa: E402
from repro.attacks.rank import (  # noqa: E402
    cross_bank_decoy,
    cross_bank_decoy_stream,
    rank_stripe,
)
from repro.scenario import AttackSpec, Scenario, Session, TrackerSpec  # noqa: E402
from repro.sim.engine import (  # noqa: E402
    ChannelSimulator,
    EngineConfig,
    RankSimulator,
)
from repro.trackers.registry import (  # noqa: E402
    bank_tracker_factory,
    channel_tracker_factory,
)

MAX_ACT = 73

#: Budget for the Session facade over the direct engine drive (ratio).
SCENARIO_OVERHEAD_BUDGET = 0.05


def _canonical(result) -> str:
    return json.dumps(asdict(result), sort_keys=True)


def bench_engine_point(
    tracker: str,
    num_banks: int,
    intervals: int,
    repeats: int,
) -> dict:
    """Time one (tracker × banks) point on both engines; verify identity."""
    params = AttackParams(max_act=MAX_ACT, intervals=intervals, base_row=1000)
    trace = rank_stripe(3 * num_banks, num_banks, params)
    total_acts = trace.total_acts
    point: dict = {
        "tracker": tracker,
        "num_banks": num_banks,
        "intervals": intervals,
        "total_acts": total_acts,
    }
    results = {}
    for kernel, vectorized in (("scalar", False), ("vectorized", True)):
        best = float("inf")
        for _ in range(repeats):
            simulator = RankSimulator(
                bank_tracker_factory(tracker, base_seed=7),
                EngineConfig(num_banks=num_banks, trh=1e9, vectorized=vectorized),
            )
            started = time.perf_counter()
            results[kernel] = simulator.run(trace)
            best = min(best, time.perf_counter() - started)
        point[f"{kernel}_acts_per_second"] = round(total_acts / best, 1)
        point[f"{kernel}_seconds"] = round(best, 6)
    point["speedup"] = round(
        point["vectorized_acts_per_second"] / point["scalar_acts_per_second"], 3
    )
    point["bit_identical"] = _canonical(results["scalar"]) == _canonical(
        results["vectorized"]
    )
    return point


def bench_scenario_overhead(intervals: int, repeats: int) -> dict:
    """Time the Session facade against driving the engine directly.

    Both paths execute the *same* computation — scenario-derived
    trackers, trace, and config through ``RankSimulator`` — so the gap
    is pure facade cost (payload hashing for the seed streams plus
    dispatch), which must stay under ``SCENARIO_OVERHEAD_BUDGET``. The
    two results are asserted bit-identical while timing.
    """
    scenario = Scenario(
        tracker=TrackerSpec.of("mint"),
        attack=AttackSpec.of("rank-stripe", sides=12),
        trh=1e9,
        intervals=intervals,
        num_banks=4,
        seed=7,
    )
    results = {}

    def direct() -> None:
        simulator = RankSimulator(
            scenario.tracker_factory(), scenario.engine_config()
        )
        results["direct"] = simulator.run(scenario.build_trace())

    def facade() -> None:
        results["session"] = Session(scenario).run()

    # Paired measurement: the facade delta is far below this machine's
    # run-to-run jitter, so time the two paths back to back each round
    # (drift hits both sides of a round equally) and report the median
    # per-round ratio. Best-of seconds are recorded for context.
    pairs = (("direct", direct), ("session", facade))
    timings = {label: float("inf") for label, _ in pairs}
    for _, runner in pairs:
        runner()  # warmup: NumPy ufunc + per-interval cache build
    ratios = []
    for _ in range(repeats):
        round_times = {}
        for label, runner in pairs:
            started = time.perf_counter()
            runner()
            round_times[label] = time.perf_counter() - started
            timings[label] = min(timings[label], round_times[label])
        ratios.append(round_times["session"] / round_times["direct"])
    ratios.sort()
    overhead = ratios[len(ratios) // 2] - 1.0
    return {
        "intervals": intervals,
        "num_banks": 4,
        "direct_seconds": round(timings["direct"], 6),
        "session_seconds": round(timings["session"], 6),
        "overhead_ratio": round(overhead, 4),
        "budget": SCENARIO_OVERHEAD_BUDGET,
        "within_budget": overhead < SCENARIO_OVERHEAD_BUDGET,
        "bit_identical": (
            _canonical(results["direct"]) == _canonical(results["session"])
        ),
    }


def bench_channel_scaling(
    tracker: str,
    ranks: list[int],
    intervals: int,
    repeats: int,
    num_banks: int = 2,
) -> list[dict]:
    """Acts/sec vs rank count on the channel engine (throughput must be
    ~flat per ACT: R ranks do R× the work, not R× the overhead)."""
    points = []
    for num_ranks in ranks:
        params = AttackParams(
            max_act=MAX_ACT, intervals=intervals, base_row=1000
        )
        trace = rank_synchronized(6, num_ranks, params, num_banks=num_banks)
        total_acts = num_ranks * num_banks * MAX_ACT * intervals
        best = float("inf")
        for _ in range(repeats):
            simulator = ChannelSimulator(
                channel_tracker_factory(tracker, base_seed=7),
                EngineConfig(
                    num_banks=num_banks, trh=1e9, num_ranks=num_ranks
                ),
            )
            started = time.perf_counter()
            result = simulator.run(trace)
            best = min(best, time.perf_counter() - started)
        assert result.demand_acts == total_acts
        points.append({
            "tracker": tracker,
            "num_ranks": num_ranks,
            "num_banks": num_banks,
            "intervals": intervals,
            "total_acts": total_acts,
            "acts_per_second": round(total_acts / best, 1),
            "seconds": round(best, 6),
        })
    base = points[0]["acts_per_second"]
    for point in points:
        point["retained_vs_1_rank"] = round(
            point["acts_per_second"] / base, 3
        )
    return points


#: The engine variants every channel point times and pins bit-identical:
#: the scalar reference and the fast engine without and with its
#: compiled march, as ``(label, EngineConfig overrides, forced
#: provider)``; ``None`` leaves provider resolution to the host.
ENGINE_VARIANTS = (
    ("reference", dict(vectorized=False), None),
    ("fast_numpy", {}, "none"),
    ("fast_compiled", {}, None),
)


def bench_fast_channel(
    trackers: list[str],
    intervals: int,
    repeats: int,
    num_ranks: int = 4,
    num_banks: int = 8,
) -> list[dict]:
    """The fast-engine acceptance point: one 8-bank/4-rank config
    through the reference engine and the fast engine without
    (``REPRO_KERNELS=none``) and with its compiled march, timed, with
    bit-identity across all of them.

    The workload is the attack shape the packed kernel exists for: each
    rank's whole ``max_act`` tREFI budget *striped across* the banks as
    double-sided pairs, so every (rank, bank) batch carries only
    ``max_act/num_banks`` ACTs — the steady state the compiled march
    runs in one call (every rank replaying one cached interval for
    thousands of tREFIs). The speedups recorded are fast-numpy over the
    reference and fast-compiled over fast-numpy. When no compiled
    provider is available on the host the points record
    ``provider: null`` and skip the compiled variant rather than fail.
    """
    from contextlib import nullcontext

    from repro import kernels
    from repro.sim.trace import ChannelTrace, CycleStream, RankInterval

    provider = kernels.provider()
    variants = [
        variant for variant in ENGINE_VARIANTS
        if provider is not None or variant[0] != "fast_compiled"
    ]
    acts = []
    for i in range(MAX_ACT):
        bank = i % num_banks
        pair = (i // num_banks) % 3
        acts.append(
            (bank, 1000 + 4000 * bank + 6 * pair + (2 if i % 2 else 0))
        )
    interval = RankInterval.of(acts)
    points = []
    for tracker in trackers:
        trace = ChannelTrace(
            name="stripe",
            per_rank={
                rank: CycleStream(f"stripe-r{rank}", (interval,), intervals)
                for rank in range(num_ranks)
            },
        )
        total_acts = num_ranks * MAX_ACT * intervals
        point: dict = {
            "tracker": tracker,
            "num_ranks": num_ranks,
            "num_banks": num_banks,
            "intervals": intervals,
            "total_acts": total_acts,
            "kernel": "fast",
            "provider": provider,
        }
        results = {}
        best = {label: float("inf") for label, _, _ in variants}
        # Repeats interleave the engines so a load burst on a shared
        # box lands on all of them instead of skewing one label's whole
        # timing window (this point records cross-engine *ratios*).
        for _ in range(repeats):
            for label, overrides, force in variants:
                with (
                    kernels.forced_provider(force) if force
                    else nullcontext()
                ):
                    simulator = ChannelSimulator(
                        channel_tracker_factory(tracker, base_seed=7),
                        EngineConfig(
                            num_banks=num_banks,
                            num_ranks=num_ranks,
                            trh=1e9,
                            **overrides,
                        ),
                    )
                    started = time.perf_counter()
                    results[label] = simulator.run(trace)
                    best[label] = min(
                        best[label], time.perf_counter() - started
                    )
        for label, _, _ in variants:
            point[f"{label}_acts_per_second"] = round(
                total_acts / best[label], 1
            )
            point[f"{label}_seconds"] = round(best[label], 6)
        point["speedup_vs_reference"] = round(
            best["reference"] / best["fast_numpy"], 3
        )
        if provider is not None:
            point["compiled_speedup_vs_numpy"] = round(
                best["fast_numpy"] / best["fast_compiled"], 3
            )
            point["kernel_stats"] = results["fast_compiled"].kernel_stats
        canon = {label: _canonical(r) for label, r in results.items()}
        point["bit_identical"] = all(
            canon[label] == canon["reference"] for label, _, _ in variants
        )
        points.append(point)
    return points


def bench_streaming(intervals: int, repeats: int) -> dict:
    """Streamed vs materialized: time overhead, bit-identity, and the
    bounded-memory guarantee.

    The same cross-bank decoy schedule runs once as a materialized
    ``RankTrace`` and once as its ``CycleStream`` twin; the results
    must be bit-identical and the stream's cost stays within a few
    percent. The memory probe then runs the stream at 1× and 16× the
    horizon: peak traced memory must stay flat (a materialized trace
    would grow by 8 bytes of pointer per added tREFI).
    """
    import tracemalloc

    params = AttackParams(max_act=MAX_ACT, intervals=intervals, base_row=1000)
    num_banks = 4

    def simulator():
        return RankSimulator(
            bank_tracker_factory("mint", base_seed=7),
            EngineConfig(
                num_banks=num_banks, trh=1e9, allow_postponement=True
            ),
        )

    results = {}
    timings = {"materialized": float("inf"), "streamed": float("inf")}
    variants = {
        "materialized": lambda: cross_bank_decoy(60_000, num_banks, params),
        "streamed": lambda: cross_bank_decoy_stream(
            60_000, num_banks, params
        ),
    }
    for label, build in variants.items():
        trace = build()
        for _ in range(repeats):
            sim = simulator()
            started = time.perf_counter()
            results[label] = sim.run(trace)
            timings[label] = min(
                timings[label], time.perf_counter() - started
            )

    def streamed_peak(horizon_intervals: int) -> int:
        stream = cross_bank_decoy_stream(
            60_000,
            num_banks,
            AttackParams(
                max_act=MAX_ACT, intervals=horizon_intervals, base_row=1000
            ),
        )
        sim = simulator()
        tracemalloc.start()
        sim.run(stream)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    streamed_peak(intervals)  # warm-up: caches, ufunc state
    short_peak = streamed_peak(intervals)
    long_peak = streamed_peak(16 * intervals)
    overhead = timings["streamed"] / timings["materialized"] - 1.0
    return {
        "intervals": intervals,
        "num_banks": num_banks,
        "materialized_seconds": round(timings["materialized"], 6),
        "streamed_seconds": round(timings["streamed"], 6),
        "overhead_ratio": round(overhead, 4),
        "bit_identical": (
            _canonical(results["materialized"]) == _canonical(
                results["streamed"]
            )
        ),
        "peak_bytes_at_1x_horizon": short_peak,
        "peak_bytes_at_16x_horizon": long_peak,
        # Flat = the 16x run costs at most ~the 1x run plus slack; a
        # materialized 16x trace would add 8 bytes/tREFI of pointers.
        "memory_flat_in_horizon": long_peak <= 2 * short_peak + 65536,
    }


#: ``--compare`` gate: a bit-identical point may lose at most this
#: fraction of its acts/sec before the diff exits non-zero.
REGRESSION_TOLERANCE = 0.20

#: The record keys holding lists of timed points (each point a dict of
#: metadata plus ``*_per_second`` metrics).
_POINT_LIST_KEYS = (
    "engine_points",
    "channel_points",
    "fast_channel_points",
    "exp_service_points",
)


def _point_key(point: dict) -> tuple:
    return (
        point.get("tracker"),
        point.get("num_ranks"),
        point.get("num_banks"),
        point.get("kernel"),
    )


def compare_records(old_path: Path, new_path: Path) -> int:
    """Diff two ``BENCH_engine.json`` records point by point.

    Prints a per-point speedup-delta table for every ``*_acts_per_second``
    metric present in both records, and exits non-zero when any point
    that is ``bit_identical`` in both records regressed by more than
    ``REGRESSION_TOLERANCE``. Points or metrics present on only one
    side are reported but never gate (the trajectory grows new tiers).
    """
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    header = f"{'point':<42s} {'metric':<28s} {'old':>14s} {'new':>14s} {'delta':>8s}"
    print(header)
    print("-" * len(header))
    regressions = []
    for list_key in _POINT_LIST_KEYS:
        old_points = {
            _point_key(p): p for p in old.get(list_key, [])
        }
        for point in new.get(list_key, []):
            base = old_points.get(_point_key(point))
            label = (
                f"{list_key}:{point.get('tracker')}"
                f"@{point.get('num_ranks', 1)}r"
                f"{point.get('num_banks', 1)}b"
            )
            if base is None:
                print(f"{label:<42s} {'(new point)':<28s}")
                continue
            gated = bool(
                point.get("bit_identical")
                and base.get("bit_identical")
            )
            metrics = sorted(
                metric
                for metric in point
                if metric.endswith("_per_second")
            )
            for metric in metrics:
                after = point[metric]
                before = base.get(metric)
                if not before:
                    print(f"{label:<42s} {metric:<28s} "
                          f"{'(new metric)':>14s} {after:>14,.0f}")
                    continue
                delta = after / before - 1.0
                flag = ""
                if gated and delta < -REGRESSION_TOLERANCE:
                    regressions.append((label, metric, delta))
                    flag = "  REGRESSION"
                print(
                    f"{label:<42s} {metric:<28s} {before:>14,.0f} "
                    f"{after:>14,.0f} {delta:>+7.1%}{flag}"
                )
    if regressions:
        print(
            f"ERROR: {len(regressions)} bit-identical point(s) regressed "
            f"more than {REGRESSION_TOLERANCE:.0%}:"
        )
        for label, metric, delta in regressions:
            print(f"  {label} {metric} {delta:+.1%}")
        return 1
    print("compare: no gated regressions")
    return 0


def bench_exp_runner(points: int, windows: int) -> dict:
    """Time the experiment runner serially vs with a 4-worker pool."""
    from repro.exp import run_grid
    from repro.exp.presets import scaled_benchmark_grid
    from repro.parallel import default_workers, fork_available

    grid = scaled_benchmark_grid(points=points, windows=windows)
    # Interleaved best-of-2: run-to-run drift on a shared box exceeds
    # the serial/pool delta being measured (see bench_exp_service).
    timings = {"serial": float("inf"), "pool4": float("inf")}
    for _ in range(2):
        for label, workers in (("serial", 1), ("pool4", 4)):
            started = time.perf_counter()
            run_grid(grid, base_seed=11, n_workers=workers)
            timings[label] = min(
                timings[label], time.perf_counter() - started
            )
    return {
        "points": len(grid),
        "windows": windows,
        "serial_seconds": round(timings["serial"], 3),
        "pool4_seconds": round(timings["pool4"], 3),
        "speedup": round(timings["serial"] / max(timings["pool4"], 1e-9), 3),
        "fork_available": fork_available(),
        "usable_cpus": default_workers(),
    }


def _exp_service_grid(windows: int = 2):
    """A 16-point grid of cheap scaled points for the service bench."""
    base = Scenario(
        tracker="mint",
        attack="single-sided",
        trh=60.0,
        intervals=windows * 64,
        max_act=8,
        num_rows=1024,
        refi_per_refw=64,
        scaled_timing=True,
    )
    return base.sweep(
        tracker=["mint", "para"],
        attack=[AttackSpec.of("single-sided"), AttackSpec.of("double-sided")],
        trh=[50.0, 60.0, 70.0, 80.0],
    )


def _store_bytes(path: Path) -> dict:
    """Manifest + shard bytes keyed by name, for bit-identity diffs."""
    files = {"manifest": path.read_bytes()}
    shards_dir = path.with_name(path.name + ".shards")
    if shards_dir.exists():
        for shard in sorted(shards_dir.glob("*.json")):
            files[shard.name] = shard.read_bytes()
    return files


def bench_exp_service(windows: int = 2) -> dict:
    """The experiment-service acceptance point (one dict in
    ``exp_service_points``): points/sec through the sharded scheduler
    serially vs with a 4-worker pool, crash→resume latency and store
    bit-identity, and the dirty-shard flush telemetry (incremental
    bytes vs the full store).

    On a 1-CPU host the pool guard collapses ``pool4`` to the inline
    path, so its throughput tracks serial (~1.0x) instead of paying
    fork overhead — the regression the guards exist to prevent; the
    recorded ``usable_cpus`` disambiguates the two regimes.
    """
    import tempfile

    from repro.exp import ResultStore, run_grid
    from repro.exp.runner import _InjectedCrash
    from repro.parallel import default_workers, fork_available

    grid = _exp_service_grid(windows=windows)
    n_points = len(grid)
    point: dict = {
        "tracker": "mint+para",
        "kernel": "exp-service",
        "points": n_points,
        "windows": windows,
        "fork_available": fork_available(),
        "usable_cpus": default_workers(),
    }
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        # Interleaved best-of-N: run-to-run drift on a busy shared box
        # exceeds the serial/pool delta, so alternate the two labels
        # within each round instead of timing them in separate windows.
        timings = {"serial": float("inf"), "pool4": float("inf")}
        for round_index in range(2):
            for label, workers in (("serial", 1), ("pool4", 4)):
                store = ResultStore(tmp / f"{label}-{round_index}.json")
                started = time.perf_counter()
                report = run_grid(grid, base_seed=11, n_workers=workers,
                                  store=store)
                timings[label] = min(
                    timings[label], time.perf_counter() - started
                )
                if label == "pool4":
                    point["pool4_dispatch"] = report.dispatch
        for label in ("serial", "pool4"):
            point[f"{label}_seconds"] = round(timings[label], 3)
            point[f"{label}_points_per_second"] = round(
                n_points / timings[label], 2
            )
        point["speedup"] = round(
            timings["serial"] / max(timings["pool4"], 1e-9), 3
        )

        # Crash after 2 of the serial plan's shards, then time the
        # resume; the recovered store must be byte-identical to the
        # uninterrupted serial run's.
        crashed = ResultStore(tmp / "crashed.json")
        try:
            run_grid(grid, base_seed=11, n_workers=1, store=crashed,
                     fail_after_shards=2)
        except _InjectedCrash:
            pass
        started = time.perf_counter()
        resume = run_grid(
            grid, base_seed=11, n_workers=1,
            store=ResultStore(tmp / "crashed.json"),
        )
        point["resume_seconds"] = round(time.perf_counter() - started, 3)
        point["resume_executed"] = resume.executed
        point["bit_identical"] = (
            _store_bytes(tmp / "serial-0.json")
            == _store_bytes(tmp / "crashed.json")
        )

        # Dirty-shard flush telemetry: growing a flushed store by one
        # result should rewrite one shard + manifest, not the store.
        store = ResultStore(tmp / "serial-0.json")
        extra = _exp_service_grid(windows=windows + 1).points()[0]
        from repro.exp import run_point

        store.put(run_point(extra, base_seed=11))
        point["dirty_flush_bytes"] = store.flush()
        point["full_store_bytes"] = store.disk_bytes()
    return point


def smoke_exp_service() -> int:
    """The blocking exp-service smoke: run, crash, resume, serve, query.

    Returns the number of failed checks (0 = ok). Small grid, no
    timing thresholds — behavioural identity only.
    """
    import tempfile
    import threading
    import urllib.request

    from repro.exp import QueryAPI, ResultStore, make_server, run_grid
    from repro.exp.runner import _InjectedCrash

    failures = 0
    grid = _exp_service_grid(windows=1)
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        run_grid(grid, base_seed=11, n_workers=1,
                 store=ResultStore(tmp / "clean.json"))
        try:
            run_grid(grid, base_seed=11, n_workers=1,
                     store=ResultStore(tmp / "resumed.json"),
                     fail_after_shards=1)
        except _InjectedCrash:
            pass
        resume = run_grid(grid, base_seed=11, n_workers=1,
                          store=ResultStore(tmp / "resumed.json"))
        identical = (
            _store_bytes(tmp / "clean.json")
            == _store_bytes(tmp / "resumed.json")
        )
        failures += not identical
        print(
            f"exp service: resume recovered {resume.resumed} point(s), "
            f"executed {resume.executed}, store bit-identical "
            f"[{'ok' if identical else 'MISMATCH'}]"
        )

        server = make_server(QueryAPI.open(tmp / "resumed.json"), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with urllib.request.urlopen(
                f"http://{host}:{port}/v1/status"
            ) as response:
                status = json.loads(response.read())
            served = status["results"] == len(grid)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        failures += not served
        print(
            f"exp service: served {status['results']}/{len(grid)} "
            f"result(s) over HTTP [{'ok' if served else 'MISMATCH'}]"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_engine.json",
        help="where to write the JSON record (default: repo root)",
    )
    parser.add_argument(
        "--trackers",
        default="mint,graphene,para,mithril",
        help="comma-separated registry tracker names",
    )
    parser.add_argument(
        "--banks",
        default="1,4,8",
        help="comma-separated bank counts",
    )
    parser.add_argument(
        "--intervals", type=int, default=400, help="tREFIs per run"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--no-exp",
        action="store_true",
        help="skip the experiment-runner fan-out benchmark",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI preset: fewer trackers/banks/intervals, single repeat",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reference vs fast-numpy vs fast-compiled bit-identity "
        "gate only: small horizon, "
        "no timing thresholds, no output file; exits non-zero on any "
        "mismatch",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD.json", "NEW.json"),
        help="diff two BENCH_engine.json records: per-point acts/sec "
        "delta table; exits non-zero when any bit-identical point "
        f"regressed more than {REGRESSION_TOLERANCE:.0%}",
    )
    args = parser.parse_args(argv)

    if args.compare:
        return compare_records(Path(args.compare[0]), Path(args.compare[1]))

    if args.smoke:
        from repro import kernels

        mismatches = 0
        for point in bench_fast_channel(
            ["mint", "graphene", "none"], intervals=120, repeats=1
        ):
            status = "ok" if point["bit_identical"] else "MISMATCH"
            mismatches += not point["bit_identical"]
            compiled = (
                f"fast-compiled ({point['provider']})"
                if point["provider"] is not None
                else "fast-compiled skipped "
                f"({kernels.unavailable_reason()})"
            )
            print(
                f"{point['tracker']:>10s} ranks={point['num_ranks']} "
                f"banks={point['num_banks']} reference == fast-numpy == "
                f"{compiled} [{status}]"
            )
        mismatches += smoke_exp_service()
        if mismatches:
            print(f"ERROR: {mismatches} bit-identity check(s) failed")
            return 1
        print("bit-identity smoke: all ok")
        return 0

    if args.quick:
        args.trackers = "mint,graphene"
        args.banks = "1,8"
        args.intervals = min(args.intervals, 200)
        # Two repeats, best-of: a single cold run on a tiny trace mostly
        # times NumPy ufunc warmup and the per-interval cache build.
        args.repeats = 2

    trackers = [name.strip() for name in args.trackers.split(",") if name.strip()]
    banks = [int(n) for n in args.banks.split(",") if n.strip()]

    record: dict = {
        "schema": 1,
        "benchmark": "engine-trajectory",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "engine_points": [],
    }
    failures = 0
    for tracker in trackers:
        for num_banks in banks:
            point = bench_engine_point(
                tracker, num_banks, args.intervals, args.repeats
            )
            record["engine_points"].append(point)
            status = "ok" if point["bit_identical"] else "MISMATCH"
            failures += not point["bit_identical"]
            print(
                f"{tracker:>10s} banks={num_banks:<2d} "
                f"scalar {point['scalar_acts_per_second']:>12,.0f}/s  "
                f"vectorized {point['vectorized_acts_per_second']:>12,.0f}/s  "
                f"x{point['speedup']:<5.2f} [{status}]"
            )
    record["channel_points"] = bench_channel_scaling(
        trackers[0], [1, 2, 4], args.intervals, args.repeats
    )
    for point in record["channel_points"]:
        print(
            f"{point['tracker']:>10s} ranks={point['num_ranks']:<2d} "
            f"channel {point['acts_per_second']:>12,.0f}/s  "
            f"retained x{point['retained_vs_1_rank']:<5.2f}"
        )
    # Long horizon regardless of --quick: the fast engine pays a fixed
    # packed-array setup that a short run would mistake for marginal
    # cost. "none" isolates the kernel itself (no tracker floor): the
    # ceiling the tracked points approach as their per-REF Python work
    # shrinks. Extra repeats here: this is the acceptance point, and
    # best-of-N needs more draws than the one-engine benches to shake
    # shared-box scheduling noise out of a cross-engine ratio.
    record["fast_channel_points"] = bench_fast_channel(
        list(dict.fromkeys(trackers[:2] + ["none"])),
        max(args.intervals, 2000),
        max(args.repeats, 5),
    )
    for point in record["fast_channel_points"]:
        status = "ok" if point["bit_identical"] else "MISMATCH"
        failures += not point["bit_identical"]
        compiled = (
            f"fast-compiled {point['fast_compiled_acts_per_second']:>12,.0f}/s "
            f"({point['provider']}, x{point['compiled_speedup_vs_numpy']:.2f})"
            if point["provider"] is not None
            else "fast-compiled: no provider"
        )
        print(
            f"{point['tracker']:>10s} ranks={point['num_ranks']} "
            f"banks={point['num_banks']} "
            f"reference {point['reference_acts_per_second']:>12,.0f}/s  "
            f"fast-numpy {point['fast_numpy_acts_per_second']:>12,.0f}/s "
            f"(x{point['speedup_vs_reference']:.2f})  {compiled} "
            f"[{status}]"
        )
    record["streaming"] = bench_streaming(
        intervals=2 * args.intervals, repeats=max(args.repeats, 3)
    )
    streaming = record["streaming"]
    streaming_status = "ok" if (
        streaming["bit_identical"] and streaming["memory_flat_in_horizon"]
    ) else "MISMATCH" if not streaming["bit_identical"] else "MEM GROWTH"
    failures += streaming_status != "ok"
    print(
        f"streaming: materialized {streaming['materialized_seconds']}s, "
        f"streamed {streaming['streamed_seconds']}s "
        f"({streaming['overhead_ratio'] * 100:+.2f}%), peak "
        f"{streaming['peak_bytes_at_1x_horizon']:,}B -> "
        f"{streaming['peak_bytes_at_16x_horizon']:,}B at 16x horizon "
        f"[{streaming_status}]"
    )
    # Longer runs + more interleaved repeats than the kernel points:
    # the facade delta is tiny, so the measurement needs a deep floor.
    record["scenario_overhead"] = bench_scenario_overhead(
        intervals=2 * args.intervals, repeats=max(args.repeats, 7)
    )
    overhead = record["scenario_overhead"]
    overhead_status = "ok" if (
        overhead["within_budget"] and overhead["bit_identical"]
    ) else "OVER BUDGET" if not overhead["within_budget"] else "MISMATCH"
    failures += overhead_status != "ok"
    print(
        f"scenario facade: direct {overhead['direct_seconds']}s, "
        f"session {overhead['session_seconds']}s "
        f"({overhead['overhead_ratio'] * 100:+.2f}%, budget "
        f"{SCENARIO_OVERHEAD_BUDGET * 100:.0f}%) [{overhead_status}]"
    )
    if not args.no_exp:
        record["exp_runner"] = bench_exp_runner(
            points=2 if args.quick else 4, windows=2 if args.quick else 3
        )
        print(
            f"exp runner: serial {record['exp_runner']['serial_seconds']}s, "
            f"4 workers {record['exp_runner']['pool4_seconds']}s "
            f"(x{record['exp_runner']['speedup']})"
        )
        service = bench_exp_service(windows=1 if args.quick else 2)
        record["exp_service_points"] = [service]
        failures += not service["bit_identical"]
        print(
            f"exp service: {service['points']} points, serial "
            f"{service['serial_points_per_second']}/s, pool4 "
            f"{service['pool4_points_per_second']}/s "
            f"({service['pool4_dispatch']}, x{service['speedup']}), "
            f"resume {service['resume_seconds']}s, dirty flush "
            f"{service['dirty_flush_bytes']:,}B of "
            f"{service['full_store_bytes']:,}B "
            f"[{'ok' if service['bit_identical'] else 'MISMATCH'}]"
        )

    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.output}")
    if failures:
        print(f"ERROR: {failures} check(s) failed (kernel identity, "
              f"streaming identity/memory, or scenario-facade overhead "
              f"budget)")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
