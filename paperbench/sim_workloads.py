"""The three simulation workloads: scenario pools, ops, and replicas.

Each workload is a fixed set of scenario *classes* (tracker x attack x
geometry) times a number of *variants* (scenario seed and base row).
The run seed only picks the order in which each class walks its
variants and the order in which the classes come: every round of the
closed loop issues each class exactly once, in a seed-shuffled order,
so the mix of work is the same for every seed while the scenarios the
program sees are not. The pool of every scenario any seed can draw is finite, and the
committed reference table (``reference.json``) holds the scalar
engine's output digest for each one.

Untraced ops call the real entry points (``Session.run`` /
``Session.run_many``). Traced ops run a replica of those entry points
built from the same public calls, with a span around each one; the
replica's output is checked against the same reference digests.
"""

from __future__ import annotations

import gc
import itertools
import random
import time
import traceback
from dataclasses import dataclass
from typing import Any, Iterator

from repro.scenario import AttackSpec, Scenario, Session
from repro.sim.engine import ChannelSimulator, RankSimulator
from repro.sim.montecarlo import MonteCarloResult
from repro.sim.seeding import stable_seed

from common import Tally, digest

#: Windows per Monte-Carlo op (one ``run_many`` batch).
MC_WINDOWS = 8


@dataclass(frozen=True)
class SimWorkload:
    name: str
    #: ``(label, Scenario kwargs)`` per class.
    classes: tuple[tuple[str, dict], ...]
    variants: int
    #: Base-row step between variants (0 keeps the class's base row).
    row_stride: int
    #: Ops are ``run_many(MC_WINDOWS)`` batches instead of ``run``.
    monte_carlo: bool = False

    def scenario(self, kwargs: dict, variant: int) -> Scenario:
        base_row = kwargs.get("base_row", 1000) + self.row_stride * variant
        return Scenario(**{**kwargs, "base_row": base_row, "seed": variant})

    def pool(self) -> list[Scenario]:
        """Every scenario any run seed can draw."""
        return [
            self.scenario(kwargs, variant)
            for _, kwargs in self.classes
            for variant in range(self.variants)
        ]

    def ops(self, seed: int) -> Iterator[Scenario]:
        """The closed loop's op sequence for ``seed`` (endless): each
        class walks its variants in its own seed-shuffled order, one per
        round, so a run draws variants without repeats until it has used
        them all."""
        rng = random.Random(f"paperbench/{self.name}/{seed}")
        walks = [
            (kwargs, rng.sample(range(self.variants), self.variants))
            for _, kwargs in self.classes
        ]
        for round_index in itertools.count():
            rng.shuffle(walks)
            for kwargs, walk in walks:
                yield self.scenario(kwargs, walk[round_index % self.variants])

    def warmup(self) -> list[Scenario]:
        """One variant-0 scenario per tracker (fills lazy caches)."""
        seen: dict[str, Scenario] = {}
        for _, kwargs in self.classes:
            tracker = kwargs["tracker"]
            if tracker not in seen:
                seen[tracker] = self.scenario(kwargs, 0)
        return list(seen.values())


def _classes(trackers, attacks, **common) -> tuple:
    return tuple(
        (f"{tracker}/{label}", {"tracker": tracker, **common, **extra})
        for tracker in trackers
        for label, extra in attacks
    )


ATTACK_1BANK = SimWorkload(
    name="attack_1bank",
    classes=_classes(
        ("mint", "para", "graphene", "prac", "none"),
        (
            ("single-sided", {"attack": AttackSpec.of("single-sided")}),
            ("double-sided", {"attack": AttackSpec.of("double-sided")}),
            ("one-location", {"attack": AttackSpec.of("one-location")}),
            ("pattern2", {"attack": AttackSpec.of("pattern2")}),
            ("decoy", {"attack": AttackSpec.of("decoy", target=60_000),
                       "allow_postponement": True}),
        ),
        trh=4800.0, intervals=1000, max_act=73, num_rows=128 * 1024,
    ),
    variants=16,
    row_stride=7919,
)

MC_SCALED = SimWorkload(
    name="mc_scaled",
    classes=_classes(
        ("mint", "para"),
        (
            ("pattern2", {"attack": AttackSpec.of("pattern2")}),
            ("double-sided", {"attack": AttackSpec.of("double-sided")}),
        ),
        trh=40.0, max_act=8, intervals=64, refi_per_refw=64,
        num_rows=1024, base_row=100, scaled_timing=True,
    ),
    variants=256,
    row_stride=0,
    monte_carlo=True,
)

MULTIBANK = SimWorkload(
    name="multibank",
    classes=_classes(
        ("mint", "graphene", "none"),
        (
            ("rank-synchronized@8x4", {
                "attack": AttackSpec.of("rank-synchronized", sides=12),
                "num_ranks": 4}),
            ("bank-interleaved@8x4", {
                "attack": AttackSpec.of("bank-interleaved",
                                        base="double-sided"),
                "num_ranks": 4}),
            ("channel-stripe-decoy@8x4", {
                "attack": AttackSpec.of("channel-stripe-decoy",
                                        target=60_000),
                "num_ranks": 4}),
            ("rank-stripe@8x1", {
                "attack": AttackSpec.of("rank-stripe", sides=12)}),
            ("cross-bank-decoy@8x1", {
                "attack": AttackSpec.of("cross-bank-decoy", target=60_000)}),
        ),
        trh=4800.0, intervals=200, max_act=73, num_rows=128 * 1024,
        num_banks=8, allow_postponement=True,
    ),
    variants=8,
    row_stride=7919,
)

SIM_WORKLOADS = {w.name: w for w in (ATTACK_1BANK, MC_SCALED, MULTIBANK)}


# ---------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------

def run_entry_point(workload: SimWorkload, scenario: Scenario,
                    reference: dict) -> tuple[dict, int]:
    """One untraced op through the real entry point: output payload and
    simulated demand ACTs (from the reference table for Monte-Carlo
    batches, whose result does not carry them)."""
    if workload.monte_carlo:
        payload = Session(scenario).run_many(MC_WINDOWS).to_payload()
        entry = reference.get(scenario.fingerprint())
        return payload, entry["demand_acts"] if entry else 0
    result = Session(scenario).run()
    return result.to_payload(), result.demand_acts


def run_replica(scenario: Scenario, recorder: Any) -> tuple[Any, Any]:
    """``Session.run`` spelled out call by call, one span per layer.

    Returns ``(result, trace)``; the result must be bit-identical to
    ``Session(scenario).run()``.
    """

    def build_tracker(*coords: int):
        with recorder.span("trackers.build"):
            if len(coords) == 2:
                rank, bank = coords
                return scenario.build_tracker(bank, rank=rank)
            return scenario.build_tracker(coords[0])

    with recorder.span("sim.construct"):
        simulator_type = (
            ChannelSimulator if scenario.is_channel else RankSimulator
        )
        simulator = simulator_type(build_tracker, scenario.engine_config())
    with recorder.span("attacks.build_trace"):
        trace = scenario.build_trace()
    with recorder.span("sim.run"):
        result = simulator.run(trace)
    return result, trace


def mc_replica(scenario: Scenario, windows: int, recorder: Any,
               traces: list | None = None) -> tuple[MonteCarloResult, int]:
    """``Session.run_many`` (single-rank scenarios) spelled out window
    by window. Returns the :class:`MonteCarloResult`, which must equal
    ``run_many``'s, and the simulated demand ACTs of all windows; each
    window's trace is appended to ``traces`` when given."""
    if scenario.is_channel:
        raise ValueError("the Monte-Carlo replica covers rank scenarios")
    config = scenario.engine_config()
    task_seed = scenario.task_seed()
    failures = mitigations = acts = 0
    for index in range(windows):
        with recorder.span("mc.window"):
            rng = random.Random(stable_seed(task_seed, "mc-window", index))
            with recorder.span("trackers.build"):
                trackers = [
                    scenario.build_tracker(bank, rng=rng)
                    for bank in range(scenario.num_banks)
                ]
            with recorder.span("attacks.build_trace"):
                trace = scenario.build_trace(rng=rng)
            with recorder.span("sim.construct"):
                simulator = RankSimulator(
                    lambda bank: trackers[bank], config
                )
            with recorder.span("sim.run"):
                result = simulator.run(trace)
        if traces is not None:
            traces.append(trace)
        failures += result.failed
        mitigations += result.mitigations
        acts += result.demand_acts
    return MonteCarloResult(
        windows=windows, failures=failures, total_mitigations=mitigations
    ), acts


def interval_counts(trace: Any) -> tuple[int, int]:
    """``(distinct interval objects, intervals)`` of a built trace."""
    schedules = getattr(trace, "per_rank", None)
    parts = schedules.values() if schedules is not None else [trace]
    distinct = total = 0
    for part in parts:
        intervals = list(part)
        distinct += len({id(interval) for interval in intervals})
        total += len(intervals)
    return distinct, total


class TracedStats:
    """Counts the traced replica reads off each op's output."""

    def __init__(self) -> None:
        self.distinct_intervals = 0
        self.intervals = 0
        self.kernel: dict[str, int] = {}
        self.kernel_ops = 0

    def add(self, result: Any, traces: list) -> None:
        for trace in traces:
            distinct, total = interval_counts(trace)
            self.distinct_intervals += distinct
            self.intervals += total
        stats = getattr(result, "kernel_stats", None)
        if stats:
            self.kernel_ops += 1
            for key, value in stats.items():
                if isinstance(value, int):
                    self.kernel[key] = self.kernel.get(key, 0) + value


def run_phase(workload: SimWorkload, seed: int, seconds: float,
              reference: dict, recorder: Any,
              traced: bool) -> tuple[Tally, TracedStats]:
    """One closed-loop phase of ``workload``: issue its ops one at a
    time until ``seconds`` have passed.

    An op's latency covers the entry point (or its traced replica),
    ``to_payload()``, and a full garbage collection: the op pays for its
    own cyclic garbage, instead of whichever later op the collector's
    thresholds happen to land in. The output check and the host-speed
    probes (``Tally.pace``) run outside the latency, and their time is
    excluded from the throughput denominator.
    Ops come in rounds that each issue every class once; latencies,
    ACTs and seconds cover the completed rounds only, so every seed
    measures the same mix (every op is still checked and counted).
    """
    stats = TracedStats()

    def execute(scenario: Scenario) -> tuple[tuple, int]:
        if not traced:
            payload, acts = run_entry_point(workload, scenario, reference)
            return (payload, None, None), acts
        if workload.monte_carlo:
            traces: list = []
            mc, acts = mc_replica(scenario, MC_WINDOWS, recorder, traces)
            with recorder.span("results.to_payload"):
                return (mc.to_payload(), None, traces), acts
        result, trace = run_replica(scenario, recorder)
        with recorder.span("results.to_payload"):
            payload = result.to_payload()
        return (payload, result, [trace]), result.demand_acts

    def check(scenario: Scenario, output: tuple) -> bool:
        payload, result, traces = output
        if traces is not None:
            stats.add(result, traces)
        entry = reference.get(scenario.fingerprint())
        return entry is not None and digest(payload) == entry["sha256"]

    clock = time.perf_counter
    tally = Tally()
    ops = workload.ops(seed)
    started = clock()
    deadline = started + seconds
    while clock() < deadline:
        scenario = next(ops)
        name = f"{scenario.label}#{scenario.seed}"
        recorder.op = tally.attempted
        tally.attempted += 1
        begun = clock()
        try:
            with recorder.span("op"):
                output, acts = execute(scenario)
                gc.collect()
        except Exception:
            traceback.print_exc()
            tally.fail(f"op {name} raised")
        else:
            done = clock()
            tally.latencies.append(done - begun)
            tally.acts += acts
            if not check(scenario, output):
                tally.fail(f"output check of op {name}")
            tally.check_s += clock() - done
        tally.pace(clock() - started)
        if tally.attempted % len(workload.classes) == 0:
            tally.mark_round(clock() - started)
    tally.close(clock() - started)
    return tally, stats


def warm_up(workload: SimWorkload, reference: dict) -> bool:
    """Run the warm-up scenarios; True when every output checks out."""
    ok = True
    for scenario in workload.warmup():
        payload, _ = run_entry_point(workload, scenario, reference)
        entry = reference.get(scenario.fingerprint())
        ok &= entry is not None and digest(payload) == entry["sha256"]
    return ok


def layer_metrics(layers: dict, tally: Tally, stats: TracedStats) -> dict:
    """Per-layer metrics of a traced phase (spans -> numbers)."""

    def mean(name: str, scale: float, key: str = "self_s") -> float:
        row = layers.get(name)
        return row[key] / row["count"] * scale if row else 0.0

    def share(name: str) -> float:
        row = layers.get(name)
        return row["self_s"] / layers["op"]["total_s"] if row else 0.0

    run_self = layers.get("sim.run", {}).get("self_s", 0.0)
    windows = layers.get("mc.window", {}).get("count", 0)

    def per_window(name: str) -> float:
        if not windows:
            return 0.0
        return layers[name]["total_s"] / windows * 1e6

    kernel = stats.kernel
    steps = kernel.get("steps", 0)
    lookups = kernel.get("plan_cache_hits", 0) + kernel.get(
        "plan_cache_misses", 0
    )
    return {
        "attacks.build_trace_ms": mean("attacks.build_trace", 1e3),
        "attacks.share": share("attacks.build_trace"),
        "attacks.distinct_interval_ratio": (
            stats.distinct_intervals / stats.intervals
            if stats.intervals else 0.0
        ),
        "trackers.build_us": mean("trackers.build", 1e6),
        "sim.construct_ms": mean("sim.construct", 1e3),
        "sim.construct.share": share("sim.construct"),
        "sim.run_ms": mean("sim.run", 1e3),
        "sim.run.share": share("sim.run"),
        "sim.run_ns_per_act": run_self / tally.acts * 1e9 if tally.acts
        else 0.0,
        "results.to_payload_ms": mean("results.to_payload", 1e3),
        "mc.tracker_us": per_window("trackers.build"),
        "mc.trace_us": per_window("attacks.build_trace"),
        "mc.construct_us": per_window("sim.construct"),
        "mc.run_us": per_window("sim.run"),
        "kernels.steps": steps / stats.kernel_ops if stats.kernel_ops
        else 0.0,
        "kernels.compiled_step_ratio": (
            kernel.get("compiled_steps", 0) / steps if steps else 0.0
        ),
        "kernels.slow_step_ratio": (
            kernel.get("slow_path_steps", 0) / steps if steps else 0.0
        ),
        "kernels.compiled_bails": (
            kernel.get("compiled_bails", 0) / stats.kernel_ops
            if stats.kernel_ops else 0.0
        ),
        "kernels.plan_cache_hit_ratio": (
            kernel.get("plan_cache_hits", 0) / lookups if lookups else 0.0
        ),
    }
