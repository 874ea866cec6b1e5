"""Shared plumbing: source-tree import, output digests, the host-speed
probe, phase tallies, percentiles, metric units, and the environment
stamp."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Scratch space of a run (result stores, span files); gitignored.
OUT_DIR = ROOT / ".paperbench"
REFERENCE_PATH = BENCH_DIR / "reference.json"

WORKLOADS = ("attack_1bank", "mc_scaled", "multibank", "grid_serve")

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "sim_acts_per_s": "ACT/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): name -> unit. A metric whose layer a
#: workload never reaches reads 0 on that workload.
PER_LAYER = {
    "attacks.build_trace_ms": "ms",
    "attacks.share": "ratio",
    "attacks.distinct_interval_ratio": "ratio",
    "trackers.build_us": "us",
    "sim.construct_ms": "ms",
    "sim.construct.share": "ratio",
    "sim.run_ms": "ms",
    "sim.run.share": "ratio",
    "sim.run_ns_per_act": "ns/ACT",
    "results.to_payload_ms": "ms",
    "mc.tracker_us": "us",
    "mc.trace_us": "us",
    "mc.construct_us": "us",
    "mc.run_us": "us",
    "kernels.steps": "steps/op",
    "kernels.compiled_step_ratio": "ratio",
    "kernels.slow_step_ratio": "ratio",
    "kernels.compiled_bails": "bails/op",
    "kernels.plan_cache_hit_ratio": "ratio",
    "exp.runner.exec_s": "s/point",
    "exp.runner.commit_s": "s/point",
    "exp.runner.resume_ms": "ms",
    "exp.store.open_ms": "ms",
    "exp.store.flush_bytes": "B",
    "exp.store.disk_bytes": "B",
    "exp.query.call_us": "us",
    "exp.query.hit_ratio": "ratio",
    "exp.serve.overhead_us": "us",
    "grid_points_per_s": "points/s",
    "write_p50_ms": "ms",
    "failed_ops_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on the import path, or exit."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"paperbench: no repro sources under {src}")
    sys.path.insert(0, str(src))


def settle() -> None:
    """Collect garbage and freeze what survives: objects built during
    set-up live for the whole run, and the collections that ops trigger
    need not rescan them."""
    gc.collect()
    gc.freeze()


def digest(payload: Any) -> str:
    """sha256 of a payload's canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """The scalar-engine digest table: workload -> fingerprint -> entry."""
    return json.loads(path.read_text())["workloads"]


def env_stamp() -> dict:
    """Which compiled provider and how many CPUs produced the numbers."""
    import numpy

    from repro import kernels, parallel

    return {
        "provider": kernels.provider(),
        "default_workers": parallel.default_workers(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: Shortest block of whole rounds a host-speed reading covers.
BLOCK_SECONDS = 1.0

# Host speed. On a shared host the neighbours' load comes and goes over
# seconds to minutes, and the same fixed sequence of ops takes up to 1.5
# times as long in one stretch as in another. So the closed loop pauses
# every PROBE_EVERY_S seconds of ops to time a fixed probe that does not
# use the program (small NumPy array passes, building, sorting and
# hashing tuples, a dict loop: of the kinds of work tried, the mix whose
# time rose and fell most closely with the ops' own), and every
# time the benchmark reports is scaled to a host on which that probe
# takes PROBE_REF_S: a block of ops during which the probe ran 1.3 times
# slower than that has its seconds divided by 1.3. A change of the
# program moves the ops and not the probe, so it still shows in full.

#: Seconds of ops between two probes.
PROBE_EVERY_S = 0.1
#: The probe's seconds on the reference host (about its time on a calm
#: 2.1 GHz Xeon vCPU).
PROBE_REF_S = 0.013


def probe() -> float:
    """Run the fixed probe once; its wall seconds."""
    import numpy

    begun = time.perf_counter()
    array = numpy.arange(4096, dtype=numpy.int64)
    for _ in range(300):
        array = (array * 3 + 1) % 65521
    rng = random.Random(5)
    pairs = sorted((rng.randrange(1000), str(i)) for i in range(4000))
    len(set(pairs))
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return time.perf_counter() - begun


def slowness() -> float:
    """How much slower than the reference host this one runs now: the
    mean of five probes over :data:`PROBE_REF_S`."""
    return sum(probe() for _ in range(5)) / 5 / PROBE_REF_S


@dataclass
class Tally:
    """What one closed-loop phase did."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Simulated demand ACTs of the completed operations.
    acts: int = 0
    #: Wall seconds of the phase, and the part the benchmark spent on
    #: itself: output checks and probes.
    elapsed: float = 0.0
    check_s: float = 0.0
    #: ``(ops so far, probe seconds)`` of every probe of the phase.
    probes: list[tuple[int, float]] = field(default_factory=list)
    #: ``(first op, end op, acts, busy seconds, slowness)`` of
    #: consecutive blocks of whole rounds, each at least
    #: :data:`BLOCK_SECONDS` long.
    blocks: list[tuple[int, int, int, float, float]] = field(
        default_factory=list
    )
    #: ``(ops, acts, elapsed, check_s)`` at the end of every round.
    marks: list[tuple[int, int, float, float]] = field(default_factory=list)
    _probed_at: float = 0.0

    @property
    def busy_s(self) -> float:
        """Phase seconds minus the benchmark's own checks and probes."""
        return self.elapsed - self.check_s

    def pace(self, elapsed: float) -> None:
        """Time a probe if :data:`PROBE_EVERY_S` seconds of ops have run
        since the last one (``elapsed``: phase seconds so far)."""
        busy = elapsed - self.check_s
        if busy - self._probed_at >= PROBE_EVERY_S:
            seconds = probe()
            self.probes.append((len(self.latencies), seconds))
            self.check_s += seconds
            self._probed_at = busy

    def mark_round(self, elapsed: float) -> None:
        self.marks.append(
            (len(self.latencies), self.acts, elapsed, self.check_s)
        )

    def close(self, elapsed: float) -> None:
        """End the phase: keep whole rounds only, and cut them into
        blocks, each with the slowness its probes read (a phase without
        a whole round is one block)."""
        self.elapsed = elapsed
        if self.marks:
            count, self.acts, self.elapsed, self.check_s = self.marks[-1]
            del self.latencies[count:]
        ends = self.marks or [
            (len(self.latencies), self.acts, self.elapsed, self.check_s)
        ]
        start = (0, 0, 0.0, 0.0)
        for mark in ends:
            busy = (mark[2] - mark[3]) - (start[2] - start[3])
            if busy >= BLOCK_SECONDS:
                self.blocks.append(
                    (start[0], mark[0], mark[1] - start[1], busy,
                     self._slowness(start[0], mark[0]))
                )
                start = mark
        if not self.blocks:
            count, acts, elapsed, check_s = ends[-1]
            self.blocks.append((0, count, acts, elapsed - check_s,
                                self._slowness(0, count)))

    def _slowness(self, first: int, end: int) -> float:
        """Mean probe time over :data:`PROBE_REF_S` of the probes taken
        after ops ``first..end`` (the whole phase's when none was)."""
        inside = [s for at, s in self.probes if first < at <= end]
        inside = inside or [s for _, s in self.probes] or [PROBE_REF_S]
        return sum(inside) / len(inside) / PROBE_REF_S

    @property
    def slowness(self) -> float:
        """Busy-weighted mean slowness of the phase."""
        return sum(b[3] * b[4] for b in self.blocks) / sum(
            b[3] for b in self.blocks
        )

    def _ref_busy_s(self) -> float:
        """Busy seconds of the blocks, scaled to the reference host."""
        return sum(busy / slow for *_, busy, slow in self.blocks)

    @property
    def ops_per_s(self) -> float:
        return sum(b[1] - b[0] for b in self.blocks) / self._ref_busy_s()

    @property
    def acts_per_s(self) -> float:
        return sum(b[2] for b in self.blocks) / self._ref_busy_s()

    def latency_ms(self, q: float) -> float:
        """``q``-quantile op latency, each scaled by its block's
        slowness."""
        scaled = [
            latency / slow for first, end, _, _, slow in self.blocks
            for latency in self.latencies[first:end]
        ]
        return percentile(scaled, q) * 1e3

    def summary(self) -> str:
        return (
            f"{len(self.probes)} probes, {len(self.blocks)} blocks, host "
            f"{self.slowness:.4g}x slower than the reference; as timed "
            f"here {len(self.latencies) / self.busy_s:.6g} ops/s"
        )

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"paperbench: FAILED {what}", file=sys.stderr)


def end_to_end(tally: Tally, setup_s: float, peak_rss_mb: float,
               acts_per_s: float | None = None) -> dict:
    """The untraced metrics of one phase."""
    return {
        "setup_s": setup_s,
        "ops_per_s": tally.ops_per_s,
        "op_p50_ms": tally.latency_ms(0.5),
        "op_p90_ms": tally.latency_ms(0.9),
        "sim_acts_per_s": (
            tally.acts_per_s if acts_per_s is None else acts_per_s
        ),
        "peak_rss_mb": peak_rss_mb,
    }
