"""Monte-Carlo cross-validation of the analytical security model.

The analytical MinTRH numbers rest on the Saroiu-Wolman recurrence; at
realistic parameters (p ~ 1/74, failure probability ~ 1e-13) no
simulation can observe failures directly. Instead we validate the model
in a scaled-down regime — small M, small tREFW, aggressive thresholds —
where failures are frequent enough to measure, and check the empirical
failure rate against the same formulas evaluated at the scaled
parameters. The test suite pins the agreement.

Two entry points share one window loop:
:func:`scenario_failure_probability` consumes a declarative
:class:`repro.scenario.Scenario` (the path behind
``Session.run_many``), and :func:`estimate_failure_probability` is the
legacy factory-based shim, kept bit-identical to the facade (pinned by
``tests/scenario/test_scenario.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from ..dram.timing import DDR5Timing
from ..parallel import fork_map
from ..trackers.base import Tracker
from .engine import BankSimulator, ChannelSimulator, EngineConfig, RankSimulator
from .seeding import stable_seed
from .trace import Trace

if TYPE_CHECKING:  # pragma: no cover - cycle guard (scenario -> here)
    from ..scenario import Scenario


@dataclass
class MonteCarloResult:
    """Empirical failure statistics over repeated tREFW windows."""

    windows: int
    failures: int
    total_mitigations: int

    #: Fast-engine path telemetry summed over the windows (see
    #: ``RankSimResult.kernel_stats``); ``None`` when every window ran
    #: on the reference engine. A class attribute, not a field, so
    #: equality and :meth:`to_payload` stay engine-independent.
    kernel_stats = None

    @property
    def failure_probability(self) -> float:
        if self.windows == 0:
            return 0.0
        return self.failures / self.windows

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Wilson score interval for the failure probability.

        The Wald normal approximation previously used here degenerates
        to ``(0.0, 0.0)`` whenever zero failures are observed — a claim
        of certainty exactly in the rare-event regime this module
        targets (and symmetrically ``(1.0, 1.0)`` at all failures). The
        Wilson score interval stays informative at the boundaries: with
        ``n`` windows and no failures the upper bound is
        ``z²/(n+z²)`` ≈ 3.84/n, the usual rule-of-three-style bound.
        """
        n = self.windows
        if n == 0:
            return (0.0, 1.0)
        p = self.failure_probability
        z2 = z * z
        denom = 1.0 + z2 / n
        centre = (p + z2 / (2.0 * n)) / denom
        half = (z / denom) * (
            (p * (1.0 - p) / n + z2 / (4.0 * n * n)) ** 0.5
        )
        return (max(0.0, centre - half), min(1.0, centre + half))

    def to_payload(self) -> dict:
        """JSON-safe form (the ``repro run --windows`` export format)."""
        low, high = self.confidence_interval()
        return {
            "windows": self.windows,
            "failures": self.failures,
            "total_mitigations": self.total_mitigations,
            "failure_probability": self.failure_probability,
            "ci95_low": low,
            "ci95_high": high,
        }


def scaled_timing(max_act: int, refi_per_refw: int) -> DDR5Timing:
    """A toy DDR5 whose window holds ``max_act`` ACTs per tREFI."""
    t_refi = 3900.0
    t_rfc = 410.0
    t_rc = (t_refi - t_rfc) / max_act
    t_refw_ms = refi_per_refw * t_refi * 1e-6
    return DDR5Timing(
        t_refw_ms=t_refw_ms, t_refi_ns=t_refi, t_rfc_ns=t_rfc, t_rc_ns=t_rc
    )


def _collect_windows(
    run_window: Callable[[int], tuple[bool, int, dict | None]],
    windows: int,
    n_workers: int,
) -> MonteCarloResult:
    """Fan ``run_window`` out and aggregate (the shared loop body).

    A window reports ``(failed, mitigations, kernel_stats)``; the
    windows' integer telemetry counters are summed.
    """
    outcomes = fork_map(run_window, range(windows), n_workers=n_workers)
    result = MonteCarloResult(
        windows=windows,
        failures=sum(1 for failed, _, _ in outcomes if failed),
        total_mitigations=sum(count for _, count, _ in outcomes),
    )
    stats = [window for _, _, window in outcomes if window is not None]
    if stats:
        merged = dict(stats[0])
        for window in stats[1:]:
            for key, value in window.items():
                if isinstance(value, int):
                    merged[key] += value
        result.kernel_stats = merged
    return result


def scenario_failure_probability(
    scenario: "Scenario",
    windows: int = 2000,
    n_workers: int = 1,
) -> MonteCarloResult:
    """Run ``windows`` independent tREFW windows of ``scenario``.

    Each window gets fresh trackers, fresh device state, and a fresh
    trace, all derived from one window RNG seeded by a stable hash of
    ``(scenario.task_seed(), "mc-window", index)`` — the same
    derivation the legacy shim uses — threaded through tracker
    construction first, then trace construction (patterns with
    randomised placement can vary per window). The estimate is a pure
    function of the scenario: bit-identical counts for any worker
    count or scheduling.

    On a multi-bank scenario a window fails when *any* bank flips, and
    mitigations sum across the rank's banks; a channel scenario lifts
    the same rule across its ranks (any rank's flip fails the window,
    mitigations sum channel-wide). The window RNG threads through
    tracker construction rank-major first, then trace construction —
    the per-rank generalisation of the legacy contract, and exactly it
    at ``num_ranks=1``.
    """
    config = scenario.engine_config()
    task_seed = scenario.task_seed()
    num_banks = scenario.num_banks

    if scenario.is_channel:
        num_ranks = scenario.num_ranks

        def run_window(index: int) -> tuple[bool, int, dict | None]:
            window_rng = random.Random(
                stable_seed(task_seed, "mc-window", index)
            )
            trackers = {
                (rank, bank): scenario.build_tracker(
                    bank, rng=window_rng, rank=rank
                )
                for rank in range(num_ranks)
                for bank in range(num_banks)
            }
            trace = scenario.build_trace(rng=window_rng)
            result = ChannelSimulator(
                lambda rank, bank: trackers[(rank, bank)], config
            ).run(trace)
            return result.failed, result.mitigations, result.kernel_stats

        return _collect_windows(run_window, windows, n_workers)

    def run_window(index: int) -> tuple[bool, int, dict | None]:
        window_rng = random.Random(stable_seed(task_seed, "mc-window", index))
        trackers = [
            scenario.build_tracker(bank, rng=window_rng)
            for bank in range(num_banks)
        ]
        trace = scenario.build_trace(rng=window_rng)
        result = RankSimulator(lambda bank: trackers[bank], config).run(trace)
        return result.failed, result.mitigations, result.kernel_stats

    return _collect_windows(run_window, windows, n_workers)


def estimate_failure_probability(
    tracker_factory: Callable[[random.Random], Tracker],
    trace_factory: Callable[[random.Random], Trace],
    trh: float,
    max_act: int,
    refi_per_refw: int,
    windows: int = 2000,
    num_rows: int = 1024,
    seed: int = 7,
    allow_postponement: bool = False,
    n_workers: int = 1,
) -> MonteCarloResult:
    """Run ``windows`` independent tREFW windows; count flip events.

    The legacy factory-based entry point, kept for callers whose
    tracker or trace is not registry-describable; registry-describable
    evaluations should prefer ``Session(scenario).run_many`` — with
    ``seed`` set to the scenario's ``task_seed()`` the two are
    bit-identical (pinned by the shim-equivalence tests).

    Each window's RNG is seeded by a stable hash of ``(seed, index)``,
    not by a sequential draw, so the estimate is a pure function of the
    inputs: fanning the windows out over ``n_workers`` processes
    (fork-based; falls back to serial where unavailable) returns
    bit-identical counts regardless of worker count or scheduling.
    """
    timing = scaled_timing(max_act, refi_per_refw)
    config = EngineConfig(
        timing=timing,
        trh=trh,
        num_rows=num_rows,
        allow_postponement=allow_postponement,
        refi_per_refw=refi_per_refw,
    )

    def run_window(index: int) -> tuple[bool, int, None]:
        window_rng = random.Random(stable_seed(seed, "mc-window", index))
        tracker = tracker_factory(window_rng)
        trace = trace_factory(window_rng)
        result = BankSimulator(tracker, config).run(trace)
        return result.failed, result.mitigations, None

    return _collect_windows(run_window, windows, n_workers)
