"""Monte-Carlo cross-validation of the analytical security model.

The analytical MinTRH numbers rest on the Saroiu-Wolman recurrence; at
realistic parameters (p ~ 1/74, failure probability ~ 1e-13) no
simulation can observe failures directly. Instead we validate the model
in a scaled-down regime — small M, small tREFW, aggressive thresholds —
where failures are frequent enough to measure, and check the empirical
failure rate against the same formulas evaluated at the scaled
parameters. The test suite pins the agreement.

The entry point is :func:`scenario_failure_probability`, which
consumes a declarative :class:`repro.scenario.Scenario` (the path
behind ``Session.run_many``).

Windows share marches. Consecutive windows are laid out as the ranks
of one packed ``(window·rank·bank, row)`` kernel family and marched
under one tREFI clock, so a scaled window of a few ACTs per tREFI no
longer pays the kernel's fixed per-step cost, plan build and REF
dispatch alone. That cannot change a bit: refresh scheduling is per
rank and every tracker of a window draws its own random stream, so no
unit observes another — the same argument that lets a channel run
decompose into lone rank runs.

Windows share set-up too. A group lifts and budget-checks its windows'
traces through one interval interner, so windows that rebuild equal
intervals (every attack that ignores the window RNG) share one
interval object and one stream: each distinct interval is lifted,
checked and aggregated for the kernel's plans once per group, not once
per window. Each compiled march call draws every tracker stream of
the group inside the march, from twister states the engine loads
before the call and settles after it. Every window's outcome is
a pure function of ``(scenario, index)`` on either engine, for any
grouping and any worker count.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from ..dram.timing import DDR5Timing
from ..parallel import effective_workers, fork_map
from ..trackers.base import Tracker
from .engine import EngineConfig, _march_windows
from .seeding import derive_rng, stable_seed

if TYPE_CHECKING:  # pragma: no cover - cycle guard (scenario -> here)
    from ..scenario import Scenario


@dataclass
class MonteCarloResult:
    """Empirical failure statistics over repeated tREFW windows."""

    windows: int
    failures: int
    total_mitigations: int

    #: Fast-engine path telemetry (see ``RankSimResult.kernel_stats``),
    #: its counters summed over the window *groups*: windows sharing a
    #: march share its steps, so ``steps`` counts one tREFI clock per
    #: group. ``None`` when the windows ran on the reference engine. A
    #: class attribute, not a field, so equality and :meth:`to_payload`
    #: stay engine-independent.
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


#: Packed ``(window·rank·bank, row)`` cells one window group marches
#: at once. Batching amortizes the kernel's fixed per-tREFI cost over
#: many small windows (128 scaled 1024-row windows per group); the cap
#: keeps production-sized windows (128K rows) one per march, so their
#: packed arrays and peak memory stay those of a lone run. A constant,
#: not a knob: grouping cannot change any window's bits.
_GROUP_CELLS = 1 << 17


def _run_windows(
    config: EngineConfig,
    build_window: Callable[[int], tuple[list[list[Tracker]], object]],
    windows: int,
    n_workers: int,
) -> MonteCarloResult:
    """The one window loop: march ``windows`` windows in packed groups.

    ``build_window(index)`` returns window ``index``'s fresh
    ``(trackers[rank][bank], trace)``. Consecutive windows are marched
    as the ranks of one packed kernel (see
    :func:`~repro.sim.engine._march_windows`), at most
    :data:`_GROUP_CELLS` cells per group and at least one group per
    usable worker; :func:`~repro.parallel.fork_map` fans the groups
    out. A window fails when any of its banks flips; mitigations and
    the groups' integer telemetry counters are summed.
    """
    if isinstance(windows, bool) or not isinstance(windows, numbers.Integral):
        raise ValueError(
            f"windows must be an int, not {type(windows).__name__}"
        )
    if windows < 0:
        raise ValueError(f"windows must be >= 0, got {windows}")
    if (
        isinstance(n_workers, bool)
        or not isinstance(n_workers, numbers.Integral)
        or n_workers < 1
    ):
        raise ValueError(f"n_workers must be an int >= 1, got {n_workers!r}")
    windows = int(windows)
    n_workers = int(n_workers)
    cells = config.num_ranks * config.num_banks * config.num_rows
    workers = effective_workers(n_workers, windows)
    size = max(1, min(_GROUP_CELLS // cells, -(-windows // workers)))

    def run_group(start: int) -> tuple[list[tuple[bool, int]], dict | None]:
        stop = min(start + size, windows)
        return _march_windows(
            config, [build_window(index) for index in range(start, stop)]
        )

    groups = fork_map(run_group, range(0, windows, size), n_workers=n_workers)
    outcomes = [outcome for group, _ in groups for outcome in group]
    result = MonteCarloResult(
        windows=windows,
        failures=sum(1 for failed, _ in outcomes if failed),
        total_mitigations=sum(count for _, count in outcomes),
    )
    stats = [group_stats for _, group_stats in groups if group_stats]
    if stats:
        merged = dict(stats[0])
        for group_stats in stats[1:]:
            for key, value in group_stats.items():
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
    trace. One window RNG, seeded by a stable hash of
    ``(scenario.task_seed(), "mc-window", index)``, is threaded through
    rank 0 / bank 0's tracker construction first, then trace construction
    (patterns with randomised placement can vary per window). Every
    other tracker of a multi-bank or multi-rank window draws its own
    stream, ``derive_rng(task_seed, "mc-window", index, rank, bank)``:
    trackers that shared one stream during the march would couple their
    banks through the interleaving of their draws, which then depends
    on the engine's dispatch order.

    Windows share marches: a group of consecutive windows runs as the
    ranks of one packed kernel under one tREFI clock, so the kernel's
    fixed per-step cost is paid once per group instead of once per
    window. That cannot change a bit: refresh scheduling — the only
    coupling between banks — is per rank, so every window's ranks
    evolve exactly as in a lone run (the argument that makes a channel
    run decompose into its ranks). The estimate is a pure function of
    the scenario: bit-identical counts on either engine, for any worker
    count, grouping or scheduling.

    A window fails when *any* of its banks flips, on any rank, and
    mitigations sum across the window's banks and ranks.

    ``windows`` must be an int >= 0 and ``n_workers`` an int >= 1;
    anything else (a bool included) raises ``ValueError`` naming it.
    """
    config = scenario.engine_config()
    task_seed = scenario.task_seed()
    num_ranks = config.num_ranks
    num_banks = config.num_banks

    def build_window(index: int) -> tuple[list[list[Tracker]], object]:
        rng = random.Random(stable_seed(task_seed, "mc-window", index))
        trackers = [
            [
                scenario.build_tracker(
                    bank,
                    rng=(
                        rng if rank == bank == 0
                        else derive_rng(task_seed, "mc-window", index, rank, bank)
                    ),
                    rank=rank,
                )
                for bank in range(num_banks)
            ]
            for rank in range(num_ranks)
        ]
        return trackers, scenario.build_trace(rng=rng)

    return _run_windows(config, build_window, windows, n_workers)

