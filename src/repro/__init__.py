"""repro — a reproduction of MINT (MICRO 2024).

MINT: Securely Mitigating Rowhammer with a Minimalist In-DRAM Tracker
(Qureshi, Qazi, Jaleel). The package provides:

* :mod:`repro.core` — MINT itself, the Delayed Mitigation Queue, the
  RFM co-design, and the Row-Press (ImPress) extension.
* :mod:`repro.trackers` — every baseline tracker the paper compares
  (PRCT, Mithril, ProTRR, PARFM, InDRAM-PARA, TRR, PrIDE, Graphene).
* :mod:`repro.dram` — the DDR5 substrate: timing, banks, refresh
  postponement, and the row-disturbance oracle.
* :mod:`repro.attacks` — pattern generators from classic double-sided
  through Blacksmith, Half-Double, Feinting, and the adaptive attack.
* :mod:`repro.sim` — the trace-driven security simulator: the
  rank- and channel-level engines (per-bank trackers behind one
  refresh schedule per rank).
* :mod:`repro.analysis` — the analytical models (Saroiu-Wolman failure
  recurrence, MinTRH search, Markov adaptive-attack model) behind every
  number in the paper.
* :mod:`repro.perf` — the performance/energy substrate standing in for
  the paper's Gem5 setup.
* :mod:`repro.scenario` — **the canonical entry point**: the frozen,
  serializable :class:`~repro.scenario.Scenario` description of one
  evaluation and the :class:`~repro.scenario.Session` facade that runs
  it (single run, Monte-Carlo ``run_many``, grid ``sweep``, ``perf``).
  Every other entry point (CLI, experiment runner, Monte-Carlo) is a
  view onto it.

Quickstart::

    from repro import Scenario, Session

    scenario = Scenario(tracker="mint", attack="double-sided",
                        trh=4800, intervals=1000, seed=1)
    result = Session(scenario).run()
    assert not result.failed
"""

from .constants import (
    BANKS_PER_RANK,
    CONCURRENT_BANKS,
    DEFAULT_BLAST_RADIUS,
    DEFAULT_TARGET_TTF_YEARS,
    MAX_POSTPONED_REFRESHES,
    REFI_PER_REFW,
    ROWS_PER_BANK,
)
from .core import (
    DelayedMitigationQueue,
    MintTracker,
    RfmConfig,
    RfmController,
    RowPressMintTracker,
    equivalent_activations,
)
from .dram import DDR5Timing, DEFAULT_TIMING, DramDevice, RowDisturbanceModel
from .scenario import (
    AttackSpec,
    Scenario,
    Session,
    TrackerSpec,
    run_scenario,
)
from .sim import (
    ChannelSimResult,
    ChannelSimulator,
    ChannelTrace,
    EngineConfig,
    RankSimResult,
    RankSimulator,
    RankTrace,
    SimResult,
    Trace,
    TraceStream,
    system_mttf_years,
)
from .trackers import (
    InDramParaTracker,
    MithrilTracker,
    MitigationRequest,
    ParfmTracker,
    PrctTracker,
    Tracker,
    available_trackers,
    bank_tracker_factory,
    channel_tracker_factory,
    make_tracker,
)

__version__ = "1.0.0"

__all__ = [
    "AttackSpec",
    "BANKS_PER_RANK",
    "CONCURRENT_BANKS",
    "ChannelSimResult",
    "ChannelSimulator",
    "ChannelTrace",
    "DDR5Timing",
    "DEFAULT_BLAST_RADIUS",
    "DEFAULT_TARGET_TTF_YEARS",
    "DEFAULT_TIMING",
    "DelayedMitigationQueue",
    "DramDevice",
    "EngineConfig",
    "InDramParaTracker",
    "MAX_POSTPONED_REFRESHES",
    "MintTracker",
    "MithrilTracker",
    "MitigationRequest",
    "ParfmTracker",
    "PrctTracker",
    "REFI_PER_REFW",
    "ROWS_PER_BANK",
    "RankSimResult",
    "RankSimulator",
    "RankTrace",
    "RfmConfig",
    "RfmController",
    "RowDisturbanceModel",
    "RowPressMintTracker",
    "Scenario",
    "Session",
    "SimResult",
    "Trace",
    "TraceStream",
    "Tracker",
    "TrackerSpec",
    "available_trackers",
    "bank_tracker_factory",
    "channel_tracker_factory",
    "equivalent_activations",
    "make_tracker",
    "run_scenario",
    "system_mttf_years",
    "__version__",
]
