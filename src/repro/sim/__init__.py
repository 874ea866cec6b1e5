"""Security simulation: trace-driven rank-level Rowhammer engine."""

from ..core.dmq import with_dmq
from .engine import ChannelSimulator, EngineConfig, RankSimulator
from .montecarlo import (
    MonteCarloResult,
    scenario_failure_probability,
    scaled_timing,
)
from .results import (
    ChannelSimResult,
    RankSimResult,
    SimResult,
    result_csv_rows,
    system_mttf_years,
)
from .seeding import canonical_json, derive_rng, stable_hash, stable_seed
from .trace import (
    ChannelTrace,
    CycleStream,
    GeneratorStream,
    Interval,
    MaterializedStream,
    RankInterval,
    RankTrace,
    Trace,
    TraceStream,
    as_trace_stream,
    lift_trace,
    repeat_interval,
    repeat_rank_interval,
)

__all__ = [
    "ChannelSimResult",
    "ChannelSimulator",
    "ChannelTrace",
    "CycleStream",
    "EngineConfig",
    "GeneratorStream",
    "Interval",
    "MaterializedStream",
    "MonteCarloResult",
    "RankInterval",
    "RankSimResult",
    "RankSimulator",
    "RankTrace",
    "SimResult",
    "Trace",
    "TraceStream",
    "as_trace_stream",
    "canonical_json",
    "derive_rng",
    "lift_trace",
    "repeat_interval",
    "repeat_rank_interval",
    "result_csv_rows",
    "scaled_timing",
    "scenario_failure_probability",
    "stable_hash",
    "stable_seed",
    "system_mttf_years",
    "with_dmq",
]
