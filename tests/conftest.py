"""Shared fixtures for the test suite."""

import random

import pytest

from repro.attacks import AttackParams
from repro.dram.timing import DDR5Timing
from repro.sim.engine import EngineConfig, RankSimulator


def run_bank(tracker, trace, config=None, **config_kwargs):
    """Run ``trace`` against one live ``tracker`` on a 1-bank rank and
    return bank 0's ``SimResult`` (for trackers or traces the scenario
    registries cannot describe)."""
    config = config or EngineConfig(**config_kwargs)
    return RankSimulator(lambda _bank: tracker, config).run(trace).per_bank[0]


@pytest.fixture
def rng():
    """A deterministic RNG; per-test isolation via fresh seeding."""
    return random.Random(0xDEC0DE)


@pytest.fixture
def small_params():
    """A fast attack-parameter set for simulation tests."""
    return AttackParams(max_act=73, intervals=200)


@pytest.fixture
def toy_timing():
    """A miniature DDR5 with M = 8 ACTs per interval for Monte-Carlo."""
    t_refi, t_rfc = 3900.0, 410.0
    return DDR5Timing(
        t_refw_ms=64 * t_refi * 1e-6,
        t_refi_ns=t_refi,
        t_rfc_ns=t_rfc,
        t_rc_ns=(t_refi - t_rfc) / 8,
    )
