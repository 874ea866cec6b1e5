"""Golden preset digests, replayed on the default engine.

``golden_presets.json`` maps each scenario's fingerprint to the sha256
of its canonical result payload under the scalar reference engine: the
``shootout``, ``rank-shootout``, ``channel-shootout`` and
``postponement`` presets at a short horizon, and every registered
tracker (MINT behind a DMQ too) on the double-sided and decoy attacks,
and every tracker the march lowers on many-sided and decoy-assisted
patterns of more than sixteen distinct intervals per period. It pins
the trackers that no paperbench class runs, and the channel points
whose REF rounds mitigate in several banks at once.

Regenerate (only when a result is meant to change)::

    PYTHONPATH=src python scripts/golden_presets.py
"""

from __future__ import annotations

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.kernels import forced_provider
from repro.scenario import Session
from repro.sim.seeding import canonical_json

from tests.providers import MARCH_PROVIDERS

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "golden_presets.py"
_spec = importlib.util.spec_from_file_location("golden_presets", _SCRIPT)
golden_presets = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_presets)

SCENARIOS = {s.fingerprint(): s for s in golden_presets.scenarios()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(golden_presets.GOLDEN.read_text())


def test_table_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


def test_default_engine_reproduces_every_digest(golden):
    drifted = [
        f"{fp} ({s.label})"
        for fp, s in SCENARIOS.items()
        if golden_presets.digest(s) != golden[fp]
    ]
    assert not drifted, "drifted from the golden digests:\n" + "\n".join(
        drifted
    )


LONG_PERIOD = [
    s for s in SCENARIOS.values() if s.attack in golden_presets.LONG_PERIOD
]


@pytest.mark.parametrize("provider", MARCH_PROVIDERS)
@pytest.mark.parametrize(
    "scenario", LONG_PERIOD, ids=lambda s: f"{s.label}-{dict(s.attack.params)}"
)
def test_long_periods_march_every_step(provider, scenario):
    with forced_provider(provider):
        stats = Session(replace(scenario, intervals=2000)).run().kernel_stats
    assert stats["compiled_steps"] == stats["steps"] == 2000


@pytest.mark.parametrize("provider", MARCH_PROVIDERS)
def test_a_long_period_marches_identically_across_windows(provider):
    # 5000 steps fill more than one lookahead window, and the second
    # starts mid-period.
    scenario = replace(LONG_PERIOD[0], intervals=5000)
    with forced_provider(provider):
        fast = Session(scenario).run()
    reference = Session(replace(scenario, vectorized=False)).run()
    assert fast.kernel_stats["compiled_steps"] == 5000
    assert canonical_json(fast.to_payload()) == canonical_json(
        reference.to_payload()
    )
