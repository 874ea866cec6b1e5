"""Golden preset digests, replayed on the default engine.

``golden_presets.json`` maps each scenario's fingerprint to the sha256
of its canonical result payload under the scalar reference engine: the
``shootout``, ``rank-shootout``, ``channel-shootout`` and
``postponement`` presets at a short horizon, and every registered
tracker (MINT behind a DMQ too) on the double-sided and decoy attacks.
It pins the trackers that no paperbench class runs, and the channel
points whose REF rounds mitigate in several banks at once.

Regenerate (only when a result is meant to change)::

    PYTHONPATH=src python scripts/golden_presets.py
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

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
