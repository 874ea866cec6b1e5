#!/usr/bin/env python3
"""Regenerate the golden preset digests.

    PYTHONPATH=src python scripts/golden_presets.py

Writes ``tests/integration/golden_presets.json``: for every scenario of
:func:`scenarios`, its fingerprint mapped to the sha256 of the
canonical JSON of its ``to_payload()`` result under the scalar
reference engine (``vectorized=False``). The scenarios are the
``shootout``, ``rank-shootout``, ``channel-shootout`` and
``postponement`` presets at a short horizon, every registered tracker
and MINT behind a DMQ on the double-sided and decoy attacks, and every
tracker the march lowers on many-sided and decoy-assisted patterns
whose period is longer than sixteen intervals.
``tests/integration/test_golden_presets.py`` replays the table on the
default engine.

Regenerate only when a result is meant to change, and say why in the
change that does it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from repro.exp.presets import PRESETS
from repro.scenario import AttackSpec, Scenario, Session, TrackerSpec
from repro.sim.seeding import canonical_json
from repro.trackers.registry import available_trackers

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "tests" / "integration" / "golden_presets.json"
)

#: Horizon, in tREFI, of every table scenario: long enough for the
#: decoy's postponement super-windows and for TRH 1500 to be crossed.
INTERVALS = 200

#: The trackers the compiled march lowers.
LOWERING = ("mint", "para", "indram-para", "graphene", "prac", "none")

#: Patterns of 17 to 48 distinct intervals per period.
LONG_PERIOD = tuple(
    [AttackSpec.of("many-sided", sides=n) for n in (17, 24, 48)]
    + [AttackSpec.of("decoy-assisted", decoys=n) for n in (17, 40)]
)


def scenarios() -> list[Scenario]:
    """Every scenario the table pins, presets first."""
    out = []
    for name in sorted(PRESETS):
        out.extend(PRESETS[name](intervals=INTERVALS).scenarios())
    trackers = [TrackerSpec.of(name) for name in available_trackers()]
    trackers.append(TrackerSpec.of("mint", dmq=True))
    for attack in (AttackSpec.of("double-sided"), AttackSpec.of("decoy")):
        for tracker in trackers:
            out.append(Scenario(
                tracker=tracker,
                attack=attack,
                trh=1500.0,
                intervals=INTERVALS,
                allow_postponement=True,
            ))
    for attack in LONG_PERIOD:
        for name in LOWERING:
            out.append(Scenario(
                tracker=TrackerSpec.of(name),
                attack=attack,
                trh=1500.0,
                intervals=INTERVALS,
                allow_postponement=True,
            ))
    return out


def digest(scenario: Scenario) -> str:
    """sha256 of the canonical payload of one run of ``scenario``."""
    payload = Session(scenario).run().to_payload()
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def main() -> None:
    table = {}
    for scenario in scenarios():
        reference = replace(scenario, vectorized=False)
        table[scenario.fingerprint()] = digest(reference)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")


if __name__ == "__main__":
    main()
