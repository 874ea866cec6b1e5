"""Golden trace contents for every registered attack generator.

``golden_traces.json`` holds, per case, the sha256 of the generator's
``(acts, postpone)`` sequence (per rank for channel schedules) and its
length. The table was generated before the generators learned to share
interval objects, so replaying it pins that the sharing changed only
how many objects carry the schedule, never its contents or order.

Regenerate (only when a generator's output is meant to change)::

    PYTHONPATH=src python tests/attacks/test_golden_traces.py --regen

The same cases also pin the sharing contract: a schedule carries at
most one interval object per distinct interval, so never more objects
than its content period.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.attacks import (
    AttackParams,
    adaptive_attack,
    make_attack,
    make_channel_attack,
    make_rank_attack,
    repeated_adaptive_attack,
)
from repro.sim.trace import as_trace_stream

GOLDEN = Path(__file__).with_name("golden_traces.json")

#: A full-budget horizon that is not a multiple of any pattern period.
WIDE = AttackParams(max_act=73, intervals=1003, base_row=1000)
#: A scaled budget (M = 8) with a 37-interval horizon.
NARROW = AttackParams(max_act=8, intervals=37, base_row=100)

#: ``(registry name, kwargs)`` per case; each runs at both horizons.
_ROW = [
    ("single-sided", {}), ("double-sided", {}), ("one-location", {}),
    ("many-sided", {}), ("many-sided", {"sides": 5}),
    ("blacksmith", {"seed": 5}), ("blacksmith", {"count": 6, "seed": 9}),
    ("half-double", {}),
    ("pattern2", {}), ("pattern2", {"k": 20}), ("pattern2", {"k": 5}),
    ("pattern2", {"k": 100}),
    ("pattern2-double", {}), ("pattern2-double", {"pairs": 5}),
    ("pattern3", {}), ("pattern3", {"copies": 3}),
    ("decoy", {}), ("decoy", {"postponed": 2}),
    ("decoy-multi", {}), ("decoy-multi", {"postponed": 3}),
    ("decoy-assisted", {}),
    ("decoy-assisted", {"decoys": 3, "hammers_per_interval": 2}),
]
_RANK = [
    ("bank-interleaved", {"num_banks": 4}),
    ("bank-interleaved", {"num_banks": 4, "scheme": "act"}),
    ("bank-interleaved", {"num_banks": 3, "base": "pattern2", "k": 20}),
    ("cross-bank-decoy", {"num_banks": 4}),
    ("cross-bank-decoy", {"num_banks": 3, "postponed": 2, "target_bank": 1}),
    ("rank-stripe", {"num_banks": 4}),
    ("rank-stripe", {"num_banks": 8, "sides": 3}),
]
_CHANNEL = [
    ("rank-rotation", {"num_ranks": 2}),
    ("rank-rotation", {"num_ranks": 3, "base": "pattern2", "k": 5}),
    ("rank-synchronized", {"num_ranks": 2}),
    ("rank-synchronized", {"num_ranks": 3, "num_banks": 2, "sides": 5}),
    ("channel-stripe-decoy", {"num_ranks": 2, "num_banks": 2}),
    ("channel-stripe-decoy", {"num_ranks": 3, "num_banks": 3,
                              "postponed": 2, "target_rank": 1}),
]


def _cases() -> dict[str, tuple]:
    cases: dict[str, tuple] = {}
    for family, entries in (
        (make_attack, _ROW),
        (make_rank_attack, _RANK),
        (make_channel_attack, _CHANNEL),
    ):
        for name, kwargs in entries:
            for label, params in (("wide", WIDE), ("narrow", NARROW)):
                args = ",".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
                cases[f"{name}({args})@{label}"] = (
                    family, name, params, kwargs
                )
    for label, params in (("wide", WIDE), ("narrow", NARROW)):
        cases[f"ada(mp=7)@{label}"] = (
            lambda _name, p: adaptive_attack(7, p), None, params, {}
        )
        cases[f"ada-repeated(mp=20)@{label}"] = (
            lambda _name, p: repeated_adaptive_attack(20, p), None, params,
            {},
        )
    return cases


CASES = _cases()


def build(case: str):
    family, name, params, kwargs = CASES[case]
    return family(name, params, **kwargs)


def schedules(trace) -> list[list]:
    """The trace's interval sequences: one per rank for a channel."""
    per_rank = getattr(trace, "per_rank", None)
    if per_rank is None:
        return [list(trace)]
    return [list(as_trace_stream(per_rank[r])) for r in sorted(per_rank)]


def digest(trace) -> dict:
    hasher = hashlib.sha256()
    length = 0
    for rank, intervals in enumerate(schedules(trace)):
        hasher.update(f"schedule {rank}\n".encode())
        for interval in intervals:
            hasher.update(repr((interval.acts, interval.postpone)).encode())
            hasher.update(b"\n")
        length += len(intervals)
    return {"sha256": hasher.hexdigest(), "intervals": length}


def content_period(intervals: list) -> int:
    """Smallest ``p`` with ``intervals[i] == intervals[i + p]`` for
    every ``i`` (by contents; KMP failure function)."""
    codes: dict = {}
    seq = [codes.setdefault((i.acts, i.postpone), len(codes))
           for i in intervals]
    fail = [0] * len(seq)
    for i in range(1, len(seq)):
        j = fail[i - 1]
        while j and seq[i] != seq[j]:
            j = fail[j - 1]
        fail[i] = j + (seq[i] == seq[j])
    return len(seq) - fail[-1] if seq else 0


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_table_covers_every_registered_attack(golden):
    from repro.attacks import (
        available_attacks,
        available_channel_attacks,
        available_rank_attacks,
    )

    assert set(golden) == set(CASES)
    names = {case.split("(")[0] for case in CASES}
    assert set(available_attacks()) <= names
    assert set(available_rank_attacks()) <= names
    assert set(available_channel_attacks()) <= names


@pytest.mark.parametrize("case", sorted(CASES))
def test_contents_match_golden_table(case, golden):
    assert digest(build(case)) == golden[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_object_per_distinct_interval(case):
    for intervals in schedules(build(case)):
        objects = len({id(interval) for interval in intervals})
        contents = len({(i.acts, i.postpone) for i in intervals})
        assert objects == contents
        assert objects <= content_period(intervals)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_golden_traces.py --regen")
    table = {case: digest(build(case)) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}")
