"""The declarative Scenario API: one object for "run tracker T against
attack A on geometry G with timing X at threshold TRH under seed S".

Every entry point of the reproduction — the CLI, the parallel
experiment runner, the Monte-Carlo layer, the perf layer — spells that
object the same way: :class:`Scenario`, a frozen, fully
JSON-serialisable description of one evaluation, with a stable
:meth:`~Scenario.fingerprint` built on
:func:`repro.sim.seeding.stable_hash` so a scenario is also a cache
key, a task payload for a worker pool, and a file on disk
(``repro run scenario.json``).

:class:`Session` is the facade that executes one:

* :meth:`Session.run` — one full trace simulation
  (:class:`~repro.sim.results.RankSimResult`);
* :meth:`Session.run_many` — repeated independent tREFW windows, the
  Monte-Carlo estimate (:class:`~repro.sim.montecarlo.MonteCarloResult`),
  bit-identical across worker counts;
* :meth:`Session.sweep` — cross the scenario with axes of variations
  into an :class:`~repro.exp.grid.ExperimentGrid` for the parallel
  runner;
* :meth:`Session.perf` — the performance figures for the scenario's
  device timing (:class:`~repro.perf.runner.NormalizedPerf`).

Seed policy: ``Scenario.seed`` is the only entropy root. Every random
stream derives from :meth:`Scenario.task_seed` — a stable hash of the
*whole* payload — via labelled :func:`~repro.sim.seeding.stable_seed`
calls (``tracker_seed(bank)``, ``trace_seed()``, Monte-Carlo window
seeds), so results are pure functions of the scenario no matter how
the work is partitioned, and any knob change re-keys every stream.

Trackers or traces the registries cannot describe (a hand-seeded
tracker, a hand-built trace) run on the engine directly:
``RankSimulator(lambda _bank: tracker, EngineConfig(...)).run(trace)``.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Mapping, TYPE_CHECKING

from .attacks.base import AttackParams
from .attacks.registry import (
    available_attacks,
    available_channel_attacks,
    available_rank_attacks,
    is_channel_attack,
    is_rank_attack,
    make_attack,
    make_channel_attack,
    make_rank_attack,
)
from .dram.timing import DDR5Timing, DEFAULT_TIMING
from .sim.engine import ChannelSimulator, EngineConfig, RankSimulator
from .sim.montecarlo import MonteCarloResult, scaled_timing
from .sim.results import ChannelSimResult, RankSimResult
from .sim.seeding import stable_hash, stable_seed
from .trackers.base import Tracker
from .trackers.registry import available_trackers, make_tracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (exp -> scenario)
    from .exp.grid import ExperimentGrid
    from .perf.runner import NormalizedPerf

#: Bump when the payload schema or the seed-derivation scheme changes;
#: hashed into every fingerprint and task seed so stale cached results
#: are re-keyed instead of silently reused.
SCENARIO_VERSION = 1

#: The identity classification of every spec dataclass field in this
#: module, enforced statically by ``repro lint`` (rule
#: ``identity-manifest``) and consumed at runtime by
#: :meth:`Scenario.identity_payload`. ``identity`` fields are hashed
#: into fingerprints and task seeds — changing one re-keys every
#: random stream and cache entry. ``excluded`` fields are pure
#: implementation knobs whose values the engine pins bit-identical
#: (reference and fast-engine runs of one scenario share every
#: stream), so they must *never* join the hash. Adding a field without
#: classifying it here is a lint error: deciding its fingerprint
#: status is part of adding the field.
IDENTITY_MANIFEST = {
    "TrackerSpec": {
        "identity": ["name", "params", "dmq", "dmq_depth"],
        "excluded": [],
    },
    "AttackSpec": {
        "identity": ["name", "params"],
        "excluded": [],
    },
    "Scenario": {
        "identity": [
            "tracker", "attack", "trh", "intervals", "max_act",
            "base_row", "num_rows", "blast_radius",
            "allow_postponement", "max_postponed", "refi_per_refw",
            "scaled_timing", "num_banks", "num_ranks",
            "concurrent_banks", "timing", "seed",
        ],
        "excluded": ["vectorized"],
    },
}


def _frozen_params(params: Mapping[str, Any] | None) -> tuple:
    """Normalise a kwargs mapping into a hashable, ordered tuple."""
    if not params:
        return ()
    return tuple(
        (key, tuple(value) if isinstance(value, list) else value)
        for key, value in sorted(params.items())
    )


def _spec_fields(
    payload: Any, field: str, known: tuple[str, ...]
) -> tuple[Any, tuple]:
    """The ``(name, frozen params)`` of a ``tracker``/``attack`` spec
    payload, or a ValueError naming ``field`` and what it got instead
    (a key outside ``known`` included)."""
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"{field} must be an object, got {type(payload).__name__}"
        )
    unknown = sorted(str(key) for key in payload if key not in known)
    if unknown:
        raise ValueError(
            f"{field} has unknown field {unknown[0]!r}; known: {list(known)}"
        )
    if "name" not in payload:
        raise ValueError(f"{field} needs a 'name' field")
    params = payload.get("params")
    if params is not None and not isinstance(params, Mapping):
        raise ValueError(
            f"{field}.params must be an object, got {type(params).__name__}"
        )
    return payload["name"], _frozen_params(params)


#: Integer scenario fields and their smallest valid value.
_INT_FIELDS = {
    "intervals": 1,
    "max_act": 1,
    "base_row": 0,
    "num_rows": 1,
    "blast_radius": 1,
    "max_postponed": 0,
    "refi_per_refw": 1,
    "num_banks": 1,
    "num_ranks": 1,
    "seed": None,
}


def _is_int(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


_TIMING_FIELDS = tuple(f.name for f in fields(DDR5Timing))


def _timing_from_payload(payload: Any) -> DDR5Timing:
    """A ``timing`` payload as a :class:`DDR5Timing`, or a ValueError
    naming what is wrong with it (values are checked by
    :func:`_validate_timing`)."""
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"timing must be an object, got {type(payload).__name__}"
        )
    unknown = sorted(str(key) for key in payload if key not in _TIMING_FIELDS)
    if unknown:
        raise ValueError(
            f"timing has unknown field {unknown[0]!r}; known: "
            f"{list(_TIMING_FIELDS)}"
        )
    return DDR5Timing(**payload)


def _validate_timing(timing: Any) -> None:
    """Every timing parameter must be a finite number > 0, and the
    tREFI window must fit at least one ACT."""
    if not isinstance(timing, DDR5Timing):
        raise ValueError(
            f"timing must be None or a DDR5Timing, got "
            f"{type(timing).__name__}"
        )
    for name in _TIMING_FIELDS:
        value = getattr(timing, name)
        if (
            not isinstance(value, numbers.Real)
            or isinstance(value, bool)
            or not math.isfinite(value)
            or value <= 0
        ):
            raise ValueError(
                f"timing.{name} must be a finite number > 0, got {value!r}"
            )
    if timing.max_act < 1:
        raise ValueError(
            f"timing fits no ACT per tREFI: (t_refi_ns - t_rfc_ns) / "
            f"t_rc_ns = ({timing.t_refi_ns} - {timing.t_rfc_ns}) / "
            f"{timing.t_rc_ns} rounds to {timing.max_act}"
        )


def _validate(scenario: "Scenario") -> None:
    """Reject a malformed scenario at construction, naming the field,
    instead of letting it fail late (or run to a silently "secure"
    result) inside the engine."""
    for name, low in _INT_FIELDS.items():
        value = getattr(scenario, name)
        if not _is_int(value):
            raise ValueError(
                f"{name} must be an int, got {type(value).__name__} "
                f"{value!r}"
            )
        if low is not None and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    banks = scenario.concurrent_banks
    if banks is not None and not (_is_int(banks) and banks >= 1):
        raise ValueError(
            f"concurrent_banks must be None or an int >= 1, got {banks!r}"
        )
    trh = scenario.trh
    if (
        not isinstance(trh, numbers.Real)
        or isinstance(trh, bool)
        or not math.isfinite(trh)
        or trh <= 0
    ):
        raise ValueError(f"trh must be a finite number > 0, got {trh!r}")
    for name in ("allow_postponement", "scaled_timing"):
        if not isinstance(getattr(scenario, name), bool):
            raise ValueError(
                f"{name} must be a bool, got {getattr(scenario, name)!r}"
            )
    if scenario.vectorized is not None and not isinstance(
        scenario.vectorized, bool
    ):
        raise ValueError(
            f"vectorized must be None or a bool, got {scenario.vectorized!r}"
        )
    if scenario.timing is not None:
        _validate_timing(scenario.timing)
    tracker, attack = scenario.tracker, scenario.attack
    if not isinstance(tracker, TrackerSpec) or (
        str(tracker.name).lower() not in available_trackers()
    ):
        name = getattr(tracker, "name", tracker)
        raise ValueError(
            f"tracker: unknown tracker {name!r}; known: "
            f"{available_trackers()}"
        )
    if not isinstance(tracker.dmq, bool):
        raise ValueError(f"tracker.dmq must be a bool, got {tracker.dmq!r}")
    depth = tracker.dmq_depth
    if not (_is_int(depth) and depth >= 1):
        raise ValueError(
            f"tracker.dmq_depth must be an int >= 1, got "
            f"{type(depth).__name__} {depth!r}"
        )
    attacks = sorted(
        set(available_attacks())
        | set(available_rank_attacks())
        | set(available_channel_attacks())
    )
    if not isinstance(attack, AttackSpec) or (
        str(attack.name).lower() not in attacks
    ):
        name = getattr(attack, "name", attack)
        raise ValueError(f"attack: unknown attack {name!r}; known: {attacks}")


@dataclass(frozen=True)
class TrackerSpec:
    """A tracker by registry name plus factory kwargs (JSON-safe)."""

    name: str
    params: tuple = ()
    dmq: bool = False
    dmq_depth: int = 4

    @classmethod
    def of(cls, name: str, dmq: bool = False, dmq_depth: int = 4,
           **params: Any) -> "TrackerSpec":
        return cls(name, _frozen_params(params), dmq, dmq_depth)

    @property
    def label(self) -> str:
        """Human-readable identity, unique within a well-formed grid."""
        base = self.name
        if self.params:
            args = ",".join(f"{key}={value}" for key, value in self.params)
            base = f"{base}({args})"
        if self.dmq:
            base = f"{base}+dmq{self.dmq_depth}"
        return base

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "dmq": self.dmq,
            "dmq_depth": self.dmq_depth,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "TrackerSpec":
        name, params = _spec_fields(
            payload, "tracker", ("name", "params", "dmq", "dmq_depth")
        )
        return cls(
            name,
            params,
            payload.get("dmq", False),
            payload.get("dmq_depth", 4),
        )


@dataclass(frozen=True)
class AttackSpec:
    """An attack pattern by registry name plus factory kwargs."""

    name: str
    params: tuple = ()

    @classmethod
    def of(cls, name: str, **params: Any) -> "AttackSpec":
        return cls(name, _frozen_params(params))

    def to_payload(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "AttackSpec":
        return cls(*_spec_fields(payload, "attack", ("name", "params")))


@dataclass(frozen=True)
class Scenario:
    """One fully-described evaluation: who, what, where, and with which
    randomness.

    All fields are plain JSON-serialisable values (the specs and the
    optional :class:`~repro.dram.timing.DDR5Timing` override are frozen
    dataclasses with payload conversions), so a scenario round-trips
    losslessly through :meth:`to_payload`/:meth:`from_payload` and can
    be shipped to worker processes, stored on disk, or fingerprinted.

    ``timing`` overrides the DDR5 timing outright; ``scaled_timing``
    instead selects the scaled Monte-Carlo device whose window holds
    ``max_act`` ACTs per tREFI (the fast regime used by tests and the
    statistical validation). The two are mutually exclusive.

    ``num_banks > 1`` — or an attack with a dedicated rank factory —
    runs the scenario on the rank engine: the attack resolves through
    :func:`repro.attacks.registry.make_rank_attack` (row-only attacks
    are auto-interleaved) and each bank gets its own tracker instance
    with an independent derived seed. ``num_ranks > 1`` — or a
    dedicated channel attack — lifts once more, onto the
    :class:`~repro.sim.engine.ChannelSimulator`: the attack resolves
    through :func:`repro.attacks.registry.make_channel_attack`
    (rank-scoped attacks replicate across the ranks) and every
    ``(rank, bank)`` tracker draws an independent derived stream.
    """

    tracker: TrackerSpec
    attack: AttackSpec
    trh: float = 4800.0
    intervals: int = 2000
    max_act: int = 73
    base_row: int = 1000
    num_rows: int = 128 * 1024
    blast_radius: int = 1
    allow_postponement: bool = False
    max_postponed: int = 4
    refi_per_refw: int = 8192
    scaled_timing: bool = False
    num_banks: int = 1
    num_ranks: int = 1
    concurrent_banks: int | None = None
    vectorized: bool | None = None
    timing: DDR5Timing | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.tracker, str):
            object.__setattr__(self, "tracker", TrackerSpec.of(self.tracker))
        if isinstance(self.attack, str):
            object.__setattr__(self, "attack", AttackSpec.of(self.attack))
        _validate(self)
        if self.scaled_timing and self.timing is not None:
            raise ValueError(
                "scaled_timing and an explicit timing override are "
                "mutually exclusive"
            )

    # -- identity ------------------------------------------------------
    def to_payload(self) -> dict:
        """Plain-JSON form; the canonical serialisation of the scenario."""
        return {
            "tracker": self.tracker.to_payload(),
            "attack": self.attack.to_payload(),
            "trh": self.trh,
            "intervals": self.intervals,
            "max_act": self.max_act,
            "base_row": self.base_row,
            "num_rows": self.num_rows,
            "blast_radius": self.blast_radius,
            "allow_postponement": self.allow_postponement,
            "max_postponed": self.max_postponed,
            "refi_per_refw": self.refi_per_refw,
            "scaled_timing": self.scaled_timing,
            "num_banks": self.num_banks,
            "num_ranks": self.num_ranks,
            "concurrent_banks": self.concurrent_banks,
            "vectorized": self.vectorized,
            "timing": None if self.timing is None else {
                f.name: getattr(self.timing, f.name)
                for f in fields(DDR5Timing)
            },
            "seed": self.seed,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_payload` output (or a
        hand-written ``scenario.json``). Missing fields take their
        defaults; unknown keys (other than an informational
        ``version`` and the retired ``backend`` holding a value it
        once accepted) are rejected so typos fail loudly."""
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"a scenario must be an object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        payload = dict(payload)
        # The retired engine knob: payloads saved while it existed carry
        # it, and none of the values it accepted changed a result bit.
        legacy = (None, "auto", "compiled", "numpy")
        if payload.pop("backend", None) not in legacy:
            raise ValueError(
                f"retired scenario field 'backend' can only hold one of "
                f"{list(legacy)}"
            )
        unknown = set(payload) - known - {"version"}
        if unknown:
            raise ValueError(
                f"unknown scenario field(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        data = {
            key: value for key, value in payload.items() if key in known
        }
        for key, spec_type in (("tracker", TrackerSpec),
                               ("attack", AttackSpec)):
            if key not in data:
                raise ValueError(f"scenario payload needs a {key!r} spec")
            value = data[key]
            if isinstance(value, str):
                # The string shorthand the constructor also accepts:
                # "tracker": "mint" means the registry default spec.
                data[key] = spec_type.of(value)
            elif isinstance(value, Mapping):
                data[key] = spec_type.from_payload(value)
            else:
                raise ValueError(
                    f"{key!r} must be a registry name or a "
                    f"{{\"name\": ..., \"params\": ...}} object, "
                    f"got {type(value).__name__}"
                )
        if data.get("timing") is not None:
            data["timing"] = _timing_from_payload(data["timing"])
        return cls(**data)

    def identity_payload(self) -> dict:
        """The payload slice that determines the scenario's *result*.

        Exactly :meth:`to_payload` minus ``vectorized``: the engine
        choice is a pure implementation knob — the engine pins both
        engines (and every compiled provider) bit-identical — so two
        scenarios differing only in it must share every random stream
        and every fingerprint (reference and fast runs of one scenario
        are the same result, and a store serves either from the
        other's cache entry).

        ``num_ranks`` is semantic (it *is* hashed when above 1), but
        the default of 1 — the pre-channel geometry — is elided, so
        every scenario written before the knob existed keeps its
        fingerprint, its task seed, and therefore all of its random
        streams and cached results bit-for-bit. Lifting to more ranks
        re-keys everything, as any knob change must.
        """
        payload = self.to_payload()
        for name in IDENTITY_MANIFEST["Scenario"]["excluded"]:
            del payload[name]
        if payload["num_ranks"] == 1:
            del payload["num_ranks"]
        return payload

    def fingerprint(self) -> str:
        """Stable identity of this scenario's *result*.

        Any change to any semantic field — specs, engine knobs, timing,
        seed — or to :data:`SCENARIO_VERSION` yields a new fingerprint,
        which is exactly the cache-invalidation rule downstream stores
        rely on (``vectorized`` alone does not: see
        :meth:`identity_payload`). Stable across processes, platforms,
        and worker counts.
        """
        return stable_hash(
            "scenario", SCENARIO_VERSION, self.identity_payload()
        )

    def task_seed(self) -> int:
        """The 64-bit root every random stream of this scenario derives
        from (a stable hash of the identity payload plus the version).

        Memoized on the instance: per-bank tracker seeds, the trace
        seed, and Monte-Carlo window seeds all branch off this value,
        and the scenario is frozen, so the payload hash is paid once.
        """
        cached = self.__dict__.get("_task_seed")
        if cached is None:
            cached = stable_seed(
                "scenario-task", SCENARIO_VERSION, self.identity_payload()
            )
            object.__setattr__(self, "_task_seed", cached)
        return cached

    def tracker_seed(self, bank: int = 0, rank: int = 0) -> int:
        """Seed of ``(rank, bank)``'s tracker RNG stream.

        Rank 0 keeps the pre-channel derivation, so a 1-rank channel
        scenario draws exactly the streams the rank engine always drew;
        sibling ranks branch through a ``"channel-rank"`` label so each
        rank's streams are independent and reproducible. (This is the
        scenario-side analogue of — but a different derivation from —
        :func:`repro.trackers.registry.channel_tracker_factory`; to
        reproduce one rank of a Session channel run standalone, build
        trackers with ``scenario.build_tracker(bank, rank=rank)``, not
        with that factory.)
        """
        if rank == 0:
            return stable_seed(self.task_seed(), "tracker", bank)
        return stable_seed(
            self.task_seed(), "channel-rank", rank, "tracker", bank
        )

    def trace_seed(self) -> int:
        """Seed of the attack-trace RNG stream."""
        return stable_seed(self.task_seed(), "trace")

    # -- resolution ----------------------------------------------------
    @property
    def is_rank(self) -> bool:
        """True when the scenario runs on the rank path (multi-bank or
        a dedicated bank-addressed attack factory)."""
        return self.num_banks > 1 or is_rank_attack(self.attack.name)

    @property
    def is_channel(self) -> bool:
        """True when the scenario runs on the channel path (multi-rank
        or a dedicated channel attack factory): ``Session.run`` builds
        a :class:`~repro.sim.engine.ChannelSimulator` and reports a
        :class:`~repro.sim.results.ChannelSimResult`."""
        return self.num_ranks > 1 or is_channel_attack(self.attack.name)

    @property
    def label(self) -> str:
        base = f"{self.tracker.label} vs {self.attack.name}"
        if self.num_ranks > 1:
            base = f"{base}@{self.num_ranks}r{self.num_banks}b"
        elif self.num_banks > 1:
            base = f"{base}@{self.num_banks}b"
        return base

    def resolved_timing(self) -> DDR5Timing:
        """The DDR5 timing this scenario simulates."""
        if self.timing is not None:
            return self.timing
        if self.scaled_timing:
            return scaled_timing(self.max_act, self.refi_per_refw)
        return DEFAULT_TIMING

    def engine_config(self) -> EngineConfig:
        """The :class:`~repro.sim.engine.EngineConfig` this scenario
        resolves to (the only way any layer should build one from a
        scenario)."""
        return EngineConfig(
            timing=self.resolved_timing(),
            trh=self.trh,
            num_rows=self.num_rows,
            blast_radius=self.blast_radius,
            allow_postponement=self.allow_postponement,
            max_postponed=self.max_postponed,
            refi_per_refw=self.refi_per_refw,
            num_banks=self.num_banks,
            num_ranks=self.num_ranks,
            concurrent_banks=self.concurrent_banks,
            vectorized=self.vectorized,
        )

    def attack_params(self) -> AttackParams:
        return AttackParams(
            max_act=self.max_act,
            intervals=self.intervals,
            base_row=self.base_row,
        )

    # -- builders ------------------------------------------------------
    def build_tracker(
        self,
        bank: int = 0,
        rng: random.Random | None = None,
        rank: int = 0,
    ) -> Tracker:
        """A fresh tracker instance for ``(rank, bank)``.

        ``rng`` overrides the derived per-bank stream (the Monte-Carlo
        window loop threads its window RNG through bank 0's tracker and
        then trace construction; sibling trackers get per-window
        streams of their own).
        """
        if rng is None:
            rng = random.Random(self.tracker_seed(bank, rank))
        return make_tracker(
            self.tracker.name,
            rng=rng,
            dmq=self.tracker.dmq,
            dmq_depth=self.tracker.dmq_depth,
            max_act=self.max_act,
            **dict(self.tracker.params),
        )

    def tracker_factory(self) -> Callable[[int], Tracker]:
        """A per-bank factory for :class:`~repro.sim.engine.RankSimulator`
        (each bank's randomness derives from the task seed plus the
        bank index)."""
        return self.build_tracker

    def channel_tracker_factory(self) -> Callable[[int, int], Tracker]:
        """A per-(rank, bank) factory for
        :class:`~repro.sim.engine.ChannelSimulator` (rank 0 draws the
        classic per-bank streams; sibling ranks branch independently —
        see :meth:`tracker_seed`)."""

        def factory(rank: int, bank: int) -> Tracker:
            return self.build_tracker(bank, rank=rank)

        return factory

    def build_trace(self, rng: random.Random | None = None) -> Any:
        """The attack schedule: a :class:`~repro.sim.trace.ChannelTrace`
        on the channel path, bank-addressed on the rank path, row-only
        otherwise."""
        if rng is None:
            rng = random.Random(self.trace_seed())
        if self.is_channel:
            return make_channel_attack(
                self.attack.name,
                self.attack_params(),
                rng=rng,
                num_ranks=self.num_ranks,
                num_banks=self.num_banks,
                **dict(self.attack.params),
            )
        if self.is_rank:
            return make_rank_attack(
                self.attack.name,
                self.attack_params(),
                rng=rng,
                num_banks=self.num_banks,
                **dict(self.attack.params),
            )
        return make_attack(
            self.attack.name,
            self.attack_params(),
            rng=rng,
            **dict(self.attack.params),
        )

    # -- composition ---------------------------------------------------
    def sweep(self, **axes: Any) -> "ExperimentGrid":
        """Cross this scenario with axes of variations into a grid.

        ``tracker=`` and ``attack=`` take lists of specs (or registry
        names); every other axis must name a grid-able engine knob (a
        :class:`~repro.exp.grid.PointConfig` field) with a list of
        values. Scalars count as one-element axes. The base scenario
        supplies every un-swept knob::

            grid = Scenario(tracker="mint", attack="double-sided",
                            trh=1500).sweep(
                tracker=["mint", "para", "graphene"],
                num_banks=[1, 4],
            )
            report = run_grid(grid, base_seed=1)
        """
        # Imported lazily: repro.exp.grid imports the specs from this
        # module at import time.
        from itertools import product

        from .exp.grid import ExperimentGrid, PointConfig

        def axis(
            value: Any, base: Any, coerce: Callable[[Any], Any]
        ) -> list[Any]:
            if value is None:
                return [base]
            values = list(value) if isinstance(value, (list, tuple)) else [value]
            return [coerce(v) for v in values]

        trackers = axis(
            axes.pop("tracker", None), self.tracker,
            lambda v: TrackerSpec.of(v) if isinstance(v, str) else v,
        )
        attacks = axis(
            axes.pop("attack", None), self.attack,
            lambda v: AttackSpec.of(v) if isinstance(v, str) else v,
        )
        base_config = PointConfig.from_scenario(self)
        knob_names = {f.name for f in fields(PointConfig)}
        if "vectorized" in axes:
            # Excluded from the identity hash (see identity_payload):
            # all values would fingerprint — and cache — as one point.
            raise ValueError(
                "'vectorized' cannot be a sweep axis: the engine-path "
                "choice is excluded from scenario identity (every "
                "engine path is bit-identical), so its points would "
                "collide in the result store; set it on the base "
                "scenario instead"
            )
        unknown = set(axes) - knob_names
        if unknown:
            raise ValueError(
                f"unknown sweep axis(es) {sorted(unknown)}; valid axes: "
                f"'tracker', 'attack', and the grid knobs "
                f"{sorted(knob_names - {'vectorized'})}"
            )
        keys = list(axes)
        value_lists = [
            list(axes[key]) if isinstance(axes[key], (list, tuple))
            else [axes[key]]
            for key in keys
        ]
        configs = [
            replace(base_config, **dict(zip(keys, combo)))
            for combo in product(*value_lists)
        ] if keys else [base_config]
        return ExperimentGrid(
            trackers=trackers, attacks=attacks, configs=configs
        )

    def describe(self) -> str:
        """Human-readable rendering (``repro scenario show``)."""
        lines = [
            f"scenario: {self.label}",
            f"  tracker          {self.tracker.label}",
            f"  attack           {self.attack.name}"
            + (f" {dict(self.attack.params)}" if self.attack.params else ""),
            f"  trh              {self.trh:g}",
            f"  intervals        {self.intervals}",
            f"  max_act          {self.max_act}",
            f"  geometry         {self.num_ranks} rank(s) x "
            f"{self.num_banks} bank(s) x "
            f"{self.num_rows} rows (blast radius {self.blast_radius})",
            f"  timing           "
            + ("scaled" if self.scaled_timing
               else "custom" if self.timing is not None else "DDR5 default"),
            f"  postponement     "
            + (f"allowed (max {self.max_postponed})"
               if self.allow_postponement else "off"),
            f"  engine           "
            + ("reference (scalar)"
               if self.vectorized is False or self.blast_radius != 1
               else "fast (packed kernel)"),
            f"  seed             {self.seed}",
            f"  task seed        {self.task_seed()}",
            f"  fingerprint      {self.fingerprint()}",
        ]
        return "\n".join(lines)


class Session:
    """Executes one :class:`Scenario` through every evaluation mode.

    A session is cheap to build and holds no device state between
    calls; each :meth:`run` constructs fresh trackers, a fresh trace,
    and a fresh :class:`~repro.sim.engine.RankSimulator` from the
    scenario's derived seeds, so repeated runs are bit-identical. The
    most recent simulator is kept on :attr:`last_simulator` for callers
    that need tracker-side counters (storage bits, overflow drops).
    """

    def __init__(self, scenario: Scenario) -> None:
        if not isinstance(scenario, Scenario):
            raise TypeError(
                f"Session needs a Scenario, got {type(scenario).__name__}"
            )
        self.scenario = scenario
        #: The simulator of the most recent :meth:`run` (None before).
        self.last_simulator: RankSimulator | ChannelSimulator | None = None

    # ------------------------------------------------------------------
    def run(self) -> RankSimResult | ChannelSimResult:
        """Execute the scenario's trace once, to completion.

        Channel scenarios (``num_ranks > 1`` or a dedicated channel
        attack) run on the :class:`~repro.sim.engine.ChannelSimulator`
        and report a :class:`~repro.sim.results.ChannelSimResult`;
        everything else reports a rank-level result — single-bank
        scenarios carry their classic
        :class:`~repro.sim.results.SimResult` as ``result.per_bank[0]``.
        """
        scenario = self.scenario
        if scenario.is_channel:
            simulator = ChannelSimulator(
                scenario.channel_tracker_factory(), scenario.engine_config()
            )
        else:
            simulator = RankSimulator(
                scenario.tracker_factory(), scenario.engine_config()
            )
        result = simulator.run(scenario.build_trace())
        self.last_simulator = simulator
        return result

    @property
    def trackers(self) -> list[Tracker]:
        """The tracker instances of the most recent :meth:`run`, as one
        flat list (rank-major on the channel path)."""
        if self.last_simulator is None:
            raise RuntimeError("no run yet: call Session.run() first")
        if isinstance(self.last_simulator, ChannelSimulator):
            return [
                tracker
                for rank in self.last_simulator.ranks
                for tracker in rank.trackers
            ]
        return self.last_simulator.trackers

    def run_many(self, windows: int, n_workers: int = 1) -> MonteCarloResult:
        """Monte-Carlo: ``windows`` independent tREFW windows.

        Each window rebuilds trackers and trace from a stable per-window
        seed derived from :meth:`~Scenario.task_seed`, so the estimate
        is a pure function of the scenario — bit-identical for any
        ``n_workers`` (see
        :func:`~repro.sim.montecarlo.scenario_failure_probability`).
        """
        from .sim.montecarlo import scenario_failure_probability

        return scenario_failure_probability(
            self.scenario, windows=windows, n_workers=n_workers
        )

    def sweep(self, **axes: Any) -> "ExperimentGrid":
        """See :meth:`Scenario.sweep`."""
        return self.scenario.sweep(**axes)

    def perf(
        self,
        workload: str = "mcf_r",
        sim_time_ns: float = 2_000_000.0,
        include_mc_para: bool = False,
        mc_para_probability: float = 1.0 / 74.0,
    ) -> "NormalizedPerf":
        """Performance figures for ``workload`` on this scenario's
        device timing (see :func:`repro.perf.runner.evaluate_scenario`)."""
        from .perf.runner import evaluate_scenario

        return evaluate_scenario(
            self.scenario,
            workload=workload,
            sim_time_ns=sim_time_ns,
            include_mc_para=include_mc_para,
            mc_para_probability=mc_para_probability,
        )


def run_scenario(
    scenario: Scenario | Mapping[str, Any],
) -> RankSimResult | ChannelSimResult:
    """One-call convenience: execute a scenario (or its payload)."""
    if not isinstance(scenario, Scenario):
        scenario = Scenario.from_payload(scenario)
    return Session(scenario).run()


__all__ = [
    "SCENARIO_VERSION",
    "AttackSpec",
    "Scenario",
    "Session",
    "TrackerSpec",
    "run_scenario",
]
