"""Common interface for in-DRAM (and MC-side) aggressor trackers.

Every tracker in the paper fits one life-cycle:

* :meth:`Tracker.on_activate` is called for each demand activation, or
  :meth:`Tracker.on_activate_batch` for a whole tREFI interval's batch
  at once (the fast engine's hot path).
* :meth:`Tracker.on_refresh` is called at each REF command; the tracker
  returns the (possibly empty) list of mitigations to perform now.
* :meth:`Tracker.pseudo_refresh` is called by the Delayed Mitigation
  Queue when activations exceed MaxACT under refresh postponement: the
  tracker must hand over its current selection and reset its interval
  state exactly as if a REF had occurred, without any mitigation being
  executed yet.

A mitigation is a :class:`MitigationRequest` — an aggressor row plus a
*distance*: 1 for a normal victim refresh (aggressor±1), 2 for a
transitive mitigation (aggressor±2, Section V-E), etc.

The batch contract (for third-party trackers)
---------------------------------------------

``on_activate_batch(rows, counts=None)`` must be *observably
equivalent* to calling ``on_activate`` once per entry of ``rows`` in
order: same table contents, same mitigation stream, and — for
randomized trackers — the same draws from the tracker's ``rng`` (so a
simulation produces bit-identical results whichever entry point the
engine uses; the property suite pins this for every registry tracker).
The default implementation is exactly that scalar loop; override it
only with an implementation that preserves the equivalence, falling
back to the scalar loop for batches whose outcome is order-dependent
(table overflow, mid-batch threshold crossings, ...).

``rows`` is the interval's act stream — a sequence or NumPy integer
array, never to be mutated. ``counts``, when provided, is the batch's
``(unique_rows, counts)`` pre-aggregation **in first-occurrence
order** (the order scalar processing would first insert each row),
computed once by the engine and shared with the disturbance oracle;
use :func:`batch_items` to consume it uniformly.

The lowering contract (for the compiled march)
----------------------------------------------

The fast engine marches steady-state runs inside one compiled call
(:mod:`repro.kernels.march`), tracker state held in flat arrays. A
tracker opts in with three methods, called only between tREFIs:
:meth:`Tracker.lower` names the march *kind* that executes it plus its
static parameters (a :class:`Lowering`; ``None``, the default, never
compiles); :meth:`Tracker.march_in` loads its state into the kind's
arrays through a :class:`MarchUnit`, or returns False — changing
nothing — when the march cannot start from that state; and
:meth:`Tracker.march_out` writes the marched state back, tallies
included. The stream a :class:`Lowering` names is the engine's: the
march draws from a copy of its twister state, and the engine moves it
on by the words the march drew; ``march_out`` never touches it. A
subclass that overrides a behaviour method (``on_activate``,
``on_activate_batch``, ``on_refresh``, ``pseudo_refresh``,
``on_mitigation_activate``) without re-declaring :meth:`Tracker.lower` gets the "not lowerable"
default, so no tracker marches behaviour it does not have.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Any, Sequence, Union

from ..kernels.march import KIND_NULL

BatchRows = Union[Sequence[int], "object"]  # Sequence[int] | np.ndarray


def batch_items(rows, counts=None) -> list[tuple[int, int]]:
    """``(row, count)`` pairs of a batch, in first-occurrence order.

    Uses the engine-provided ``counts`` pre-aggregation when available
    (array pairs convert via ``tolist`` so downstream dict keys are
    plain ints); otherwise aggregates ``rows`` directly.
    """
    if counts is not None:
        uniq, cnt = counts
        if hasattr(uniq, "tolist"):
            uniq = uniq.tolist()
        if hasattr(cnt, "tolist"):
            cnt = cnt.tolist()
        return list(zip(uniq, cnt))
    agg: dict[int, int] = {}
    for row in rows.tolist() if hasattr(rows, "tolist") else rows:
        agg[row] = agg.get(row, 0) + 1
    return list(agg.items())


@dataclass(frozen=True)
class MitigationRequest:
    """Ask the device to refresh the victims of ``row`` at ``distance``."""

    row: int
    distance: int = 1

    def __post_init__(self) -> None:
        if self.distance < 1:
            raise ValueError("mitigation distance must be >= 1")


@dataclass(frozen=True)
class Lowering:
    """A tracker's compiled-march form (see the lowering contract)."""

    kind: int  # repro.kernels.march.KIND_*
    #: The tracker's own stream, which the march draws from and the
    #: engine settles: one ``randint(*bounds)`` per REF, or without
    #: ``bounds`` one ``random()`` per activation.
    stream: random.Random | None = None
    bounds: tuple[int, int] | None = None
    prob: float = 0.0  # sampled kind: per-activation probability
    threshold: int = 1  # counter kind: trip threshold
    capacity: int = 0  # counter kind: table entries (-1: unbounded)


@dataclass
class MarchUnit:
    """One tracker's view of a compiled march call: ``unit[name]`` is
    entry ``index`` of march array ``name``; counter kinds get slot
    ``rows`` with their ``counts`` (-1: no entry) and ``queued`` rows
    to mitigate at the next REF."""

    arrays: dict
    index: int
    rows: list[int]
    counts: Any
    queued: list[int] = field(default_factory=list)

    def __getitem__(self, name: str) -> int:
        return int(self.arrays[name][self.index])

    def __setitem__(self, name: str, value: int) -> None:
        self.arrays[name][self.index] = value


#: The methods whose override invalidates an inherited lowering.
_BEHAVIOUR = {"on_activate", "on_activate_batch", "on_refresh",
              "pseudo_refresh", "on_mitigation_activate"}


class Tracker(abc.ABC):
    """Abstract aggressor tracker.

    Class attributes describe the tracker for the comparison tables:

    ``name``
        Human-readable identifier used in reports.
    ``centric``
        The paper's taxonomy: ``"past"``, ``"present"`` or ``"future"``.
    ``observes_mitigations``
        True for counter-based designs whose counters are incremented by
        the activations that victim refreshes perform (this is what makes
        PRCT and Mithril immune to transitive attacks, Section V-G).
    ``pseudo_mitigations``
        Declared counter of :meth:`pseudo_refresh` hand-offs performed
        under refresh postponement. Plain trackers never pseudo-refresh,
        so the class default of 0 stands; wrappers that do (the Delayed
        Mitigation Queue) maintain an instance counter. The simulation
        engine reads this attribute directly when assembling results —
        it is part of the tracker interface, not duck-typed.
    """

    name: str = "tracker"
    centric: str = "past"
    observes_mitigations: bool = False
    pseudo_mitigations: int = 0

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "lower" not in vars(cls) and _BEHAVIOUR & vars(cls).keys():
            cls.lower = Tracker.lower  # type: ignore[method-assign]

    @abc.abstractmethod
    def on_activate(self, row: int) -> None:
        """Observe one demand activation of ``row``."""

    def on_activate_batch(self, rows: BatchRows, counts=None) -> None:
        """Observe one interval's demand activations at once.

        Must be observably equivalent to ``on_activate`` per row in
        order (see the module docstring for the full contract). This
        default is that scalar loop; ``counts`` is the optional shared
        ``(unique_rows, counts)`` pre-aggregation in first-occurrence
        order, which this default does not need.
        """
        on_activate = self.on_activate
        for row in rows.tolist() if hasattr(rows, "tolist") else rows:
            on_activate(row)

    @abc.abstractmethod
    def on_refresh(self) -> list[MitigationRequest]:
        """REF boundary: return mitigations to perform, reset interval."""

    def on_mitigation_activate(self, row: int) -> None:
        """Observe the silent activation a victim refresh performs.

        Only called when :attr:`observes_mitigations` is True. Default
        implementation treats it like a demand activation.
        """
        self.on_activate(row)

    def pseudo_refresh(self) -> list[MitigationRequest]:
        """Hand over the current selection for DMQ queueing.

        Default: identical to a refresh boundary. Trackers whose refresh
        has side effects beyond selection may override.
        """
        return self.on_refresh()

    def reset(self) -> None:
        """Restore power-on state. Subclasses should override."""

    # -- the lowering contract (see the module docstring) -------------
    def lower(self) -> Lowering | None:
        return None

    def march_in(self, unit: MarchUnit) -> bool:
        return False

    def march_out(self, unit: MarchUnit) -> None:
        pass

    @property
    def entries(self) -> int:
        """Number of row-tracking entries (for Table III)."""
        return 1

    @property
    def storage_bits(self) -> int:
        """SRAM bits used per bank (for Section VIII-C / Table IX)."""
        return 0


class NullTracker(Tracker):
    """A tracker that never mitigates — the unprotected baseline."""

    name = "none"
    centric = "none"

    def on_activate(self, row: int) -> None:
        pass

    def on_activate_batch(self, rows: BatchRows, counts=None) -> None:
        pass

    def on_refresh(self) -> list[MitigationRequest]:
        return []

    def lower(self) -> Lowering:
        return Lowering(KIND_NULL)

    @property
    def entries(self) -> int:
        return 0
