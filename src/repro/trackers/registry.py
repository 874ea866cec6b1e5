"""Factory registry: build any tracker from a name plus parameters.

Used by the benchmark harness and examples so that experiments can be
described as data ("run pattern-2 against MINT, Mithril, PARFM ...").
"""

from __future__ import annotations

import inspect
import random
from typing import Callable

from .base import NullTracker, Tracker
from .graphene import GrapheneTracker
from .mithril import MithrilTracker
from .para import InDramParaTracker
from .parfm import ParfmTracker
from .prac import PracTracker
from .prct import PrctTracker
from .pride import PrideTracker
from .protrr import ProTrrTracker
from .trr import TrrTracker

_FACTORIES: dict[str, Callable[..., Tracker]] = {}


def register(name: str, factory: Callable[..., Tracker]) -> None:
    """Register a tracker factory under ``name`` (case-insensitive)."""
    _FACTORIES[name.lower()] = factory


def make_tracker(
    name: str,
    rng: random.Random | None = None,
    dmq: bool = False,
    max_act: int = 73,
    seed: int | None = None,
    dmq_depth: int = 4,
    **kwargs,
) -> Tracker:
    """Build a tracker by name.

    ``dmq=True`` wraps the tracker in a ``dmq_depth``-entry Delayed
    Mitigation Queue sized for ``max_act``. ``seed`` is a convenience
    for fan-out workers that ship plain integers instead of RNG
    objects: when ``rng`` is not given, the tracker gets
    ``random.Random(seed)``.
    """
    try:
        factory = _FACTORIES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown tracker {name!r}; known: {sorted(_FACTORIES)}"
        ) from None
    if rng is None and seed is not None:
        rng = random.Random(seed)
    try:
        tracker = factory(rng=rng, max_act=max_act, **kwargs)
    except TypeError:
        # Params that do not fit the factory's signature are the
        # spec's fault; any other TypeError is the factory's.
        try:
            inspect.signature(factory).bind(rng=rng, max_act=max_act, **kwargs)
        except TypeError as error:
            raise ValueError(f"tracker.params: {name} {error}") from None
        raise
    if dmq:
        # Imported lazily: repro.core depends on repro.trackers.base, so
        # a module-level import here would be circular.
        from ..core.dmq import DelayedMitigationQueue

        tracker = DelayedMitigationQueue(
            tracker, max_act=max_act, depth=dmq_depth
        )
    return tracker


def available_trackers() -> list[str]:
    """Names accepted by :func:`make_tracker`."""
    return sorted(_FACTORIES)


def bank_tracker_factory(
    name: str,
    base_seed: int | None = None,
    dmq: bool = False,
    max_act: int = 73,
    dmq_depth: int = 4,
    **kwargs,
) -> Callable[[int], Tracker]:
    """A per-bank tracker factory for :class:`~repro.sim.engine.RankSimulator`.

    Returns a callable mapping a bank index to a *fresh* tracker
    instance. Each bank's randomness derives from ``stable_seed(base_seed,
    "bank-tracker", bank)``, so rank runs are reproducible and the
    per-bank streams are independent — sharing one RNG (or one tracker)
    across banks would couple their sampling decisions.
    """

    def factory(bank: int) -> Tracker:
        rng = None
        if base_seed is not None:
            # Imported lazily: repro.sim imports repro.trackers.base at
            # package init, so a module-level import here would be
            # circular.
            from ..sim.seeding import stable_seed

            rng = random.Random(stable_seed(base_seed, "bank-tracker", bank))
        return make_tracker(
            name, rng=rng, dmq=dmq, max_act=max_act, dmq_depth=dmq_depth,
            **kwargs,
        )

    return factory


def channel_tracker_factory(
    name: str,
    base_seed: int | None = None,
    dmq: bool = False,
    max_act: int = 73,
    dmq_depth: int = 4,
    **kwargs,
) -> Callable[[int, int], Tracker]:
    """A per-(rank, bank) tracker factory for
    :class:`~repro.sim.engine.ChannelSimulator`.

    Returns a callable mapping ``(rank, bank)`` to a fresh tracker.
    Rank ``r``'s bank streams derive exactly as
    :func:`bank_tracker_factory` would with base seed
    ``stable_seed(base_seed, "channel-rank", r)`` — so a channel run is
    bit-for-bit N independent rank runs under those derived seeds (the
    channel-equivalence property the tests pin).
    """

    def rank_seed(rank: int) -> int | None:
        if base_seed is None:
            return None
        from ..sim.seeding import stable_seed

        return stable_seed(base_seed, "channel-rank", rank)

    def factory(rank: int, bank: int) -> Tracker:
        return bank_tracker_factory(
            name, base_seed=rank_seed(rank), dmq=dmq, max_act=max_act,
            dmq_depth=dmq_depth, **kwargs,
        )(bank)

    factory.rank_seed = rank_seed  # type: ignore[attr-defined]
    return factory


# ---------------------------------------------------------------------
# Built-in factories. Each accepts (rng, max_act, **extra) even when it
# ignores one of them, so make_tracker can treat them uniformly.
# ---------------------------------------------------------------------

def _mint(rng=None, max_act=73, transitive=True):
    from ..core.mint import MintTracker

    return MintTracker(max_act=max_act, transitive=transitive, rng=rng)


def _para(rng=None, max_act=73, overwrite=True):
    return InDramParaTracker(
        sample_probability=1.0 / max_act, overwrite=overwrite, rng=rng
    )


def _parfm(rng=None, max_act=73):
    return ParfmTracker(max_act=max_act, rng=rng)


def _prct(rng=None, max_act=73, num_rows=128 * 1024):
    return PrctTracker(num_rows=num_rows)


def _mithril(rng=None, max_act=73, num_entries=677):
    return MithrilTracker(num_entries=num_entries)


def _protrr(rng=None, max_act=73, num_entries=677):
    return ProTrrTracker(num_entries=num_entries)


def _trr(rng=None, max_act=73, num_entries=4):
    return TrrTracker(num_entries=num_entries)


def _pride(rng=None, max_act=73, fifo_depth=4):
    return PrideTracker(
        fifo_depth=fifo_depth, sample_probability=1.0 / max_act, rng=rng
    )


def _graphene(rng=None, max_act=73, trh=3000):
    return GrapheneTracker(trh=trh, acts_per_refw=max_act * 8192)


def _prac(rng=None, max_act=73, alert_threshold=512):
    return PracTracker(alert_threshold=alert_threshold)


def _null(rng=None, max_act=73):
    return NullTracker()


register("mint", _mint)
register("indram-para", _para)
register("para", _para)
register("parfm", _parfm)
register("prct", _prct)
register("mithril", _mithril)
register("protrr", _protrr)
register("trr", _trr)
register("pride", _pride)
register("graphene", _graphene)
register("prac", _prac)
register("none", _null)
