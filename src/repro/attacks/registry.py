"""Factory registry: build any attack trace from a name plus parameters.

The counterpart of :mod:`repro.trackers.registry` for the attack side,
so an experiment can be described entirely as data: ``("mint",
"blacksmith", config)``. Factories take the shared
:class:`~repro.attacks.base.AttackParams` plus an optional RNG for the
randomised families; randomness is drawn only from that RNG, so a
seeded call is reproducible across processes.
"""

from __future__ import annotations

import inspect
import random
from typing import Callable

from ..sim.trace import ChannelTrace, RankTrace, Trace
from .base import AttackParams
from .channel import (
    channel_stripe_decoy,
    rank_rotation,
    rank_synchronized,
    replicate_across_ranks,
)
from .classic import double_sided, one_location, single_sided
from .blacksmith import random_blacksmith
from .decoy import postponement_decoy, postponement_decoy_multi
from .halfdouble import half_double
from .manysided import decoy_assisted, many_sided
from .multirow import pattern2, pattern2_double_sided, pattern3
from .rank import bank_interleaved, cross_bank_decoy, rank_stripe

_FACTORIES: dict[str, Callable[..., Trace]] = {}
_RANK_FACTORIES: dict[str, Callable[..., RankTrace]] = {}
_CHANNEL_FACTORIES: dict[str, Callable[..., ChannelTrace]] = {}


def _call(name: str, factory: Callable, *args, **kwargs):
    """``factory(*args, **kwargs)``, or a ValueError naming the attack's
    params when they do not fit the factory's signature (checked only
    after a TypeError: the signature costs more than most builds)."""
    try:
        return factory(*args, **kwargs)
    except TypeError:
        try:
            inspect.signature(factory).bind(*args, **kwargs)
        except TypeError as error:
            raise ValueError(f"attack.params: {name} {error}") from None
        raise


def register_attack(name: str, factory: Callable[..., Trace]) -> None:
    """Register an attack factory under ``name`` (case-insensitive)."""
    _FACTORIES[name.lower()] = factory


def make_attack(
    name: str,
    params: AttackParams | None = None,
    rng: random.Random | None = None,
    **kwargs,
) -> Trace:
    """Build an attack trace by name.

    ``rng`` feeds the randomised families (Blacksmith fuzzing); the
    deterministic patterns ignore it.
    """
    try:
        factory = _FACTORIES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown attack {name!r}; known: {sorted(_FACTORIES)}"
        ) from None
    return _call(name, factory, params or AttackParams(), rng=rng, **kwargs)


def available_attacks() -> list[str]:
    """Names accepted by :func:`make_attack`."""
    return sorted(_FACTORIES)


def register_rank_attack(
    name: str, factory: Callable[..., RankTrace]
) -> None:
    """Register a bank-addressed attack factory (case-insensitive).

    Rank factories take ``(params, rng=None, num_banks=..., **extra)``
    and return a :class:`~repro.sim.trace.RankTrace`.
    """
    _RANK_FACTORIES[name.lower()] = factory


def make_rank_attack(
    name: str,
    params: AttackParams | None = None,
    rng: random.Random | None = None,
    num_banks: int = 4,
    **kwargs,
) -> RankTrace:
    """Build a bank-addressed attack trace by name.

    Falls back to the row-only registry for convenience: a plain attack
    name resolves through :func:`make_attack` and is wrapped
    :func:`~repro.attacks.rank.bank_interleaved` across ``num_banks``.
    """
    factory = _RANK_FACTORIES.get(name.lower())
    if factory is not None:
        return _call(
            name, factory, params or AttackParams(), rng=rng,
            num_banks=num_banks, **kwargs,
        )
    if name.lower() in _FACTORIES:
        base = make_attack(name, params, rng=rng, **kwargs)
        return bank_interleaved(base, num_banks)
    raise KeyError(
        f"unknown rank attack {name!r}; known: "
        f"{sorted(_RANK_FACTORIES)} (plus any row-only attack, "
        f"auto-interleaved)"
    )


def available_rank_attacks() -> list[str]:
    """Names with a dedicated bank-addressed factory."""
    return sorted(_RANK_FACTORIES)


def is_rank_attack(name: str) -> bool:
    """True if ``name`` resolves to a bank-addressed (rank) factory."""
    return name.lower() in _RANK_FACTORIES


def register_channel_attack(
    name: str, factory: Callable[..., ChannelTrace]
) -> None:
    """Register a channel (multi-rank) attack factory (case-insensitive).

    Channel factories take ``(params, rng=None, num_ranks=...,
    num_banks=..., **extra)`` and return a
    :class:`~repro.sim.trace.ChannelTrace` of per-rank schedules.
    """
    _CHANNEL_FACTORIES[name.lower()] = factory


def make_channel_attack(
    name: str,
    params: AttackParams | None = None,
    rng: random.Random | None = None,
    num_ranks: int = 2,
    num_banks: int = 1,
    **kwargs,
) -> ChannelTrace:
    """Build a channel-level attack schedule by name.

    Falls back through the registries for convenience: a rank-attack
    name resolves via :func:`make_rank_attack` and a row-only name via
    :func:`make_attack` (auto-interleaved), then the resulting
    rank-scoped schedule is replicated onto every rank (synchronized
    channel play; see
    :func:`~repro.attacks.channel.replicate_across_ranks`).
    """
    factory = _CHANNEL_FACTORIES.get(name.lower())
    if factory is not None:
        return _call(
            name, factory, params or AttackParams(), rng=rng,
            num_ranks=num_ranks, num_banks=num_banks, **kwargs,
        )
    lower = name.lower()
    if lower in _RANK_FACTORIES or lower in _FACTORIES:
        base = make_rank_attack(
            name, params, rng=rng, num_banks=num_banks, **kwargs
        )
        return replicate_across_ranks(base, num_ranks)
    raise KeyError(
        f"unknown channel attack {name!r}; known: "
        f"{sorted(_CHANNEL_FACTORIES)} (plus any rank or row-only "
        f"attack, replicated across the ranks)"
    )


def available_channel_attacks() -> list[str]:
    """Names with a dedicated channel (multi-rank) factory."""
    return sorted(_CHANNEL_FACTORIES)


def is_channel_attack(name: str) -> bool:
    """True if ``name`` resolves to a dedicated channel factory."""
    return name.lower() in _CHANNEL_FACTORIES


# ---------------------------------------------------------------------
# Built-in factories. Each accepts (params, rng, **extra) even when it
# ignores the RNG, so make_attack can treat them uniformly.
# ---------------------------------------------------------------------

def _single_sided(params, rng=None, row=None):
    return single_sided(params, row=row)


def _double_sided(params, rng=None, victim=None):
    return double_sided(params, victim=victim)


def _one_location(params, rng=None, row=None):
    return one_location(params, row=row)


def _many_sided(params, rng=None, sides=12, spacing=4):
    return many_sided(sides, params, spacing=spacing)


def _blacksmith(params, rng=None, count=16, seed=None):
    if seed is None:
        seed = rng.randrange(2**32) if rng is not None else 13
    return random_blacksmith(count, params, seed=seed)


def _half_double(params, rng=None, center=None):
    return half_double(params, center=center)


def _pattern2(params, rng=None, k=None, spacing=8):
    return pattern2(params.max_act if k is None else k, params, spacing)


def _pattern2_double(params, rng=None, pairs=8, spacing=8):
    return pattern2_double_sided(pairs, params, spacing)


def _pattern3(params, rng=None, copies=4, spacing=8):
    return pattern3(copies, params, spacing)


def _decoy(params, rng=None, target=60_000, postponed=4):
    return postponement_decoy(target, params, postponed=postponed)


def _decoy_multi(params, rng=None, targets=None, postponed=4):
    if targets is None:
        targets = [60_000 + 10 * i for i in range(postponed)]
    return postponement_decoy_multi(list(targets), params, postponed=postponed)


def _decoy_assisted(params, rng=None, target=60_000, decoys=16,
                    hammers_per_interval=8):
    return decoy_assisted(target, decoys, hammers_per_interval, params)


# --- bank-addressed (rank) factories ---------------------------------

def _bank_interleaved(params, rng=None, num_banks=4, base="double-sided",
                      scheme="interval", **base_kwargs):
    base_trace = make_attack(base, params, rng=rng, **base_kwargs)
    return bank_interleaved(base_trace, num_banks, scheme=scheme)


def _cross_bank_decoy(params, rng=None, num_banks=4, target=60_000,
                      postponed=4, target_bank=0):
    return cross_bank_decoy(
        target, num_banks, params, postponed=postponed,
        target_bank=target_bank,
    )


def _rank_stripe(params, rng=None, num_banks=4, sides=12, spacing=8):
    return rank_stripe(sides, num_banks, params, spacing=spacing)


register_attack("single-sided", _single_sided)
register_attack("double-sided", _double_sided)
register_attack("one-location", _one_location)
register_attack("many-sided", _many_sided)
register_attack("blacksmith", _blacksmith)
register_attack("half-double", _half_double)
register_attack("pattern2", _pattern2)
register_attack("pattern2-double", _pattern2_double)
register_attack("pattern3", _pattern3)
register_attack("decoy", _decoy)
register_attack("decoy-multi", _decoy_multi)
register_attack("decoy-assisted", _decoy_assisted)

# --- channel (multi-rank) factories ----------------------------------

def _rank_rotation(params, rng=None, num_ranks=2, num_banks=1,
                   base="double-sided", bank=0, **base_kwargs):
    base_trace = make_attack(base, params, rng=rng, **base_kwargs)
    return rank_rotation(base_trace, num_ranks, bank=bank)


def _rank_synchronized(params, rng=None, num_ranks=2, num_banks=1,
                       sides=12, spacing=8):
    return rank_synchronized(
        sides, num_ranks, params, num_banks=num_banks, spacing=spacing
    )


def _channel_stripe_decoy(params, rng=None, num_ranks=2, num_banks=2,
                          target=60_000, postponed=4, target_rank=0,
                          target_bank=0):
    return channel_stripe_decoy(
        target, num_ranks, params, num_banks=num_banks,
        postponed=postponed, target_rank=target_rank,
        target_bank=target_bank,
    )


register_rank_attack("bank-interleaved", _bank_interleaved)
register_rank_attack("cross-bank-decoy", _cross_bank_decoy)
register_rank_attack("rank-stripe", _rank_stripe)

register_channel_attack("rank-rotation", _rank_rotation)
register_channel_attack("rank-synchronized", _rank_synchronized)
register_channel_attack("channel-stripe-decoy", _channel_stripe_decoy)
