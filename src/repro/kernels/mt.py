"""Vectorized, bit-exact MT19937 ``randint`` streams.

The compiled channel march (:mod:`repro.kernels`) executes thousands of
tREFIs per call, and MINT consumes exactly one ``rng.randint(low, M)``
per REF. Re-implementing the Mersenne Twister *inside* each compiled
backend would triple the surface that has to stay bit-exact against
CPython; instead the driver pre-draws the whole march's selection
stream here — NumPy-vectorized over 624-word twister blocks, but word
for word identical to ``random.Random`` — and hands the compiled
kernel a plain integer array.

:func:`draw_exact` is the contract: given a live ``random.Random``, it
returns the next ``n`` values of ``rng.randint(low, high)`` *and*
leaves ``rng`` in exactly the state ``n`` scalar calls would have — so
a march that bails early simply restores the saved entry state and
re-draws the consumed prefix, and the Python fallback path continues
the very same stream.

The replicated pipeline (CPython ``_randommodule.c`` / ``random.py``):

``randint(a, b)`` → ``randrange(a, b + 1)`` →
``a + _randbelow(b - a + 1)``; ``_randbelow(n)`` draws
``getrandbits(k)`` with ``k = n.bit_length()`` and rejects until the
value is ``< n``; ``getrandbits(k)`` for ``k <= 32`` is one tempered
twister word right-shifted by ``32 - k``.
"""

from __future__ import annotations

import random

import numpy as np

__all__ = ["draw_exact", "mt_state", "set_mt_state"]

_N = 624
_M = 397
_UPPER = np.uint32(0x80000000)
_LOWER = np.uint32(0x7FFFFFFF)
_MATRIX_A = np.uint32(0x9908B0DF)


def _twist(mt: np.ndarray) -> np.ndarray:
    """One full generator turnover (``genrand_uint32``'s block step).

    The reference updates in place, so entries ``i >= N - M`` read
    already-twisted words and entry ``N - 1`` reads the *new* word 0;
    staging the three regions reproduces that order exactly.
    """
    new = np.empty(_N, dtype=np.uint32)
    y = (mt[0 : _N - _M] & _UPPER) | (mt[1 : _N - _M + 1] & _LOWER)
    new[0 : _N - _M] = (
        mt[_M:_N] ^ (y >> np.uint32(1))
        ^ np.where(y & np.uint32(1), _MATRIX_A, np.uint32(0))
    )
    # Entries i >= N - M read new[i - (N - M)], their own stage's
    # outputs for i >= 2 (N - M) — chain the region in (N - M)-sized
    # chunks so every chunk reads only already-written words.
    start = _N - _M
    while start < _N - 1:
        end = min(start + (_N - _M), _N - 1)
        y = (mt[start:end] & _UPPER) | (mt[start + 1 : end + 1] & _LOWER)
        new[start:end] = (
            new[start - (_N - _M) : end - (_N - _M)]
            ^ (y >> np.uint32(1))
            ^ np.where(y & np.uint32(1), _MATRIX_A, np.uint32(0))
        )
        start = end
    y = (mt[_N - 1] & _UPPER) | (new[0] & _LOWER)
    new[_N - 1] = (
        new[_M - 1] ^ (y >> np.uint32(1))
        ^ (_MATRIX_A if y & np.uint32(1) else np.uint32(0))
    )
    return new


def _temper(words: np.ndarray) -> np.ndarray:
    y = words.copy()
    y ^= y >> np.uint32(11)
    y ^= (y << np.uint32(7)) & np.uint32(0x9D2C5680)
    y ^= (y << np.uint32(15)) & np.uint32(0xEFC60000)
    y ^= y >> np.uint32(18)
    return y


def mt_state(rng: random.Random) -> tuple[np.ndarray, int, object]:
    """``rng``'s twister state as ``(mt_words, pos, gauss_next)``."""
    version, internal, gauss_next = rng.getstate()
    if version != 3:  # pragma: no cover - CPython has used v3 since 2.6
        raise ValueError(f"unsupported random state version {version}")
    return np.array(internal[:_N], dtype=np.uint32), internal[_N], gauss_next


def set_mt_state(
    rng: random.Random, mt: np.ndarray, pos: int, gauss_next: object
) -> None:
    """Install ``(mt, pos)`` back into ``rng`` (inverse of mt_state)."""
    rng.setstate((3, tuple(mt.tolist()) + (int(pos),), gauss_next))


def draw_exact(
    rng: random.Random, n: int, low: int, high: int
) -> np.ndarray:
    """The next ``n`` values of ``rng.randint(low, high)``, vectorized.

    Advances ``rng`` to exactly the state ``n`` scalar ``randint``
    calls would leave (rejection sampling consumes a data-dependent
    number of twister words; the consumed count is replicated
    precisely). Only single-word draws are supported — ``high - low``
    must fit in 32 bits, which covers every tracker configuration.
    """
    if high < low:
        raise ValueError("empty randint range")
    width = high - low + 1
    k = width.bit_length()
    if k > 32:
        raise ValueError(
            f"randint width {width} needs {k}-bit draws; only "
            "single-word (<= 32 bit) streams can be vectorized"
        )
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    mt, pos, gauss_next = mt_state(rng)
    shift = np.uint32(32 - k)
    filled = 0
    while filled < n:
        if pos >= _N:
            mt = _twist(mt)
            pos = 0
        candidates = _temper(mt[pos:]) >> shift
        accept = np.nonzero(candidates < width)[0]
        need = n - filled
        if accept.size >= need:
            consumed = int(accept[need - 1]) + 1
            out[filled : filled + need] = candidates[accept[:need]]
            pos += consumed
            filled = n
        else:
            out[filled : filled + accept.size] = candidates[accept]
            filled += accept.size
            pos = _N
    set_mt_state(rng, mt, pos, gauss_next)
    out += low
    return out
