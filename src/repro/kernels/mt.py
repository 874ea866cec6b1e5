"""Vectorized, bit-exact MT19937 ``randint`` and ``random`` streams.

The compiled channel march (:mod:`repro.kernels`) executes thousands of
tREFIs per call. MINT consumes exactly one ``rng.randint(low, M)`` per
REF and InDRAM-PARA (overwrite variant) one ``rng.random()`` per
activation. Re-implementing the Mersenne Twister *inside* each compiled
backend would triple the surface that has to stay bit-exact against
CPython; instead the driver pre-draws the whole march's stream here —
NumPy-vectorized over 624-word twister blocks, but word for word
identical to ``random.Random`` — and hands the compiled kernel a plain
integer or float array.

:func:`draw_exact` and :func:`random_exact` are the contract: given a
live ``random.Random``, each returns the next ``n`` values of
``rng.randint(low, high)`` (respectively ``rng.random()``) *and* leaves
``rng`` in exactly the state ``n`` scalar calls would have.
:class:`Predrawn` is the march's form of the same contract: it draws
ahead from the generator's packed state without touching ``rng``, and
commits only the prefix a march consumed — so a march that stops early
(at a state limit or a full event buffer) leaves the next call, or the
per-step Python path, to continue the very same stream.

The replicated pipelines (CPython ``_randommodule.c`` / ``random.py``):

``randint(a, b)`` → ``randrange(a, b + 1)`` →
``a + _randbelow(b - a + 1)``; ``_randbelow(n)`` draws
``getrandbits(k)`` with ``k = n.bit_length()`` and rejects until the
value is ``< n``; ``getrandbits(k)`` for ``k <= 32`` is one tempered
twister word right-shifted by ``32 - k``.

``random()`` takes two consecutive tempered words ``a``, ``b`` and
returns ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` — every step exact in
double precision.
"""

from __future__ import annotations

import random

import numpy as np

__all__ = [
    "Predrawn",
    "draw_exact",
    "mt_state",
    "random_exact",
    "set_mt_state",
]

_N = 624
_M = 397
_UPPER = np.uint32(0x80000000)
_LOWER = np.uint32(0x7FFFFFFF)
_MATRIX_A = np.uint32(0x9908B0DF)


def _twist(mt: np.ndarray) -> np.ndarray:
    """One full generator turnover (``genrand_uint32``'s block step).

    The reference updates in place, so entries ``i >= N - M`` read
    already-twisted words and entry ``N - 1`` reads the *new* word 0.
    Every other entry's mixing term depends on old words only, so it is
    computed in one pass; the xor chain then runs in three
    ``(N - M)``-sized stages, each reading only already-written words.
    """
    k = _N - _M
    y = (mt[:-1] & _UPPER) | (mt[1:] & _LOWER)
    mag = (y >> np.uint32(1)) ^ ((y & np.uint32(1)) * _MATRIX_A)
    new = np.empty(_N, dtype=np.uint32)
    new[:k] = mt[_M:] ^ mag[:k]
    new[k : 2 * k] = new[:k] ^ mag[k : 2 * k]
    new[2 * k : _N - 1] = new[k : _N - 1 - k] ^ mag[2 * k :]
    last = (int(mt[-1]) & 0x80000000) | (int(new[0]) & 0x7FFFFFFF)
    new[-1] = (
        int(new[_M - 1]) ^ (last >> 1) ^ (0x9908B0DF if last & 1 else 0)
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


def _randint_from(mt: np.ndarray, pos: int, n: int, low: int, high: int):
    """The next ``n`` values of ``randint(low, high)`` from twister state
    ``(mt, pos)``, and the state after them.

    Rejection sampling consumes a data-dependent number of words; the
    consumed count is replicated precisely. Only single-word draws are
    supported — ``high - low`` must fit in 32 bits, which covers every
    tracker configuration.
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
    out += low
    return out, mt, pos


def _advance(mt: np.ndarray, pos: int, count: int):
    """Twister state ``(mt, pos)`` moved ``count`` words on, turning
    blocks over lazily exactly as :func:`_words` does."""
    while count > 0:
        if pos >= _N:
            mt = _twist(mt)
            pos = 0
        take = min(count, _N - pos)
        pos += take
        count -= take
    return mt, pos


def _words(mt: np.ndarray, pos: int, count: int):
    """The next ``count`` tempered twister words from state
    ``(mt, pos)``, and the state after them.

    Like ``genrand_uint32``, the block turns over lazily: only when a
    word is wanted past the end (``pos`` may come back as ``N``).
    """
    parts = []
    while count > 0:
        if pos >= _N:
            mt = _twist(mt)
            pos = 0
        take = min(count, _N - pos)
        parts.append(mt[pos : pos + take])
        pos += take
        count -= take
    if not parts:
        return np.empty(0, dtype=np.uint32), mt, pos
    return _temper(np.concatenate(parts)), mt, pos


def _random_from(mt: np.ndarray, pos: int, n: int):
    """The next ``n`` values of ``random()`` from twister state
    ``(mt, pos)``, and the state after them: two words per draw, no
    rejection."""
    words, mt, pos = _words(mt, pos, 2 * n)
    high = (words[0::2] >> np.uint32(5)).astype(np.float64)
    low = (words[1::2] >> np.uint32(6)).astype(np.float64)
    return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0), mt, pos


def draw_exact(
    rng: random.Random, n: int, low: int, high: int
) -> np.ndarray:
    """The next ``n`` values of ``rng.randint(low, high)``, vectorized;
    advances ``rng`` to exactly the state ``n`` scalar calls would
    leave."""
    mt, pos, gauss_next = mt_state(rng)
    out, mt, pos = _randint_from(mt, pos, n, low, high)
    set_mt_state(rng, mt, pos, gauss_next)
    return out


def random_exact(rng: random.Random, n: int) -> np.ndarray:
    """The next ``n`` values of ``rng.random()``, vectorized; advances
    ``rng`` to exactly the state ``n`` scalar calls would leave."""
    mt, pos, gauss_next = mt_state(rng)
    out, mt, pos = _random_from(mt, pos, n)
    set_mt_state(rng, mt, pos, gauss_next)
    return out


class Predrawn:
    """The next ``n`` values of one stream, drawn ahead, consumed later.

    ``values`` holds ``rng.randint(low, high)`` draws, or ``rng.random()``
    draws when ``low`` is None. ``rng`` itself is left untouched until
    :meth:`commit` reports how many values were used: it then lands
    exactly where that many scalar calls would have left it. A march
    that stops early commits its consumed prefix, one that never ran
    commits 0.
    """

    def __init__(
        self,
        rng: random.Random,
        n: int,
        low: int | None = None,
        high: int | None = None,
    ) -> None:
        self.rng = rng
        self.n = n
        self._bounds = (low, high)
        self._entry = mt_state(rng)
        self.values, *self._exit = self._draw(n)

    def _draw(self, n: int):
        mt, pos, _ = self._entry
        low, high = self._bounds
        if low is None:
            return _random_from(mt, pos, n)
        return _randint_from(mt, pos, n, low, high)

    def commit(self, used: int) -> None:
        if used == 0:
            return
        mt, pos, gauss_next = self._entry
        if used == self.n:
            mt, pos = self._exit
        elif self._bounds[0] is None:
            # random() takes exactly two words per value.
            mt, pos = _advance(mt, pos, 2 * used)
        else:
            _, mt, pos = self._draw(used)
        set_mt_state(self.rng, mt, pos, gauss_next)
