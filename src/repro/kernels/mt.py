"""Vectorized, bit-exact MT19937 ``randint`` and ``random`` streams.

The compiled channel march (:mod:`repro.kernels`) executes thousands of
tREFIs per call. MINT consumes exactly one ``rng.randint(low, M)`` per
REF and InDRAM-PARA (overwrite variant) one ``rng.random()`` per
activation. Re-implementing the Mersenne Twister *inside* each compiled
backend would triple the surface that has to stay bit-exact against
CPython; instead the engine pre-draws the march's streams here —
NumPy-vectorized over 624-word twister blocks and across streams, but
word for word identical to ``random.Random`` — and hands the compiled
kernel plain integer and float arrays.

:class:`PredrawBatch` is the one pre-draw path. It reads every
stream's twister state into one ``(streams, 624)`` array, twists and
tempers the streams together block by block, and runs ``randint``'s
rejection sampling across rows at once; each stream keeps its own
position, bounds and count. No generator is touched until
:meth:`PredrawBatch.commit` reports how many values of each stream
were used: each then lands exactly where that many scalar calls would
have left it — so a march that stops early (at a state limit or a full
event buffer) leaves the next call, or the per-step Python path, to
continue the very same stream. :func:`draw_exact` and
:func:`random_exact` are its one-stream, use-everything form.

The replicated pipelines (CPython ``_randommodule.c`` / ``random.py``):

``randint(a, b)`` → ``randrange(a, b + 1)`` →
``a + _randbelow(b - a + 1)``; ``_randbelow(n)`` draws
``getrandbits(k)`` with ``k = n.bit_length()`` and rejects until the
value is ``< n``; ``getrandbits(k)`` for ``k <= 32`` is one tempered
twister word right-shifted by ``32 - k``.

``random()`` takes two consecutive tempered words ``a``, ``b`` and
returns ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` — every step exact in
double precision.

Like ``genrand_uint32``, a stream's block turns over lazily: only when
a word is wanted past its end, so a stream that ends exactly at a
block boundary keeps position 624 and twists on its next draw.
"""

from __future__ import annotations

import array
import random

import numpy as np

__all__ = [
    "PredrawBatch",
    "draw_exact",
    "random_exact",
]

_N = 624
_M = 397
_UPPER = np.uint32(0x80000000)
_LOWER = np.uint32(0x7FFFFFFF)
_MATRIX_A = np.uint32(0x9908B0DF)
_ONE = np.uint32(1)
_COLUMNS = np.arange(_N)


def _twist(mt: np.ndarray) -> np.ndarray:
    """One full generator turnover of every row of ``mt``, a
    ``(streams, N)`` array (``genrand_uint32``'s block step).

    The reference updates in place, so entries ``i >= N - M`` read
    already-twisted words and entry ``N - 1`` reads the *new* word 0.
    Every other entry's mixing term depends on old words only, so it is
    computed in one pass; the xor chain then runs in three
    ``(N - M)``-column stages, each reading only already-written words.
    """
    # One stream twists as a 1-D row, its last word in Python ints:
    # NumPy calls on a one-row 2-D array cost a fifth more, and a lone
    # stream (PARA's per-activation draws) turns over dozens of blocks
    # per call.
    old = mt[0] if len(mt) == 1 else mt
    k = _N - _M
    y = old[..., :-1] & _UPPER
    y |= old[..., 1:] & _LOWER
    mag = (y & _ONE) * _MATRIX_A
    y >>= _ONE
    mag ^= y
    new = np.empty_like(old)
    np.bitwise_xor(old[..., _M:], mag[..., :k], out=new[..., :k])
    np.bitwise_xor(new[..., :k], mag[..., k : 2 * k], out=new[..., k : 2 * k])
    np.bitwise_xor(
        new[..., k : _N - 1 - k],
        mag[..., 2 * k :],
        out=new[..., 2 * k : _N - 1],
    )
    if old is not mt:
        last = (int(old[-1]) & 0x80000000) | (int(new[0]) & 0x7FFFFFFF)
        new[-1] = int(new[_M - 1]) ^ (last >> 1) ^ (
            0x9908B0DF if last & 1 else 0
        )
        return new[None]
    last = (mt[:, -1] & _UPPER) | (new[:, 0] & _LOWER)
    new[:, -1] = new[:, _M - 1] ^ (last >> _ONE) ^ ((last & _ONE) * _MATRIX_A)
    return new


def _temper(words: np.ndarray) -> np.ndarray:
    y = words.copy()
    y ^= y >> np.uint32(11)
    y ^= (y << np.uint32(7)) & np.uint32(0x9D2C5680)
    y ^= (y << np.uint32(15)) & np.uint32(0xEFC60000)
    y ^= y >> np.uint32(18)
    return y


def _randint_words(blocks, rows, pos, spans, counts):
    """Accept the randint streams' candidates over every level at once.

    ``rows`` are the streams' rows of each level's block, ``pos`` their
    starting positions; stream ``j`` wants ``counts[j]`` values below
    ``spans[j]``. Laid side by side, the levels make every row its
    stream's words in order (word ``t * N + c`` at column ``t * N +
    c``), so a row-major pick of the accepted candidates is
    stream-major. A stream still short of values turns every stream
    over once more (``blocks`` grows). Returns each kept candidate's
    offset from ``low`` and the word it ends at, stream after stream.
    """
    width = np.array(spans, dtype=np.uint32)[:, None]
    shift = np.array(
        [32 - span.bit_length() for span in spans], dtype=np.uint32
    )[:, None]
    need = np.array(counts, dtype=np.int64)[:, None]
    cand = _temper(np.concatenate(blocks, axis=1)[rows]) >> shift
    ok = cand < width
    ok[:, :_N] &= _COLUMNS >= pos[:, None]
    while (ok.sum(axis=1, keepdims=True) < need).any():
        blocks.append(_twist(blocks[-1]))
        more = _temper(blocks[-1][rows]) >> shift
        cand = np.concatenate((cand, more), axis=1)
        ok = np.concatenate((ok, more < width), axis=1)
    # Each stream keeps its first n accepted candidates.
    ok &= np.cumsum(ok, axis=1) <= need
    row, at = np.nonzero(ok)
    return cand[row, at], row, at


def _random_values(blocks, rows, pos, counts):
    """The random() streams' values: each stream's ``2n`` words from
    its position on, its levels laid end to end, two words a value."""
    levels = np.stack(blocks, axis=1)[rows]  # (streams, level, N)
    words = _temper(np.concatenate([
        level.reshape(-1)[start : start + 2 * n]
        for level, start, n in zip(levels, pos.tolist(), counts)
    ]))
    high = (words[0::2] >> np.uint32(5)).astype(np.float64)
    low = (words[1::2] >> np.uint32(6)).astype(np.float64)
    return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)


class PredrawBatch:
    """The next values of several streams, drawn ahead together and
    consumed later.

    ``streams`` holds ``(rng, n, bounds)`` per stream: ``n`` values of
    ``rng.randint(*bounds)``, or of ``rng.random()`` when ``bounds`` is
    None; every ``rng`` must be a distinct generator. ``ints`` holds the
    ``randint`` streams' values back to back in stream order,
    ``floats`` the ``random()`` streams', and ``values[i]`` is stream
    ``i``'s share of one of them. Only single-word ``randint`` draws are
    supported — ``high - low`` must fit in 32 bits, which covers every
    tracker configuration.

    The draw runs in *levels*: level 0 is every stream's current block
    (each read from its own position on), level ``t`` the blocks after
    ``t`` turnovers, so word ``t * 624 + c`` of a stream is column ``c``
    of its level-``t`` block. Every stream turns over at every level
    until the most demanding one is done — one 2-D twist per level,
    whatever the stream count. The blocks are kept for :meth:`commit`,
    with the word each value ends at.
    """

    def __init__(
        self,
        streams: "list[tuple[random.Random, int, tuple[int, int] | None]]",
    ) -> None:
        self._rngs = [rng for rng, _, _ in streams]
        self._counts = counts = [n for _, n, _ in streams]
        bounds = [b for _, _, b in streams]
        self._is_int = [b is not None for b in bounds]
        ints = [i for i, b in enumerate(bounds) if b is not None]
        rand = [i for i, b in enumerate(bounds) if b is None]
        spans = []
        for i in ints:
            lo, hi = bounds[i]
            if hi < lo:
                raise ValueError("empty randint range")
            span = hi - lo + 1
            if span.bit_length() > 32:
                raise ValueError(
                    f"randint width {span} needs {span.bit_length()}-bit "
                    "draws; only single-word (<= 32 bit) streams can be "
                    "vectorized"
                )
            spans.append(span)
        states = [rng.getstate() for rng in self._rngs]
        if any(version != 3 for version, _, _ in states):
            raise ValueError(  # pragma: no cover - CPython v3 since 2.6
                "unsupported random state version"
            )
        self._gauss = [gauss for _, _, gauss in states]
        # One (streams, N + 1) array of every state's words and position.
        internal = np.frombuffer(
            b"".join([array.array("I", words) for _, words, _ in states]),
            dtype=np.uintc,
        ).reshape(len(states), _N + 1)
        self._pos = pos = internal[:, _N].astype(np.int64)
        # Turn over up to the furthest level any stream needs: a
        # random() stream's 2n words end at a known one; a randint
        # stream's n values most likely within its expected draw count
        # (rejection keeps over half of the candidates) plus an eighth
        # and 16 words, and _randint_words draws on if that falls short.
        ends = [int(pos[i]) + 2 * counts[i] for i in rand if counts[i]]
        ends += [
            int(pos[i]) + counts[i] * (1 << span.bit_length()) * 9
            // (8 * span) + 16
            for i, span in zip(ints, spans) if counts[i]
        ]
        self._blocks = blocks = [
            np.ascontiguousarray(internal[:, :_N], dtype=np.uint32)
        ]
        for _ in range((max(ends, default=1) - 1) // _N):
            blocks.append(_twist(blocks[-1]))
        self._at = np.empty(0, dtype=np.int64)
        self.ints = np.empty(0, dtype=np.int64)
        if ints:
            offset, row, self._at = _randint_words(
                blocks, ints, pos[ints], spans, [counts[i] for i in ints]
            )
            low = np.array([bounds[i][0] for i in ints], dtype=np.int64)
            self.ints = offset.astype(np.int64) + low[row]
        self.floats = np.empty(0, dtype=np.float64)
        if rand:
            self.floats = _random_values(
                blocks, rand, pos[rand], [counts[i] for i in rand]
            )
        self._start: list[int] = []
        self.values: list[np.ndarray] = []
        offsets = [0, 0]
        for kind, n in zip(self._is_int, counts):
            out = self.ints if kind else self.floats
            self._start.append(offsets[kind])
            self.values.append(out[offsets[kind] : offsets[kind] + n])
            offsets[kind] += n

    def commit(self, used: "list[int]") -> None:
        """Settle every generator after ``used[i]`` values of stream
        ``i`` were consumed: it lands exactly where ``used[i]`` scalar
        calls would have left it (0 leaves it untouched). Every count
        is checked before any generator moves."""
        settle = []
        for i, u in enumerate(used):
            if not 0 <= u <= self._counts[i]:
                raise ValueError(
                    f"stream {i} drew {self._counts[i]} values, not {u}"
                )
            if not u:
                continue
            if self._is_int[i]:
                last = int(self._at[self._start[i] + u - 1])
            else:
                last = int(self._pos[i]) + 2 * u - 1
            settle.append((i, last))
        for i, last in settle:
            rng = self._rngs[i]
            skip = last + 1 - int(self._pos[i])
            if skip <= _N:
                # A short skip is cheapest in C: getrandbits(32 * w)
                # draws exactly w twister words, turning the block over
                # as lazily as the scalar calls would.
                rng.getrandbits(32 * skip)
                continue
            # A long one would build a huge Python int: install the
            # state from the kept block instead.
            level, column = divmod(last, _N)
            words = self._blocks[level][i].tolist()
            words.append(column + 1)
            rng.setstate((3, tuple(words), self._gauss[i]))


def draw_exact(
    rng: random.Random, n: int, low: int, high: int
) -> np.ndarray:
    """The next ``n`` values of ``rng.randint(low, high)``, vectorized;
    advances ``rng`` to exactly the state ``n`` scalar calls would
    leave."""
    batch = PredrawBatch([(rng, n, (low, high))])
    batch.commit([n])
    return batch.values[0]


def random_exact(rng: random.Random, n: int) -> np.ndarray:
    """The next ``n`` values of ``rng.random()``, vectorized; advances
    ``rng`` to exactly the state ``n`` scalar calls would leave."""
    batch = PredrawBatch([(rng, n, None)])
    batch.commit([n])
    return batch.values[0]
