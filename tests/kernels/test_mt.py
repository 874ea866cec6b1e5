"""Bit-exactness pins for the Mersenne Twister inside the C march.

MINT draws one ``randint`` per REF and InDRAM-PARA one ``random()`` per
activation straight from their twister states inside ``_march.c``; the
engine loads each state from ``random.Random.getstate()`` and moves the
generator on by the words the march drew. ``cext.draw`` runs those very
draws on one stream: its values AND the generator state it leaves must
equal the scalar calls exactly, or a compiled run would silently fork
the random stream from the reference engine.
"""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.kernels import cext

from tests.property.settings import STANDARD_SETTINGS
from tests.providers import requires_c_march

#: MINT's per-REF draws (transitive and not, at the paper's M = 73 and
#: a tiny M), PARA's uniforms, and bounds whose rejection sampling
#: throws away about half of the words (a span just above a power of
#: two, span 1, the widest one-word spans).
BOUNDS = [(0, 8), (1, 73), None, (0, 64), (1, 1), (0, 2**31), (5, 2**32 + 3)]


def _scalar(rng, bounds):
    return rng.random() if bounds is None else rng.randint(*bounds)


def _positioned(seed, words):
    """A generator ``words`` twister words into its stream: 0 leaves it
    freshly seeded (position 624, a turnover pending), 300 mid-block,
    623 one word before its block's end."""
    rng = random.Random(seed)
    for _ in range(words):
        rng.getrandbits(32)
    return rng


def _position(rng):
    return rng.getstate()[1][-1]


def _draw_and_compare(drawn, reference, n, bounds):
    expected = [_scalar(reference, bounds) for _ in range(n)]
    assert cext.draw(drawn, n, bounds) == expected
    # The state after the draw must match word for word, so the scalar
    # and compiled consumers continue the very same stream.
    assert drawn.getstate() == reference.getstate()


@requires_c_march
@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("bounds", BOUNDS)
@pytest.mark.parametrize("words", [0, 300, 623])
def test_draws_match_scalar_calls(seed, bounds, words):
    for n in (0, 1, 5, 311, 700, 2001):
        _draw_and_compare(
            _positioned(seed, words), _positioned(seed, words), n, bounds
        )


@requires_c_march
@pytest.mark.parametrize("bounds,words", [
    (bounds, words) for bounds in [(0, 8), (1, 73)] for words in (0, 300, 623)
] + [(None, words) for words in (0, 300, 622)])
def test_a_stream_that_ends_on_a_block_boundary(bounds, words):
    # The n-th draw takes the last word of a block: the stream keeps
    # position 624 and turns over only on its next draw, in C and in
    # the scalar calls alike. Checked for the first two such n (one
    # block, then one more), each continued by more draws. random()
    # takes two words a value, so it starts at an even position.
    reference = _positioned(7, words)
    ends = []
    for n in range(1, 3000):
        _scalar(reference, bounds)
        if _position(reference) == 624:
            ends.append(n)
            if len(ends) == 2:
                break
    assert len(ends) == 2
    for n in ends:
        drawn = _positioned(7, words)
        reference = _positioned(7, words)
        _draw_and_compare(drawn, reference, n, bounds)
        assert _position(drawn) == 624
        _draw_and_compare(drawn, reference, 3, bounds)


def _tempered(word):
    word ^= word >> 11
    word ^= (word << 7) & 0x9D2C5680
    word ^= (word << 15) & 0xEFC60000
    return (word ^ (word >> 18)) & 0xFFFFFFFF


@requires_c_march
def test_a_block_that_rejects_every_word():
    # A state whose every word randint(1, 73) rejects: the draws skip
    # the whole block and turn over, exactly as the scalar calls do.
    pick = random.Random(3)
    words = []
    while len(words) < 624:
        word = pick.getrandbits(32)
        if _tempered(word) >> 25 >= 73:
            words.append(word)
    state = (3, tuple(words) + (0,), None)
    drawn, reference = random.Random(0), random.Random(0)
    drawn.setstate(state)
    reference.setstate(state)
    _draw_and_compare(drawn, reference, 40, (1, 73))


@requires_c_march
@pytest.mark.parametrize("n", [10, 400])
def test_gauss_next_survives_a_draw(n):
    # The march never uses gauss_next, but a long draw reinstalls the
    # state: the cached Gaussian must come back with it.
    drawn, reference = random.Random(11), random.Random(11)
    drawn.gauss(0.0, 1.0)
    reference.gauss(0.0, 1.0)
    _draw_and_compare(drawn, reference, n, None)
    assert drawn.gauss(0.0, 1.0) == reference.gauss(0.0, 1.0)


@requires_c_march
def test_bounds_beyond_one_word_are_refused():
    rng = random.Random(0)
    before = rng.getstate()
    for bounds in [(0, 2**32), (10, 9)]:
        with pytest.raises(ValueError, match="one-word"):
            cext.draw(rng, 1, bounds)
    assert rng.getstate() == before


# load_stream and settle_stream are plain Python: they run without a C
# build, the march's words stood in for by scalar getrandbits(32) calls.


@pytest.mark.parametrize("gauss", [False, True])
def test_load_stream_copies_the_state_and_leaves_the_generator(gauss):
    rng = random.Random(5)
    if gauss:
        rng.gauss(0.0, 1.0)
    before = rng.getstate()
    row = np.zeros(cext.MT_STATE, dtype=np.uint32)
    assert cext.load_stream(rng, row) == before[2]
    assert tuple(row.tolist()) == before[1]
    assert rng.getstate() == before


@pytest.mark.parametrize("words", [0, 300])
@pytest.mark.parametrize(
    "used", [0, 1, 311, 623, 624, 625, 1000, 1249]
)
def test_settle_stream_lands_where_the_words_were_drawn(words, used):
    # Up to one block settles by getrandbits, beyond it by setstate:
    # both must leave the generator, cached Gaussian included, where
    # ``used`` scalar words leave it, also across the 624/625 switch.
    rng = random.Random(9)
    rng.gauss(0.0, 1.0)
    for _ in range(words):
        rng.getrandbits(32)
    reference = random.Random(0)
    reference.setstate(rng.getstate())
    row = np.zeros(cext.MT_STATE, dtype=np.uint32)
    gauss = cext.load_stream(rng, row)
    for _ in range(used):
        reference.getrandbits(32)
    row[:] = reference.getstate()[1]
    cext.settle_stream(rng, row, used, gauss)
    assert rng.getstate() == reference.getstate()


@requires_c_march
@given(
    seed=st.integers(0, 2**32),
    chunks=st.lists(
        st.tuples(
            st.sampled_from([(0, 8), (1, 73), None]),
            st.booleans(),
            st.integers(0, 700),
        ),
        min_size=1,
        max_size=6,
    ),
)
@STANDARD_SETTINGS
def test_c_and_scalar_draws_continue_one_stream(seed, chunks):
    # randint and random() chunks, each drawn in C or by scalar calls,
    # interleave on one generator as the march and the per-step path
    # do on a tracker's stream.
    drawn, reference = random.Random(seed), random.Random(seed)
    for bounds, in_c, n in chunks:
        if in_c:
            _draw_and_compare(drawn, reference, n, bounds)
        else:
            for _ in range(n):
                assert _scalar(drawn, bounds) == _scalar(reference, bounds)
    assert drawn.getstate() == reference.getstate()
