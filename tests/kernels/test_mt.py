"""Bit-exactness pins for the vectorized MT19937 streams.

``PredrawBatch`` (MINT's per-REF ``randint``, PARA's per-ACT
``random()``, many streams at once) is the compiled march's randomness
contract, and ``draw_exact``/``random_exact`` its one-stream form:
their values AND the generator state after a commit must equal the
scalar calls exactly, or a compiled run would silently fork the random
stream from the pure-Python engines.
"""

import random

import pytest
from hypothesis import given, strategies as st

from repro.kernels.mt import PredrawBatch, draw_exact, random_exact

from tests.property.settings import STANDARD_SETTINGS

RANGES = [(1, 73), (0, 73), (0, 1), (1, 1), (0, 127), (5, 5), (3, 16),
          (0, 2**31 - 2)]


@pytest.mark.parametrize("seed", [0, 1, 7, 12345, 999999])
@pytest.mark.parametrize("low,high", RANGES)
def test_values_and_state_match_scalar_randint(seed, low, high):
    for n in (0, 1, 5, 700, 1300, 2001):
        reference = random.Random(seed)
        vectorized = random.Random(seed)
        expected = [reference.randint(low, high) for _ in range(n)]
        got = draw_exact(vectorized, n, low, high)
        assert got.tolist() == expected
        # The post-draw state must match word for word, so scalar and
        # vectorized consumers continue the very same stream.
        assert vectorized.getstate() == reference.getstate()


@given(
    seed=st.integers(0, 2**32),
    low=st.integers(0, 5),
    span=st.integers(0, 200),
    chunks=st.lists(st.integers(0, 50), min_size=1, max_size=6),
)
@STANDARD_SETTINGS
def test_interleaved_scalar_and_vector_draws_continue_one_stream(
    seed, low, span, chunks
):
    high = low + span
    reference = random.Random(seed)
    mixed = random.Random(seed)
    for i, n in enumerate(chunks):
        expected = [reference.randint(low, high) for _ in range(n)]
        if i % 2 == 0:
            assert draw_exact(mixed, n, low, high).tolist() == expected
        else:
            assert [mixed.randint(low, high) for _ in range(n)] == expected
    assert mixed.getstate() == reference.getstate()


def test_rewind_and_redraw_reproduces_consumed_prefix():
    # The march's early-stop protocol: save state, draw n, rewind, draw the
    # consumed prefix — the generator must land exactly where `done`
    # scalar draws would have left it.
    rng = random.Random(42)
    saved = rng.getstate()
    full = draw_exact(rng, 100, 1, 73)
    rng.setstate(saved)
    prefix = draw_exact(rng, 37, 1, 73)
    assert prefix.tolist() == full[:37].tolist()
    reference = random.Random(42)
    for _ in range(37):
        reference.randint(1, 73)
    assert rng.getstate() == reference.getstate()


def test_wide_ranges_are_rejected():
    rng = random.Random(0)
    before = rng.getstate()
    with pytest.raises(ValueError, match="32"):
        draw_exact(rng, 1, 0, 2**32)
    with pytest.raises(ValueError, match="empty"):
        draw_exact(rng, 1, 10, 9)
    assert rng.getstate() == before


@pytest.mark.parametrize("seed", [0, 3, 2**32 - 1])
@pytest.mark.parametrize("skip", [0, 1, 311, 623, 624])
def test_random_matches_scalar_across_twist_boundaries(seed, skip):
    # ``skip`` scalar words first puts the block position anywhere,
    # including the last word of a block (a draw straddling the twist)
    # and exactly at its end (the twist is still pending).
    for n in (0, 1, 2, 311, 312, 313, 624, 1000):
        reference = random.Random(seed)
        vectorized = random.Random(seed)
        for rng in (reference, vectorized):
            for _ in range(skip):
                rng.getrandbits(32)
        expected = [reference.random() for _ in range(n)]
        got = random_exact(vectorized, n)
        assert got.tolist() == expected
        assert vectorized.getstate() == reference.getstate()


@given(
    seed=st.integers(0, 2**32),
    chunks=st.lists(
        st.tuples(st.sampled_from(["random", "randint", "scalar"]),
                  st.integers(0, 400)),
        min_size=1,
        max_size=6,
    ),
)
@STANDARD_SETTINGS
def test_random_and_randint_interleave_on_one_stream(seed, chunks):
    reference = random.Random(seed)
    mixed = random.Random(seed)
    for how, n in chunks:
        if how == "randint":
            expected = [reference.randint(0, 73) for _ in range(n)]
            assert draw_exact(mixed, n, 0, 73).tolist() == expected
        else:
            expected = [reference.random() for _ in range(n)]
            if how == "random":
                assert random_exact(mixed, n).tolist() == expected
            else:
                assert [mixed.random() for _ in range(n)] == expected
    assert mixed.getstate() == reference.getstate()


def test_random_rewind_and_redraw_reproduces_consumed_prefix():
    # Save the state, draw a march's worth of uniforms, restore, redraw
    # the consumed prefix only: the prefix is the same stream.
    rng = random.Random(7)
    rng.random()
    saved = rng.getstate()
    full = random_exact(rng, 73 * 40)
    rng.setstate(saved)
    prefix = random_exact(rng, 73 * 9)
    assert prefix.tolist() == full[: 73 * 9].tolist()
    reference = random.Random(7)
    for _ in range(1 + 73 * 9):
        reference.random()
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("bounds", [None, (1, 73), (0, 8)])
@pytest.mark.parametrize("used", [0, 1, 150, 311, 312, 700, 1000])
def test_predrawn_commits_exactly_the_consumed_prefix(bounds, used):
    # The march's draw-ahead, one stream: values equal the scalar
    # stream, the generator is untouched until commit, and commit(k)
    # leaves it where k scalar calls would — every k from none to all,
    # across blocks.
    def scalar(rng):
        return rng.random() if bounds is None else rng.randint(*bounds)

    rng = random.Random(2024)
    scalar(rng)
    before = rng.getstate()
    batch = PredrawBatch([(rng, 1000, bounds)])
    assert rng.getstate() == before
    reference = random.Random(2024)
    scalar(reference)
    expected = [scalar(reference) for _ in range(1000)]
    assert batch.values[0].tolist() == expected
    batch.commit([used])
    reference = random.Random(2024)
    for _ in range(1 + used):
        scalar(reference)
    assert rng.getstate() == reference.getstate()


def _positioned(seed, words):
    """A generator ``words`` twister words into its stream: 0 leaves it
    freshly seeded (position 624, a twist pending), 623 one word before
    its block's end."""
    rng = random.Random(seed)
    for _ in range(words):
        rng.getrandbits(32)
    return rng


#: ``(seed, words consumed, bounds)`` per stream of the mixed batch:
#: freshly seeded, mid-block and one word before the block end, under
#: ``randint(0, 8)``, ``randint(1, 73)`` and ``random()``.
_MIXED = [
    (seed, words, bounds)
    for seed, (words, bounds) in enumerate(
        [(0, (0, 8)), (300, (1, 73)), (623, None),
         (623, (0, 8)), (0, None), (300, None),
         (623, (1, 73)), (0, (1, 73)), (300, (0, 8))],
        start=11,
    )
]

#: Values each stream draws, and the prefixes a march may consume:
#: none, a few, across the block the stream started in, all.
_DRAWN = 1000
_PREFIXES = [0, 5, 400, _DRAWN]


@pytest.mark.parametrize("rotation", range(len(_PREFIXES)))
def test_batch_keeps_each_stream_exact(rotation):
    # One batch over streams at different positions with different
    # bounds: every stream's values are its own scalar calls, and
    # commit settles each at its own prefix — whatever the others do.
    def scalar(rng, bounds):
        return rng.random() if bounds is None else rng.randint(*bounds)

    rngs = [_positioned(seed, words) for seed, words, _ in _MIXED]
    before = [rng.getstate() for rng in rngs]
    batch = PredrawBatch([(rng, _DRAWN, bounds)
                          for rng, (_, _, bounds) in zip(rngs, _MIXED)])
    assert [rng.getstate() for rng in rngs] == before
    used = [_PREFIXES[(i + rotation) % len(_PREFIXES)]
            for i in range(len(_MIXED))]
    batch.commit(used)
    for i, (seed, words, bounds) in enumerate(_MIXED):
        reference = _positioned(seed, words)
        expected = [scalar(reference, bounds) for _ in range(_DRAWN)]
        assert batch.values[i].tolist() == expected
        reference = _positioned(seed, words)
        for _ in range(used[i]):
            scalar(reference, bounds)
        assert rngs[i].getstate() == reference.getstate()
    ints = [i for i, (_, _, bounds) in enumerate(_MIXED) if bounds]
    floats = [i for i, (_, _, bounds) in enumerate(_MIXED) if not bounds]
    assert batch.ints.tolist() == [
        value for i in ints for value in batch.values[i].tolist()]
    assert batch.floats.tolist() == [
        value for i in floats for value in batch.values[i].tolist()]


def test_batch_rejects_a_prefix_it_did_not_draw():
    rng = random.Random(5)
    before = rng.getstate()
    batch = PredrawBatch([(rng, 10, (1, 73))])
    with pytest.raises(ValueError, match="drew 10 values, not 11"):
        batch.commit([11])
    assert rng.getstate() == before


def _tempered(word):
    word ^= word >> 11
    word ^= (word << 7) & 0x9D2C5680
    word ^= (word << 15) & 0xEFC60000
    return (word ^ (word >> 18)) & 0xFFFFFFFF


def test_batch_draws_on_when_rejection_outlasts_the_expected_words():
    # A block whose every word randint(1, 73) rejects: the batch turns
    # over only the levels the expected draw count covers, so it must
    # notice the shortfall and turn over more — exactly as the scalar
    # calls skip the whole block.
    pick = random.Random(3)
    words = []
    while len(words) < 624:
        word = pick.getrandbits(32)
        if _tempered(word) >> 25 >= 73:
            words.append(word)
    state = (3, tuple(words) + (0,), None)
    rng = random.Random()
    rng.setstate(state)
    batch = PredrawBatch([(rng, 40, (1, 73))])
    reference = random.Random()
    reference.setstate(state)
    assert batch.values[0].tolist() == [
        reference.randint(1, 73) for _ in range(40)]
    batch.commit([40])
    assert rng.getstate() == reference.getstate()
