"""Bit-exactness pins for the vectorized MT19937 streams.

``draw_exact`` (MINT's per-REF ``randint``) and ``random_exact``
(PARA's per-ACT ``random()``) are the compiled march's randomness
contract: their values AND the post-draw generator state must equal
``n`` scalar calls exactly, or a compiled run would silently fork the
random stream from the pure-Python engines.
"""

import random

import pytest
from hypothesis import given, strategies as st

from repro.kernels.mt import (
    Predrawn,
    draw_exact,
    mt_state,
    random_exact,
    set_mt_state,
)

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


def test_state_roundtrip():
    rng = random.Random(99)
    rng.random()  # desync pos from a fresh seed
    mt, pos, gauss = mt_state(rng)
    other = random.Random(0)
    set_mt_state(other, mt, pos, gauss)
    assert other.getstate() == rng.getstate()


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
    # PARA's early-stop protocol: save the packed state, draw a march's worth
    # of uniforms, restore, redraw the consumed prefix only.
    rng = random.Random(7)
    rng.random()
    saved = mt_state(rng)
    full = random_exact(rng, 73 * 40)
    set_mt_state(rng, *saved)
    prefix = random_exact(rng, 73 * 9)
    assert prefix.tolist() == full[: 73 * 9].tolist()
    reference = random.Random(7)
    for _ in range(1 + 73 * 9):
        reference.random()
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("bounds", [(None, None), (1, 73), (0, 8)])
@pytest.mark.parametrize("used", [0, 1, 150, 311, 312, 700, 1000])
def test_predrawn_commits_exactly_the_consumed_prefix(bounds, used):
    # The march's draw-ahead: values equal the scalar stream, the
    # generator is untouched until commit, and commit(k) leaves it where
    # k scalar calls would — every k from none to all, across blocks.
    low, high = bounds

    def scalar(rng):
        return rng.random() if low is None else rng.randint(low, high)

    rng = random.Random(2024)
    scalar(rng)
    before = rng.getstate()
    stream = Predrawn(rng, 1000, low, high)
    assert rng.getstate() == before
    reference = random.Random(2024)
    scalar(reference)
    expected = [scalar(reference) for _ in range(1000)]
    assert stream.values.tolist() == expected
    stream.commit(used)
    reference = random.Random(2024)
    for _ in range(1 + used):
        scalar(reference)
    assert rng.getstate() == reference.getstate()
