import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ensattack.prng import Stream, draws, stream, uniform_from_bits


def test_stream_deterministic():
    a = stream(7, "x").uniform((5,), 0.0, 1.0)
    b = stream(7, "x").uniform((5,), 0.0, 1.0)
    assert np.array_equal(a, b)


def test_tag_and_seed_independence():
    base = stream(7, "a").uniform((64,), 0.0, 1.0)
    assert not np.array_equal(base, stream(7, "b").uniform((64,), 0.0, 1.0))
    assert not np.array_equal(base, stream(8, "a").uniform((64,), 0.0, 1.0))


def test_draws_advance_state():
    s = stream(3, "seq")
    a = s.uniform((16,), 0.0, 1.0)
    b = s.uniform((16,), 0.0, 1.0)
    assert not np.array_equal(a, b)


@given(st.integers(0, 2**32 - 1), st.floats(-4, 2), st.floats(0.01, 5))
@settings(max_examples=50)
def test_uniform_bounds_and_dtype(seed, low, width):
    u = stream(seed, "u").uniform((32,), low, low + width)
    assert u.shape == (32,) and u.dtype == np.float32
    assert float(u.min()) >= np.float32(low) and float(u.max()) <= np.float32(low + width)


def test_uniform_shape_tuple():
    u = stream(0, "s").uniform((2, 3, 4), 0.0, 1.0)
    assert u.shape == (2, 3, 4)


def test_integer_bounds():
    s = stream(9, "i")
    draws = [s.integer(6) for _ in range(200)]
    assert set(draws) <= set(range(6))
    assert len(set(draws)) == 6  # 200 draws hit all 6 residues


@given(st.integers(0, 2**32 - 1), st.integers(1, 50))
@settings(max_examples=50)
def test_permutation_is_permutation(seed, n):
    p = stream(seed, "p").permutation(n)
    assert sorted(p.tolist()) == list(range(n))


def test_permutation_varies_with_seed():
    outs = {tuple(stream(s, "pv").permutation(20).tolist()) for s in range(8)}
    assert len(outs) > 1


def test_stream_class_direct():
    assert isinstance(stream(1, "t"), Stream)


_SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**64 - 2, 2**64 + 2),
                   st.integers(2**64, 2**80))


@given(_SEEDS, st.lists(st.text(max_size=12), min_size=1, max_size=5),
       st.sampled_from([1, 2, 146, 1000]))
@settings(max_examples=60)
def test_draws_rows_are_the_streams_outputs(seed, tags, n):
    # text() reaches past ASCII, so tags of multibyte UTF-8 are covered
    bulk = draws(seed, tags, n)
    assert bulk.shape == (len(tags), n) and bulk.dtype == np.uint64
    for row, tag in zip(bulk, tags):
        assert np.array_equal(row, stream(seed, tag).u64(n))


@given(_SEEDS, st.text(max_size=12), st.sampled_from([1, 2, 146, 1000]))
@settings(max_examples=40)
def test_a_stream_continues_after_the_bulk_equivalent_draw(seed, tag, n):
    s = stream(seed, tag)
    s.u64(n)
    assert np.array_equal(s.u64(7), draws(seed, [tag], n + 7)[0, n:])


def test_seeds_a_multiple_of_2_to_the_64_apart_are_one_stream():
    assert np.array_equal(draws(5, ["é/ü"], 4), draws(5 + 2**64, ["é/ü"], 4))


def test_uniform_is_uniform_from_bits_of_the_raw_outputs():
    bits = stream(4, "ub").u64(12)
    got = stream(4, "ub").uniform((3, 4), -0.5, 2.0)
    assert got.tobytes() == uniform_from_bits(bits, -0.5, 2.0).reshape(3, 4).tobytes()
