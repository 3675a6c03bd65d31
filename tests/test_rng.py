"""Seeded randomness: determinism, stream independence, agreement
between the scalar, vectorized and loop draw paths, and pinned values:
every seed in the project comes from ``derive`` and these streams, so a
change to either would change every log."""
import warnings

import numpy as np
import pytest

from contrastlab.rng import SplitMix64, derive, derive_many, stream_floats

# derive(*args) as computed when the generator was first written.
DERIVE_GOLDEN = [
    ((0,), 0),
    ((7, "view", 3, 1), 2222570513781372175),
    ((2**63, "view", 0, 5, 1), 3008312053851202440),
    ((2**64 - 1, "shuffle", 2), 14312860966259521639),
    ((12345, 0), 9202820341700851064),
    ((12345, 4), 15109985175486934220),
    ((1, "é-utf8", -1), 10643797413177236022),
    ((2**63 + 12345, "pos", 7, 0), 12319777022774272635),
    ((-5, "init"), 11065651575412036038),
]


def test_same_seed_same_sequence():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_vectorized_floats_match_scalar_path():
    a = SplitMix64(99)
    b = SplitMix64(99)
    batch = a.floats(17)
    scalar = np.array([b.next_float() for _ in range(17)])
    np.testing.assert_array_equal(batch, scalar)
    # streams stay aligned after the batch
    assert a.next_u64() == b.next_u64()


def test_floats_in_unit_interval():
    draws = SplitMix64(5).floats(10_000)
    assert draws.min() >= 0.0 and draws.max() < 1.0
    assert abs(draws.mean() - 0.5) < 0.02


def test_derive_is_stable_and_tag_sensitive():
    assert derive(7, "view", 3, 1) == derive(7, "view", 3, 1)
    seen = {derive(7, "view", 3, 0), derive(7, "view", 3, 1),
            derive(7, "view", 4, 0), derive(8, "view", 3, 0), derive(7, "other", 3, 0)}
    assert len(seen) == 5


def test_permutation_is_a_permutation():
    perm = SplitMix64(11).permutation(100)
    assert sorted(perm.tolist()) == list(range(100))
    assert perm.tolist() != list(range(100))


@pytest.mark.parametrize("n", [1, 2, 7, 256])
def test_normals_match_two_float_blocks(n):
    """Box-Muller on a ``floats(m)`` block of u1 and then one of u2, and
    the stream left after both blocks."""
    for seed in (0, 13, 2**64 - 1):
        stream, reference = SplitMix64(seed), SplitMix64(seed)
        m = (n + 1) // 2
        u1 = np.maximum(reference.floats(m), 2.0 ** -53)
        u2 = reference.floats(m)
        r = np.sqrt(-2.0 * np.log(u1))
        expected = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])[:n]
        assert stream.normals(n).tobytes() == expected.tobytes()
        assert stream.next_float() == reference.next_float()


def test_normals_moments():
    draws = SplitMix64(13).normals(20_000)
    assert abs(draws.mean()) < 0.03
    assert abs(draws.std() - 1.0) < 0.03


def test_next_index_range():
    stream = SplitMix64(17)
    draws = [stream.next_index(7) for _ in range(1000)]
    assert min(draws) == 0 and max(draws) == 6


@pytest.mark.parametrize("args, expected", DERIVE_GOLDEN)
def test_derive_golden(args, expected):
    assert derive(*args) == expected


def test_stream_golden():
    stream = SplitMix64(2**63 + 1)
    assert [stream.next_u64() for _ in range(4)] == [
        15864479691206154794, 983092496609280306, 9729911256616757947, 8485151788262518746]
    stream = SplitMix64(42)
    assert [stream.next_float() for _ in range(4)] == [
        0.7415648787718233, 0.1599103928769201, 0.27860113025513866, 0.34419071652363753]
    stream = SplitMix64(42)
    assert [stream.next_index(n) for n in (1, 2, 7, 100, 2**40)] == [0, 0, 1, 34, 41814612516]


def test_derive_many_matches_derive():
    """Int-array parts broadcast, and every element is ``derive`` of its
    parts: str parts, int parts past 2**63 or below 0, and array parts of
    either signedness fold as ``derive`` folds them."""
    rows = np.array([0, 1, 5, 2**62, 12345])[:, None]
    wide = np.array([2**64 - 1, 2**63], dtype=np.uint64)
    negative = np.array([-1, -2**63, 7])[:, None, None]
    for seed in (0, 7, 2**63 + 5, 2**64 - 1, -3):
        got = derive_many(seed, "view", 2**63 + 9, rows, -4, (0, 1), "é")
        assert got.dtype == np.uint64 and got.shape == (5, 2)
        for (r, b), value in np.ndenumerate(got):
            assert int(value) == derive(seed, "view", 2**63 + 9, int(rows[r, 0]), -4, b, "é")
        got = derive_many(seed, negative, wide)
        assert got.shape == (3, 1, 2)
        for (r, _, c), value in np.ndenumerate(got):
            assert int(value) == derive(seed, int(negative[r, 0, 0]), int(wide[c]))
        assert int(derive_many(seed)) == derive(seed)
    seeds = [derive(3, "seed", i) for i in range(50)] + [0, 2**64 - 1]
    got = derive_many(np.array(seeds, dtype=np.uint64), "pos", 4)
    assert got.tolist() == [derive(seed, "pos", 4) for seed in seeds]


@pytest.mark.parametrize("k", [1, 3])
def test_stream_floats_match_streams(k):
    """Per seed, the first ``k`` ``next_float`` draws of its stream, also
    for the derived seeds of every tag of a view's draw plan."""
    seeds = [derive(5, "first", i) for i in range(300)] + [0, 2**64 - 1]
    grid = np.array(seeds, dtype=np.uint64).reshape(2, -1)
    for tag in (None, 0, 1, 4, 2**64 - 1):
        draws = stream_floats(grid if tag is None else derive_many(grid, tag), k)
        assert draws.shape == (2, len(seeds) // 2, k)
        for seed, row in zip(seeds, draws.reshape(len(seeds), k).tolist()):
            stream = SplitMix64(seed if tag is None else derive(seed, tag))
            assert row == [stream.next_float() for _ in range(k)]


@pytest.mark.parametrize("shape", [(), (1,)])
def test_array_paths_do_not_warn_on_one_element(shape):
    """A numpy scalar uint64 warns when it wraps; the array paths wrap
    arrays in place, so a 0-d or length-1 input warns nothing either."""
    tag = 2**64 - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 2**63 + 1, 2**64 - 1):
            seeds = np.full(shape, seed, dtype=np.uint64)
            got = derive_many(seeds, "view", np.full(shape, 2**63 + 1, dtype=np.uint64), tag)
            assert got.shape == shape
            assert got.reshape(-1).tolist() == [derive(seed, "view", 2**63 + 1, tag)]
            draws = stream_floats(derive_many(seeds, tag), 3)
            stream = SplitMix64(derive(seed, tag))
            assert draws.shape == shape + (3,)
            assert draws.reshape(-1).tolist() == [stream.next_float() for _ in range(3)]
            assert SplitMix64(seed).floats(1).tolist() == [SplitMix64(seed).next_float()]


def scalar_permutation(stream: SplitMix64, n: int) -> np.ndarray:
    """Fisher-Yates with one scalar draw per swap: the reference order."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = stream.next_index(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("n", [0, 1, 2, 3, 400, 1600])
def test_permutation_matches_scalar_fisher_yates(n):
    for seed in (0, 1, 99, 2**63 + 5, 2**64 - 1, derive(3, "shuffle", 1)):
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        perm, expected = fast.permutation(n), scalar_permutation(slow, n)
        assert perm.dtype == expected.dtype
        np.testing.assert_array_equal(perm, expected)
        # the stream is left where the scalar loop leaves it
        assert fast.next_u64() == slow.next_u64()
