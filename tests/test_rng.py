"""Seeded randomness: determinism, stream independence, agreement
between the scalar, vectorized and loop draw paths, and pinned values:
every seed in the project comes from ``derive`` and these streams, so a
change to either would change every log."""
import numpy as np
import pytest

from contrastlab.rng import SplitMix64, derive, derived_floats, first_floats

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


@pytest.mark.parametrize("k", [1, 3])
def test_first_floats_match_stream(k):
    for seed in [derive(5, "first", i) for i in range(998)] + [0, 2**64 - 1]:
        stream = SplitMix64(seed)
        assert first_floats(seed, k) == [stream.next_float() for _ in range(k)]


def test_derived_floats_match_derive_then_first_floats():
    """One pass over a plan of (tag, draw count) pairs gives each tag's
    ``first_floats(derive(seed, tag), k)``, for any seed, tag and count."""
    rng = np.random.default_rng(19)
    seeds = [int(s) for s in rng.integers(0, 2**64, 300, dtype=np.uint64)]
    seeds += [0, -1, -5, 2**64 - 1, 2**64 + 3]
    for seed in seeds:
        n = int(rng.integers(0, 7))
        plan = [(int(i), int(k)) for i, k in zip(rng.integers(0, 2**63, n), rng.integers(0, 5, n))]
        plan += [(i, 3) for i in (0, 4, 2**64 - 1)]
        assert derived_floats(seed, plan) == [first_floats(derive(seed, i), k) for i, k in plan]


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
