import math
import re

import numpy as np
import pytest
from scipy.stats import chi2

from ldpvec.domain import (
    EventId,
    MechanismParams,
    TernaryVector,
    event_code,
    hash_buckets,
    is_integer,
    remainder_inplace,
    sample_layout,
    user_hash_seeds,
)

# Reference splitmix64 on python ints, written independently of the
# vectorised uint64 kernel it checks.
_MASK64 = (1 << 64) - 1
_STREAM_USER = 0x8AE6_55D1_1D90_2A31
_STREAM_SINGLE = 0x243F_6A88_85A3_08D3
_STREAM_H1 = 0x1319_8A2E_0370_7344


def mix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def keyed(seed: int, value: int, stream: int) -> int:
    return mix64(seed ^ mix64(value ^ stream))


def user_seed(master_seed: int, user: int) -> int:
    return mix64(mix64(master_seed & _MASK64) ^ mix64(user ^ _STREAM_USER))


def test_event_code_bijection_exhaustive():
    for d in (1, 2, 7, 64):
        seen = set()
        for j in range(1, d + 1):
            for sign in (-1, 1):
                code = event_code(j, sign)
                assert 1 <= code <= 2 * d
                assert EventId.from_code(code) == EventId(j, sign)
                seen.add(code)
        assert seen == set(range(1, 2 * d + 1))


def test_event_code_works_elementwise_on_arrays():
    supports = np.array([[1, 3, 64], [2, 5, 7]])
    signs = np.array([[-1, 1, 1], [1, -1, -1]])
    codes = event_code(supports, signs)
    assert codes.dtype == np.int64
    assert codes.tolist() == [[event_code(int(j), int(b)) for j, b in zip(*rows)] for rows in zip(supports, signs)]
    assert type(event_code(3, 1)) is int and event_code(3, 1) == 6


def test_event_set_examples():
    assert TernaryVector(d=3, support=((2, 1),)).event_set() == {EventId(2, 1)}
    x = TernaryVector(d=6, support=((3, 1), (5, -1)))
    assert x.event_set() == {EventId(3, 1), EventId(5, -1)}
    dense = TernaryVector(d=2, support=((1, -1), (2, -1)))
    assert dense.event_set() == {EventId(1, -1), EventId(2, -1)}


def test_vector_roundtrip_and_validation():
    # a vector is checked as one row of the batch form; index 1.5 was read as event (2, -1) by the exact oracle
    for support, message in (
        ((), "support must be non-empty"),
        (((2, 1), (2, -1)), "strictly ascending"),
        (((1, 2),), r"signs must lie in -1\.\.1, got values in 2\.\.2"),
        (((3, 1), (1, 1)), "strictly ascending"),
        (((0, 1),), r"supports must lie in 1\.\.3, got values in 0\.\.0"),
        (((1.5, 1), (3, -1)), "supports must be an integer array"),
        (((np.float64(2.0), 1),), "supports must be an integer array"),
        (((True, 1),), "supports must be an integer array"),
        (((2, True),), "signs must be an integer array"),
        (((1, False), (3, True)), "signs must be an integer array"),
    ):
        with pytest.raises(ValueError, match=message):
            TernaryVector(d=3, support=support)
    assert TernaryVector(d=3, support=((np.int64(2), 1), (3, np.int8(-1)))).event_set() == {EventId(2, 1), EventId(3, -1)}


@pytest.mark.parametrize("code", [2.5, 2.0, np.float64(3.0), True, 0, -1])
def test_event_from_code_rejects_a_non_integer_or_bool_code(code):
    # from_code(2.5) returned EventId(index=1.0, sign=-1)
    message = f"code must be >= 1, got code={code}" if is_integer(code) else f"code must be an integer, got code={code!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EventId.from_code(code)
    assert EventId.from_code(np.int64(4)) == EventId(2, 1)


def test_mechanism_params_validation():
    MechanismParams(d=4, s=2, epsilon=1.0, t=6)
    with pytest.raises(ValueError):
        MechanismParams(d=4, s=5, epsilon=1.0, t=6)
    with pytest.raises(ValueError):
        MechanismParams(d=4, s=2, epsilon=0.0, t=6)


def _layout_reference(pos, layers, residual, space):
    """One row's (bucket, weight) list in the sampler's CDF order: each layer's band over the distinct
    positions, read at their first entry, then the free buckets, copy c of the positions at c * space."""
    lead = [i for i in range(len(pos)) if i == 0 or pos[i] != pos[i - 1]]
    ref = [(buckets[i], weight) for buckets, weight in layers for i in lead]
    free = [p for p in range(1, space + 1) if p not in pos]
    return ref + [(c * space + p, residual(len(lead))) for c in range(len(layers)) for p in free]


# (pos, per-layer buckets and weights, space, omega): a single layout of
# weight 2.5 and a paired one of weights e = 3 and 1 over t = 2 * space, each
# with rows that repeat a position and rows of one position only (m = 1).
_POS_1 = [[1, 3, 5], [2, 2, 6], [4, 4, 4], [5, 6, 7]]
_POS_2 = np.array([[1, 2, 4], [3, 3, 5], [2, 2, 2], [1, 4, 4]])
_HIGH_2 = _POS_2 + 5 * np.array([[0, 1, 1], [1, 0, 0], [0, 1, 1], [1, 1, 0]])
_LAYOUTS = [
    (np.array(_POS_1), [(np.array(_POS_1), 2.5)], 7, 3 * 2.5 + 7 - 3),
    (_POS_2, [(_HIGH_2, 3.0), (2 * _POS_2 + 5 - _HIGH_2, 1.0)], 5, 4.0 * 3 + 10 - 6),
]


@pytest.mark.parametrize("pos, layers, space, omega", _LAYOUTS, ids=["single", "paired"])
def test_sample_layout_maps_each_bucket_midpoint_to_its_bucket(pos, layers, space, omega):
    def residual(m):  # the weight that makes every row's layout sum to omega
        return (omega - m * sum(w for _, w in layers)) / (len(layers) * (space - m))

    for row in range(len(pos)):
        ref = _layout_reference(list(pos[row]), [(b[row], w) for b, w in layers], residual, space)
        assert sorted(b for b, _ in ref) == list(range(1, len(layers) * space + 1))
        starts = np.cumsum([0.0] + [w for _, w in ref])
        assert math.isclose(starts[-1], omega)
        u = starts[:-1] + np.array([w for _, w in ref]) / 2
        rows = np.full(len(ref), row)
        z = sample_layout(u, pos[rows], [(b[rows], w) for b, w in layers], residual, space)
        assert z.tolist() == [b for b, _ in ref]


def test_user_hash_seeds_deterministic_and_distinct():
    a, b = user_hash_seeds(0, 2), user_hash_seeds(0, 2)
    assert a.dtype == np.uint64 and np.array_equal(a, b)
    codes = np.arange(1, 17)
    buckets = hash_buckets(a[:, None], codes[None, :], 8)
    assert not np.array_equal(buckets[0], buckets[1])
    assert not np.array_equal(user_hash_seeds(1, 2), a)


def test_user_hashes_look_independent():
    # over 1e4 users, full agreement with user 0 on 8 events should not occur
    t, codes = 16, np.arange(1, 9)
    seeds = user_hash_seeds(0, 10_000)
    vals = hash_buckets(seeds[:, None], codes[None, :], t)
    same = (vals == vals[0]).all(axis=1)
    assert same.sum() == 1  # only user 0 itself


def test_single_hash_range_and_uniformity():
    t = 7
    seeds = user_hash_seeds(12345, 100_000)
    vals = hash_buckets(seeds, np.int64(3), t)
    assert vals.min() >= 1 and vals.max() <= t
    counts = np.bincount(vals - 1, minlength=t)
    n = len(seeds)
    expected = n / t
    sigma = math.sqrt(n * (1 / t) * (1 - 1 / t))
    assert np.abs(counts - expected).max() < 5 * sigma
    stat = ((counts - expected) ** 2 / expected).sum()
    assert stat < chi2.ppf(1 - 1e-4, t - 1)


def test_scalar_and_vector_hash_agree():
    t = 12
    for master in (42, 7, 2**64 - 3, 2**64 - 1):
        seeds = user_hash_seeds(master, 918)
        for user in (0, 3, 917):
            seed = user_seed(master, user)
            assert int(seeds[user]) == seed
            one = np.array([seed], dtype=np.uint64)
            for code in (1, 2, 23, 64):
                assert hash_buckets(one, np.int64(code), t)[0] == keyed(seed, code, _STREAM_SINGLE) % t + 1
            for dim in (1, 4, 9):
                assert hash_buckets(one, np.int64(dim), t, _STREAM_H1)[0] == keyed(seed, dim, _STREAM_H1) % t + 1


def test_remainder_equals_the_modulo_at_the_edges_of_uint64():
    rng = np.random.default_rng(17)
    for t in (1, 2, 7, 2**32 + 15, 2**63 - 1):
        values = [0, t - 1, t, 2**64 - t, 2**64 - 1] + [int(v) for v in rng.integers(0, 2**64, 8, dtype=np.uint64)]
        h = np.array(values, dtype=np.uint64)
        got = remainder_inplace(h, np.uint64(t), np.empty_like(h))
        assert got is h and got.dtype == np.uint64
        assert [int(v) for v in got] == [v % t for v in values], t


def test_paired_hash_requires_even_t():
    from ldpvec.coco import coco_params, coco_randomize_batch

    with pytest.raises(ValueError, match="even t"):
        coco_params(8, 2, 1.0, t=7)
    odd = MechanismParams(d=8, s=2, epsilon=1.0, t=7)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="even t"):
        coco_randomize_batch(np.array([[1, 2]]), np.array([[1, 1]]), user_hash_seeds(0, 1), odd, rng)


def _batch_randomizers(d, s):
    """Every batch randomizer, bound to parameters (d, s, eps=1) and one generator of seed 0; collision and CoCo take
    per-user seeds, ``user_hash_seeds(1, n)`` when none are given."""
    from ldpvec.aggregate import MECHANISMS
    from ldpvec.baselines import pckv_randomize_batch, privkv_randomize_batch
    from ldpvec.coco import coco_params, coco_randomize_batch
    from ldpvec.collision import collision_params, collision_randomize_batch

    rng = np.random.default_rng(0)
    col, coco = collision_params(d, s, 1.0), coco_params(d, s, 1.0)
    privkv, pckv = (MECHANISMS[name].params(d, s, 1.0, "frequency") for name in ("privkv", "pckv_grr"))

    def hashed(randomize, params):
        return lambda sup, sg, seeds=None: randomize(
            sup, sg, user_hash_seeds(1, len(sup)) if seeds is None else seeds, params, rng
        )

    return {
        "collision": hashed(collision_randomize_batch, col),
        "coco": hashed(coco_randomize_batch, coco),
        "privkv": lambda sup, sg: privkv_randomize_batch(sup, sg, privkv, rng),
        "pckv": lambda sup, sg: pckv_randomize_batch(sup, sg, pckv, rng),
    }


def test_batch_randomizers_read_a_list_batch_as_its_array():
    # a list batch ended in an AttributeError; it is read value by value, as read_view reads a list
    supports, signs = [[1, 4], [2, 8], [3, 5], [6, 7]], [[1, -1], [-1, -1], [1, 1], [-1, 1]]
    arrays, lists = _batch_randomizers(8, 2), _batch_randomizers(8, 2)
    for name, randomize in arrays.items():
        want = randomize(np.array(supports), np.array(signs))
        np.testing.assert_array_equal(lists[name](supports, signs), want, err_msg=name)


def test_batch_randomizers_reject_a_bool_in_a_list_and_an_empty_batch():
    for name, randomize in _batch_randomizers(8, 2).items():
        with pytest.raises(ValueError, match="^supports must be an integer array, got value True$"):
            randomize([[1, 2], [True, 3]], [[1, 1], [1, 1]])
        with pytest.raises(ValueError, match="^signs must be an integer array, got value True$"):
            randomize([[1, 2]], [[1, True]])
        # an empty batch returned an empty array of symbols, where an empty view is refused
        with pytest.raises(ValueError, match=r"^supports must be non-empty, got shape \(0, 2\)$"):
            randomize(np.empty((0, 2), dtype=np.int64), np.empty((0, 2), dtype=np.int64))


@pytest.mark.parametrize("name", ["collision", "coco"])
def test_hash_randomizers_take_one_valid_seed_per_row(name):
    # one seed hashed both rows, a float seed of 1.5 was truncated to 1, and an int64 seed of -1 wrapped to 2^64 - 1
    randomize = _batch_randomizers(8, 2)[name]
    supports, signs = np.array([[1, 2], [3, 4]]), np.array([[1, -1], [1, 1]])
    for seeds, message in (
        (user_hash_seeds(1, 1), "seeds and supports differ in length: 1 vs 2"),
        (user_hash_seeds(1, 3), "seeds and supports differ in length: 3 vs 2"),
        (np.array([1.5, 2.0]), "seeds must be an integer array, got dtype float64"),
        (np.array([-1, 2], dtype=np.int64), "seeds must lie in 0..2**64-1, got values in -1..2"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            randomize(supports, signs, seeds)
    assert randomize(supports, signs, np.array([0, 2**64 - 1], dtype=np.uint64)).shape == (2,)


def test_batch_randomizers_reject_duplicated_dimension():
    for name, randomize in _batch_randomizers(8, 2).items():
        with pytest.raises(ValueError, match="strictly ascending"):
            randomize(np.array([[3, 3]]), np.array([[1, 1]]))
        with pytest.raises(ValueError, match="strictly ascending"):
            randomize(np.array([[1, 2], [5, 4]]), np.array([[1, 1], [1, 1]]))


def test_batch_randomizers_reject_sign_outside_pm1():
    for name, randomize in _batch_randomizers(8, 2).items():
        with pytest.raises(ValueError, match="signs"):
            randomize(np.array([[1, 2]]), np.array([[1, 0]]))


def test_batch_randomizers_reject_dimension_outside_1_to_d():
    for name, randomize in _batch_randomizers(8, 2).items():
        with pytest.raises(ValueError, match=r"1\.\.8"):
            randomize(np.array([[1, 40]]), np.array([[1, 1]]))
        with pytest.raises(ValueError, match=r"1\.\.8"):
            randomize(np.array([[0, 3]]), np.array([[1, 1]]))


def test_batch_randomizers_reject_wrong_shape():
    for name, randomize in _batch_randomizers(8, 2).items():
        with pytest.raises(ValueError, match="shape"):
            randomize(np.array([[1, 2, 3]]), np.array([[1, 1, 1]]))
        with pytest.raises(ValueError, match="shape"):
            randomize(np.array([[1, 2]]), np.array([[1, 1], [1, 1]]))


def test_batch_randomizers_reject_non_integer_arrays():
    for name, randomize in _batch_randomizers(8, 2).items():
        with pytest.raises(ValueError, match="supports must be an integer array"):
            randomize(np.array([[1.5, 2.5]]), np.array([[1, 1]]))
        with pytest.raises(ValueError, match="signs must be an integer array"):
            randomize(np.array([[1, 2]]), np.array([[1.0, -1.0]]))
