import math

import numpy as np
import pytest
from scipy.stats import chi2

from ldpvec.domain import (
    EventId,
    MechanismParams,
    PrivateView,
    TernaryVector,
    UserHash,
    discretize_ternary,
    draw_user_hash,
    event_code,
    event_set,
    hash_buckets,
    pair_signs,
    pair_slots,
    user_hash_seeds,
)


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


def test_event_set_examples():
    assert event_set(TernaryVector(d=3, support=((2, 1),))) == {EventId(2, 1)}
    x = TernaryVector(d=6, support=((3, 1), (5, -1)))
    assert event_set(x) == {EventId(3, 1), EventId(5, -1)}
    dense = TernaryVector(d=2, support=((1, -1), (2, -1)))
    assert event_set(dense) == {EventId(1, -1), EventId(2, -1)}


def test_vector_roundtrip_and_validation():
    x = TernaryVector.from_dense([0, 0, 1, 0, -1, 0])
    assert x.support == ((3, 1), (5, -1))
    assert TernaryVector.from_dense(x.to_dense()) == x
    with pytest.raises(ValueError):
        TernaryVector(d=3, support=())
    with pytest.raises(ValueError):
        TernaryVector(d=3, support=((2, 1), (2, -1)))
    with pytest.raises(ValueError):
        TernaryVector(d=3, support=((1, 2),))
    with pytest.raises(ValueError):
        TernaryVector(d=3, support=((3, 1), (1, 1)))


def test_mechanism_params_validation():
    MechanismParams(d=4, s=2, epsilon=1.0, t=6)
    with pytest.raises(ValueError):
        MechanismParams(d=4, s=5, epsilon=1.0, t=6)
    with pytest.raises(ValueError):
        MechanismParams(d=4, s=2, epsilon=0.0, t=6)


def test_draw_user_hash_deterministic_and_distinct():
    a = draw_user_hash(0, 0, "single", 8)
    b = draw_user_hash(0, 0, "single", 8)
    assert a == b
    codes = list(range(1, 17))
    assert [a.bucket(c) for c in codes] == [b.bucket(c) for c in codes]
    c = draw_user_hash(0, 1, "single", 8)
    assert [a.bucket(k) for k in codes] != [c.bucket(k) for k in codes]


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
    for user in (0, 3, 917):
        uh = draw_user_hash(42, user, "single", t)
        seeds = user_hash_seeds(42, user + 1)
        assert seeds[user] == uh.seed
        for code in (1, 2, 23, 64):
            assert hash_buckets(np.array([uh.seed], dtype=np.uint64), np.int64(code), t)[0] == uh.bucket(code)
    uh = draw_user_hash(7, 5, "paired", t)
    seeds = np.array([uh.seed], dtype=np.uint64)
    for dim in (1, 4, 9):
        assert pair_slots(seeds, np.int64(dim), t)[0] == uh.pair_slot(dim)
        assert pair_signs(seeds, np.int64(dim))[0] == uh.pair_sign(dim)
        assert uh.event_bucket(dim, 1) != uh.event_bucket(dim, -1)
        assert {uh.event_bucket(dim, 1), uh.event_bucket(dim, -1)} == {
            uh.pair_slot(dim),
            uh.pair_slot(dim) + t // 2,
        }


def test_paired_hash_requires_even_t():
    with pytest.raises(ValueError):
        UserHash(seed=1, kind="paired", t=7)
    with pytest.raises(ValueError):
        UserHash(seed=1, kind="other", t=8)


def test_private_view_range():
    uh = draw_user_hash(0, 0, "single", 4)
    PrivateView(hash=uh, z=4)
    with pytest.raises(ValueError):
        PrivateView(hash=uh, z=5)


def test_discretize_ternary_preserves_expectation():
    rng = np.random.default_rng(0)
    values = [0.0, 2.5, 5.0, 7.5, 10.0]
    # normalised to [-1, -0.5, 0, 0.5, 1]
    acc = np.zeros(5)
    trials = 20_000
    for _ in range(trials):
        try:
            x = discretize_ternary(values, rng)
        except ValueError:
            continue
        acc += x.to_dense()
    mean = acc / trials
    target = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    # zero-vector rejections only remove mass symmetrically at the ends
    assert np.abs(mean - target).max() < 0.03


def _batch_randomizers(d, s):
    """Every batch randomizer, bound to parameters (d, s, eps=1)."""
    from ldpvec.baselines import BaselineParams, pckv_randomize_batch, privkv_randomize_batch
    from ldpvec.coco import coco_params, coco_randomize_batch
    from ldpvec.collision import collision_params, collision_randomize_batch

    rng = np.random.default_rng(0)
    col, coco = collision_params(d, s, 1.0), coco_params(d, s, 1.0)
    privkv = BaselineParams(d=d, s=s, epsilon=1.0, variant="privkv")
    pckv = BaselineParams(d=d, s=s, epsilon=1.0, variant="pckv_grr")
    return {
        "collision": lambda sup, sg: collision_randomize_batch(sup, sg, user_hash_seeds(1, len(sup)), col, rng),
        "coco": lambda sup, sg: coco_randomize_batch(sup, sg, user_hash_seeds(1, len(sup)), coco, rng),
        "privkv": lambda sup, sg: privkv_randomize_batch(sup, sg, privkv, rng),
        "pckv": lambda sup, sg: pckv_randomize_batch(sup, sg, pckv, rng),
    }


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
