import math

import numpy as np
import pytest

from ldpvec.collision import (
    CollisionParams,
    collision_indicator_estimate,
    collision_optimal_t,
    collision_output_probabilities,
    collision_params,
    collision_predicted_sum_variance,
    collision_randomize,
    collision_randomize_batch,
)
from ldpvec.domain import EventId, PrivateView, TernaryVector, draw_user_hash, user_hash_seeds

LN2 = math.log(2)


def test_output_probabilities_no_conflict():
    # d=6, s=2, t=4, eps=ln 2: hashed buckets 1/3 each, others 1/6
    params = collision_params(6, 2, LN2, 4)
    assert params.omega == pytest.approx(6.0)
    probs = collision_output_probabilities(frozenset({1, 3}), params)
    assert probs[0] == pytest.approx(1 / 3) and probs[2] == pytest.approx(1 / 3)
    assert probs[1] == pytest.approx(1 / 6) and probs[3] == pytest.approx(1 / 6)


def test_output_probabilities_conflict():
    # same params, both events hash together (k=1): 1/3 vs 2/9 each
    params = collision_params(6, 2, LN2, 4)
    probs = collision_output_probabilities(frozenset({2}), params)
    assert probs[1] == pytest.approx(1 / 3)
    for idx in (0, 2, 3):
        assert probs[idx] == pytest.approx(2 / 9)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_small_epsilon_approaches_uniform():
    params = collision_params(6, 2, 1e-9, 4)
    probs = collision_output_probabilities(frozenset({1, 2}), params)
    assert np.abs(probs - 0.25).max() < 1e-9


def test_probability_normalization_all_hit_sets():
    for t in (3, 4, 7):
        for s in (1, 2):
            if t <= s:
                continue
            params = collision_params(8, s, 0.8, t)
            for k in range(1, s + 1):
                probs = collision_output_probabilities(frozenset(range(1, k + 1)), params)
                assert abs(probs.sum() - 1.0) < 1e-12


def test_optimal_t_examples():
    assert collision_optimal_t(4, 1.0) == 17
    assert collision_optimal_t(1, LN2) == 3
    assert collision_optimal_t(8, 0.5) == 28
    # clamp below at s+1
    assert collision_optimal_t(1, 1e-6) == 2


def test_params_reject_t_not_above_s():
    with pytest.raises(ValueError):
        CollisionParams(d=6, s=2, epsilon=1.0, t=2)


def test_indicator_estimate_values_and_unbiasedness_identities():
    params = collision_params(6, 2, LN2, 4)
    uh = draw_user_hash(3, 0, "single", 4)
    event = EventId(3, 1)
    hit_z = uh.bucket(event.code)
    miss_z = next(z for z in range(1, 5) if z != hit_z)
    hit = collision_indicator_estimate(PrivateView(hash=uh, z=hit_z), event, params)
    miss = collision_indicator_estimate(PrivateView(hash=uh, z=miss_z), event, params)
    assert hit == pytest.approx(9.0)
    assert miss == pytest.approx(-3.0)
    # expectation identities from the designed collision rates
    assert (1 / 3) * hit + (2 / 3) * miss == pytest.approx(1.0)
    assert (1 / 4) * hit + (3 / 4) * miss == pytest.approx(0.0)


def test_indicator_estimate_rejects_degenerate_denominator():
    # e^eps/Omega == 1/t at eps -> 0 with t == s impossible (t > s), force via params
    params = collision_params(4, 1, 1e-15, 2)
    uh = draw_user_hash(0, 0, "single", 2)
    with pytest.raises(ValueError):
        collision_indicator_estimate(PrivateView(hash=uh, z=1), EventId(1, 1), params)


def test_randomize_matches_exact_law():
    rng = np.random.default_rng(11)
    params = collision_params(6, 2, LN2, 4)
    x = TernaryVector(d=6, support=((3, 1), (5, -1)))
    uh = draw_user_hash(21, 4, "single", 4)
    exact = collision_output_probabilities(uh.bucket_set(x.event_codes()), params)
    n = 60_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[collision_randomize(x, uh, params, rng).z - 1] += 1
    assert np.abs(counts / n - exact).max() < 4 * math.sqrt(0.25 / n)


def test_randomize_batch_matches_exact_law_with_and_without_conflict():
    rng = np.random.default_rng(5)
    params = collision_params(6, 2, LN2, 4)
    x = TernaryVector(d=6, support=((3, 1), (5, -1)))
    n = 150_000
    supports = np.tile([[3, 5]], (n, 1))
    signs = np.tile([[1, -1]], (n, 1))
    checked_conflict = checked_clean = False
    for user in range(40):
        uh = draw_user_hash(77, user, "single", 4)
        hits = uh.bucket_set(x.event_codes())
        if len(hits) == 1 and checked_conflict:
            continue
        if len(hits) == 2 and checked_clean:
            continue
        seeds = np.full(n, uh.seed, dtype=np.uint64)
        z = collision_randomize_batch(supports, signs, seeds, params, rng)
        emp = np.bincount(z - 1, minlength=4) / n
        exact = collision_output_probabilities(hits, params)
        assert np.abs(emp - exact).max() < 4 * math.sqrt(0.25 / n)
        checked_conflict = checked_conflict or len(hits) == 1
        checked_clean = checked_clean or len(hits) == 2
        if checked_conflict and checked_clean:
            break
    assert checked_conflict and checked_clean


def test_batch_covers_full_range_under_many_users():
    rng = np.random.default_rng(9)
    params = collision_params(10, 3, 0.4, 6)
    n = 20_000
    supports = np.sort(rng.integers(1, 11, size=(n, 3)), axis=1)
    # ensure strictly increasing rows by regenerating duplicates
    bad = (np.diff(supports, axis=1) == 0).any(axis=1)
    while bad.any():
        supports[bad] = np.sort(rng.choice(np.arange(1, 11), size=(bad.sum(), 3), replace=True), axis=1)
        bad = (np.diff(supports, axis=1) == 0).any(axis=1)
    signs = rng.integers(0, 2, size=(n, 3)) * 2 - 1
    seeds = user_hash_seeds(123, n)
    z = collision_randomize_batch(supports, signs, seeds, params, rng)
    assert z.min() >= 1 and z.max() <= 6
    assert len(np.unique(z)) == 6


def test_variance_formula_matches_exact_enumeration():
    # Var of the indicator estimator: p(1-p)/(e^eps/Omega - 1/t)^2
    from ldpvec.oracle import exact_estimator_moments

    params = collision_params(4, 2, 0.9, 5)
    x = TernaryVector(d=4, support=((1, 1), (3, -1)))
    denom = params.hit_prob - params.false_prob
    for event, p in ((EventId(1, 1), params.hit_prob), (EventId(2, 1), params.false_prob)):
        _, var = exact_estimator_moments("collision", params, x, "indicator", event=event)
        assert abs(var - p * (1 - p) / denom**2) < 1e-9


def test_predicted_sum_variance_convex_in_t():
    for (d, s, eps) in ((64, 4, 1.0), (32, 2, 0.5), (128, 8, 2.0)):
        ts = np.linspace(s + 0.5, d, 200)
        vals = np.array([collision_predicted_sum_variance(d, s, eps, t) for t in ts])
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert second.min() > -1e-7 * np.abs(vals[1:-1]).max()
