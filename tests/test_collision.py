import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpvec import collision, domain, oracle
from ldpvec.aggregate import aggregate_frequencies
from ldpvec.collision import (
    collision_hit_prob,
    collision_omega,
    collision_optimal_t,
    collision_params,
    collision_predicted_sum_variance,
    collision_randomize_batch,
    collision_table_probs,
)
from ldpvec.domain import EventId, MechanismParams, TernaryVector, event_code, hash_buckets, user_hash_seeds

LN2 = math.log(2)


def test_output_probabilities_no_conflict():
    # d=6, s=2, t=4, eps=ln 2: hashed buckets 1/3 each, others 1/6
    params = collision_params(6, 2, LN2, 4)
    assert collision_omega(params.s, params.epsilon, params.t) == pytest.approx(6.0)
    probs = collision_table_probs(np.array([1, 3]), None, params)
    assert probs[0] == pytest.approx(1 / 3) and probs[2] == pytest.approx(1 / 3)
    assert probs[1] == pytest.approx(1 / 6) and probs[3] == pytest.approx(1 / 6)


def test_output_probabilities_conflict():
    # same params, both events hash together (k=1): 1/3 vs 2/9 each
    params = collision_params(6, 2, LN2, 4)
    probs = collision_table_probs(np.array([2, 2]), None, params)
    assert probs[1] == pytest.approx(1 / 3)
    for idx in (0, 2, 3):
        assert probs[idx] == pytest.approx(2 / 9)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_small_epsilon_approaches_uniform():
    params = collision_params(6, 2, 1e-9, 4)
    probs = collision_table_probs(np.array([1, 2]), None, params)
    assert np.abs(probs - 0.25).max() < 1e-9


def test_probability_normalization_all_hit_sets():
    for t in (3, 4, 7):
        for s in (1, 2):
            if t <= s:
                continue
            params = collision_params(8, s, 0.8, t)
            for k in range(1, s + 1):
                probs = collision_table_probs(np.minimum(np.arange(1, s + 1), k), None, params)  # k distinct buckets
                assert abs(probs.sum() - 1.0) < 1e-12


def test_optimal_t_examples():
    assert collision_optimal_t(4, 1.0) == 17
    assert collision_optimal_t(1, LN2) == 3
    assert collision_optimal_t(8, 0.5) == 28
    # clamp below at s+1
    assert collision_optimal_t(1, 1e-6) == 2


def test_params_reject_t_not_above_s():
    with pytest.raises(ValueError, match=r"^collision mechanism needs t > s, got t=2, s=2$"):
        collision_params(6, 2, 1.0, 2)


def test_indicator_estimate_values_and_unbiasedness_identities():
    params = collision_params(6, 2, LN2, 4)
    seeds = user_hash_seeds(3, 1)
    event = EventId(3, 1)
    hit_z = int(hash_buckets(seeds, np.int64(event.code), 4)[0])
    miss_z = next(z for z in range(1, 5) if z != hit_z)
    hit = aggregate_frequencies((seeds, [hit_z]), "collision", params)[event.code - 1]
    miss = aggregate_frequencies((seeds, [miss_z]), "collision", params)[event.code - 1]
    assert hit == pytest.approx(9.0)
    assert miss == pytest.approx(-3.0)
    # expectation identities from the designed collision rates
    assert (1 / 3) * hit + (2 / 3) * miss == pytest.approx(1.0)
    assert (1 / 4) * hit + (3 / 4) * miss == pytest.approx(0.0)


def test_indicator_estimate_rejects_degenerate_denominator():
    # at 1e-15, e^eps/Omega - 1/t is ~3e-16: non-zero but under the guard's
    # threshold; at 1e-17, e^eps rounds to 1 and the difference is exactly 0.
    # The oracle and the closed-form variance used to divide by it regardless.
    x = TernaryVector(d=4, support=((1, 1),))
    for eps in (1e-15, 1e-17):
        params = collision_params(4, 1, eps, 2)
        for call in (
            lambda: aggregate_frequencies((user_hash_seeds(0, 1), [1]), "collision", params),
            lambda: oracle.exact_estimator_moments("collision", params, x, "indicator", event=EventId(1, 1)),
            lambda: collision_predicted_sum_variance(4, 1, eps, 2),
        ):
            with pytest.raises(ValueError, match=r"degenerate parameters: e\^eps/Omega equals 1/t"):
                call()


_ONE_HOT = TernaryVector(d=3, support=((2, 1),))
_SEEDS = user_hash_seeds(0, 2)  # built before the hash functions are replaced


@pytest.mark.parametrize(
    "entry",
    [
        lambda params: aggregate_frequencies((_SEEDS, np.array([1, 1])), "collision", params),
        lambda params: oracle.verify_ldp("collision", params),
        lambda params: oracle.exact_estimator_moments("collision", params, _ONE_HOT, "indicator", event=EventId(1, 1)),
        lambda params: collision_randomize_batch(
            np.array([[2]]), np.array([[1]]), _SEEDS[:1], params, np.random.default_rng(0)
        ),
    ],
    ids=[
        "aggregate_frequencies", "verify_ldp", "exact_estimator_moments", "collision_randomize_batch",
    ],
)
def test_collision_entry_points_reject_params_outside_the_domain(entry, monkeypatch):
    # Omega = s*e^eps + t - s leaves no residual for the t - k unhit buckets at t <= s
    def too_late(*args, **kwargs):
        raise AssertionError("hashed or enumerated before the params were checked")

    for module, name in (
        (domain, "stream_keys"), (domain, "keyed_hashes"), (collision, "hash_buckets"),
        (oracle, "_uniform_tables"), (oracle, "all_sparse_vectors"),
    ):
        monkeypatch.setattr(module, name, too_late)
    with pytest.raises(ValueError, match=r"^collision mechanism needs t > s, got t=1, s=1$"):
        entry(MechanismParams(d=3, s=1, epsilon=1.0, t=1))


def _distinct_rows(draw, d, s):
    return sorted(draw(st.lists(st.integers(1, d), min_size=s, max_size=s, unique=True)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_randomize_matches_exact_law(data):
    # empirical law of one user's symbol, for a fixed hash, vs the exact law
    d = data.draw(st.integers(2, 8))
    s = data.draw(st.integers(1, min(d, 3)))
    t = data.draw(st.integers(s + 1, 3 * s + 3))
    eps = data.draw(st.floats(0.05, 3.0))
    seed = data.draw(st.integers(0, 2**32))
    support = _distinct_rows(data.draw, d, s)
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=s, max_size=s))
    params = collision_params(d, s, eps, t)
    user = user_hash_seeds(seed, 1)
    exact = collision_table_probs(hash_buckets(user, event_code(np.array(support), np.array(signs)), t), None, params)
    n = 40_000
    z = collision_randomize_batch(
        np.tile(support, (n, 1)), np.tile(signs, (n, 1)), np.repeat(user, n), params, np.random.default_rng(seed)
    )
    emp = np.bincount(z - 1, minlength=t) / n
    assert (np.abs(emp - exact) <= 5 * np.sqrt(exact * (1 - exact) / n) + 1e-12).all()


def test_randomize_batch_matches_exact_law_with_and_without_conflict():
    rng = np.random.default_rng(5)
    params = collision_params(6, 2, LN2, 4)
    n = 150_000
    supports = np.tile([[3, 5]], (n, 1))
    signs = np.tile([[1, -1]], (n, 1))
    checked_conflict = checked_clean = False
    users = user_hash_seeds(77, 40)
    for user, row in zip(users, hash_buckets(users[:, None], event_code(supports[:1], signs[:1]), 4)):
        hits = frozenset(row.tolist())
        if len(hits) == 1 and checked_conflict:
            continue
        if len(hits) == 2 and checked_clean:
            continue
        seeds = np.full(n, user, dtype=np.uint64)
        z = collision_randomize_batch(supports, signs, seeds, params, rng)
        emp = np.bincount(z - 1, minlength=4) / n
        exact = collision_table_probs(row, None, params)
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
    hit, false = collision_hit_prob(params.s, params.epsilon, params.t), 1 / params.t
    denom = hit - false
    for event, p in ((EventId(1, 1), hit), (EventId(2, 1), false)):
        _, var = exact_estimator_moments("collision", params, x, "indicator", event=event)
        assert abs(var - p * (1 - p) / denom**2) < 1e-9


def test_predicted_sum_variance_convex_in_t():
    for (d, s, eps) in ((64, 4, 1.0), (32, 2, 0.5), (128, 8, 2.0)):
        ts = np.linspace(s + 0.5, d, 200)
        vals = np.array([collision_predicted_sum_variance(d, s, eps, t) for t in ts])
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert second.min() > -1e-7 * np.abs(vals[1:-1]).max()
