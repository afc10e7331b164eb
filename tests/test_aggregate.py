import math
from itertools import combinations

import numpy as np
import pytest

from ldpvec.aggregate import (
    FrequencyEstimate,
    aggregate_frequencies,
    conditional_mean,
    mae,
    mean_estimate,
    project_to_simplex,
    simplex_projection,
    true_event_frequencies,
    tve,
)
from ldpvec.coco import coco_params, coco_randomize, coco_randomize_batch
from ldpvec.collision import collision_params, collision_randomize
from ldpvec.domain import TernaryVector, draw_user_hash, user_hash_seeds
from ldpvec.oracle import exact_estimator_moments, all_sparse_vectors
from ldpvec.domain import EventId

LN2 = math.log(2)


def qp_simplex_projection(v):
    """Active-set KKT enumeration oracle for tiny instances."""
    v = np.asarray(v, dtype=float)
    m = len(v)
    best = None
    for k in range(1, m + 1):
        for free in combinations(range(m), k):
            free = list(free)
            lam = (1.0 - v[free].sum()) / len(free)
            x = np.zeros(m)
            x[free] = v[free] + lam
            if x[free].min() < -1e-12:
                continue
            zero = [i for i in range(m) if i not in free]
            if zero and (v[np.array(zero)] + lam).max() > 1e-12:
                continue
            cand = x
            if best is None or np.linalg.norm(cand - v) < np.linalg.norm(best - v) - 1e-15:
                best = cand
    return best


def test_projection_examples():
    assert simplex_projection([0.8, 0.4]) == pytest.approx([0.7, 0.3])
    feasible = np.array([0.2, 0.5, 0.3])
    assert simplex_projection(feasible) == pytest.approx(feasible)
    vertex = simplex_projection([-1.0, -2.0, -3.0])
    assert vertex == pytest.approx([1.0, 0.0, 0.0])


def test_projection_matches_qp_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = rng.normal(0, 1, size=3)
        assert simplex_projection(v) == pytest.approx(qp_simplex_projection(v), abs=1e-10)


def test_projection_idempotent_and_scaled():
    rng = np.random.default_rng(2)
    values = rng.normal(0, 1, size=8)
    est = FrequencyEstimate(values=values, n=5)
    once = project_to_simplex(est, 3)
    twice = project_to_simplex(once, 3)
    assert np.asarray(once.values) == pytest.approx(np.asarray(twice.values), abs=1e-12)
    assert np.asarray(once.values).sum() == pytest.approx(3.0, abs=1e-9)
    assert np.asarray(once.values).min() >= 0.0


def test_projection_contracts_toward_feasible_points():
    # projection onto a convex set never increases distance to points in it
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.normal(0, 2, size=4)
        p = simplex_projection(v)
        w = rng.dirichlet(np.ones(4))
        assert np.linalg.norm(p - w) <= np.linalg.norm(v - w) + 1e-12


def test_metrics_examples():
    truth = np.zeros(4)
    assert tve(truth, truth) == 0.0 and mae(truth, truth) == 0.0
    est = np.array([0.1, -0.1, 0.0, 0.0])
    assert tve(est, truth) == pytest.approx(0.2)
    assert mae(est, truth) == pytest.approx(0.1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert mae(a, b) <= tve(a, b) + 1e-15
    with pytest.raises(ValueError):
        tve(np.zeros(3), np.zeros(4))


def test_mean_estimate_identities_exact():
    values = np.array([0.1, 0.4, 0.0, 0.2, 0.3, 0.05])
    freq = FrequencyEstimate(values=values, n=7)
    m = mean_estimate(freq)
    assert np.array_equal(m.values, values[1::2] - values[0::2])
    assert np.array_equal(m.nonmissing, values[1::2] + values[0::2])


def test_conditional_mean_guard():
    freq = FrequencyEstimate(values=np.array([0.2, 0.4, 0.0, 0.0]), n=10)
    ratio, defined = conditional_mean(mean_estimate(freq), 10)
    assert defined[0] and not defined[1]
    assert ratio[0] == pytest.approx(0.2 / 0.6)
    assert math.isnan(ratio[1])


def test_collision_single_view_contribution_pattern():
    # a single view contributes the 9 / -3 debiased pattern per event
    params = collision_params(6, 2, LN2, 4)
    x = TernaryVector(d=6, support=((3, 1), (5, -1)))
    uh = draw_user_hash(5, 0, "single", 4)
    rng = np.random.default_rng(0)
    view = collision_randomize(x, uh, params, rng)
    est = aggregate_frequencies([view], "collision", params)
    for code in range(1, 13):
        hit = uh.bucket(code) == view.z
        assert est.values[code - 1] == pytest.approx(9.0 if hit else -3.0)


def test_aggregate_expectation_matches_truth_small_instance():
    # exact expectation over mechanism randomness equals empirical frequency
    params = collision_params(4, 2, 0.9, 5)
    vectors = all_sparse_vectors(4, 2)[:3]
    expect = np.zeros(8)
    for x in vectors:
        for code in range(1, 9):
            mean, _ = exact_estimator_moments(
                "collision", params, x, "indicator", event=EventId.from_code(code)
            )
            expect[code - 1] += mean / len(vectors)
    sup = np.array([[j for j, _ in x.support] for x in vectors])
    sg = np.array([[b for _, b in x.support] for x in vectors])
    truth = true_event_frequencies(sup, sg, 4)
    assert np.abs(expect - truth).max() < 1e-10


def test_view_list_and_array_paths_agree():
    cases = (
        ("collision", "single", collision_params(5, 1, 1.0, 4), collision_randomize),
        ("coco", "paired", coco_params(5, 1, 1.0, t=6), coco_randomize),
    )
    x = TernaryVector(d=5, support=((2, -1),))
    for mechanism, kind, params, randomize in cases:
        rng = np.random.default_rng(3)
        views = []
        for user in range(50):
            uh = draw_user_hash(31, user, kind, params.t)
            views.append(randomize(x, uh, params, rng))
        seeds = np.array([v.hash.seed for v in views], dtype=np.uint64)
        z = np.array([v.z for v in views], dtype=np.int64)
        a = aggregate_frequencies(views, mechanism, params)
        b = aggregate_frequencies((seeds, z), mechanism, params)
        assert np.array_equal(np.asarray(a.values), np.asarray(b.values))
        assert a.n == b.n == 50


def test_coco_scalar_contributions_match_frequency_aggregation():
    from ldpvec.coco import coco_mean_contribution, coco_nonmissing_contribution, coco_randomize, collision_rates

    params = coco_params(5, 2, 0.9, t=8)
    rates = collision_rates(2, 0.9, 8)
    x = TernaryVector(d=5, support=((2, 1), (4, -1)))
    rng = np.random.default_rng(21)
    views = [
        coco_randomize(x, draw_user_hash(77, user, "paired", 8), params, rng)
        for user in range(200)
    ]
    freq = aggregate_frequencies(views, "coco", params)
    m = mean_estimate(freq)
    for j in range(1, 6):
        by_views = np.mean([coco_mean_contribution(v, j, rates) for v in views])
        assert m.values[j - 1] == pytest.approx(by_views, abs=1e-12)
        by_views_nm = np.mean([coco_nonmissing_contribution(v, j, rates) for v in views])
        assert m.nonmissing[j - 1] == pytest.approx(by_views_nm, abs=1e-12)


def test_coco_high_budget_recovers_one_hot():
    # eps large, s=1: estimates converge to the exact one-hot frequencies
    rng = np.random.default_rng(11)
    n, d = 100_000, 4
    supports = np.full((n, 1), 3, dtype=np.int64)
    signs = np.full((n, 1), -1, dtype=np.int64)
    params = coco_params(d, 1, 8.0)
    seeds = user_hash_seeds(17, n)
    z = coco_randomize_batch(supports, signs, seeds, params, rng)
    est = aggregate_frequencies((seeds, z), "coco", params)
    truth = np.zeros(2 * d)
    truth[2 * 3 - 1 - 1] = 1.0
    assert np.abs(np.asarray(est.values) - truth).max() < 0.02


def test_aggregate_rejects_empty_and_mismatched():
    params = collision_params(4, 1, 1.0, 3)
    with pytest.raises(ValueError):
        aggregate_frequencies((np.array([], dtype=np.uint64), np.array([], dtype=np.int64)), "collision", params)
    uh = draw_user_hash(0, 0, "paired", 4)
    from ldpvec.domain import PrivateView

    with pytest.raises(ValueError):
        aggregate_frequencies([PrivateView(hash=uh, z=1)], "collision", params)


@pytest.mark.parametrize("mechanism, params", [("collision", collision_params(4, 1, 1.0, 3)), ("coco", coco_params(4, 1, 1.0))])
def test_aggregate_rejects_symbols_outside_output_domain(mechanism, params):
    seeds = user_hash_seeds(1, 3)
    with pytest.raises(ValueError, match="z must lie in"):
        aggregate_frequencies((seeds, [0, 999, -3]), mechanism, params)
    with pytest.raises(ValueError, match="z must lie in"):
        aggregate_frequencies((seeds, [1, 1, params.t + 1]), mechanism, params)


@pytest.mark.parametrize("mechanism, params", [("collision", collision_params(4, 1, 1.0, 3)), ("coco", coco_params(4, 1, 1.0))])
def test_aggregate_rejects_seeds_and_z_of_different_lengths(mechanism, params):
    with pytest.raises(ValueError, match="differ in length"):
        aggregate_frequencies((user_hash_seeds(1, 3), [1, 2]), mechanism, params)


@pytest.mark.parametrize("mechanism, params", [("collision", collision_params(4, 1, 1.0, 3)), ("coco", coco_params(4, 1, 1.0))])
def test_aggregate_rejects_arrays_that_are_not_1d(mechanism, params):
    seeds = user_hash_seeds(1, 4)
    with pytest.raises(ValueError, match="must be 1-d"):
        aggregate_frequencies((seeds.reshape(2, 2), np.ones((2, 2), dtype=np.int64)), mechanism, params)
    with pytest.raises(ValueError, match="must be 1-d"):
        aggregate_frequencies((seeds, np.ones((4, 1), dtype=np.int64)), mechanism, params)


def test_aggregate_rejects_malformed_baseline_reports():
    from ldpvec.baselines import BaselineParams

    privkv = BaselineParams(d=4, s=1, epsilon=1.0, variant="privkv")
    with pytest.raises(ValueError, match="dimensions j"):
        aggregate_frequencies((np.array([0, 2]), np.array([1, -1])), "privkv", privkv)
    with pytest.raises(ValueError, match="values in"):
        aggregate_frequencies((np.array([1, 2]), np.array([1, 5])), "privkv", privkv)
    pckv = BaselineParams(d=4, s=1, epsilon=1.0, variant="pckv_grr")
    with pytest.raises(ValueError, match="codes"):
        aggregate_frequencies(np.array([1, 9]), "pckv_grr", pckv)
