import math

import numpy as np
import pytest

from ldpvec.aggregate import aggregate_frequencies
from ldpvec.baselines import (
    BaselineParams,
    amplified_budget,
    grr_probabilities,
    pckv_randomize,
    pckv_randomize_batch,
    privkv_randomize,
    privkv_randomize_batch,
)
from ldpvec.domain import TernaryVector
from ldpvec.harness import gen_synthetic_arrays
from ldpvec.oracle import all_sparse_vectors

LN2 = math.log(2)


def test_grr_probabilities_examples():
    p, q = grr_probabilities(LN2, 3)
    assert (p, q) == pytest.approx((0.5, 0.25))
    p1, _ = grr_probabilities(1.0, 2)  # d=1 pckv: 2 codes
    assert p1 == pytest.approx(math.e / (math.e + 1))


def test_amplified_budget_example():
    assert amplified_budget(4, 0.5) == pytest.approx(math.log(3.59489), abs=1e-5)
    assert amplified_budget(1, 0.7) == pytest.approx(0.7)
    assert amplified_budget(3, 0.5) > 0.5


def test_privkv_channel_probabilities():
    # empirical response distribution matches 3-ary GRR at eps
    rng = np.random.default_rng(0)
    params = BaselineParams(d=3, s=1, epsilon=LN2, variant="privkv")
    x = TernaryVector(d=3, support=((2, 1),))
    n = 60_000
    hits = {(-1): 0, 0: 0, 1: 0}
    count_j2 = 0
    for _ in range(n):
        j, v = privkv_randomize(x, params, rng)
        if j == 2:
            count_j2 += 1
            hits[v] += 1
    assert count_j2 / n == pytest.approx(1 / 3, abs=0.02)
    assert hits[1] / count_j2 == pytest.approx(0.5, abs=0.02)
    assert hits[0] / count_j2 == pytest.approx(0.25, abs=0.02)
    assert hits[-1] / count_j2 == pytest.approx(0.25, abs=0.02)


def test_privkv_ldp_by_enumeration():
    # channel x -> (j, v): ratio bounded by e^eps exactly
    for eps in (0.5, 1.0):
        p, q = grr_probabilities(eps, 3)
        params = BaselineParams(d=3, s=1, epsilon=eps, variant="privkv")
        worst = 0.0
        inputs = all_sparse_vectors(3, 1)
        for x in inputs:
            for xp in inputs:
                for j in range(1, 4):
                    for v in (-1, 0, 1):
                        def prob(vec):
                            true = dict(vec.support).get(j, 0)
                            return (p if v == true else q) / 3.0
                        worst = max(worst, prob(x) / prob(xp))
        assert math.log(worst) == pytest.approx(eps, abs=1e-12)


def test_pckv_ldp_by_enumeration():
    # The inner GRR table sits exactly at the variant's effective budget;
    # the sampled composition is amplified below it (cited, not re-proven),
    # and for pckv_grr it stays within the declared eps.
    for variant in ("pckv_grr", "pckv_agrr"):
        eps = 0.8
        params = BaselineParams(d=3, s=2, epsilon=eps, variant=variant)
        p, q = grr_probabilities(params.effective_epsilon, 6)
        assert math.log(p / q) == pytest.approx(params.effective_epsilon, abs=1e-12)
        inputs = all_sparse_vectors(3, 2)
        worst = 0.0
        for x in inputs:
            for xp in inputs:
                for code in range(1, 7):
                    def prob(vec):
                        codes = [2 * j - 1 + (b > 0) for j, b in vec.support]
                        return sum((p if code == c else q) for c in codes) / len(codes)
                    worst = max(worst, prob(x) / prob(xp))
        if variant == "pckv_grr":
            assert math.log(worst) <= eps + 1e-12
    # with s=1 the composition is the bare GRR: ratio exactly e^eps
    params = BaselineParams(d=2, s=1, epsilon=0.8, variant="pckv_grr")
    p, q = grr_probabilities(0.8, 4)
    inputs = all_sparse_vectors(2, 1)
    worst = max(
        ((p if code == 2 * xj - 1 + (xb > 0) else q) / (p if code == 2 * yj - 1 + (yb > 0) else q))
        for ((xj, xb),) in (x.support for x in inputs)
        for ((yj, yb),) in (y.support for y in inputs)
        for code in range(1, 5)
    )
    assert math.log(worst) == pytest.approx(0.8, abs=1e-12)


def test_estimates_unbiased_by_enumeration():
    # exact expectation of the debiased estimates equals the event frequencies
    d, s, eps = 3, 1, 0.9
    x = TernaryVector(d=d, support=((2, -1),))
    truth = np.zeros(2 * d)
    truth[2 * 2 - 1 - 1] = 1.0  # event (2,-)
    # privkv: enumerate (j, v) outcomes with their exact probabilities
    params = BaselineParams(d=d, s=s, epsilon=eps, variant="privkv")
    p, q = grr_probabilities(eps, 3)
    est = np.zeros(2 * d)
    for j in range(1, d + 1):
        true = dict(x.support).get(j, 0)
        for v in (-1, 0, 1):
            pr = (p if v == true else q) / d
            est += pr * aggregate_frequencies((np.array([j]), np.array([v])), params.variant, params).values
    assert np.abs(est - truth).max() < 1e-12

    # pckv: enumerate emitted codes
    params = BaselineParams(d=d, s=s, epsilon=eps, variant="pckv_grr")
    p, q = grr_probabilities(eps, 2 * d)
    true_code = 2 * 2 - 1
    est = np.zeros(2 * d)
    for code in range(1, 2 * d + 1):
        pr = p if code == true_code else q
        est += pr * aggregate_frequencies(np.array([code]), params.variant, params).values
    assert np.abs(est - truth).max() < 1e-12


def test_privkv_zero_response_contributes_negative_mass():
    params = BaselineParams(d=4, s=1, epsilon=1.0, variant="privkv")
    est = aggregate_frequencies((np.array([2]), np.array([0])), params.variant, params).values
    assert est[2 * 2 - 1 - 1] < 0 and est[2 * 2 - 1] < 0  # both events of dim 2
    assert est[0] == 0.0  # unsampled dimensions untouched


def test_batch_estimates_match_expected_frequency():
    # uniform random data: every event frequency ~ s/(2d)
    rng = np.random.default_rng(4)
    n, d, s = 100_000, 8, 2
    supports, signs = gen_synthetic_arrays(n, d, s, rng)
    for variant in ("privkv", "pckv_grr", "pckv_agrr"):
        params = BaselineParams(d=d, s=s, epsilon=1.0, variant=variant)
        if variant == "privkv":
            views = privkv_randomize_batch(supports, signs, params, rng)
        else:
            views = pckv_randomize_batch(supports, signs, params, rng)
        est = aggregate_frequencies(views, params.variant, params).values
        target = s / (2 * d)
        # crude per-event sigma bound: dominated by the debiasing scale
        p, q = grr_probabilities(params.effective_epsilon, 2 * d if variant != "privkv" else 3)
        scale = (d if variant == "privkv" else s) / (p - q)
        sigma = scale / math.sqrt(n)
        assert np.abs(est - target).max() < 4 * sigma


def test_error_scaling_exponents():
    # PrivKV total squared error ~ d^2; PCKV-GRR ~ s^2 (both per §3.1 orders)
    rng = np.random.default_rng(10)

    def total_sq_error(variant, n, d, s, eps, reps):
        errs = []
        for _ in range(reps):
            supports, signs = gen_synthetic_arrays(n, d, s, rng)
            truth = np.bincount((2 * supports - 1 + (signs > 0)).ravel() - 1, minlength=2 * d) / n
            params = BaselineParams(d=d, s=s, epsilon=eps, variant=variant)
            if variant == "privkv":
                views = privkv_randomize_batch(supports, signs, params, rng)
            else:
                views = pckv_randomize_batch(supports, signs, params, rng)
            est = aggregate_frequencies(views, params.variant, params).values
            errs.append(((est - truth) ** 2).sum())
        return float(np.mean(errs))

    ds = np.array([16, 32, 64])
    privkv = [total_sq_error("privkv", 40_000, d, 4, 1.0, 4) for d in ds]
    slope_d = np.polyfit(np.log(ds), np.log(privkv), 1)[0]
    assert abs(slope_d - 2.0) < 0.15

    ss = np.array([2, 4, 8])
    pckv = [total_sq_error("pckv_grr", 40_000, 32, s, 1.0, 4) for s in ss]
    slope_s = np.polyfit(np.log(ss), np.log(pckv), 1)[0]
    assert abs(slope_s - 2.0) < 0.15

    # and both shrink like 1/n
    ns = np.array([10_000, 40_000, 160_000])
    privkv_n = [total_sq_error("privkv", n, 16, 4, 1.0, 3) for n in ns]
    slope_n = np.polyfit(np.log(ns), np.log(privkv_n), 1)[0]
    assert abs(slope_n + 1.0) < 0.15


def test_scalar_pckv_matches_distribution():
    rng = np.random.default_rng(2)
    params = BaselineParams(d=1, s=1, epsilon=1.0, variant="pckv_grr")
    x = TernaryVector(d=1, support=((1, 1),))
    n = 40_000
    hits = sum(pckv_randomize(x, params, rng) == 2 for _ in range(n))
    assert hits / n == pytest.approx(math.e / (math.e + 1), abs=0.01)
