import math
import re

import numpy as np
import pytest

from ldpvec.aggregate import MECHANISMS, aggregate_frequencies
from ldpvec.baselines import (
    amplified_budget,
    grr_probabilities,
    pckv_randomize_batch,
    privkv_randomize_batch,
)
from ldpvec.domain import MechanismParams, TernaryVector
from ldpvec.harness import gen_synthetic_arrays
from ldpvec.oracle import all_sparse_vectors

LN2 = math.log(2)


def privkv_code(j, value):
    """PrivKV's report code of dimension j and ternary value in -1, 0, +1."""
    return 3 * (j - 1) + value + 2


def privkv_decode(codes):
    """The (dimensions, values) a batch of PrivKV codes stands for."""
    return (codes - 1) // 3 + 1, (codes - 1) % 3 - 1


def table_params(name, d, s, epsilon):
    """The params the mechanism table builds for a baseline."""
    return MECHANISMS[name].params(d, s, epsilon, "frequency")


def test_grr_probabilities_examples():
    p, q = grr_probabilities(LN2, 3)
    assert (p, q) == pytest.approx((0.5, 0.25))
    p1, _ = grr_probabilities(1.0, 2)  # d=1 pckv: 2 codes
    assert p1 == pytest.approx(math.e / (math.e + 1))


def test_amplified_budget_example():
    assert amplified_budget(4, 0.5) == pytest.approx(math.log(3.59489), abs=1e-5)
    assert amplified_budget(1, 0.7) == pytest.approx(0.7)
    assert amplified_budget(3, 0.5) > 0.5
    # e^800 overflows a float: a ValueError naming the budget, not an OverflowError
    with pytest.raises(ValueError, match="epsilon=800 is too large"):
        amplified_budget(4, 800)
    for s, eps in ((0, 0.5), (2, 0.0), (2, -1.0)):
        with pytest.raises(ValueError):
            amplified_budget(s, eps)


def test_amplified_budget_keeps_precision_at_small_epsilon():
    # log(s(e^eps - 1) + 1) drops the low digits of s(e^eps - 1) when it is tiny
    assert amplified_budget(2, 1e-12) == pytest.approx(math.log1p(2 * math.expm1(1e-12)), rel=1e-12, abs=0)
    assert amplified_budget(2, 1e-300) > 0


def test_table_builds_each_grr_at_its_budget_and_alphabet():
    d, s, eps = 5, 3, 0.7
    assert table_params("privkv", d, s, eps) == MechanismParams(d=d, s=s, epsilon=eps, t=3 * d)
    assert table_params("pckv_grr", d, s, eps) == MechanismParams(d=d, s=s, epsilon=eps, t=2 * d)
    # PCKV-AGRR is PCKV-GRR at the amplified inner budget, and nothing else
    agrr = table_params("pckv_agrr", d, s, eps)
    assert agrr == MechanismParams(d=d, s=s, epsilon=amplified_budget(s, eps), t=2 * d)
    assert MECHANISMS["pckv_agrr"][1:] == MECHANISMS["pckv_grr"][1:]


def test_baselines_reject_params_of_another_alphabet():
    supports, signs = np.array([[1, 3]]), np.array([[1, -1]])
    rng = np.random.default_rng(0)
    pckv, privkv = table_params("pckv_grr", 4, 2, 1.0), table_params("privkv", 4, 2, 1.0)
    with pytest.raises(ValueError, match="12 categories, got t=8"):
        privkv_randomize_batch(supports, signs, pckv, rng)
    with pytest.raises(ValueError, match="12 categories, got t=8"):
        aggregate_frequencies(np.array([privkv_code(1, 0)]), "privkv", pckv)
    with pytest.raises(ValueError, match="8 categories, got t=12"):
        pckv_randomize_batch(supports, signs, privkv, rng)
    for name in ("pckv_grr", "pckv_agrr"):
        with pytest.raises(ValueError, match="8 categories, got t=12"):
            aggregate_frequencies(np.array([1]), name, privkv)


def test_privkv_channel_probabilities():
    # empirical response distribution matches 3-ary GRR at eps
    rng = np.random.default_rng(0)
    params = table_params("privkv", 3, 1, LN2)
    n = 60_000
    j, v = privkv_decode(privkv_randomize_batch(np.full((n, 1), 2), np.ones((n, 1), dtype=np.int64), params, rng))
    count_j2 = (j == 2).sum()
    assert count_j2 / n == pytest.approx(1 / 3, abs=0.02)
    assert (v[j == 2] == 1).sum() / count_j2 == pytest.approx(0.5, abs=0.02)
    assert (v[j == 2] == 0).sum() / count_j2 == pytest.approx(0.25, abs=0.02)
    assert (v[j == 2] == -1).sum() / count_j2 == pytest.approx(0.25, abs=0.02)
    # an unsampled dimension holds 0 in x: its truthful report is 0
    assert (v[j == 1] == 0).sum() / (j == 1).sum() == pytest.approx(0.5, abs=0.02)


def test_privkv_codes_fit_int64_up_to_the_largest_d():
    rng = np.random.default_rng(0)
    top = (2**63 - 1) // 3
    n = 1000
    params = table_params("privkv", top, 1, 50.0)
    codes = privkv_randomize_batch(np.full((n, 1), top), np.ones((n, 1), dtype=np.int64), params, rng)
    j, v = privkv_decode(codes)
    assert codes.min() >= 1 and codes.max() <= 3 * top and j.min() >= 1
    assert np.array_equal(v, (j == top).astype(int))  # e^50 keeps each truth but for ~1e-21


@pytest.mark.parametrize("d", [(2**63 - 1) // 3 + 1, 2**62 - 1], ids=["first", "last"])
@pytest.mark.parametrize("integer", [int, np.int64])
def test_privkv_rejects_a_d_past_its_int64_codes(d, integer):
    # 3d raised OverflowError for a Python int d, and overflowed with a RuntimeWarning for a numpy int64 d.  PrivKV's
    # alphabet t = 3d is int64, so the table's params reject such a d, and its randomizer and aggregation reject any
    # other t, with the alphabet computed in Python ints
    d, bits = integer(d), math.log2(3 * d)
    with pytest.raises(ValueError, match=rf"^t must be an integer in 1\.\.2\^63-1, got about 2\^{bits:.1f}$"):
        table_params("privkv", d, 1, 1.0)
    params = MechanismParams(d, 1, 1.0, 3)
    for call in (
        lambda: privkv_randomize_batch(np.array([[1]]), np.array([[1]]), params, np.random.default_rng(0)),
        lambda: aggregate_frequencies(np.array([1, 2]), "privkv", params),
    ):
        with pytest.raises(ValueError, match=rf"^this GRR reports one of {3 * int(d)} categories, got t=3$"):
            call()


@pytest.mark.parametrize("name", ["privkv", "pckv_grr", "pckv_agrr"])
def test_baseline_params_reject_a_numpy_d_as_a_python_d(name):
    # 2 * np.int64(2**62) overflowed with a RuntimeWarning before MechanismParams rejected d; PrivKV's 3d from
    # (2**63 - 1) // 3 + 1 on is test_privkv_rejects_a_d_past_its_int64_codes
    with pytest.raises(ValueError) as want:
        table_params(name, 2**62, 1, 1.0)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        table_params(name, np.int64(2**62), 1, 1.0)


def test_privkv_ldp_by_enumeration():
    # channel x -> (j, v): ratio bounded by e^eps exactly
    for eps in (0.5, 1.0):
        p, q = grr_probabilities(eps, 3)
        params = table_params("privkv", 3, 1, eps)
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
    # The inner GRR table sits exactly at the params' budget, which is the
    # amplified one for pckv_agrr; the sampled composition is amplified below
    # it (cited, not re-proven), and for pckv_grr it stays within the declared eps.
    for name in ("pckv_grr", "pckv_agrr"):
        eps = 0.8
        params = table_params(name, 3, 2, eps)
        p, q = grr_probabilities(params.epsilon, params.t)
        assert math.log(p / q) == pytest.approx(params.epsilon, abs=1e-12)
        inputs = all_sparse_vectors(3, 2)
        worst = 0.0
        for x in inputs:
            for xp in inputs:
                for code in range(1, 7):
                    def prob(vec):
                        codes = [2 * j - 1 + (b > 0) for j, b in vec.support]
                        return sum((p if code == c else q) for c in codes) / len(codes)
                    worst = max(worst, prob(x) / prob(xp))
        if name == "pckv_grr":
            assert math.log(worst) <= eps + 1e-12
    # with s=1 the composition is the bare GRR: ratio exactly e^eps
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
    # privkv: enumerate (j, v) outcomes, reported as one code each, with their exact probabilities
    params = table_params("privkv", d, s, eps)
    p, q = grr_probabilities(eps, 3)
    est = np.zeros(2 * d)
    for j in range(1, d + 1):
        true = dict(x.support).get(j, 0)
        for v in (-1, 0, 1):
            pr = (p if v == true else q) / d
            est += pr * aggregate_frequencies(np.array([privkv_code(j, v)]), "privkv", params)
    assert np.abs(est - truth).max() < 1e-12

    # pckv: enumerate emitted codes
    params = table_params("pckv_grr", d, s, eps)
    p, q = grr_probabilities(eps, 2 * d)
    true_code = 2 * 2 - 1
    est = np.zeros(2 * d)
    for code in range(1, 2 * d + 1):
        pr = p if code == true_code else q
        est += pr * aggregate_frequencies(np.array([code]), "pckv_grr", params)
    assert np.abs(est - truth).max() < 1e-12


def test_privkv_zero_response_contributes_negative_mass():
    params = table_params("privkv", 4, 1, 1.0)
    est = aggregate_frequencies(np.array([privkv_code(2, 0)]), "privkv", params)
    assert est[2 * 2 - 1 - 1] < 0 and est[2 * 2 - 1] < 0  # both events of dim 2
    assert est[0] == 0.0  # unsampled dimensions untouched


def test_batch_estimates_match_expected_frequency():
    # uniform random data: every event frequency ~ s/(2d)
    rng = np.random.default_rng(4)
    n, d, s = 100_000, 8, 2
    supports, signs = gen_synthetic_arrays(n, d, s, rng)
    for name in ("privkv", "pckv_grr", "pckv_agrr"):
        params = table_params(name, d, s, 1.0)
        if name == "privkv":
            views = privkv_randomize_batch(supports, signs, params, rng)
        else:
            views = pckv_randomize_batch(supports, signs, params, rng)
        est = aggregate_frequencies(views, name, params)
        target = s / (2 * d)
        # crude per-event sigma bound: dominated by the debiasing scale
        p, q = grr_probabilities(params.epsilon, params.t)
        scale = (d if name == "privkv" else s) / (p - q)
        sigma = scale / math.sqrt(n)
        assert np.abs(est - target).max() < 4 * sigma


def test_error_scaling_exponents():
    # PrivKV total squared error ~ d^2; PCKV-GRR ~ s^2 (both per §3.1 orders)
    rng = np.random.default_rng(10)

    def total_sq_error(name, n, d, s, eps, reps):
        errs = []
        for _ in range(reps):
            supports, signs = gen_synthetic_arrays(n, d, s, rng)
            truth = np.bincount((2 * supports - 1 + (signs > 0)).ravel() - 1, minlength=2 * d) / n
            params = table_params(name, d, s, eps)
            if name == "privkv":
                views = privkv_randomize_batch(supports, signs, params, rng)
            else:
                views = pckv_randomize_batch(supports, signs, params, rng)
            est = aggregate_frequencies(views, name, params)
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
    # a scalar (d = 1) input +1 is reported as its code 2 with the GRR truth probability
    rng = np.random.default_rng(2)
    params = table_params("pckv_grr", 1, 1, 1.0)
    n = 40_000
    codes = pckv_randomize_batch(np.ones((n, 1), dtype=np.int64), np.ones((n, 1), dtype=np.int64), params, rng)
    assert (codes == 2).mean() == pytest.approx(math.e / (math.e + 1), abs=0.01)
