import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpvec import coco, domain, oracle
from ldpvec.aggregate import aggregate_frequencies, target_values
from ldpvec.coco import (
    CollisionRates,
    coco_choose_t,
    coco_omega,
    coco_params,
    coco_predicted_mse,
    coco_layout,
    coco_randomize_batch,
    collision_rates,
    overwrite_probability,
)
from ldpvec.domain import (
    STREAM_H1, MechanismParams, TernaryVector, keyed_hashes, layout_law, stream_keys, user_hash_seeds,
)
from ldpvec.oracle import all_sparse_vectors, exact_estimator_moments
from coco_reference import CocoWeights, coco_exact_rates_by_rank, coco_weight_vector, event_buckets

LN2 = math.log(2)


def user_table(seed, dims, t):
    """The paired-layout hash of user ``seed`` on ``dims``, as an explicit table of j_plus buckets H(j) in 1..t."""
    dims = np.asarray(dims)
    plus = keyed_hashes(np.uint64(seed), stream_keys(dims, STREAM_H1)) % np.uint64(t) + np.uint64(1)
    return dict(zip(dims.tolist(), plus.tolist()))


def test_rates_examples():
    r = collision_rates(1, LN2, 4)
    assert (r.p_ow, r.p_t, r.p_o, r.p_f) == pytest.approx((0.0, 2 / 5, 1 / 5, 1 / 4))
    assert overwrite_probability(2, 8) == pytest.approx(0.125)
    r0 = collision_rates(3, 0.0, 10)
    assert r0.p_t == pytest.approx(r0.p_o)


def test_single_entry_is_never_overwritten():
    # exactly 0 at s = 1, where the closed form rounds to -4.4e-16 on t = 14, 18, 24, ...
    for t in range(4, 400, 2):
        assert 0.0 <= overwrite_probability(1, t) < 1e-13
        assert collision_rates(1, 3.0, t).p_ow == overwrite_probability(1, t)


def test_overwrite_probability_is_exact_up_to_the_largest_t():
    # the ratio form lost about t * 1e-16: 7.06e-8 for 7.00e-8 at (8, 1e8), 2.2e-5 for 1e-12 at (2, 1e12), 1.0 from 1e17
    for s in (1, 2, 3, 5, 8, 13, 21, 32):
        for t in [*range(2 * s + 2, 2 * s + 2002, 46), 10**8, 10**12, 10**17, 2**40, 2**62]:
            exact = 1 - Fraction(t) * (1 - Fraction(t - 2, t) ** s) / (2 * s)
            assert abs(overwrite_probability(s, t) - exact) <= 1e-15, (s, t)

def test_rates_reject_bad_domain():
    with pytest.raises(ValueError):
        collision_rates(2, 1.0, 7)  # odd t
    with pytest.raises(ValueError):
        collision_rates(2, 1.0, 4)  # t < 2s+2


def test_coco_checks_each_rule_once_per_call(monkeypatch):
    # collision_rates checked (s, t) itself and again in overwrite_probability, and coco_params checked which twice
    calls = []
    for name in ("check_coco_domain", "check_which"):
        real = getattr(coco, name)
        monkeypatch.setattr(coco, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    params = MechanismParams(d=4, s=1, epsilon=1.0, t=4)
    coco.collision_rates(1, 1.0, 4)
    coco.coco_debias(np.zeros(8, dtype=np.int64), 1, params)
    assert calls == ["check_coco_domain", "check_coco_domain"]
    calls.clear()
    coco_params(4, 1, 1.0)
    coco_params(4, 1, 1.0, t=6)
    assert calls == ["check_which", "check_coco_domain"] * 2


def test_choose_t_examples():
    assert coco_choose_t(8, 0.5, "mean") == 24
    assert coco_choose_t(8, 0.5, "nonmissing") == 54
    assert coco_choose_t(1, 0.1, "mean") == 6  # ceil gives 5, rounded up to even >= 2s+2


def test_omega_example():
    # d=10, s=3, eps=ln2, t=8 instance: Omega = 3*3 + 8 - 6 = 11
    assert coco_omega(3, LN2, 8) == pytest.approx(11.0)


def test_weight_vector_single_entry_layout():
    # s=1: one bucket at e^eps, its pair at 1, everything else at w
    t, eps = 6, LN2
    table = {2: 3}  # H1 = 3, H2 = -1
    x = TernaryVector(d=4, support=((2, 1),))
    W = coco_weight_vector(x.support, table, eps, t).w
    omega = coco_omega(1, eps, t)
    w = (omega - math.exp(eps) - 1.0) / (t - 2)
    hb, lb = event_buckets(table, 2, t)
    assert (hb, lb) == (3, 6)
    assert W[hb - 1] == pytest.approx(math.exp(eps))
    assert W[lb - 1] == pytest.approx(1.0)
    for k in range(t):
        if k not in (hb - 1, lb - 1):
            assert W[k] == pytest.approx(w)
    assert W.sum() == pytest.approx(omega)


def test_weight_vector_overwrite_semantics():
    # two dims forced onto one pair: the later write wins, both buckets replaced
    t, eps = 8, 0.7
    table = {1: 6, 2: 6}  # H1 = 2, H2 = +1 for both
    assert event_buckets(table, 1, t) == (6, 2)
    x = TernaryVector(d=2, support=((1, 1), (2, -1)))
    for ordered in permutations(x.support):
        W = coco_weight_vector(tuple(ordered), table, eps, t).w
        j_last, b_last = ordered[-1]
        plus, minus = event_buckets(table, j_last, t)
        high, low = (plus, minus) if b_last > 0 else (minus, plus)
        assert W[high - 1] == pytest.approx(math.exp(eps))
        assert W[low - 1] == pytest.approx(1.0)
        assert W.sum() == pytest.approx(coco_omega(2, eps, t))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_closed_form_law_matches_permutation_average(data):
    # the surviving-writer law vs the literal loop averaged over all s! write orders
    s = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(s, 6))
    t = data.draw(st.sampled_from(range(2 * s + 2, 2 * s + 11, 2)))
    eps = data.draw(st.floats(0.05, 3.0))
    dims = sorted(data.draw(st.lists(st.integers(1, d), min_size=s, max_size=s, unique=True)))
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=s, max_size=s))
    crowd = data.draw(st.sampled_from((1, 2, t // 2)))  # H1 drawn from 1..crowd: small crowds force conflicts
    h1 = data.draw(st.lists(st.integers(1, crowd), min_size=s, max_size=s))
    h2 = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=s, max_size=s))
    table = {j: k + (g > 0) * (t // 2) for j, k, g in zip(dims, h1, h2)}
    support = tuple(zip(dims, signs))
    orders = list(permutations(support))
    weights = sum(coco_weight_vector(order, table, eps, t).w for order in orders)
    reference = weights / (len(orders) * coco_omega(s, eps, t))
    params = MechanismParams(d=d, s=s, epsilon=eps, t=t)
    exact = layout_law(*coco_layout(np.array([table[j] for j in dims]), np.array(signs), params))
    assert np.abs(exact - reference).max() <= 1e-14


def test_residual_weight_bounds_exhaustive():
    # 1 <= w <= (e^eps+1)/2 for every possible surviving-pair count
    for eps in (0.1, 1.0, 2.0):
        eeps = math.exp(eps)
        for s in range(1, 7):
            for t in range(2 * s + 2, 4 * s + 9, 2):
                omega = coco_omega(s, eps, t)
                for m in range(1, s + 1):
                    w = (omega - m * (eeps + 1.0)) / (t - 2 * m)
                    assert 1.0 - 1e-12 <= w <= (eeps + 1.0) / 2.0 + 1e-12


def test_coco_weights_validation():
    good = coco_weight_vector(((2, 1),), user_table(5, [2], 6), LN2, 6)
    assert good.probabilities.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        CocoWeights(w=np.array([2.0, 1.0, 1.0]), omega=5.0, epsilon=LN2)  # sum mismatch
    with pytest.raises(ValueError):
        CocoWeights(w=np.array([3.0, 1.0, 1.0]), omega=5.0, epsilon=LN2)  # weight above e^eps


def test_randomize_rejects_bad_t():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        coco_randomize_batch(
            np.array([[1]]), np.array([[1]]), user_hash_seeds(0, 1), MechanismParams(d=4, s=1, epsilon=1.0, t=3), rng
        )
    with pytest.raises(ValueError):
        coco_params(4, 2, 1.0, t=4)
    for t in (6.0, np.float64(6.0), True):  # t=6.0 was accepted as t=6
        for call in (lambda: coco_params(4, 1, 1.0, t), lambda: collision_rates(1, 1.0, t)):
            with pytest.raises(ValueError, match="t must be an integer, got t="):
                call()
    assert coco_params(4, 1, 1.0, np.int64(6)).t == 6


def test_closed_forms_reject_inputs_past_float_range():
    # both raised OverflowError: e^1000 in the normaliser, and t = 10^400 converted to a float
    for call in (lambda: collision_rates(1, 1000.0, 4), lambda: coco_omega(1, 1000.0, 4)):
        with pytest.raises(ValueError, match="epsilon=1000.0 is too large: e\\^epsilon overflows"):
            call()
    for call in (lambda: collision_rates(2, 1.0, 10**400), lambda: overwrite_probability(2, 10**400)):
        with pytest.raises(ValueError, match=r"t must be at most 1\.79769e\+308, got t=1000"):
            call()


def test_aggregation_rejects_bad_t_before_hashing(monkeypatch):
    def too_late(*args, **kwargs):
        raise AssertionError("hashed before the params were checked")

    views = (user_hash_seeds(0, 2), np.array([1, 3]))
    monkeypatch.setattr(domain, "stream_keys", too_late)  # the seeds are built: only the hit count's keys and
    monkeypatch.setattr(domain, "keyed_hashes", too_late)  # hashes are left
    with pytest.raises(ValueError, match=r"CoCo needs even t >= 2s\+2, got t=5, s=1"):
        aggregate_frequencies(views, "coco", MechanismParams(d=3, s=1, epsilon=1.0, t=5))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_randomize_matches_exact_law(data):
    # empirical law of one user's symbol, for a fixed (H1, H2), vs the exact law
    d = data.draw(st.integers(2, 8))
    s = data.draw(st.integers(1, min(d, 3)))
    t = data.draw(st.sampled_from(range(2 * s + 2, 2 * s + 9, 2)))  # small t: H1 conflicts are common
    eps = data.draw(st.floats(0.05, 3.0))
    seed = data.draw(st.integers(0, 2**32))
    dims = sorted(data.draw(st.lists(st.integers(1, d), min_size=s, max_size=s, unique=True)))
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=s, max_size=s))
    params = MechanismParams(d=d, s=s, epsilon=eps, t=t)
    user = user_hash_seeds(seed, 1)
    table = user_table(user[0], dims, t)
    exact = layout_law(*coco_layout(np.array([table[j] for j in dims]), np.array(signs), params))
    n = 40_000
    z = coco_randomize_batch(
        np.tile(dims, (n, 1)), np.tile(signs, (n, 1)), np.repeat(user, n), params, np.random.default_rng(seed)
    )
    emp = np.bincount(z - 1, minlength=t) / n
    assert (np.abs(emp - exact) <= 5 * np.sqrt(exact * (1 - exact) / n) + 1e-12).all()


def test_randomize_batch_matches_exact_law():
    rng = np.random.default_rng(12)
    for (d, s, eps, t, seed) in ((10, 3, LN2, 8, 5), (8, 3, 0.5, 10, 9), (6, 2, 1.0, 8, 11)):
        x_support = tuple((j + 1, (-1) ** j) for j in range(s))
        params = MechanismParams(d=d, s=s, epsilon=eps, t=t)
        user = user_hash_seeds(seed, 1)[0]
        table = user_table(user, [j for j, _ in x_support], t)
        buckets, signs = np.array([table[j] for j, _ in x_support]), np.array([b for _, b in x_support])
        exact = layout_law(*coco_layout(buckets, signs, params))
        n = 200_000
        seeds = np.full(n, user, dtype=np.uint64)
        sup = np.tile([[j for j, _ in x_support]], (n, 1))
        sg = np.tile([[b for _, b in x_support]], (n, 1))
        z = coco_randomize_batch(sup, sg, seeds, params, rng)
        emp = np.bincount(z - 1, minlength=t) / n
        assert np.abs(emp - exact).max() < 4 * math.sqrt(0.25 / n)


def test_contribution_examples():
    # one view's mean / non-missing contributions for dimension 2
    params = coco_params(2, 1, LN2, t=4)
    rates = collision_rates(1, LN2, 4)
    seeds = user_hash_seeds(1, 1)
    table = user_table(seeds[0], [2], 4)
    hp, hm = event_buckets(table, 2, 4)
    other = next(z for z in range(1, 5) if z not in (hp, hm))

    def contributions(z):
        freq = aggregate_frequencies((seeds, [z]), "coco", params)
        return target_values(freq, "mean")[1], target_values(freq, "nonmissing")[1]

    (mean_hit, nm_hit), (mean_opp, _), (mean_other, nm_other) = map(contributions, (hp, hm, other))
    assert (mean_hit, mean_opp, mean_other) == pytest.approx((5.0, -5.0, 0.0))
    # unbiasedness identities at the designed rates
    assert rates.p_t * mean_hit + rates.p_o * mean_opp == pytest.approx(1.0)
    assert rates.p_f * mean_hit + rates.p_f * mean_opp == pytest.approx(0.0)

    assert (nm_hit, nm_other) == pytest.approx((5.0, -5.0))
    both = rates.p_t + rates.p_o
    assert both * nm_hit + (1 - both) * nm_other == pytest.approx(1.0)
    assert 2 * rates.p_f * nm_hit + (1 - 2 * rates.p_f) * nm_other == pytest.approx(0.0)


def test_contribution_rejects_degenerate_rates():
    # at 1e-15, p_t - p_o and p_t + p_o - 2 p_f are ~3e-16: non-zero but under the
    # guard's threshold; at 1e-17, e^eps rounds to 1 and both are exactly 0.
    # The oracle and the closed-form MSE used to divide by them regardless.  The oracle
    # reads coco_debias, which forms the mean first, so both its estimators raise as the
    # aggregation does.
    x = TernaryVector(d=4, support=((1, 1),))
    mean, nonmissing = "degenerate rates: p_t equals p_o", r"degenerate rates: p_t \+ p_o equals 2 p_f"
    for eps in (1e-15, 1e-17):
        params = coco_params(4, 1, eps, t=4)
        rates = collision_rates(1, eps, 4)
        for call, message in (
            (lambda: aggregate_frequencies((user_hash_seeds(1, 1), [1]), "coco", params), mean),
            (lambda: exact_estimator_moments("coco", params, x, "mean", dim=1), mean),
            (lambda: exact_estimator_moments("coco", params, x, "nonmissing", dim=2), mean),
            (lambda: coco_predicted_mse(4, 1, rates, "mean"), mean),
            (lambda: coco_predicted_mse(4, 1, rates, "nonmissing"), nonmissing),
        ):
            with pytest.raises(ValueError, match=message):
                call()


def test_contribution_rejects_degenerate_nonmissing_rates(monkeypatch):
    # p_t + p_o == 2 p_f while p_t != p_o: only the non-missing denominator fails, and the oracle,
    # which reads coco_debias, raises it for both estimators (its mean call used to return moments)
    monkeypatch.setattr(coco, "collision_rates", lambda s, eps, t: CollisionRates(p_t=0.4, p_f=0.25, p_o=0.1, p_ow=0.0))
    params, x = coco_params(4, 1, 1.0, t=4), TernaryVector(d=4, support=((1, 1),))
    oracle._input_moments.cache_clear()  # the memo may hold these params' estimates at the true rates
    for call in (
        lambda: aggregate_frequencies((user_hash_seeds(1, 1), [1]), "coco", params),
        lambda: exact_estimator_moments("coco", params, x, "mean", dim=1),
        lambda: exact_estimator_moments("coco", params, x, "nonmissing", dim=2),
    ):
        with pytest.raises(ValueError, match=r"degenerate rates: p_t \+ p_o equals 2 p_f"):
            call()


def test_predicted_mse_examples():
    rates = collision_rates(1, LN2, 4)
    assert coco_predicted_mse(2, 1, rates, "mean") == pytest.approx(26.5)
    # d == s: no missing-dimension term
    val = coco_predicted_mse(1, 1, rates, "mean")
    expect = ((rates.p_t + rates.p_o) - (rates.p_t - rates.p_o) ** 2) / (rates.p_t - rates.p_o) ** 2
    assert val == pytest.approx(expect)
    # the non-missing closed form is the summed exact single-user variance over the d dimensions
    for d, s, t, eps in ((3, 1, 4, LN2), (3, 2, 6, 1.0), (4, 2, 8, 0.3), (3, 1, 6, 2.0), (4, 3, 8, 1.5)):
        x = all_sparse_vectors(d, s)[-1]
        params = MechanismParams(d=d, s=s, epsilon=eps, t=t)
        exact = math.fsum(exact_estimator_moments("coco", params, x, "nonmissing", dim=j)[1] for j in range(1, d + 1))
        assert coco_predicted_mse(d, s, collision_rates(s, eps, t), "nonmissing") == pytest.approx(exact, abs=1e-9)


def test_rate_ordering_and_overwrite_bound_grid():
    # p_o < p_f < p_t and P_ow <= 1/e on the validity grid
    for eps in np.arange(0.1, 3.01, 0.1):
        for s in range(1, 33):
            for t in range(2 * s + 2, 8 * s + 1, 2):
                r = collision_rates(s, float(eps), t)
                assert r.p_o < r.p_f < r.p_t, (eps, s, t)
                assert r.p_ow <= math.exp(-1) + 1e-12, (s, t)


def test_exact_rate_routes_agree():
    # the table route is the oracle's orbit law, whose moments test_oracle checks against these rates
    for (s, eps, t) in ((1, 0.7, 4), (2, 1.0, 8), (3, 0.5, 10), (2, 2.0, 12), (4, 0.7, 10), (5, 1.0, 12), (8, 0.5, 24)):
        closed = collision_rates(s, eps, t)
        rank = coco_exact_rates_by_rank(s, eps, t)
        assert rank[0] == pytest.approx(closed.p_t, abs=1e-12)
        assert rank[1] == pytest.approx(closed.p_o, abs=1e-12)
        assert rank[2] == pytest.approx(closed.p_f, abs=1e-12)
