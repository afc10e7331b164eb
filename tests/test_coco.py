import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpvec import coco
from ldpvec.aggregate import aggregate_frequencies, target_values
from ldpvec.coco import (
    CollisionRates,
    coco_choose_t,
    coco_omega,
    coco_params,
    coco_predicted_mse,
    coco_randomize_batch,
    collision_rates,
    overwrite_probability,
)
from ldpvec.domain import MechanismParams, TernaryVector, pair_signs, pair_slots, user_hash_seeds
from ldpvec.oracle import (
    CocoTable,
    _coco_table_probs,
    coco_exact_rates_by_rank,
    coco_exact_rates_by_table,
)
from coco_reference import CocoWeights, coco_weight_vector

LN2 = math.log(2)


def user_table(seed, dims, t):
    """The paired-layout hash of user ``seed`` on ``dims``, as an explicit table of j_plus buckets."""
    dims = np.asarray(dims)
    plus = pair_slots(np.uint64(seed), dims, t) + (pair_signs(np.uint64(seed), dims) > 0) * (t // 2)
    return CocoTable(dict(zip(dims.tolist(), plus.tolist())), t)


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


def test_rates_reject_bad_domain():
    with pytest.raises(ValueError):
        collision_rates(2, 1.0, 7)  # odd t
    with pytest.raises(ValueError):
        collision_rates(2, 1.0, 4)  # t < 2s+2


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
    table = CocoTable({2: 3}, t)  # H1 = 3, H2 = -1
    x = TernaryVector(d=4, support=((2, 1),))
    W = coco_weight_vector(x.support, table, eps, t).w
    omega = coco_omega(1, eps, t)
    w = (omega - math.exp(eps) - 1.0) / (t - 2)
    hb = table.event_bucket(2, 1)
    lb = table.event_bucket(2, -1)
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
    table = CocoTable({1: 6, 2: 6}, t)  # H1 = 2, H2 = +1 for both
    x = TernaryVector(d=2, support=((1, 1), (2, -1)))
    for ordered in permutations(x.support):
        W = coco_weight_vector(tuple(ordered), table, eps, t).w
        j_last, b_last = ordered[-1]
        assert W[table.event_bucket(j_last, b_last) - 1] == pytest.approx(math.exp(eps))
        assert W[table.event_bucket(j_last, -b_last) - 1] == pytest.approx(1.0)
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
    table = CocoTable({j: k + (g > 0) * (t // 2) for j, k, g in zip(dims, h1, h2)}, t)
    x = TernaryVector(d=d, support=tuple(zip(dims, signs)))
    orders = list(permutations(x.support))
    weights = sum(coco_weight_vector(order, table, eps, t).w for order in orders)
    reference = weights / (len(orders) * coco_omega(s, eps, t))
    exact = _coco_table_probs(x, table, MechanismParams(d=d, s=s, epsilon=eps, t=t))
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
    x = TernaryVector(d=d, support=tuple(zip(dims, signs)))
    exact = _coco_table_probs(x, user_table(user[0], dims, t), params)
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
        x = TernaryVector(d=d, support=x_support)
        params = MechanismParams(d=d, s=s, epsilon=eps, t=t)
        user = user_hash_seeds(seed, 1)[0]
        exact = _coco_table_probs(x, user_table(user, [j for j, _ in x_support], t), params)
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
    hp, hm = table.event_bucket(2, 1), table.event_bucket(2, -1)
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
    # at 1e-15, p_t - p_o is ~3e-16: non-zero but under the guard's threshold;
    # at 1e-17, e^eps rounds to 1 and p_t == p_o exactly
    for eps in (1e-15, 1e-17):
        params = coco_params(4, 1, eps, t=4)
        with pytest.raises(ValueError, match="degenerate rates: p_t equals p_o"):
            aggregate_frequencies((user_hash_seeds(1, 1), [1]), "coco", params)


def test_contribution_rejects_degenerate_nonmissing_rates(monkeypatch):
    # p_t + p_o == 2 p_f while p_t != p_o: only the non-missing denominator fails
    monkeypatch.setattr(coco, "collision_rates", lambda s, eps, t: CollisionRates(p_t=0.4, p_f=0.25, p_o=0.1, p_ow=0.0))
    with pytest.raises(ValueError, match=r"degenerate rates: p_t \+ p_o equals 2 p_f"):
        aggregate_frequencies((user_hash_seeds(1, 1), [1]), "coco", coco_params(4, 1, 1.0, t=4))


def test_predicted_mse_examples():
    rates = collision_rates(1, LN2, 4)
    assert coco_predicted_mse(2, 1, rates, "mean") == pytest.approx(26.5)
    # d == s: no missing-dimension term
    val = coco_predicted_mse(1, 1, rates, "mean")
    expect = ((rates.p_t + rates.p_o) - (rates.p_t - rates.p_o) ** 2) / (rates.p_t - rates.p_o) ** 2
    assert val == pytest.approx(expect)


def test_rate_ordering_and_overwrite_bound_grid():
    # p_o < p_f < p_t and P_ow <= 1/e on the validity grid
    for eps in np.arange(0.1, 3.01, 0.1):
        for s in range(1, 33):
            for t in range(2 * s + 2, 8 * s + 1, 2):
                r = collision_rates(s, float(eps), t)
                assert r.p_o < r.p_f < r.p_t, (eps, s, t)
                assert r.p_ow <= math.exp(-1) + 1e-12, (s, t)


def test_exact_rate_routes_agree():
    for (s, eps, t) in ((1, 0.7, 4), (2, 1.0, 8), (3, 0.5, 10), (2, 2.0, 12), (4, 0.7, 10), (5, 1.0, 12)):
        closed = collision_rates(s, eps, t)
        rank = coco_exact_rates_by_rank(s, eps, t)
        table = coco_exact_rates_by_table(s, eps, t)
        for got in (rank, table):
            assert got[0] == pytest.approx(closed.p_t, abs=1e-12)
            assert got[1] == pytest.approx(closed.p_o, abs=1e-12)
            assert got[2] == pytest.approx(closed.p_f, abs=1e-12)
    # the rank route also reaches sparsities whose table enumeration would run for long
    rank = coco_exact_rates_by_rank(8, 0.5, 24)
    closed = collision_rates(8, 0.5, 24)
    assert rank[0] == pytest.approx(closed.p_t, abs=1e-12)
    assert rank[1] == pytest.approx(closed.p_o, abs=1e-12)
