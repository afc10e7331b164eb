import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpvec import oracle
from ldpvec.amplification import collision_alpha
from ldpvec.collision import collision_params
from ldpvec.domain import EventId, MechanismParams, TernaryVector
from ldpvec.oracle import (
    LAWS,
    CocoTable,
    CollisionTable,
    _orbit_count,
    _uniform_tables,
    all_sparse_vectors,
    exact_estimator_moments,
    lower_bound_statistic_distribution,
    verify_ldp,
)
from coco_reference import uniform_coco_family
from oracle_reference import mixture_decompose, uniform_collision_family

LN2 = math.log(2)


def _single_table_family(mapping, t=None):
    return [(CollisionTable(mapping), 1.0)]


def test_enumerate_collision_fixed_hash():
    params = collision_params(6, 2, LN2, 4)
    x = TernaryVector(d=6, support=((3, 1), (5, -1)))
    table = CollisionTable(zip(x.event_codes(), (1, 3)))
    assert LAWS["collision"].probs(x, table, params) == pytest.approx([1 / 3, 1 / 6, 1 / 3, 1 / 6])


def test_enumerate_coco_single_entry():
    params = MechanismParams(d=4, s=1, epsilon=LN2, t=4)
    x = TernaryVector(d=4, support=((2, 1),))
    table = CocoTable({2: 3}, 4)  # H1 = 1, H2 = +1
    probs = LAWS["coco"].probs(x, table, params)
    omega = 5.0
    hb = table.event_bucket(2, 1)
    lb = table.event_bucket(2, -1)
    w = (omega - 3.0) / 2.0
    assert probs[hb - 1] == pytest.approx(2 / omega)
    assert probs[lb - 1] == pytest.approx(1 / omega)
    for z in set(range(1, 5)) - {hb, lb}:
        assert probs[z - 1] == pytest.approx(w / omega)


def test_enumerate_zero_budget_uniform():
    params = collision_params(4, 1, 1e-12, 3)
    x = TernaryVector(d=4, support=((1, 1),))
    family = uniform_collision_family(x.event_codes(), 3)
    per_z = sum(w * LAWS["collision"].probs(x, table, params) for table, w in family)
    assert per_z == pytest.approx([1 / 3] * 3, abs=1e-9)


def test_family_size_guards():
    # an explicit family is guarded by its (table, input) evaluations: 50,000 tables x 8 inputs x t=3
    params = collision_params(4, 1, 1.0, 3)
    big_family = _single_table_family({code: 1 for code in range(1, 9)}) * 50_000
    with pytest.raises(ValueError, match="exceeds guard"):
        verify_ldp("collision", params, big_family)


def test_verify_ldp_equality_witness_collision():
    got = verify_ldp("collision", collision_params(4, 2, LN2, 4))
    assert got == pytest.approx(LN2, abs=1e-9)


def test_verify_ldp_zero_budget():
    got = verify_ldp("collision", collision_params(3, 1, 1e-12, 3))
    assert got < 1e-11


def test_verify_ldp_coco_bounded():
    got = verify_ldp("coco", MechanismParams(d=3, s=1, epsilon=LN2, t=4))
    assert got <= LN2 + 1e-9


def test_coco_at_full_support():
    # s = d: every dimension is written, so H1 conflicts are as frequent as they get
    for t in (6, 8):
        params = MechanismParams(d=2, s=2, epsilon=LN2, t=t)
        assert verify_ldp("coco", params) == pytest.approx(LN2, abs=1e-9)
        for x in all_sparse_vectors(2, 2):
            for j, sign in x.support:
                mean, _ = exact_estimator_moments("coco", params, x, "mean", dim=j)
                assert abs(mean - sign) < 1e-12
                mean, _ = exact_estimator_moments("coco", params, x, "nonmissing", dim=j)
                assert abs(mean - 1.0) < 1e-12


def test_verify_ldp_explicit_family_matches_exhaustive():
    params = collision_params(3, 1, 0.9, 3)
    family = uniform_collision_family(tuple(range(1, 7)), 3)
    got = verify_ldp("collision", params, family)
    assert got == pytest.approx(verify_ldp("collision", params), abs=1e-12)


def test_verify_ldp_rejects_an_empty_family():
    with pytest.raises(ValueError, match="empty family"):
        verify_ldp("collision", collision_params(3, 1, 0.9, 3), family=[])


def test_verify_ldp_rejects_a_table_that_misses_a_point():
    # used to die with a bare KeyError: 2 in the probability cache
    params = collision_params(4, 1, 1.0, 3)
    with pytest.raises(ValueError, match="table 0 of the family has no entry for point 2"):
        verify_ldp("collision", params, _single_table_family({1: 1}))
    complete = _single_table_family({code: 1 for code in range(1, 9)})
    with pytest.raises(ValueError, match="table 1 of the family has no entry for point 8"):
        verify_ldp("collision", params, complete + _single_table_family({code: 1 for code in range(1, 8)}))
    with pytest.raises(ValueError, match="table 0 of the family has no entry for point 3"):
        verify_ldp("coco", MechanismParams(d=3, s=1, epsilon=LN2, t=4), [(CocoTable({1: 1, 2: 3}, 4), 1.0)])


class _UnreadFamily:
    """A family whose tables must not be reached: a domain check comes first."""

    def __len__(self):
        return 1

    def __iter__(self):
        raise AssertionError("a table was read before the domain check")


@pytest.mark.parametrize("t", [4, 7, 1])
def test_coco_oracle_rejects_t_outside_its_domain(t):
    # t = 4 = 2s used to certify, odd t = 7 failed inside the law with "weights sum
    # to ...", and t = 1 raised a bare "math domain error"
    params = MechanismParams(d=4, s=2, epsilon=1.0, t=t)
    x = TernaryVector(d=4, support=((1, 1), (3, -1)))
    message = rf"CoCo needs even t >= 2s\+2, got t={t}, s=2"
    with pytest.raises(ValueError, match=message):
        verify_ldp("coco", params)
    with pytest.raises(ValueError, match=message):
        verify_ldp("coco", params, _UnreadFamily())
    with pytest.raises(ValueError, match=message):
        exact_estimator_moments("coco", params, x, "mean", dim=1)
    with pytest.raises(ValueError, match=message):
        exact_estimator_moments("coco", params, x, "nonmissing", dim=2, family=_UnreadFamily())


def test_oracle_checks_the_domain_once_per_call(monkeypatch):
    calls = []
    monkeypatch.setitem(LAWS, "coco", LAWS["coco"]._replace(check=lambda params: calls.append((params.s, params.t))))
    params = MechanismParams(d=3, s=1, epsilon=LN2, t=4)
    verify_ldp("coco", params)
    exact_estimator_moments("coco", params, TernaryVector(d=3, support=((2, -1),)), "mean", dim=2)
    assert calls == [(1, 4), (1, 4)]


def _full_family(mechanism, d, t):
    """The full uniform family on every point an input of dimension d can read."""
    if mechanism == "collision":
        return uniform_collision_family(tuple(range(1, 2 * d + 1)), t)
    return uniform_coco_family(tuple(range(1, d + 1)), t)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_orbit_representatives_match_the_full_uniform_family(data):
    mechanism = data.draw(st.sampled_from(sorted(LAWS)))
    d = data.draw(st.integers(1, 3))
    s = data.draw(st.integers(1, d))
    if mechanism == "collision":
        t = data.draw(st.integers(s + 1, 4))
        params = collision_params(d, s, data.draw(st.floats(0.05, 3.0)), t)
    else:
        t = data.draw(st.sampled_from(range(2 * s + 2, 9, 2)))
        params = MechanismParams(d=d, s=s, epsilon=data.draw(st.floats(0.05, 3.0)), t=t)
    family = _full_family(mechanism, d, t)
    assert verify_ldp(mechanism, params) == pytest.approx(verify_ldp(mechanism, params, family), abs=1e-12)
    x = data.draw(st.sampled_from(all_sparse_vectors(d, s)))
    if mechanism == "collision":
        probe = {"estimator": "indicator", "event": EventId.from_code(data.draw(st.integers(1, 2 * d)))}
    else:
        probe = {"estimator": data.draw(st.sampled_from(("mean", "nonmissing"))), "dim": data.draw(st.integers(1, d))}
    got = exact_estimator_moments(mechanism, params, x, **probe)
    want = exact_estimator_moments(mechanism, params, x, family=family, **probe)
    assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mechanism=st.sampled_from(sorted(LAWS)), n=st.integers(0, 6), t=st.integers(2, 9))
def test_orbit_count_and_weights(mechanism, n, t):
    law = LAWS[mechanism]
    weights = [w for _, w in _uniform_tables(law, tuple(range(1, n + 1)), t)]
    assert len(weights) == _orbit_count(n, law.slots(t), law.paired)
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)


def test_exhaustive_guard_counts_orbit_representatives():
    # 8^6 tables on all six dims would exceed the guard; representatives on 4-dim sets do not
    params = MechanismParams(d=6, s=2, epsilon=1.0, t=8)
    assert verify_ldp("coco", params) <= 1.0 + 1e-9
    for d, t in ((5, 6), (6, 4)):
        assert verify_ldp("collision", collision_params(d, 2, 1.0, t)) == pytest.approx(1.0, abs=1e-9)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds guard"):
        verify_ldp("collision", collision_params(6, 3, 1.0, 6))
    assert time.perf_counter() - start < 1.0


def test_exact_moments_collision_unbiased():
    params = collision_params(4, 2, LN2, 4)
    x = TernaryVector(d=4, support=((1, 1), (3, -1)))
    for code in range(1, 9):
        event = EventId.from_code(code)
        mean, var = exact_estimator_moments("collision", params, x, "indicator", event=event)
        target = 1.0 if event in x.event_set() else 0.0
        assert abs(mean - target) < 1e-12
        assert var > 0


def test_exact_moments_coco_appendix_variances():
    # x_j = 0: mean 0, variance 2 P_f / (P_t - P_o)^2
    # x_j != 0 (nonmissing): variance (P_t+P_o)(1-P_t-P_o)/(P_t+P_o-2P_f)^2
    from ldpvec.coco import collision_rates

    params = MechanismParams(d=3, s=1, epsilon=LN2, t=6)
    x = TernaryVector(d=3, support=((1, 1),))
    rates = collision_rates(1, LN2, 6)
    mean, var = exact_estimator_moments("coco", params, x, "mean", dim=2)
    assert abs(mean) < 1e-12
    assert var == pytest.approx(2 * rates.p_f / (rates.p_t - rates.p_o) ** 2, abs=1e-9)
    mean, var = exact_estimator_moments("coco", params, x, "nonmissing", dim=1)
    assert mean == pytest.approx(1.0, abs=1e-12)
    both = rates.p_t + rates.p_o
    assert var == pytest.approx(both * (1 - both) / (both - 2 * rates.p_f) ** 2, abs=1e-9)


def test_mixture_decompose_identical_inputs():
    probs = np.array([0.25, 0.75])
    _, _, q1_star, beta = mixture_decompose(probs, probs, 1.0)
    assert beta == 0.0
    assert np.allclose(q1_star, probs)


def _collision_pair_distributions(params, x, xp, family):
    """The laws of (table, z) for x and for x' over ``family``, on the same cells."""
    law = LAWS["collision"].probs
    return tuple(np.concatenate([w * law(v, table, params) for table, w in family]) for v in (x, xp))


def test_mixture_decompose_disjoint_images():
    # s=1, eps=ln2, t=4, disjoint hashed images -> beta = 1/5
    params = collision_params(4, 1, LN2, 4)
    x = TernaryVector(d=4, support=((1, 1),))
    xp = TernaryVector(d=4, support=((2, 1),))
    family = _single_table_family({EventId(1, 1).code: 1, EventId(2, 1).code: 2})
    r1, r2 = _collision_pair_distributions(params, x, xp, family)
    assert mixture_decompose(r1, r2, LN2)[3] == pytest.approx(1 / 5, abs=1e-12)


def test_mixture_decompose_matches_clone_probability_all_eps():
    # For disjoint images beta equals the accountant's clone probability
    # alpha/(e^eps - 1) = s/(s e^eps + t - s), at every budget.
    for eps in (0.4, LN2, 1.3, 2.2):
        params = collision_params(4, 1, eps, 4)
        x = TernaryVector(d=4, support=((1, 1),))
        xp = TernaryVector(d=4, support=((2, 1),))
        family = _single_table_family({EventId(1, 1).code: 1, EventId(2, 1).code: 2})
        r1, r2 = _collision_pair_distributions(params, x, xp, family)
        expect = collision_alpha(1, eps, 4) / math.expm1(eps)
        assert mixture_decompose(r1, r2, eps)[3] == pytest.approx(expect, abs=1e-12)


def test_mixture_decompose_invariants():
    for eps in (0.5, LN2, 1.5):
        params = collision_params(4, 2, eps, 5)
        inputs = all_sparse_vectors(4, 2)
        x, xp = inputs[0], inputs[-1]
        codes = tuple(dict.fromkeys(x.event_codes() + xp.event_codes()))
        family = uniform_collision_family(codes, 5)
        a, b = _collision_pair_distributions(params, x, xp, family)
        q1, q1_prime, q1_star, beta = mixture_decompose(a, b, eps)
        eeps = math.exp(eps)
        assert 0.0 <= beta <= 1.0 / (eeps + 1.0) + 1e-12
        rest = (1 - beta - eeps * beta) * q1_star
        assert np.abs(eeps * beta * q1 + beta * q1_prime + rest - a).max() < 1e-10
        assert np.abs(beta * q1 + eeps * beta * q1_prime + rest - b).max() < 1e-10
        # Q1 and Q1' live on disjoint supports
        assert np.minimum(q1, q1_prime).max() == 0.0


def test_mixture_decompose_rejects_unbounded_ratio():
    with pytest.raises(ValueError, match="ratio bounded"):
        mixture_decompose(np.array([0.9, 0.1]), np.array([0.1, 0.9]), 0.3)


def test_lower_bound_statistic_hand_example():
    # n=1, s=1, eps=ln2, t=4: (1,0) w.p. 2/5, (0,1) w.p. 1/5, (0,0) w.p. 2/5
    params = collision_params(3, 1, LN2, 4)
    law = lower_bound_statistic_distribution(1, params)
    assert law[(1, 0)] == pytest.approx(2 / 5, abs=1e-12)
    assert law[(0, 1)] == pytest.approx(1 / 5, abs=1e-12)
    assert law[(0, 0)] == pytest.approx(2 / 5, abs=1e-12)
    swapped = lower_bound_statistic_distribution(1, params, swapped=True)
    assert swapped[(0, 1)] == pytest.approx(law[(1, 0)], abs=1e-15)
    assert swapped[(1, 0)] == pytest.approx(law[(0, 1)], abs=1e-15)


def test_lower_bound_statistic_requires_room():
    with pytest.raises(ValueError):
        lower_bound_statistic_distribution(2, collision_params(4, 2, 1.0, 5))


def test_lower_bound_statistic_rejects_a_law_that_is_not_a_distribution(monkeypatch):
    params = collision_params(3, 1, LN2, 4)
    for probs, message in (([1.2, -0.2, 0.0, 0.0], "negative probability"), ([0.3] * 4, "sum to 1.2")):
        monkeypatch.setattr(oracle, "collision_output_probabilities", lambda *args: np.array(probs))
        with pytest.raises(ValueError, match=message):
            lower_bound_statistic_distribution(1, params)
