import math
import re
import time
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpvec import aggregate, oracle
from ldpvec.aggregate import MECHANISMS
from ldpvec.amplification import collision_alpha
from ldpvec.coco import coco_omega, coco_params, coco_predicted_mse, collision_rates
from ldpvec.collision import collision_params, collision_predicted_sum_variance
from ldpvec.domain import EventId, MechanismParams, TernaryVector, event_code, is_integer, pair_partner
from ldpvec.oracle import (
    _orbit_count,
    _uniform_tables,
    all_sparse_vectors,
    exact_estimator_moments,
    verify_ldp,
)
import pq_reference
from coco_reference import coco_weight_vector, event_buckets, uniform_coco_family
from exact_reference import read_points
from oracle_reference import (
    all_point_sets_privacy_loss,
    family_moments,
    family_privacy_loss,
    mixture_decompose,
    per_event_moments,
    uniform_collision_family,
)
from pq_reference import lower_bound_statistic_distribution

LN2 = math.log(2)
HASHED = sorted(name for name, mech in MECHANISMS.items() if mech.law is not None)
EPSILONS = (0.5, LN2, 2.0)  # criteria 1-2's grid
FULL_SCALE_EPSILONS = (0.001, 0.01, 0.1, 0.2, 0.4, 0.8, 1.0, 1.5, 2.0)  # ``ldpvec simulate --full-scale``'s grid


def _single_table_family(mapping, t=None):
    return [(dict(mapping), 1.0)]


def _row_law(mechanism, support, table, params):
    """The registered law of one input as one row: the buckets of the points it reads on a ``{point: bucket}`` table."""
    buckets = [table[q] for q in read_points(support, MECHANISMS[mechanism].paired)]
    return MECHANISMS[mechanism].law(np.array(buckets), np.array([v for _, v in support]), params)


def test_enumerate_collision_fixed_hash():
    params = collision_params(6, 2, LN2, 4)
    support = ((3, 1), (5, -1))
    table = {event_code(3, 1): 1, event_code(5, -1): 3}
    assert _row_law("collision", support, table, params) == pytest.approx([1 / 3, 1 / 6, 1 / 3, 1 / 6])


def test_enumerate_coco_single_entry():
    params = MechanismParams(d=4, s=1, epsilon=LN2, t=4)
    table = {2: 3}  # H1 = 1, H2 = +1
    probs = _row_law("coco", ((2, 1),), table, params)
    omega = 5.0
    hb, lb = event_buckets(table, 2, 4)
    w = (omega - 3.0) / 2.0
    assert probs[hb - 1] == pytest.approx(2 / omega)
    assert probs[lb - 1] == pytest.approx(1 / omega)
    for z in set(range(1, 5)) - {hb, lb}:
        assert probs[z - 1] == pytest.approx(w / omega)


def test_enumerate_zero_budget_uniform():
    params = collision_params(4, 1, 1e-12, 3)
    family = uniform_collision_family((event_code(1, 1),), 3)
    per_z = sum(w * _row_law("collision", ((1, 1),), table, params) for table, w in family)
    assert per_z == pytest.approx([1 / 3] * 3, abs=1e-9)


def _collision_hit_set_law(support, table, params):
    """Collision's law written out: e^eps/Omega on each of the k hit buckets, (Omega - k e^eps)/((t - k) Omega) elsewhere."""
    hit, eeps = {table[event_code(j, b)] for j, b in support}, math.exp(params.epsilon)
    omega, k = params.s * eeps + params.t - params.s, len(hit)
    return [eeps / omega if z in hit else (omega - k * eeps) / ((params.t - k) * omega) for z in range(1, params.t + 1)]


def _coco_order_average_law(support, table, params):
    """CoCo's law as the literal assignment loop averaged over every write order (``coco_reference``)."""
    orders = list(permutations(support))
    weights = sum(coco_weight_vector(order, table, params.epsilon, params.t).w for order in orders)
    return weights / (len(orders) * coco_omega(params.s, params.epsilon, params.t))


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("mechanism", HASHED)
def test_the_array_law_is_its_own_row_by_row_evaluation(mechanism, s):
    # one (tables, inputs, s) block of every representative table against the stack of one-row calls, bit for bit: a
    # law that reduces over a leading axis passes one row and fails the block; then every row against a reference
    paired, epsilon = MECHANISMS[mechanism].paired, (0.5, LN2, 2.0)[s - 1]
    if paired:  # s + 1 dims on t/2 = s + 1 slots, so inputs leave a slot free or share one
        params, points = MechanismParams(d=s + 1, s=s, epsilon=epsilon, t=2 * s + 2), tuple(range(1, s + 2))
    else:  # both events of s dims on the least t, s + 1
        params, points = collision_params(s, s, epsilon, s + 1), tuple(range(1, 2 * s + 1))
    supports = [x.support for x in all_sparse_vectors(params.d, s)]
    tables, _ = _uniform_tables(paired, len(points), params.t)
    reads = np.array([[points.index(q) for q in read_points(x, paired)] for x in supports])
    signs, law = np.array([[v for _, v in x] for x in supports]), MECHANISMS[mechanism].law
    block = law(tables[:, reads], signs, params)
    rows = np.array([[law(table[r], sign, params) for r, sign in zip(reads, signs)] for table in tables])
    assert block.shape == rows.shape == (len(tables), len(supports), params.t)
    assert list(map(float.hex, block.ravel().tolist())) == list(map(float.hex, rows.ravel().tolist()))
    reference = _coco_order_average_law if paired else _collision_hit_set_law
    for table, laws in zip(tables.tolist(), block):
        for support, got in zip(supports, laws):
            assert np.abs(got - reference(support, dict(zip(points, table)), params)).max() <= 1e-14


def test_the_coco_law_is_relabelling_equivariant_bit_for_bit():
    # swapping the pair (1, 1 + t/2) in a table swaps the law's columns 1 and 1 + t/2, and a flipped sign gives the law
    # of the mirrored bucket, both exactly: the oracle folds x's signs and certifies from one input on that.  With the
    # pair's weights written (a e^eps + g - a)/g and ((g - a) e^eps + a)/g, 121 of these 20,856 cells differed
    law, cells = MECHANISMS["coco"].law, 0
    for s in range(1, 5):
        plus = np.ones(s, dtype=np.int64)
        for t in range(2 * s + 2, 17, 2):
            tables, _ = _uniform_tables(True, s, t)
            half = t // 2
            swapped = np.where(tables == 1, 1 + half, np.where(tables == 1 + half, 1, tables))
            columns = np.r_[half, 1:half, 0, half + 1:t]  # z = 1 + t/2, 2..t/2, 1, t/2 + 2..t
            for epsilon in (0.001, 0.1, 0.5, LN2, 1.0, 2.0):
                params = MechanismParams(d=s, s=s, epsilon=epsilon, t=t)
                laws = law(tables, plus, params)
                assert np.array_equal(law(swapped, plus, params), laws[:, columns]), (s, t, epsilon)
                for signs in map(np.array, product((-1, 1), repeat=s)):
                    mirrored = np.where(signs < 0, pair_partner(tables, t), tables)
                    assert np.array_equal(law(tables, signs, params), law(mirrored, plus, params)), (s, t, signs)
                cells += laws.size
    assert cells == 20856


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
    got = family_privacy_loss("collision", params, all_sparse_vectors(3, 1), family)
    assert got == pytest.approx(verify_ldp("collision", params), abs=1e-12)


@pytest.mark.parametrize("t", [4, 7, 1])
def test_coco_oracle_rejects_t_outside_its_domain(t, monkeypatch):
    # t = 4 = 2s used to certify, odd t = 7 failed inside the law with "weights sum
    # to ...", and t = 1 raised a bare "math domain error"
    def unread(*args):
        raise AssertionError("a table was enumerated before the domain check")

    monkeypatch.setattr(oracle, "_uniform_tables", unread)
    params = MechanismParams(d=4, s=2, epsilon=1.0, t=t)
    x = TernaryVector(d=4, support=((1, 1), (3, -1)))
    message = rf"CoCo needs even t >= 2s\+2, got t={t}, s=2"
    with pytest.raises(ValueError, match=message):
        verify_ldp("coco", params)
    with pytest.raises(ValueError, match=message):
        exact_estimator_moments("coco", params, x, "mean", dim=1)
    with pytest.raises(ValueError, match=message):
        exact_estimator_moments("coco", params, x, "nonmissing", dim=2)


@pytest.mark.parametrize(
    "mechanism, params, x, probe, message",
    [
        ("collision", collision_params(3, 1, 1.0, 3), TernaryVector(d=3, support=((2, 1),)),
         {"estimator": "indicator", "event": EventId(9, 1)},
         r"index in 1\.\.3 and sign -1 or \+1, got EventId\(index=9, sign=1\)"),
        ("collision", collision_params(3, 1, 1.0, 3), TernaryVector(d=3, support=((2, 1),)),
         {"estimator": "indicator", "event": EventId(2, 0)},
         r"index in 1\.\.3 and sign -1 or \+1, got EventId\(index=2, sign=0\)"),
        ("collision", collision_params(3, 1, 1.0, 3), TernaryVector(d=5, support=((2, 1),)),
         {"estimator": "indicator", "event": EventId(1, 1)}, "x must be a TernaryVector with d=3 and s=1"),
        ("coco", MechanismParams(d=3, s=1, epsilon=1.0, t=4), TernaryVector(d=3, support=((1, 1), (2, -1))),
         {"estimator": "mean", "dim": 1}, "x must be a TernaryVector with d=3 and s=1"),
        ("coco", MechanismParams(d=3, s=1, epsilon=1.0, t=4), TernaryVector(d=3, support=((2, -1),)),
         {"estimator": "mean", "dim": 7}, r"dim must be an integer in 1\.\.3, got 7"),
        ("coco", MechanismParams(d=3, s=1, epsilon=1.0, t=4), TernaryVector(d=3, support=((2, -1),)),
         {"estimator": "nonmissing", "dim": 0}, r"dim must be an integer in 1\.\.3, got 0"),
        ("coco", MechanismParams(d=3, s=1, epsilon=1.0, t=4), TernaryVector(d=3, support=((2, -1),)),
         {"estimator": "mean", "dim": 1.5}, r"dim must be an integer in 1\.\.3, got 1\.5"),
        ("collision", collision_params(3, 1, 1.0, 3), TernaryVector(d=3, support=((2, 1),)),
         {"estimator": "indicator", "event": EventId(2, 1), "dim": 99}, "with an event and no dim"),
        ("coco", MechanismParams(d=3, s=1, epsilon=1.0, t=4), TernaryVector(d=3, support=((2, -1),)),
         {"estimator": "mean", "dim": 2, "event": EventId(99, 5)}, "with a dim and no event"),
        # a bool or float sign was read as the +-1 event
        ("collision", collision_params(3, 1, 1.0, 3), TernaryVector(d=3, support=((2, 1),)),
         {"estimator": "indicator", "event": EventId(1, True)},
         r"index in 1\.\.3 and sign -1 or \+1, got EventId\(index=1, sign=True\)"),
        ("collision", collision_params(3, 1, 1.0, 3), TernaryVector(d=3, support=((2, 1),)),
         {"estimator": "indicator", "event": EventId(1, 1.0)},
         r"index in 1\.\.3 and sign -1 or \+1, got EventId\(index=1, sign=1\.0\)"),
        ("collision", collision_params(3, 1, 1.0, 3), TernaryVector(d=3, support=((2, 1),)),
         {"estimator": "indicator", "event": EventId(1, -1.0)},
         r"index in 1\.\.3 and sign -1 or \+1, got EventId\(index=1, sign=-1\.0\)"),
    ],
)
def test_moments_reject_probes_outside_the_params(mechanism, params, x, probe, message, monkeypatch):
    # each probe used to return moments: (0.0, 6.73) for CoCo's dims 7, 0 and 1.5 alike
    def unread(*args):
        raise AssertionError("a table was enumerated before the probe check")

    monkeypatch.setattr(oracle, "_uniform_tables", unread)
    with pytest.raises(ValueError, match=message):
        exact_estimator_moments(mechanism, params, x, **probe)


@pytest.mark.parametrize("mechanism, params, probe, message", [
    ("collision", collision_params(4, 1, 1e-17, 2), {"estimator": "indicator", "event": EventId(1, 1)},
     r"degenerate parameters: e\^eps/Omega equals 1/t"),
    # coco_debias forms the mean first, so its denominator is the one reported for either estimator
    ("coco", coco_params(4, 1, 1e-17, t=4), {"estimator": "nonmissing", "dim": 2}, "degenerate rates: p_t equals p_o"),
])
def test_a_degenerate_denominator_raises_from_the_debias_before_any_table(mechanism, params, probe, message, monkeypatch):
    def unread(*args):
        raise AssertionError("a table was enumerated before the debias")

    monkeypatch.setattr(oracle, "_uniform_tables", unread)
    with pytest.raises(ValueError, match=message):
        exact_estimator_moments(mechanism, params, TernaryVector(d=4, support=((1, 1),)), **probe)


def test_oracle_checks_the_domain_once_per_call(monkeypatch):
    # at most once per call and once per parameter set: a value-equal copy is the same parameter set, and another t is
    # another one
    calls = []
    coco = aggregate.MECHANISMS["coco"]
    monkeypatch.setitem(aggregate.MECHANISMS, "coco", coco._replace(check=lambda params: calls.append((params.s, params.t))))
    params, x = MechanismParams(d=3, s=1, epsilon=LN2, t=4), TernaryVector(d=3, support=((2, -1),))
    verify_ldp("coco", params)
    exact_estimator_moments("coco", params, x, "mean", dim=2)
    assert calls == [(1, 4)]
    exact_estimator_moments("coco", MechanismParams(d=3, s=1, epsilon=LN2, t=4), x, "mean", dim=2)
    assert calls == [(1, 4)]
    exact_estimator_moments("coco", MechanismParams(d=3, s=1, epsilon=LN2, t=6), x, "mean", dim=2)
    assert calls == [(1, 4), (1, 6)]


def test_every_registered_hash_mechanism_has_an_exact_law():
    # the oracle reads each law's layout and domain check from its entry, and a hash mechanism registered without a law
    # would be counted per symbol as a baseline and go uncertified; every entry, a baseline's too, has a domain check
    assert HASHED == ["coco", "collision"]
    for name, mech in MECHANISMS.items():
        assert callable(mech.check), name


def _full_family(mechanism, d, t):
    """The full uniform family on every point an input of dimension d can read."""
    if mechanism == "collision":
        return uniform_collision_family(tuple(range(1, 2 * d + 1)), t)
    return uniform_coco_family(tuple(range(1, d + 1)), t)


# Both sides divide the same law floats and debias denominators, so only the rest of their operations differ.  The
# rounding analysis of ``test_exact_reference`` applied to those, with both sides' errors added and evaluated exactly
# over this domain, is largest at eps = 0.05 (CoCo, d = s = 3, t = 8, a non-missing mean): 2295 ulps of
# max(|want|, 1), that is 5.1e-13 where |want| <= 1.
FAMILY_ULPS = 2300


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_orbit_representatives_match_the_full_uniform_family(data):
    mechanism = data.draw(st.sampled_from(HASHED))
    d = data.draw(st.integers(1, 3))
    s = data.draw(st.integers(1, d))
    if mechanism == "collision":
        t = data.draw(st.integers(s + 1, 4))
        params = collision_params(d, s, data.draw(st.floats(0.05, 3.0)), t)
    else:
        t = data.draw(st.sampled_from(range(2 * s + 2, 9, 2)))
        params = MechanismParams(d=d, s=s, epsilon=data.draw(st.floats(0.05, 3.0)), t=t)
    family, inputs = _full_family(mechanism, d, t), all_sparse_vectors(d, s)
    assert verify_ldp(mechanism, params) == pytest.approx(family_privacy_loss(mechanism, params, inputs, family), abs=1e-12)
    x = data.draw(st.sampled_from(inputs))
    if mechanism == "collision":
        probe = {"estimator": "indicator", "event": EventId.from_code(data.draw(st.integers(1, 2 * d)))}
    else:
        probe = {"estimator": data.draw(st.sampled_from(("mean", "nonmissing"))), "dim": data.draw(st.integers(1, d))}
    got = exact_estimator_moments(mechanism, params, x, **probe)
    want = family_moments(mechanism, params, x, family, **probe)
    assert all(abs(g - w) <= FAMILY_ULPS * math.ulp(max(abs(w), 1.0)) for g, w in zip(got, want)), (got, want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mechanism=st.sampled_from(HASHED), n=st.integers(0, 6), t=st.integers(2, 9))
def test_orbit_count_and_weights(mechanism, n, t):
    paired = aggregate.MECHANISMS[mechanism].paired
    tables, weights = _uniform_tables(paired, n, t)
    assert tables.shape == (len(weights), n) and len(weights) == _orbit_count(n, t, paired)
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)


def test_exhaustive_guard_counts_orbit_representatives():
    # 8^6 tables on all six dims would exceed the guard; the representative's tables on its own dims do not
    params = MechanismParams(d=6, s=2, epsilon=1.0, t=8)
    assert verify_ldp("coco", params) <= 1.0 + 1e-9
    for d, t in ((5, 6), (6, 4)):
        assert verify_ldp("collision", collision_params(d, 2, 1.0, t)) == pytest.approx(1.0, abs=1e-9)
    assert verify_ldp("collision", collision_params(6, 3, 1.0, 6)) <= 1.0 + 1e-9
    # the pairwise check's 210 inputs times 4140 tables on 8-point sets, 869,400*8 cells, were over the guard; one
    # input's 15 tables on its 4 points are 120 cells
    assert verify_ldp("collision", collision_params(8, 4, 1.0, 8)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("epsilon", [0.5, LN2, 1.0])
def test_verify_ldp_at_the_default_t_for_three_nonzeros(epsilon):
    assert verify_ldp("collision", collision_params(6, 3, epsilon)) == pytest.approx(epsilon, abs=1e-9)
    # at d = 6 two CoCo inputs read up to 6 dims, and the pairwise check's 160 inputs times 1538 or 1539 tables times
    # t were over the guard; one input's tables on its 3 dims certify at any d
    for d in (5, 6, 512):
        assert verify_ldp("coco", coco_params(d, 3, epsilon)) <= epsilon + 1e-9


def test_verify_ldp_certifies_the_full_scale_shapes():
    # d = 512 at the default t: collision attains eps at s = 4 and 8, and CoCo stays within it at s = 4 and 8 (at s = 8,
    # 75,905 tables x t = 20 to 70 law cells)
    for epsilon in FULL_SCALE_EPSILONS:
        for s in (4, 8):
            assert verify_ldp("collision", collision_params(512, s, epsilon)) == pytest.approx(epsilon, abs=1e-9)
            assert verify_ldp("coco", coco_params(512, s, epsilon)) <= epsilon + 1e-9


@pytest.mark.parametrize("mechanism, params", [
    ("collision", collision_params(4, 2, LN2, 4)),
    ("collision", collision_params(6, 3, 1.0, 6)),
    ("coco", coco_params(4, 2, LN2)),
    ("coco", MechanismParams(d=3, s=3, epsilon=0.5, t=8)),
])
def test_the_law_is_called_once_per_parameter_set(mechanism, params, monkeypatch):
    # verify_ldp and the moments of every input and probe share one (tables, s) block of the representative's tables;
    # each of them used to evaluate it, the pairwise check made one call per point-set orbit (3 and 4 for collision
    # here), and CoCo's moments one per sign pattern (4 and 8)
    calls, mech = [], MECHANISMS[mechanism]
    monkeypatch.setitem(MECHANISMS, mechanism, mech._replace(law=lambda *args: calls.append(args[0].shape) or mech.law(*args)))
    verify_ldp(mechanism, params)
    for x in all_sparse_vectors(params.d, params.s):
        for estimator, _, probe in _probes_of(mechanism, params):
            exact_estimator_moments(mechanism, params, x, estimator, **probe)
    assert calls == [(_orbit_count(params.s, params.t, mech.paired), params.s)]


def _identity_grid():
    """Collision and CoCo instances with d <= 5: each (d, s) at two t, s = d included, plus criterion 1's grid."""
    epsilons = (0.5, LN2, 2.0)
    grid = []
    for d in range(1, 6):
        for s in range(1, d + 1):
            for k, (t_collision, t_coco) in enumerate(((s + 1, 2 * s + 2), (2 * s + 1, 2 * s + 4))):
                eps = epsilons[(d + s + k) % 3]
                grid += [("collision", collision_params(d, s, eps, t_collision)),
                         ("coco", MechanismParams(d=d, s=s, epsilon=eps, t=t_coco))]
    grid += [("collision", collision_params(4, 2, eps, t)) for t in (4, 5, 6) for eps in epsilons]
    grid += [("coco", MechanismParams(d=4, s=s, epsilon=eps, t=t)) for s in (1, 2) for t in (6, 8) for eps in epsilons]
    return grid


def test_the_certificate_bounds_the_pairwise_maximum():
    # every instance the pairwise reference runs within its own guard: the certificate is never below it, and equal to
    # it bit for bit except CoCo at s = d, where no pair attains both float extremes and it lies above by ulps
    checked = 0
    for mechanism, params in _identity_grid():
        try:
            want = all_point_sets_privacy_loss(mechanism, params)
        except ValueError:
            continue
        got = verify_ldp(mechanism, params)
        assert want <= got <= want + 4 * math.ulp(1.0), (mechanism, params)
        assert got == want or (mechanism, params.s) == ("coco", params.d), (mechanism, params)
        checked += 1
    assert checked >= 70


@pytest.mark.parametrize("mechanism, params_at", [
    ("collision", lambda d: collision_params(d, 2, LN2, 4)),
    ("coco", lambda d: coco_params(d, 2, LN2)),
])
def test_verify_ldp_does_not_depend_on_d(mechanism, params_at, monkeypatch):
    enumerated = []
    uniform_tables = oracle._uniform_tables
    monkeypatch.setattr(oracle, "_uniform_tables", lambda *args: enumerated.append(args[1]) or uniform_tables(*args))
    loss = {}
    for d in (4, 512):  # d = 2s, then the paper's d
        start = time.perf_counter()
        loss[d] = verify_ldp(mechanism, params_at(d))
        assert time.perf_counter() - start < 1.0
    assert loss[512] == loss[4]
    assert enumerated == [2, 2]  # one input's 2 points, at either d
    if mechanism == "collision":
        assert loss[512] == pytest.approx(LN2, abs=1e-9)
    else:
        assert loss[512] <= LN2 + 1e-9


@pytest.mark.parametrize("mechanism, params", [
    ("collision", collision_params(4, 2, LN2, 4)),
    ("coco", coco_params(4, 2, LN2)),
])
def test_verify_ldp_constructs_no_vector(mechanism, params, monkeypatch):
    # its inputs are plain supports, one batch row each: a vector's read_batch stays out of the loops
    def built(self):
        raise AssertionError("verify_ldp constructed a TernaryVector")

    want = verify_ldp(mechanism, params)
    monkeypatch.setattr(TernaryVector, "__post_init__", built)
    assert verify_ldp(mechanism, params) == want


def test_exhaustive_guard_counts_before_enumerating_inputs(monkeypatch):
    # CoCo at d = 512, s = 8 and t = 2^40: 75,905 orbit tables on 8 dims, times t cells.  When the inputs were listed
    # before the guard was counted, comb(64, 8) 2^8 = 1.1e12 of them never returned
    def unread(*args):
        raise AssertionError("a table or an input was enumerated before the size guard")

    monkeypatch.setattr(oracle, "_uniform_tables", unread)
    monkeypatch.setattr(oracle, "all_sparse_vectors", unread)
    with pytest.raises(ValueError, match=rf"^enumeration size 75905\*{2**40} exceeds guard {oracle._LAW_GUARD}$"):
        verify_ldp("coco", coco_params(512, 8, 0.001, t=2**40))


def test_the_points_an_input_reads_have_bitwise_equal_moments():
    # every point x reads is served the representative's first point, which stands for all of them because both laws
    # are equivariant under relabelling buckets and invariant under permuting x's points (hit and writer counts are
    # integers); when each point was enumerated on its own orbit rows, they agreed bit for bit on this grid
    rows = 0
    for mechanism, build, low in (("collision", collision_params, lambda s: s + 1), ("coco", coco_params, lambda s: 2 * s + 2)):
        for (d, s), epsilon, small in product(((4, 2), (5, 3), (6, 4), (8, 5), (64, 3), (5, 5), (4, 4)),
                                              (0.05, 0.5, LN2, 1.0, 2.0, 3.3), (False, True)):
            params = build(d, s, epsilon, low(s) if small else None)
            for sign, dims in ((1, range(d - s + 1, d + 1)), (-1, range(1, s + 1))):
                x = TernaryVector(d, tuple((j, sign) for j in dims))
                probes = ([{"estimator": "indicator", "event": EventId(j, sign)} for j in dims] if mechanism == "collision"
                          else [{"estimator": e, "dim": j} for e in ("mean", "nonmissing") for j in dims])
                got = {}
                for probe in probes:
                    moments = exact_estimator_moments(mechanism, params, x, **probe)
                    got.setdefault(probe["estimator"], set()).add(tuple(map(float.hex, moments)))
                assert all(len(values) == 1 for values in got.values()), (mechanism, params, sign, got)
                rows += len(probes)
    assert rows == 1872


def test_moments_guard_counts_cells_before_enumerating(monkeypatch):
    # the orbit guard counted tables, not t: one call's traced peak grew linearly with t (171.7 MB at t = 4e6), so
    # t = 2^40 asked for terabytes.  Orbit tables on the representative's 2 points: Bell(2) = 2
    def unread(*args):
        raise AssertionError("a table was enumerated before the size guard")

    monkeypatch.setattr(oracle, "_uniform_tables", unread)
    with pytest.raises(ValueError, match=rf"^enumeration size 2\*{2**40} exceeds guard {oracle._LAW_GUARD}$"):
        exact_estimator_moments(
            "collision", collision_params(4, 2, 1.0, 2**40), TernaryVector(4, ((1, 1), (2, 1))), "indicator",
            event=EventId(1, 1),
        )


@pytest.mark.parametrize("mechanism, build", [("collision", collision_params), ("coco", coco_params)])
def test_moments_guard_admits_the_full_scale_shapes(mechanism, build):
    # d = 512, s = 8 on the full-scale grid, CoCo at either target's t: the representative's s = 8 points per
    # enumeration, at most 75,905 tables x t = 100 cells
    paired = MECHANISMS[mechanism].paired
    for epsilon in FULL_SCALE_EPSILONS:
        for which in ("mean", "nonmissing") if paired else (None,):
            params = build(512, 8, epsilon, which=which) if paired else build(512, 8, epsilon)
            assert _orbit_count(8, params.t, paired) * params.t <= oracle._LAW_GUARD, (epsilon, which)


def test_full_scale_moments_sum_to_the_closed_forms():
    # d = 512, s = 8: the read points' and unread points' variances, summed over an input's points, are collision's
    # single-user sum variance on the full-scale grid and CoCo's single-user MSE for both targets at eps = 0.5
    x = TernaryVector(512, tuple((j, 1) for j in range(1, 9)))
    for epsilon in FULL_SCALE_EPSILONS:
        params = collision_params(512, 8, epsilon)
        read, unread = (exact_estimator_moments("collision", params, x, "indicator", event=EventId(1, sign))[1]
                        for sign in (1, -1))
        want = collision_predicted_sum_variance(512, 8, epsilon, params.t)
        assert 8 * read + (2 * 512 - 8) * unread == pytest.approx(want, rel=1e-12, abs=0), epsilon
    for which in ("mean", "nonmissing"):
        params = coco_params(512, 8, 0.5, which=which)
        read, unread = (exact_estimator_moments("coco", params, x, which, dim=j)[1] for j in (1, 9))
        want = coco_predicted_mse(512, 8, collision_rates(8, 0.5, params.t), which)
        assert 8 * read + (512 - 8) * unread == pytest.approx(want, rel=1e-12, abs=0), which


def test_exact_moments_collision_unbiased():
    params = collision_params(4, 2, LN2, 4)
    x = TernaryVector(d=4, support=((1, 1), (3, -1)))
    for code in range(1, 9):
        event = EventId.from_code(code)
        mean, var = exact_estimator_moments("collision", params, x, "indicator", event=event)
        target = 1.0 if event in x.event_set() else 0.0
        assert abs(mean - target) < 1e-12
        assert var > 0


def _moment_probes():
    """Every probe of criteria 1-2's grids, plus instances at s = d and at d > 2s."""
    collision_grid = [collision_params(4, 2, eps, t) for t in (4, 5, 6) for eps in EPSILONS]
    collision_grid += [collision_params(2, 2, LN2, 3), collision_params(3, 3, 2.0, 5), collision_params(7, 2, 0.5, 4)]
    coco_grid = [MechanismParams(d=4, s=s, epsilon=eps, t=t) for s in (1, 2) for t in (6, 8) for eps in EPSILONS]
    coco_grid += [MechanismParams(d=d, s=s, epsilon=eps, t=t) for d, s, eps, t in ((2, 2, LN2, 6), (3, 3, 2.0, 10), (7, 2, 0.5, 6))]
    for params in collision_grid:
        for x in all_sparse_vectors(params.d, params.s):
            for code in range(1, 2 * params.d + 1):
                yield "collision", params, x, {"estimator": "indicator", "event": EventId.from_code(code)}
    for params in coco_grid:
        for x in all_sparse_vectors(params.d, params.s):
            for j in range(1, params.d + 1):
                for estimator in ("mean", "nonmissing"):
                    yield "coco", params, x, {"estimator": estimator, "dim": j}


def test_moments_match_the_per_event_reference():
    # one enumeration per parameter set, on the representative's s points with an unread point's hits at 1/t, against
    # one per input and event on its points plus that event's
    checked = 0
    for mechanism, params, x, probe in _moment_probes():
        got = exact_estimator_moments(mechanism, params, x, **probe)
        assert got == pytest.approx(per_event_moments(mechanism, params, x, **probe), abs=1e-12), (params, x, probe)
        checked += 1
    assert checked > 3264


def _probes_of(mechanism, params):
    """Every probe of an input with the point it reads: each event code for collision, each dim and estimator for CoCo."""
    if mechanism == "collision":
        return [("indicator", code, {"event": EventId.from_code(code)}) for code in range(1, 2 * params.d + 1)]
    return [(name, j, {"dim": j}) for j in range(1, params.d + 1) for name in ("mean", "nonmissing")]


@pytest.mark.parametrize("mechanism, params", [
    ("collision", collision_params(4, 2, LN2, 4)),
    ("collision", collision_params(4, 2, 2.0, 3)),  # the least t, s + 1
    ("collision", collision_params(3, 3, 0.5, 4)),
    ("coco", MechanismParams(d=4, s=2, epsilon=LN2, t=6)),  # the least t, 2s + 2
    ("coco", MechanismParams(d=4, s=1, epsilon=2.0, t=8)),
    ("coco", MechanismParams(d=3, s=3, epsilon=0.5, t=8)),  # s = d: no free dim
])
def test_moments_enumerate_once_per_parameter_set(mechanism, params, monkeypatch):
    # one enumeration per input used to run, 24 at d=4, s=2, and then one per orbit, 2^s for CoCo, which kept x's signs
    paired = MECHANISMS[mechanism].paired
    calls = []
    uniform_tables = oracle._uniform_tables
    monkeypatch.setattr(oracle, "_uniform_tables", lambda *args: calls.append(args) or uniform_tables(*args))
    oracle._input_moments.cache_clear()
    for x in all_sparse_vectors(params.d, params.s):
        plus, signs = TernaryVector(params.d, tuple((j, 1) for j, _ in x.support)), dict(x.support)
        for estimator, point, probe in _probes_of(mechanism, params):
            got = exact_estimator_moments(mechanism, params, x, estimator, **probe)
            # bitwise the all-plus input's: a flipped CoCo dim negates the mean, and x's event (j, -1) is plus's (j, +1)
            if paired:
                mean, variance = exact_estimator_moments(mechanism, params, plus, estimator, **probe)
                want = (mean * signs.get(point, 1) if estimator == "mean" else mean, variance)
            else:
                event = probe["event"]
                want = exact_estimator_moments(
                    mechanism, params, plus, estimator, event=EventId(event.index, event.sign * signs.get(event.index, 1))
                )
            assert list(map(float.hex, got)) == list(map(float.hex, want)), (x, probe)
    assert len(calls) == 1
    assert all(n == params.s for _, n, _ in calls)  # the representative's s points
    assert oracle._input_moments.cache_info().currsize == 1


@pytest.mark.parametrize("d, s", [(2.5, 1), (3, 1.0), (True, 1), (3, 4), (-1, 1), (4, 0), (0, 0)])
def test_all_sparse_vectors_rejects_sizes_outside_its_domain(d, s):
    # (2.5, 1) raised a TypeError, and (3, 4) and (-1, 1) returned no inputs
    integers = is_integer(d) and is_integer(s)
    message = f"need 1 <= s <= d, got s={s}, d={d}" if integers else f"d and s must be integers, got d={d!r}, s={s!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        all_sparse_vectors(d, s)


@pytest.mark.parametrize("mechanism, params, x, probe", [
    ("collision", collision_params(4, 2, LN2, 4), TernaryVector(d=4, support=((1, 1), (3, -1))),
     {"estimator": "indicator", "event": EventId(1, 1)}),
    ("coco", MechanismParams(d=4, s=2, epsilon=LN2, t=6), TernaryVector(d=4, support=((1, 1), (3, -1))),
     {"estimator": "mean", "dim": 1}),
])
def test_the_moment_memo_follows_a_replaced_law(mechanism, params, x, probe, monkeypatch):
    # the memo is keyed on the registered entry, so a replaced entry is never served the old law's moments
    before = exact_estimator_moments(mechanism, params, x, **probe)
    mech = MECHANISMS[mechanism]
    monkeypatch.setitem(MECHANISMS, mechanism, mech._replace(law=lambda *args: np.roll(mech.law(*args), 1, axis=-1)))
    assert exact_estimator_moments(mechanism, params, x, **probe) != before
    monkeypatch.undo()
    assert exact_estimator_moments(mechanism, params, x, **probe) == before


@pytest.mark.parametrize("mechanism", ["collision", "coco"])
@pytest.mark.parametrize("s, t", [(2, 6), (3, 2048)])
def test_value_equal_params_of_every_field_type_share_one_memo_entry(mechanism, s, t, monkeypatch):
    # the memo is keyed by value, which is sound as every field type the params admit gives one parameter set the same
    # check and the same numbers: one entry, one check and one law call, and each params' values bit for bit its own
    # cold computation's.  At s=3, t=2048 a numpy int32 t's family size (t^s) overflowed to 0: its moments were nan
    sizes = lambda v: (v, np.int64(v), np.int32(v))
    variants = [MechanismParams(d, s_, epsilon, t_)
                for d, s_, t_, epsilon in product(sizes(4), sizes(s), sizes(t), (1.0, 1, np.float64(1.0)))]
    inputs, probes = all_sparse_vectors(4, s), _probes_of(mechanism, variants[0])
    calls, mech = [], MECHANISMS[mechanism]
    monkeypatch.setitem(MECHANISMS, mechanism, mech._replace(
        check=lambda *args: calls.append("check") or mech.check(*args),
        law=lambda *args: calls.append("law") or mech.law(*args),
    ))

    def values(params):
        moments = [exact_estimator_moments(mechanism, params, x, estimator, **probe)
                   for x in inputs for estimator, _, probe in probes]
        return list(map(float.hex, [verify_ldp(mechanism, params), *(v for pair in moments for v in pair)]))

    oracle._input_moments.cache_clear()
    shared = [values(params) for params in variants]
    assert calls == ["check", "law"]
    assert oracle._input_moments.cache_info().misses == 1
    for params, got in zip(variants, shared):
        oracle._input_moments.cache_clear()
        assert values(params) == got, params
    for real in (6.0, np.float64(6.0), True):
        with pytest.raises(ValueError, match=f"^{re.escape(f't must be an integer in 1..2^63-1, got {real}')}$"):
            MechanismParams(4, 2, 1.0, real)


def test_all_sparse_vectors_checks_before_its_memo():
    assert all_sparse_vectors(3, 1) == all_sparse_vectors(3, 1)
    assert all_sparse_vectors(3, 1) is not all_sparse_vectors(3, 1)  # a fresh list each call
    with pytest.raises(ValueError, match=r"^d and s must be integers, got d=3, s=1\.0$"):
        all_sparse_vectors(3, 1.0)


def test_an_entry_replaced_between_calls_is_read(monkeypatch):
    params, x = MechanismParams(d=4, s=1, epsilon=LN2, t=6), TernaryVector(d=4, support=((2, -1),))
    verify_ldp("coco", params)
    exact_estimator_moments("coco", params, x, "mean", dim=2)

    def refuse(params):
        raise ValueError("replaced check")

    monkeypatch.setitem(MECHANISMS, "coco", MECHANISMS["coco"]._replace(check=refuse))
    with pytest.raises(ValueError, match="^replaced check$"):
        verify_ldp("coco", params)
    with pytest.raises(ValueError, match="^replaced check$"):
        exact_estimator_moments("coco", params, x, "mean", dim=2)


@pytest.mark.parametrize("mechanism, params", [
    ("collision", collision_params(4, 2, LN2, 4)),
    ("coco", MechanismParams(d=4, s=2, epsilon=LN2, t=6)),
])
def test_a_probe_after_the_first_is_a_lookup(mechanism, params, monkeypatch):
    # the domain check and the law run for the first probe of a parameter set; each later probe runs its own checks
    # and reads the memo
    calls, mech = [], MECHANISMS[mechanism]
    monkeypatch.setitem(MECHANISMS, mechanism, mech._replace(
        check=lambda *args: calls.append("check") or mech.check(*args),
        law=lambda *args: calls.append("law") or mech.law(*args),
    ))
    inputs, probes = all_sparse_vectors(params.d, params.s), _probes_of(mechanism, params)
    estimator, _, probe = probes[0]
    first = exact_estimator_moments(mechanism, params, inputs[0], estimator, **probe)
    assert calls == ["check", "law"]
    for x in inputs:
        for estimator, _, probe in probes:
            exact_estimator_moments(mechanism, params, x, estimator, **probe)
    assert calls == ["check", "law"]
    assert exact_estimator_moments(mechanism, params, inputs[0], probes[0][0], **probes[0][2]) == first


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
    return tuple(np.concatenate([w * _row_law("collision", v.support, table, params) for table, w in family])
                 for v in (x, xp))


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
        codes = tuple(dict.fromkeys(event_code(j, b) for j, b in x.support + xp.support))
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
        monkeypatch.setattr(pq_reference, "collision_table_probs", lambda *args: np.array(probs))
        with pytest.raises(ValueError, match=message):
            lower_bound_statistic_distribution(1, params)
