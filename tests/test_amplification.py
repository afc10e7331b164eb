import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import binom

from ldpvec import amplification
from ldpvec.amplification import (
    AmplificationQuery,
    DivergenceResult,
    amplified_epsilon,
    collision_alpha,
    efmrtt_closed_form,
    generic_clone_alpha,
    pq_divergence,
)
from ldpvec.collision import collision_optimal_t
from pq_reference import exact_pq_laws, reference_amplified_epsilon

LN2 = math.log(2)


def reference_window(query):
    """C-window edges, from scipy.stats quantiles."""
    tail = query.delta * 1e-3
    cdist = binom(query.n - 1, 2.0 * query.clone_prob)
    c_lo = max(0, int(cdist.ppf(tail / 2.0)) - 2)
    c_hi = min(query.n - 1, int(cdist.isf(tail / 2.0)) + 2)
    return c_lo, c_hi


def _half_binom_row(c, u):
    """pmf of Binomial(c, 1/2) at integer points u (zero outside 0..c)."""
    out = np.zeros(len(u))
    if c < 0:
        return out
    ok = (u >= 0) & (u <= c)
    uu = u[ok].astype(float)
    out[ok] = np.exp(gammaln(c + 1.0) - gammaln(uu + 1.0) - gammaln(c - uu + 1.0) - c * LN2)
    return out


def reference_pq_divergence(query, eps_c):
    """Cell-by-cell hockey-stick sums (forward, backward) over whole rows of the C-window."""
    eps, a = query.epsilon, query.clone_prob
    eeps = math.exp(eps)
    r = max(0.0, 1.0 - a - eeps * a)
    c_lo, c_hi = reference_window(query)
    pc = binom(query.n - 1, 2.0 * a).pmf(np.arange(c_lo, c_hi + 1))
    ee_c = math.exp(eps_c)
    fwd = bwd = 0.0
    for m in range(c_lo, c_hi + 2):
        pc_prev = pc[m - 1 - c_lo] if c_lo <= m - 1 <= c_hi else 0.0
        pc_cur = pc[m - c_lo] if c_lo <= m <= c_hi else 0.0
        row_prev = _half_binom_row(m - 1, np.arange(-1, m + 1))
        pa_cur = _half_binom_row(m, np.arange(0, m + 1))
        P = eeps * a * pc_prev * row_prev[:-1] + a * pc_prev * row_prev[1:] + r * pc_cur * pa_cur
        Q = a * pc_prev * row_prev[:-1] + eeps * a * pc_prev * row_prev[1:] + r * pc_cur * pa_cur
        fwd += float(np.maximum(0.0, P - ee_c * Q).sum())
        bwd += float(np.maximum(0.0, Q - ee_c * P).sum())
    return fwd, bwd


@st.composite
def queries(draw, max_n=5000):
    """Random accountant queries with alpha up to the generic clone value."""
    n = draw(st.integers(1, max_n))
    eps = draw(st.floats(0.05, 5.0))
    alpha = generic_clone_alpha(eps) * draw(st.floats(1e-4, 1.0))
    delta = draw(st.sampled_from((1e-3, 1e-6, 1e-9)))
    return AmplificationQuery(n=n, epsilon=eps, alpha=alpha, delta=delta)


def brute_force_divergence(n, eps, alpha, eps_c):
    """Independent full-support enumeration of the counting laws."""
    a = alpha / (math.exp(eps) - 1.0)
    eeps = math.exp(eps)
    deltas = (((1, 0), eeps * a), ((0, 1), a), ((0, 0), 1.0 - a - eeps * a))
    P, Q = {}, {}
    for c in range(n):
        pcv = math.comb(n - 1, c) * (2 * a) ** c * (1 - 2 * a) ** (n - 1 - c)
        for av in range(c + 1):
            w = pcv * math.comb(c, av) * 0.5**c
            for (d1, d2), pd in deltas:
                kp = (av + d1, c - av + d2)
                kq = (av + d2, c - av + d1)
                P[kp] = P.get(kp, 0.0) + w * pd
                Q[kq] = Q.get(kq, 0.0) + w * pd
    ec = math.exp(eps_c)
    fwd = sum(max(0.0, P[k] - ec * Q.get(k, 0.0)) for k in P)
    bwd = sum(max(0.0, Q[k] - ec * P.get(k, 0.0)) for k in Q)
    return fwd, bwd


def test_collision_alpha_examples():
    assert collision_alpha(4, 1.0, 17) == pytest.approx(0.28790, abs=1e-5)
    assert collision_alpha(1, LN2, 4) == pytest.approx(0.2)
    assert collision_alpha(4, 1.0, 10**9) < 1e-7
    with pytest.raises(ValueError):
        collision_alpha(4, 1.0, 4)


@pytest.mark.parametrize("t, message", [
    (4.5, "t must be an integer, got t=4.5"),  # returned 0.433, at a t no collision params accept
    ("5", "t must be an integer, got t='5'"),  # a TypeError
    (True, "t must be an integer, got t=True"),
    (2, "collision mechanism needs t > s, got t=2, s=2"),
])
def test_collision_alpha_takes_t_in_the_collision_domain(t, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        collision_alpha(2, 1.0, t)


def test_generic_clone_alpha_examples():
    assert generic_clone_alpha(math.log(3)) == pytest.approx(0.5)
    assert generic_clone_alpha(LN2) == pytest.approx(1 / 3)
    assert generic_clone_alpha(1e-9) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("n", [0, 2**63, 10**30])
def test_query_rejects_n_outside_the_window_range(n):
    message = "n must be >= 1, got n=0" if n == 0 else f"n must lie in 1..2^63-1, got n={n}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AmplificationQuery(n, 1.0, generic_clone_alpha(1.0), 1e-6)


@pytest.mark.parametrize("n", [2.5, 1.0, 1e5, True])
def test_query_and_closed_form_reject_a_float_or_bool_n(n):
    # efmrtt_closed_form returned 28.2 at n=2.5 and 44.6 at n=True; the query named the range for a type fault
    for call in (lambda: AmplificationQuery(n, 1.0, generic_clone_alpha(1.0), 1e-6), lambda: efmrtt_closed_form(1.0, 1e-6, n)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'n must be an integer, got n={n!r}')}$"):
            call()


def test_query_accepts_the_largest_n_without_building_its_window():
    assert AmplificationQuery(2**63 - 1, 1.0, generic_clone_alpha(1.0), 1e-6).n == 2**63 - 1


def test_efmrtt_examples():
    assert efmrtt_closed_form(1.0, 1e-6, 10**5) == pytest.approx(0.14105, abs=1e-5)
    assert efmrtt_closed_form(1.0, 1e-6, 10**12) < 1e-3
    assert efmrtt_closed_form(2.0, 1e-6, 10**5) == pytest.approx(2 * efmrtt_closed_form(1.0, 1e-6, 10**5))
    for epsilon in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match=f"^{re.escape(f'epsilon must be > 0, got epsilon={epsilon}')}$"):
            efmrtt_closed_form(epsilon, 1e-6, 100)
    # an int n above the largest float raised OverflowError from log(1/delta) / n
    assert efmrtt_closed_form(1.0, 1e-6, 10**308) > 0.0
    with pytest.raises(ValueError, match=r"n must be at most 1\.79769e\+308, got n=1000"):
        efmrtt_closed_form(1.0, 1e-6, 10**400)


def test_query_validation():
    AmplificationQuery(n=10, epsilon=1.0, alpha=0.2, delta=1e-6)
    with pytest.raises(ValueError):
        AmplificationQuery(n=10, epsilon=1.0, alpha=0.0, delta=1e-6)
    with pytest.raises(ValueError):
        # above the generic-clone ceiling: the Delta law degenerates
        AmplificationQuery(n=10, epsilon=1.0, alpha=0.5, delta=1e-6)
    with pytest.raises(ValueError):
        AmplificationQuery(n=10, epsilon=1.0, alpha=0.2, delta=1.5)


ALPHA_ENTRIES = {  # every library entry that takes an amplification parameter alpha, given one bad value
    "AmplificationQuery": lambda v: AmplificationQuery(100, 1.0, v, 1e-6),
    "amplified_epsilon": lambda v: amplified_epsilon(100, 1.0, v, 1e-6),
}


@pytest.mark.parametrize("value", [True, "0.1", None, 0, -0.1, 0.5, math.nan])
@pytest.mark.parametrize("entry", list(ALPHA_ENTRIES))
def test_every_alpha_entry_rejects_a_bool_string_or_value_outside_the_clone_range(entry, value):
    # a string or None ended in a TypeError, and a bool was read as alpha = 1
    message = f"alpha must be a real number in (0, {generic_clone_alpha(1.0)}], got alpha={value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ALPHA_ENTRIES[entry](value)


def test_n1_hand_values():
    query = AmplificationQuery(n=1, epsilon=LN2, alpha=1 / 3, delta=1e-6)
    r0 = pq_divergence(query, 0.0)
    assert r0.reported_delta == pytest.approx(1 / 3, abs=1e-15)
    r1 = pq_divergence(query, LN2)
    assert r1.delta == 0.0
    assert r1.truncation_mass < 1e-12


def test_engine_matches_brute_force():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 5))
        eps = float(rng.uniform(0.2, 2.5))
        alpha = float(rng.uniform(0.01, generic_clone_alpha(eps)))
        eps_c = float(rng.uniform(0.0, eps))
        query = AmplificationQuery(n=n, epsilon=eps, alpha=alpha, delta=1e-6)
        got = pq_divergence(query, eps_c)
        fwd, bwd = brute_force_divergence(n, eps, alpha, eps_c)
        # coordinate-swap symmetry: the one delta is both directions
        worst = max(worst, abs(got.delta - fwd), abs(got.delta - bwd))
        assert got.truncation_mass < 1e-12
    assert worst < 1e-12


def test_exact_pq_laws_are_distributions():
    P, Q = exact_pq_laws(4, 1.0, 0.3)
    assert sum(P.values()) == pytest.approx(1.0, abs=1e-12)
    assert sum(Q.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(Q[(v, u)] == pytest.approx(P[(u, v)], abs=1e-15) for (u, v) in P)


def test_engine_matches_exact_laws_at_moderate_n():
    # windows genuinely truncate here; reported delta must stay a tight
    # conservative envelope of the exact value
    n, eps, alpha = 100, 1.0, 0.25
    for eps_c in (0.0, 0.3, 0.8):
        exact = exact_divergence(n, eps, alpha, eps_c)
        got = pq_divergence(AmplificationQuery(n=n, epsilon=eps, alpha=alpha, delta=1e-6), eps_c)
        assert got.truncation_mass < 1e-9
        assert exact <= got.reported_delta <= exact + 1e-9


def exact_divergence(n, eps, alpha, eps_c):
    """The larger of the two hockey-stick divergences of ``exact_pq_laws`` at e^eps_c."""
    P, Q = exact_pq_laws(n, eps, alpha)
    ec = math.exp(eps_c)
    return max(
        sum(max(0.0, P[k] - ec * Q.get(k, 0.0)) for k in P),
        sum(max(0.0, Q[k] - ec * P.get(k, 0.0)) for k in Q),
    )


# collision's alpha needs s e^eps in a float, so at s = 2 it stops short of 709.5
LARGE_EPSILON_BOUNDS = [("clone", eps) for eps in (28, 33, 40, 60, 400, 705, 709.5)] + [
    ("collision", eps) for eps in (28, 33, 40, 60, 400, 705)
]


@pytest.mark.parametrize("delta", [1e-12, 1e-6])
@pytest.mark.parametrize("n", [3, 20])
@pytest.mark.parametrize("bound, epsilon", LARGE_EPSILON_BOUNDS)
def test_amplified_epsilon_is_sound_at_large_epsilon(bound, epsilon, n, delta):
    # expanded with the product e^eps e^eps_c, the bracket cancelled from eps ~ 27 and dropped live cells: the
    # clone bound certified 37.22 at n = 3, eps = 40, where the exact delta is 0.938, and from eps = 600 it raised
    alpha = generic_clone_alpha(epsilon) if bound == "clone" else collision_alpha(2, epsilon, collision_optimal_t(2, epsilon))
    eps_c = amplified_epsilon(n, epsilon, alpha, delta)
    assert 0.0 <= eps_c <= epsilon
    if eps_c < epsilon:
        assert exact_divergence(n, epsilon, alpha, eps_c) <= delta * (1.0 + 1e-9)


def test_divergence_zero_at_local_budget():
    for n in (1, 2, 4, 50):
        query = AmplificationQuery(n=n, epsilon=1.0, alpha=0.25, delta=1e-8)
        res = pq_divergence(query, 1.0)
        assert res.delta < 1e-15


def test_divergence_monotone_in_eps_c():
    query = AmplificationQuery(n=200, epsilon=1.5, alpha=0.3, delta=1e-6)
    grid = np.linspace(0.0, 1.5, 12)
    vals = [pq_divergence(query, e).reported_delta for e in grid]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_amplified_epsilon_single_message_no_gain():
    got = amplified_epsilon(1, LN2, 1 / 3, 1e-6)
    assert got == pytest.approx(LN2, abs=1e-4)


def test_amplified_epsilon_monotone_in_n_and_alpha():
    vals = [amplified_epsilon(n, 1.0, 0.2, 1e-6) for n in (100, 1000, 10_000)]
    assert vals[0] >= vals[1] >= vals[2]
    by_alpha = [amplified_epsilon(1000, 1.0, a, 1e-6) for a in (0.05, 0.15, 0.3)]
    assert by_alpha[0] <= by_alpha[1] + 1e-4 <= by_alpha[2] + 2e-4


def test_vacuous_delta_amplifies_to_zero():
    assert amplified_epsilon(100, 1.0, 0.2, 1.0 - 1e-12) == 0.0


def test_truncation_above_delta_is_an_error(monkeypatch):
    real = amplification._query_window
    monkeypatch.setattr(amplification, "_query_window", lambda q: dataclasses.replace(real(q), truncation_mass=1.0))
    with pytest.raises(ValueError, match=r"truncation mass 1 exceeds delta 1e-06"):
        amplified_epsilon(1000, 1.0, 0.2, 1e-6)


@pytest.mark.parametrize("epsilon", [1e-16, 1e-17])
def test_accountant_where_e_eps_rounds_to_one(epsilon):
    # e^eps == 1.0 makes the clone probability exactly 1/2, so C ~ Binomial(n - 1, 1); the C-tails
    # used to sum to 1 there and every query failed with "truncation mass 1 exceeds delta"
    for alpha in (collision_alpha(1, epsilon, collision_optimal_t(1, epsilon)), generic_clone_alpha(epsilon)):
        for n in (2, 1000):
            query = AmplificationQuery(n=n, epsilon=epsilon, alpha=alpha, delta=1e-6)
            assert query.clone_prob == 0.5
            assert query.window.truncation_mass == 0.0
            assert amplified_epsilon(n, epsilon, alpha, 1e-6) == 0.0


@pytest.mark.parametrize("n", [1_000, 100_000])
def test_accountant_at_tiny_delta(n):
    # down to delta = 1e-300 the windows, the truncation slack and the
    # search stay finite, and eps_c only shrinks as delta grows
    eps = 1.0
    alpha = collision_alpha(4, eps, 17)  # t = floor(4e + 7), the optimum
    previous = eps
    for delta in (1e-300, 1e-100, 1e-20, 1e-6):
        eps_c = amplified_epsilon(n, eps, alpha, delta)
        assert math.isfinite(eps_c) and 0.0 < eps_c <= previous
        previous = eps_c
        query = AmplificationQuery(n=n, epsilon=eps, alpha=alpha, delta=delta)
        assert query.window.truncation_mass <= delta * 1e-3
        assert pq_divergence(query, eps_c).reported_delta <= delta


def test_tightness_ordering_small_grid():
    n, delta = 2000, 1e-6
    for eps in (0.5, 1.0):
        s = 4
        t = max(s + 1, math.floor(s * math.exp(eps) + 2 * s - 1))
        ec_col = amplified_epsilon(n, eps, collision_alpha(s, eps, t), delta)
        ec_gen = amplified_epsilon(n, eps, generic_clone_alpha(eps), delta)
        ef = efmrtt_closed_form(eps, delta, n)
        assert ec_col <= ec_gen + 1e-4 <= ef + 1e-4


def test_divergence_result_validation():
    with pytest.raises(ValueError):
        DivergenceResult(delta=-0.1, truncation_mass=0.0)
    with pytest.raises(ValueError):
        DivergenceResult(delta=math.nan, truncation_mass=0.0)
    with pytest.raises(ValueError):
        DivergenceResult(delta=0.1, truncation_mass=-0.01)
    res = DivergenceResult(delta=0.2, truncation_mass=0.01)
    assert res.reported_delta == pytest.approx(0.21)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(queries(), st.floats(0.0, 1.0))
def test_divergence_matches_cell_reference(query, frac):
    eps_c = frac * query.epsilon
    got = pq_divergence(query, eps_c)
    fwd, bwd = reference_pq_divergence(query, eps_c)
    # swapping the coordinates maps P to Q and every row onto itself,
    # which is why the engine computes one delta for both directions
    assert got.delta == pytest.approx(fwd, rel=1e-9, abs=1e-18)
    assert got.delta == pytest.approx(bwd, rel=1e-9, abs=1e-18)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(queries(max_n=100_000), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
def test_divergence_non_increasing_in_eps_c(query, fracs):
    vals = [pq_divergence(query, f * query.epsilon).delta for f in sorted(fracs)]
    assert all(later <= earlier * (1.0 + 1e-12) for earlier, later in zip(vals, vals[1:]))


def test_window_edges_match_scipy_stats():
    for n in (1, 2, 10, 100, 1000, 10_000, 100_000, 1_000_000):
        for eps in (0.25, 1.0, 4.0):
            for frac in (1.0, 0.1, 1e-3):
                for delta in (1e-3, 1e-6, 1e-12):
                    query = AmplificationQuery(n=n, epsilon=eps, alpha=generic_clone_alpha(eps) * frac, delta=delta)
                    c_lo, c_hi = reference_window(query)
                    assert (query.window.m[0], query.window.m[-1]) == (c_lo, c_hi + 1)


# Rows are whole, so the two C-tails are the only mass left out, at
# delta = 0.5 (a narrow C-window) as well as at 1e-6.
@pytest.mark.parametrize("delta", [1e-6, 0.5])
@pytest.mark.parametrize("n", [10_000, 100_000])
def test_truncation_mass_is_the_sum_of_excluded_tails(n, delta):
    eps = 1.0
    query = AmplificationQuery(n=n, epsilon=eps, alpha=collision_alpha(4, eps, 17), delta=delta)
    c_lo, c_hi = reference_window(query)
    cdist = binom(n - 1, 2.0 * query.clone_prob)
    terms = [cdist.cdf(c_lo - 1), cdist.sf(c_hi)]
    assert query.window.truncation_mass == pytest.approx(math.fsum(terms), rel=1e-6)


@pytest.mark.parametrize("n", [2**31 - 1, 2**31 + 1])
def test_window_is_finite_on_both_sides_of_2_31(n):
    # scipy's bdtr/bdtrc return nan from 2^31 trials on; the window's betainc tails do not
    query = AmplificationQuery(n=n, epsilon=1.0, alpha=generic_clone_alpha(1.0), delta=1e-6)
    c_lo, c_hi = reference_window(query)
    assert (query.window.m[0], query.window.m[-1]) == (c_lo, c_hi + 1)
    cdist = binom(n - 1, 2.0 * query.clone_prob)
    assert query.window.truncation_mass == pytest.approx(cdist.cdf(c_lo - 1) + cdist.sf(c_hi), rel=1e-6)
    assert 0.0 < pq_divergence(query, 0.5).reported_delta <= 1e-6


@pytest.mark.parametrize("p", [1e-9, 0.3, 0.5])
def test_binom_tail_matches_scipy_stats(p):
    # P(Binomial(n, p) > k), elementwise and on scalars: k below 0, inside, at and above n, n on both sides of 2^31
    for n in (1, 7, 1000, 2**31 - 1, 2**31 + 1):
        mid = int(n * p)
        k = np.array([-3, -1, 0, 1, mid - 2 * math.isqrt(mid + 1), mid, mid + 3 * math.isqrt(mid + 1), n - 1, n, n + 2])
        want = binom.sf(k, n, p)
        got = amplification._binom_tail(k, np.full(len(k), n), p)
        assert got.shape == k.shape
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-300)
        for one, expected in zip(k.tolist(), want):
            assert float(amplification._binom_tail(one, n, p)) == pytest.approx(expected, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_binom_tail_of_a_point_mass(p):
    # Binomial(n, 0) is 0 and Binomial(n, 1) is n; betainc's limits gave P(X > -1) = 0 at p = 0 and P(X > n) = 1 at p = 1
    for n in (1, 7, 2**31 + 1):
        k = np.array([-3, -1, 0, 1, n - 1, n, n + 2])
        want = (k < 0 if p == 0.0 else k < n).astype(float)
        np.testing.assert_array_equal(amplification._binom_tail(k, np.full(len(k), n), p), want)
        for one, expected in zip(k.tolist(), want):
            assert float(amplification._binom_tail(one, n, p)) == expected


@pytest.mark.parametrize("eps_c", [math.nan, math.inf, -math.inf, -0.1, True, "0.5", None])
def test_divergence_rejects_non_finite_or_negative_eps_c(eps_c):
    # a bool was read as eps_c = 1, and a string or None ended in a TypeError
    query = AmplificationQuery(n=100, epsilon=1.0, alpha=0.2, delta=1e-6)
    with pytest.raises(ValueError, match=f"^{re.escape(f'epsilon_c must be finite and non-negative, got {eps_c!r}')}$"):
        pq_divergence(query, eps_c)


def test_divergence_vanishes_above_local_budget():
    query = AmplificationQuery(n=1000, epsilon=1.0, alpha=0.2, delta=1e-6)
    res = pq_divergence(query, 800.0)
    assert res.delta == 0.0
    assert res.truncation_mass == pq_divergence(query, 0.5).truncation_mass > 0.0


# Fixed before the memo's first run; it holds 0.0 returns, eps returns and interior ones for both bounds.
IDENTITY_GRID = [
    (n, epsilon, delta, s)
    for n in (1, 2, 5, 30, 300, 10_000, 100_000)
    for epsilon in (0.05, 0.5, 1.0, 3.0, 8.0)
    for delta in (1e-3, 1e-6, 1e-9)
    for s in (1, 4)
]


def bound_alpha(bound, s, epsilon):
    return collision_alpha(s, epsilon, collision_optimal_t(s, epsilon)) if bound == "collision" else generic_clone_alpha(epsilon)


@pytest.fixture
def evaluations(monkeypatch):
    """The eps_c of every divergence evaluated through ``amplification.pq_divergence``, in call order."""
    seen = []
    real = amplification.pq_divergence

    def record(query, epsilon_c):
        seen.append(epsilon_c)
        return real(query, epsilon_c)

    monkeypatch.setattr(amplification, "pq_divergence", record)
    return seen


@pytest.mark.parametrize("bound", ["collision", "clone"])
def test_the_memo_returns_the_plain_bisection_result(monkeypatch, evaluations, bound):
    outcomes = set()
    for n, epsilon, delta, s in IDENTITY_GRID:
        alpha = bound_alpha(bound, s, epsilon)
        expected = reference_amplified_epsilon(n, epsilon, alpha, delta)
        plain = len(evaluations)
        evaluations.clear()
        got = amplified_epsilon(n, epsilon, alpha, delta)
        assert got == expected, (n, epsilon, delta, s)
        # never more than two evaluations over the bisection, and the eps_c returned is one of them, so that its
        # own divergence certifies it, unless it is 0.0 (evaluated too) or eps (where the divergence vanishes)
        assert len(evaluations) <= plain + 2, (n, epsilon, delta, s, plain, evaluations)
        assert got in evaluations or got == epsilon, (n, epsilon, delta, s)
        evaluations.clear()
        outcomes.add("zero" if got == 0.0 else "eps" if got == epsilon else "interior")
    assert outcomes == {"zero", "eps", "interior"}
    real = amplification._query_window
    monkeypatch.setattr(amplification, "_query_window", lambda q: dataclasses.replace(real(q), truncation_mass=2 * q.delta))
    for search in (reference_amplified_epsilon, amplified_epsilon):
        with pytest.raises(ValueError, match=r"^truncation mass 2e-06 exceeds delta 1e-06: no eps_c can be certified$"):
            search(300, 1.0, bound_alpha(bound, 4, 1.0), 1e-6)
    assert evaluations == []


@pytest.mark.parametrize("bound", ["collision", "clone"])
@pytest.mark.parametrize("n", [10_000, 100_000])
def test_a_query_at_the_verify_shapes_makes_at_most_8_evaluations(evaluations, bound, n):
    # the plain bisection makes 15 here: eps_c = 0, then 14 halvings of [0, 1] down to 1e-4
    eps_c = amplified_epsilon(n, 1.0, bound_alpha(bound, 4, 1.0), 1e-6)
    assert len(evaluations) <= 8 and eps_c in evaluations, evaluations


def test_the_secant_steps_stop_two_evaluations_over_the_bisection(evaluations):
    # eps = 10 is far from the Gaussian limit the steps start from: left to run on, they made 24 evaluations here to
    # the bisection's 18
    alpha = generic_clone_alpha(10.0)
    expected = reference_amplified_epsilon(100_000, 10.0, alpha, 0.01)
    plain = len(evaluations)
    evaluations.clear()
    assert amplified_epsilon(100_000, 10.0, alpha, 0.01) == expected
    assert plain == 18 and len(evaluations) <= plain + 2
