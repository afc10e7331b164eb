import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import binom, norm

import ldpvec
from ldpvec.amplification import (
    AmplificationQuery,
    DivergenceResult,
    amplified_epsilon,
    collision_alpha,
    efmrtt_closed_form,
    generic_clone_alpha,
    pq_divergence,
)
from pq_reference import exact_pq_laws

LN2 = math.log(2)


def reference_window(query):
    """C-window edges and A-window half-width, from scipy.stats quantiles."""
    tail = query.delta * 1e-3
    cdist = binom(query.n - 1, 2.0 * query.clone_prob)
    c_lo = max(0, int(cdist.ppf(tail / 2.0)) - 2)
    c_hi = min(query.n - 1, int(cdist.isf(tail / 2.0)) + 2)
    kz = abs(norm.ppf(max(tail, 1e-300) / 4.0)) + 2.0
    return c_lo, c_hi, kz * math.sqrt(max(c_hi, 1)) / 2.0 + 3.0


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
    """Cell-by-cell hockey-stick sums (forward, backward) over the window."""
    eps, a = query.epsilon, query.clone_prob
    eeps = math.exp(eps)
    r = max(0.0, 1.0 - a - eeps * a)
    c_lo, c_hi, w = reference_window(query)
    pc = binom(query.n - 1, 2.0 * a).pmf(np.arange(c_lo, c_hi + 1))
    ee_c = math.exp(eps_c)
    fwd = bwd = 0.0
    for m in range(c_lo, c_hi + 2):
        u_lo = max(0, int(math.floor(m / 2.0 - w)))
        u_hi = m - u_lo
        pc_prev = pc[m - 1 - c_lo] if c_lo <= m - 1 <= c_hi else 0.0
        pc_cur = pc[m - c_lo] if c_lo <= m <= c_hi else 0.0
        row_prev = _half_binom_row(m - 1, np.arange(u_lo - 1, u_hi + 1))
        pa_cur = _half_binom_row(m, np.arange(u_lo, u_hi + 1))
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


def test_generic_clone_alpha_examples():
    assert generic_clone_alpha(math.log(3)) == pytest.approx(0.5)
    assert generic_clone_alpha(LN2) == pytest.approx(1 / 3)
    assert generic_clone_alpha(1e-9) == pytest.approx(0.0, abs=1e-9)


def test_efmrtt_examples():
    assert efmrtt_closed_form(1.0, 1e-6, 10**5) == pytest.approx(0.14105, abs=1e-5)
    assert efmrtt_closed_form(1.0, 1e-6, 10**12) < 1e-3
    assert efmrtt_closed_form(2.0, 1e-6, 10**5) == pytest.approx(2 * efmrtt_closed_form(1.0, 1e-6, 10**5))
    for epsilon in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="epsilon > 0"):
            efmrtt_closed_form(epsilon, 1e-6, 100)


def test_query_validation():
    AmplificationQuery(n=10, epsilon=1.0, alpha=0.2, delta=1e-6)
    with pytest.raises(ValueError):
        AmplificationQuery(n=10, epsilon=1.0, alpha=0.0, delta=1e-6)
    with pytest.raises(ValueError):
        # above the generic-clone ceiling: the Delta law degenerates
        AmplificationQuery(n=10, epsilon=1.0, alpha=0.5, delta=1e-6)
    with pytest.raises(ValueError):
        AmplificationQuery(n=10, epsilon=1.0, alpha=0.2, delta=1.5)


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
    P, Q = exact_pq_laws(n, eps, alpha)
    for eps_c in (0.0, 0.3, 0.8):
        ec = math.exp(eps_c)
        exact = max(
            sum(max(0.0, P[k] - ec * Q.get(k, 0.0)) for k in P),
            sum(max(0.0, Q[k] - ec * P.get(k, 0.0)) for k in Q),
        )
        got = pq_divergence(AmplificationQuery(n=n, epsilon=eps, alpha=alpha, delta=1e-6), eps_c)
        assert got.truncation_mass < 1e-9
        assert exact <= got.reported_delta <= exact + 1e-9


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
    # swapping the coordinates maps P to Q and the window onto itself,
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
                    c_lo, c_hi, w = reference_window(query)
                    win = query.window
                    assert (win.m[0], win.m[-1]) == (c_lo, c_hi + 1)
                    assert np.array_equal(win.u_lo, np.maximum(0, np.floor(win.m / 2.0 - w)))


# At delta = 0.5 the A-window tails weigh ~1e-5 of the mass, so the
# comparison reaches them as well as the C-tails.
@pytest.mark.parametrize("delta", [1e-6, 0.5])
@pytest.mark.parametrize("n", [10_000, 100_000])
def test_truncation_mass_is_the_sum_of_excluded_tails(n, delta):
    eps = 1.0
    query = AmplificationQuery(n=n, epsilon=eps, alpha=collision_alpha(4, eps, 17), delta=delta)
    a = query.clone_prob
    eeps = math.exp(eps)
    c_lo, c_hi, w = reference_window(query)
    cdist = binom(n - 1, 2.0 * a)
    c = np.arange(c_lo, c_hi + 1)
    pc = cdist.pmf(c)
    lo = np.maximum(0, np.floor(c / 2.0 - w))  # A-window of row c
    lo_next = np.maximum(0, np.floor((c + 1) / 2.0 - w))  # and of row c + 1

    def outside(lo, hi):
        return binom.cdf(lo - 1, c, 0.5) + binom.sf(hi, c, 0.5)

    terms = [cdist.cdf(c_lo - 1), cdist.sf(c_hi)]
    terms += list((1.0 - a - eeps * a) * pc * outside(lo, c - lo))  # D = (0, 0)
    terms += list(eeps * a * pc * outside(lo_next - 1, c - lo_next))  # D = (1, 0)
    terms += list(a * pc * outside(lo_next, c + 1 - lo_next))  # D = (0, 1)
    assert query.window.truncation_mass == pytest.approx(math.fsum(terms), rel=1e-6)


@pytest.mark.parametrize("eps_c", [math.nan, math.inf, -math.inf, -0.1])
def test_divergence_rejects_non_finite_or_negative_eps_c(eps_c):
    query = AmplificationQuery(n=100, epsilon=1.0, alpha=0.2, delta=1e-6)
    with pytest.raises(ValueError):
        pq_divergence(query, eps_c)


def test_divergence_vanishes_above_local_budget():
    query = AmplificationQuery(n=1000, epsilon=1.0, alpha=0.2, delta=1e-6)
    res = pq_divergence(query, 800.0)
    assert res.delta == 0.0
    assert res.truncation_mass == pq_divergence(query, 0.5).truncation_mass > 0.0


def test_cli_import_leaves_scipy_stats_out():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(ldpvec.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, ldpvec.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
