"""Tight privacy-amplification accounting for shuffled randomizer batches.

The distinguishability of two shuffled batches differing in one input is
bounded by the hockey-stick divergence between a pair of two-dimensional
counting laws (P, Q): the n-1 background messages contribute clone
counts C ~ Binomial(n-1, 2a) split fairly as A ~ Binomial(C, 1/2), and
the distinguished message adds (D1, D2) distributed

    (1, 0) w.p. e^eps * a,   (0, 1) w.p. a,   (0, 0) otherwise,

with P = (A + D1, C - A + D2) and Q = (A + D2, C - A + D1).

``a`` is the clone probability.  The mechanism-level amplification
parameter alpha reported here (and in the mixture analysis) equals
(e^eps - 1) * a; for the single-hash collision randomizer with output
size t it is alpha = s(e^eps - 1)/(s e^eps + t - s).  The worst-case
two-sided counting statistic of a shuffled batch realises (P, Q)
exactly, so the bound is tight for that statistic; at small n a
shuffled batch of (seed, z) views can exceed it.  Any eps-LDP
randomizer admits the generic value
alpha = (e^eps - 1)/(e^eps + 1), i.e. a = 1/(e^eps + 1).

Divergences are evaluated in closed form per row.  A pair of counts
(u, v) lies on row m = u + v; with B(m, u) the Binomial(m, 1/2) pmf,
E = e^eps, c = e^eps_c, X = a pc(m-1), Z = r pc(m) and r the (0, 0)
weight, the bracket grouped by (E - c) and (1 - c) is

    P(u) - c Q(u) = 2 B(m, u) [top - slope (m - u)/m],
    top = (E - c) X + (1 - c) Z/2,   slope = (E - 1) X (1 + c),

with no product E c (whose expansion cancels from eps ~ 27 on) and no
overflow below eps = 709.78.  It increases with u, so the cells where
P exceeds cQ form the suffix u >= m + 1 - ceil(m top/slope) of the row,
whose share of the divergence is a sum of Binomial(., 1/2) upper tails.
Every row is kept whole (u = 0..m), so one evaluation is one ``betainc``
and one pmf array over the rows; everything that does not depend on
eps_c (the rows, pc and the truncation mass) is built once per query.
Swapping the two coordinates maps P to Q and every row onto itself, so
the reverse divergence equals the forward one.

The only truncation is a C-window keeping all but <= delta*1e-3 of the
Binomial(n-1, 2a) mass; its quantiles and tails are ``betainc`` values,
finite for any n.  The C-tail mass it excludes is added to the
reported delta, so the result is a conservative upper bound that is
exact inside the C-window.

``amplified_epsilon`` bisects, but one evaluation settles all midpoints
on its side (delta is non-increasing in eps_c), so it returns what the
bisection does; secant steps first settle most, at bisection points.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import betainc, gammaln, xlog1py, xlogy

from .collision import check_collision_domain, collision_omega
from .domain import FLOAT_MAX, check_budget, check_delta, check_size, exp_budget, is_real

# Width of the final bisection bracket of ``amplified_epsilon``; also, capped
# at eps, the floor on eps_c in the log2 amplification ratio.
BRACKET_WIDTH = 1e-4


def collision_alpha(s: int, epsilon: float, t: int) -> float:
    """Amplification parameter of the collision randomizers: s(e^eps-1)/Omega.

    The paired-bucket variant shares the normaliser, hence this alpha.  For
    both, the bound it gives holds for the counting statistic only; a real
    shuffled batch of (seed, z) views can exceed it at small n.
    """
    check_collision_domain(s, t)
    check_budget(epsilon)
    return s * math.expm1(epsilon) / collision_omega(s, epsilon, t)


def generic_clone_alpha(epsilon: float) -> float:
    """Amplification parameter available to every eps-LDP randomizer."""
    check_budget(epsilon)
    eeps = exp_budget(epsilon)
    return math.expm1(epsilon) / (eeps + 1.0)


def efmrtt_closed_form(epsilon: float, delta: float, n: int) -> float:
    """Closed-form amplified budget eps * sqrt(144 log(1/delta) / n).

    Stated validity conditions on (eps, n) are not re-checked here;
    callers should treat the value as indicative outside them.
    """
    check_size("n", n)
    check_budget(epsilon)
    check_delta(delta)
    if math.isinf(1.0 / delta):
        raise ValueError(f"1/delta overflows float arithmetic at delta={delta!r}")
    if n > FLOAT_MAX:  # n / float overflows
        raise ValueError(f"n must be at most {FLOAT_MAX:g}, got n={n}")
    return epsilon * math.sqrt(144.0 * math.log(1.0 / delta) / n)


@dataclass(frozen=True)
class AmplificationQuery:
    """One (n, eps, alpha, delta) instance for the divergence engine."""

    n: int
    epsilon: float
    alpha: float
    delta: float

    def __post_init__(self):
        check_size("n", self.n)
        if self.n >= 2**63:  # the C-window bisects range(n), whose length fits a ssize_t
            raise ValueError(f"n must lie in 1..2^63-1, got n={self.n!r}")
        check_budget(self.epsilon)
        check_delta(self.delta)
        amax = generic_clone_alpha(self.epsilon)
        if not (is_real(self.alpha) and 0.0 < self.alpha <= amax * (1.0 + 1e-12)):  # a bool is no alpha
            raise ValueError(f"alpha must be a real number in (0, {amax}], got alpha={self.alpha!r}")
        # Equivalent check that the (D1, D2) law is a distribution.
        if math.exp(self.epsilon) * self.clone_prob + self.clone_prob > 1.0 + 1e-12:
            raise ValueError("invalid alpha: clone mixture weights exceed 1")

    @property
    def clone_prob(self) -> float:
        return self.alpha / math.expm1(self.epsilon)

    @cached_property
    def window(self) -> QueryWindow:
        """The truncation window and its eps_c-free terms, built on first use."""
        return _query_window(self)


@dataclass(frozen=True)
class DivergenceResult:
    """The divergence inside the window (either direction) and the mass outside it."""

    delta: float
    truncation_mass: float

    def __post_init__(self):
        if not (self.delta >= 0 and self.truncation_mass >= 0):
            raise ValueError("divergence components must be non-negative")

    @property
    def reported_delta(self) -> float:
        return self.delta + self.truncation_mass


@dataclass(frozen=True)
class QueryWindow:
    """Rows m = c_lo..c_hi+1 of a query and their eps_c-free terms.

    ``x`` = a pc(m-1) and ``z`` = r pc(m) weight the row's two sources
    (a distinguished message counted, or not); each row spans u = 0..m.
    ``truncation_mass`` is the P-mass of the C-tails outside the window.
    """

    m: np.ndarray
    x: np.ndarray
    z: np.ndarray
    truncation_mass: float


def _binom_pmf(n, k: np.ndarray, p: float) -> np.ndarray:
    """Binomial(n, p) pmf at k (zero outside 0..n)."""
    n, k = np.broadcast_arrays(n, k)
    out = np.zeros(k.shape)
    ok = (k >= 0) & (k <= n)
    nn, kk = n[ok].astype(float), k[ok].astype(float)
    out[ok] = np.exp(gammaln(nn + 1.0) - gammaln(kk + 1.0) - gammaln(nn - kk + 1.0) + xlogy(kk, p) + xlog1py(nn - kk, -p))
    return out


def _binom_tail(k, n, p: float):
    """P(Binomial(n, p) > k) = I_p(k + 1, n - k) elementwise, for 0 <= p <= 1; finite for any n.

    k is clamped to -1..n, where betainc's limits I_p(0, n + 1) = 1 and I_p(n + 1, 0) = 0 are the tails.
    At p in {0, 1} (e^eps rounding to 1) it is the point mass at pn, where betainc's limits fail.
    """
    k = np.minimum(np.maximum(k, -1), n)
    if p in (0.0, 1.0):
        return (k < p * n) * 1.0
    return betainc(k + 1, n - k, p)


def _query_window(query: AmplificationQuery) -> QueryWindow:
    a = query.clone_prob
    eeps = math.exp(query.epsilon)
    r = max(0.0, 1.0 - a - eeps * a)
    tail = query.delta * 1e-3
    nc, pc_p = query.n - 1, 2.0 * a

    # C-window: the tail/2 quantiles of C, widened by 2 on each side.  P(C <= k) is the
    # upper tail P(nc - C > nc - k - 1) of nc - C ~ Binomial(nc, 1 - 2a).
    counts = range(nc + 1)
    c_lo = max(0, bisect_left(counts, True, key=lambda k: _binom_tail(nc - k - 1, nc, 1.0 - pc_p) >= tail / 2.0) - 2)
    c_hi = min(nc, bisect_left(counts, True, key=lambda k: _binom_tail(k, nc, pc_p) <= tail / 2.0) + 2)
    pc = _binom_pmf(nc, np.arange(c_lo, c_hi + 1), pc_p)
    m = np.arange(c_lo, c_hi + 2)
    x = a * np.concatenate(([0.0], pc))
    z = r * np.concatenate((pc, [0.0]))

    c_tails = _binom_tail(nc - c_lo, nc, 1.0 - pc_p) + _binom_tail(c_hi, nc, pc_p)
    return QueryWindow(m=m, x=x, z=z, truncation_mass=float(c_tails))


def pq_divergence(query: AmplificationQuery, epsilon_c: float) -> DivergenceResult:
    """Hockey-stick divergence D_{e^eps_c}(P || Q), which equals its reverse.

    Exact within the C-window; the C-tail mass outside it is returned
    separately and belongs on top of the reported delta.
    """
    if not (is_real(epsilon_c) and math.isfinite(epsilon_c) and epsilon_c >= 0):
        raise ValueError(f"epsilon_c must be finite and non-negative, got {epsilon_c!r}")
    win = query.window
    if epsilon_c >= query.epsilon:
        # P <= e^eps Q on every cell, so both divergences vanish.
        return DivergenceResult(delta=0.0, truncation_mass=win.truncation_mass)
    eeps, ee_c = math.exp(query.epsilon), math.exp(epsilon_c)
    top = (eeps - ee_c) * win.x + 0.5 * (1.0 - ee_c) * win.z
    slope = (eeps - 1.0) * win.x * (1.0 + ee_c)
    # P(u) > c Q(u) exactly for m - u < m top/slope; nowhere on rows with top <= 0, the bracket at u = m.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cut = win.m + 1 - np.ceil(win.m * top / slope)
    k = np.where(top > 0, np.clip(cut, 0, win.m + 1), win.m + 1).astype(np.int64)
    live = k <= win.m
    k, m, x, z = k[live], win.m[live], win.x[live], win.z[live]
    # P - cQ = X(E - c)(B(m-1, u-1) - B(m-1, u)) + (1 - c)((1 + E) X B(m-1, u) + Z B(m, u)).  Over u = k..m, with
    # G(c, j) = P(Binomial(c, 1/2) >= j), t = G(m-1, k) and b = B(m-1, k-1), the difference telescopes to b and
    # Pascal's rule gives G(m, k) = t + b/2.
    t, b = _binom_tail(k - 1, m - 1, 0.5), _binom_pmf(m - 1, k - 1, 0.5)
    row = (eeps - ee_c) * x * b + (1.0 - ee_c) * ((1.0 + eeps) * x * t + z * (t + 0.5 * b))
    # Q - cP on cell u equals P - cQ on cell m - u of the same row.
    return DivergenceResult(delta=float(np.maximum(row, 0.0).sum()), truncation_mass=win.truncation_mass)


def _bisection(epsilon: float, certified) -> tuple[float, float]:  # [0, eps] halved to BRACKET_WIDTH, down if certified
    lo, hi = 0.0, epsilon
    while hi - lo > BRACKET_WIDTH:  # eps <= 709.78 takes at most 23 halvings
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if certified(mid) else (mid, hi)
    return lo, hi


def amplified_epsilon(n: int, epsilon: float, alpha: float, delta: float) -> float:
    """Smallest eps_c in [0, eps] whose reported delta is below ``delta``.

    Bisection to a ``BRACKET_WIDTH`` bracket, whose upper end is returned; it closes at eps, where the divergence
    vanishes, unless truncation alone exceeds delta (``ValueError``).  Secant steps start from the Gaussian limit
    N(mu^2/2, mu^2), mu^2 = 2 alpha (e^eps - 1)/n, of the loss: delta ~ mu phi(x)/(1 + x^2) at mu x, mu/sqrt(2 pi) at 0.
    """
    query = AmplificationQuery(n=n, epsilon=epsilon, alpha=alpha, delta=delta)
    mass = query.window.truncation_mass
    if mass > delta:
        raise ValueError(f"truncation mass {mass:.6g} exceeds delta {delta:.6g}: no eps_c can be certified")
    log_mu = 0.5 * (math.log(2.0 * alpha) + math.log(math.expm1(epsilon)) - math.log(n))
    memo = {False: -1.0, True: epsilon}  # the largest eps_c evaluated above delta, the smallest at or below it
    trail = [(0.0, log_mu - math.log(delta * math.sqrt(2.0 * math.pi)))]  # (eps_c, log(divergence/delta)) evaluated

    def certified(eps_c: float) -> bool:
        if memo[False] < eps_c < memo[True]:
            result = pq_divergence(query, eps_c)
            memo[result.reported_delta <= delta] = eps_c
            trail.append((eps_c, math.log(max(result.delta, 1e-300)) - math.log(delta)))
        return eps_c >= memo[True]

    guess = math.exp(log_mu) * math.sqrt(max(0.0, 2.0 * (trail[0][1] - math.log1p(max(0.0, 2.0 * trail[0][1])))))
    while True:
        below, above = memo[False], memo[True]
        decided = []  # whether the memo decides each midpoint on the bisection's way to the guess
        lo, hi = _bisection(epsilon, lambda mid: decided.append(not below < mid < above) or mid >= guess)
        point = min((lo, hi), key=lambda e: (not below < e < above, abs(e - guess)))
        if below < 0.0 == lo:  # nearer 0 evaluations cost more: in [0, w], w first, then the target itself
            point = hi if hi < above and guess > 0.0 else max(guess, 0.0)
        saved = (below >= 0.0) * (1 + (decided + [False]).index(False))  # the bisection's evaluations settled so far
        if not below < point < above or len(trail) > 2 + saved:  # never two evaluations more than the bisection
            break
        certified(point)
        (e1, g1), (e2, g2) = trail[-2:]
        guess = e2 - g2 * (e2 - e1) / (g2 - g1) if g1 != g2 else -1.0
    return 0.0 if certified(0.0) else _bisection(epsilon, certified)[1]
