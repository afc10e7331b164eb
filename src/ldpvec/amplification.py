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
size t it is alpha = s(e^eps - 1)/(s e^eps + t - s), and the worst-case
counting statistic of an actual shuffled batch realises (P, Q) exactly,
making the bound tight.  Any eps-LDP randomizer admits the generic value
alpha = (e^eps - 1)/(e^eps + 1), i.e. a = 1/(e^eps + 1).

Divergences are evaluated in closed form per row.  A pair of counts
(u, v) lies on row m = u + v; with B(m, u) the Binomial(m, 1/2) pmf,
E = e^eps, c = e^eps_c, X = a pc(m-1), Z = r pc(m) and r the (0, 0)
weight,

    P(u) - c Q(u) = B(m, u) [X (2u/m)(E - 1)(1 + c) + 2X(1 - cE) + Z(1 - c)].

The bracket increases with u, so the cells where P exceeds cQ form a
suffix u >= k(m) of the row with k in closed form, and the row's share
of the divergence is a sum of Binomial(., 1/2) tail differences at k and
at the window edge.  One evaluation is one ``betainc`` and one pmf array
over the rows; everything that does not depend on eps_c (the windows,
their edge tails, pc and the truncation mass) is built once per query.
Swapping the two coordinates maps P to Q and every row window onto
itself, so the reverse divergence equals the forward one.

The windows are a C-window keeping all but <= delta*1e-3 of the
Binomial(n-1, 2a) mass and a symmetric A-window per row.  The
probability they exclude is summed from its binomial tails and added to
the reported delta, so the result is a conservative upper bound that is
exact when the windows cover the full support.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import bdtr, bdtrc, betainc, gammaln, ndtri, xlog1py, xlogy

from .domain import exp_budget

# Width of the final bisection bracket of ``amplified_epsilon``; also the
# floor on eps_c in the log2 amplification ratio.
BRACKET_WIDTH = 1e-4


def collision_alpha(s: int, epsilon: float, t: int) -> float:
    """Amplification parameter of the collision randomizers: s(e^eps-1)/Omega.

    Valid for the paired-bucket variant as well, whose probability design
    shares the same normaliser.
    """
    if t <= s:
        raise ValueError("need t > s")
    if s < 1 or not epsilon > 0:
        raise ValueError("need s >= 1 and epsilon > 0")
    omega = exp_budget(epsilon, s) + t - s
    return s * math.expm1(epsilon) / omega


def generic_clone_alpha(epsilon: float) -> float:
    """Amplification parameter available to every eps-LDP randomizer."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    eeps = exp_budget(epsilon)
    return math.expm1(epsilon) / (eeps + 1.0)


def efmrtt_closed_form(epsilon: float, delta: float, n: int) -> float:
    """Closed-form amplified budget eps * sqrt(144 log(1/delta) / n).

    Stated validity conditions on (eps, n) are not re-checked here;
    callers should treat the value as indicative outside them.
    """
    if n < 1 or not epsilon > 0 or not 0.0 < delta < 1.0:
        raise ValueError("need n >= 1, epsilon > 0 and delta in (0,1)")
    return epsilon * math.sqrt(144.0 * math.log(1.0 / delta) / n)


@dataclass(frozen=True)
class AmplificationQuery:
    """One (n, eps, alpha, delta) instance for the divergence engine."""

    n: int
    epsilon: float
    alpha: float
    delta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0,1)")
        amax = generic_clone_alpha(self.epsilon)
        if not 0.0 < self.alpha <= amax * (1.0 + 1e-12):
            raise ValueError(f"alpha must lie in (0, {amax}], got {self.alpha}")
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
    (a distinguished message counted, or not); [u_lo, u_hi] is its
    A-window; ``tail_prev_hi``, ``tail_prev_out`` and ``tail_out`` are the
    upper tails G(m-1, u_hi), G(m-1, u_hi+1) and G(m, u_hi+1), with G(c, k)
    = P(Binomial(c, 1/2) >= k).  ``truncation_mass`` is the P-mass
    outside the window.
    """

    m: np.ndarray
    x: np.ndarray
    z: np.ndarray
    u_lo: np.ndarray
    u_hi: np.ndarray
    tail_prev_hi: np.ndarray
    tail_prev_out: np.ndarray
    tail_out: np.ndarray
    truncation_mass: float


def _half_tail(c: np.ndarray, k: np.ndarray) -> np.ndarray:
    """G(c, k) = P(Binomial(c, 1/2) >= k): 1 for k <= 0, 0 for k > c."""
    out = (k <= 0).astype(float)
    inner = (k > 0) & (k <= c)
    out[inner] = betainc(k[inner], c[inner] - k[inner] + 1.0, 0.5)
    return out


def _binom_pmf(n, k: np.ndarray, p: float) -> np.ndarray:
    """Binomial(n, p) pmf at k (zero outside 0..n)."""
    n, k = np.broadcast_arrays(n, k)
    out = np.zeros(k.shape)
    ok = (k >= 0) & (k <= n)
    nn, kk = n[ok].astype(float), k[ok].astype(float)
    out[ok] = np.exp(gammaln(nn + 1.0) - gammaln(kk + 1.0) - gammaln(nn - kk + 1.0) + xlogy(kk, p) + xlog1py(nn - kk, -p))
    return out


def _query_window(query: AmplificationQuery) -> QueryWindow:
    a = query.clone_prob
    eeps = math.exp(query.epsilon)
    r = max(0.0, 1.0 - a - eeps * a)
    tail = query.delta * 1e-3
    nc, pc_p = query.n - 1, 2.0 * a

    # C-window: the tail/2 quantiles of C, widened by 2 on each side.
    counts = range(nc + 1)
    c_lo = max(0, bisect_left(counts, True, key=lambda k: bdtr(k, nc, pc_p) >= tail / 2.0) - 2)
    c_hi = min(nc, bisect_left(counts, True, key=lambda k: bdtrc(k, nc, pc_p) <= tail / 2.0) + 2)
    pc = _binom_pmf(nc, np.arange(c_lo, c_hi + 1), pc_p)
    m = np.arange(c_lo, c_hi + 2)
    x = a * np.concatenate(([0.0], pc))
    z = r * np.concatenate((pc, [0.0]))

    # A-window half-width: normal-tail quantile for the per-c budget, plus
    # slack; the mass accounting below is exact regardless of the choice.
    kz = abs(float(ndtri(max(tail, 1e-300) / 4.0))) + 2.0
    w = kz * math.sqrt(max(c_hi, 1)) / 2.0 + 3.0
    u_lo = np.maximum(0.0, np.floor(m / 2.0 - w)).astype(np.int64)
    u_hi = m - u_lo
    tail_prev_hi = _half_tail(m - 1, u_hi)
    tail_prev_out = _half_tail(m - 1, u_hi + 1)
    tail_out = _half_tail(m, u_hi + 1)

    # Excluded mass: the C-tails, then per row the A-tails of each source,
    # both sides at once since every A-window is symmetric.
    c_tails = (bdtr(c_lo - 1, nc, pc_p) if c_lo > 0 else 0.0) + (bdtrc(c_hi, nc, pc_p) if c_hi < nc else 0.0)
    a_tails = 2.0 * z * tail_out + (eeps + 1.0) * x * (tail_prev_hi + tail_prev_out)
    return QueryWindow(
        m=m, x=x, z=z, u_lo=u_lo, u_hi=u_hi,
        tail_prev_hi=tail_prev_hi, tail_prev_out=tail_prev_out, tail_out=tail_out,
        truncation_mass=float(c_tails + a_tails.sum()),
    )


def pq_divergence(query: AmplificationQuery, epsilon_c: float) -> DivergenceResult:
    """Hockey-stick divergence D_{e^eps_c}(P || Q), which equals its reverse.

    Exact within the double tail truncation; the truncated probability
    mass is returned separately and belongs on top of the reported delta.
    """
    if not (math.isfinite(epsilon_c) and epsilon_c >= 0):
        raise ValueError(f"epsilon_c must be finite and non-negative, got {epsilon_c!r}")
    win = query.window
    if epsilon_c >= query.epsilon:
        # P <= e^eps Q on every cell, so both divergences vanish.
        return DivergenceResult(delta=0.0, truncation_mass=win.truncation_mass)
    eeps, ee_c = math.exp(query.epsilon), math.exp(epsilon_c)
    slope = 2.0 * (eeps - 1.0) * (1.0 + ee_c) * win.x
    level = 2.0 * (1.0 - ee_c * eeps) * win.x + (1.0 - ee_c) * win.z
    # P(u) > c Q(u) exactly for u > -m level / slope; nowhere on rows with
    # slope 0, where the bracket is Z(1 - c) <= 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = np.floor(-win.m * level / slope) + 1.0
    k = np.where(slope > 0, np.clip(cut, win.u_lo, win.u_hi + 1), win.u_hi + 1).astype(np.int64)
    live = k <= win.u_hi
    k, m, x, z = k[live], win.m[live], win.x[live], win.z[live]
    # Sum over u = k..u_hi of P - cQ = X(E - c) B(m-1, u-1) + X(1 - cE) B(m-1, u)
    # + Z(1 - c) B(m, u), by Pascal's rule: G(m-1, k-1) = t + b, G(m, k) = t + b/2.
    t = _half_tail(m - 1, k)
    b = _binom_pmf(m - 1, k - 1, 0.5)
    row = (
        (eeps - ee_c) * x * (t + b - win.tail_prev_hi[live])
        + (1.0 - ee_c * eeps) * x * (t - win.tail_prev_out[live])
        + (1.0 - ee_c) * z * (t + 0.5 * b - win.tail_out[live])
    )
    # Q - cP on cell u equals P - cQ on cell m - u of the same window.
    return DivergenceResult(delta=float(np.maximum(row, 0.0).sum()), truncation_mass=win.truncation_mass)


def amplified_epsilon(n: int, epsilon: float, alpha: float, delta: float) -> float:
    """Smallest eps_c in [0, eps] whose reported delta is below ``delta``.

    Binary search over the monotone divergence, stopped once the bracket
    is at most ``BRACKET_WIDTH`` wide; its upper end is returned.  At
    eps_c = eps the divergence vanishes, so the bracket always closes
    unless truncation alone exceeds delta, in which case eps is returned.
    """
    query = AmplificationQuery(n=n, epsilon=epsilon, alpha=alpha, delta=delta)
    if pq_divergence(query, epsilon).reported_delta > delta:
        return epsilon
    if pq_divergence(query, 0.0).reported_delta <= delta:
        return 0.0
    lo, hi = 0.0, epsilon
    for _ in range(64):
        if hi - lo <= BRACKET_WIDTH:
            break
        mid = 0.5 * (lo + hi)
        if pq_divergence(query, mid).reported_delta <= delta:
            hi = mid
        else:
            lo = mid
    return hi
