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

Divergences are evaluated by double tail truncation: a C-window keeping
all but <= delta*1e-3 of the binomial mass and an A-window per retained
count; every gram of truncated probability is added to the reported
delta, so the result is a conservative upper bound that is exact when
the windows cover the full support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln
from scipy.stats import binom, norm

from .domain import exp_budget

_LN2 = math.log(2.0)


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
    if n < 1 or not 0.0 < delta < 1.0:
        raise ValueError("need n >= 1 and delta in (0,1)")
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


@dataclass(frozen=True)
class DivergenceResult:
    delta_forward: float
    delta_backward: float
    truncation_mass: float

    def __post_init__(self):
        if min(self.delta_forward, self.delta_backward, self.truncation_mass) < 0:
            raise ValueError("divergence components must be non-negative")

    @property
    def reported_delta(self) -> float:
        return max(self.delta_forward, self.delta_backward) + self.truncation_mass


def _binom_row(c: int, u: np.ndarray) -> np.ndarray:
    """pmf of Binomial(c, 1/2) at integer points u (zero outside 0..c)."""
    out = np.zeros(len(u))
    if c < 0:
        return out
    ok = (u >= 0) & (u <= c)
    uu = u[ok].astype(float)
    out[ok] = np.exp(gammaln(c + 1.0) - gammaln(uu + 1.0) - gammaln(c - uu + 1.0) - c * _LN2)
    return out


def pq_divergence(query: AmplificationQuery, epsilon_c: float) -> DivergenceResult:
    """Hockey-stick divergence D_{e^eps_c}(P || Q) and its reverse.

    Exact within the double tail truncation; the truncated probability
    mass is returned separately and belongs on top of the reported delta.
    """
    if epsilon_c < 0:
        raise ValueError("epsilon_c must be non-negative")
    n, eps = query.n, query.epsilon
    a = query.clone_prob
    eeps = math.exp(eps)
    r = max(0.0, 1.0 - a - eeps * a)
    tail = query.delta * 1e-3

    cdist = binom(n - 1, 2.0 * a)
    c_lo = max(0, int(cdist.ppf(tail / 2.0)) - 2)
    c_hi = min(n - 1, int(cdist.isf(tail / 2.0)) + 2)
    pc = cdist.pmf(np.arange(c_lo, c_hi + 1))

    # A-window half-width: normal-tail quantile for the per-c budget, plus
    # slack; the mass accounting below is exact regardless of the choice.
    kz = abs(norm.ppf(max(tail, 1e-300) / 4.0)) + 2.0
    w = kz * math.sqrt(max(c_hi, 1)) / 2.0 + 3.0

    ee_c = math.exp(epsilon_c)
    fwd = 0.0
    bwd = 0.0
    mass = 0.0
    for m in range(c_lo, c_hi + 2):
        u_lo = max(0, int(math.floor(m / 2.0 - w)))
        u_hi = m - u_lo
        U = np.arange(u_lo, u_hi + 1)
        pc_prev = pc[m - 1 - c_lo] if c_lo <= m - 1 <= c_hi else 0.0
        pc_cur = pc[m - c_lo] if c_lo <= m <= c_hi else 0.0
        row_prev = _binom_row(m - 1, np.arange(u_lo - 1, u_hi + 1))
        pa_prev_shift = row_prev[:-1]
        pa_prev = row_prev[1:]
        pa_cur = _binom_row(m, U)
        P = eeps * a * pc_prev * pa_prev_shift + a * pc_prev * pa_prev + r * pc_cur * pa_cur
        Q = a * pc_prev * pa_prev_shift + eeps * a * pc_prev * pa_prev + r * pc_cur * pa_cur
        fwd += float(np.maximum(0.0, P - ee_c * Q).sum())
        bwd += float(np.maximum(0.0, Q - ee_c * P).sum())
        mass += float(P.sum())
    trunc = max(0.0, 1.0 - mass)
    return DivergenceResult(delta_forward=fwd, delta_backward=bwd, truncation_mass=trunc)


def amplified_epsilon(n: int, epsilon: float, alpha: float, delta: float, tolerance: float = 1e-4) -> float:
    """Smallest eps_c in [0, eps] whose reported delta is below ``delta``.

    Binary search over the monotone divergence; at eps_c = eps the
    divergence vanishes, so the bracket always closes unless truncation
    alone exceeds delta, in which case eps is returned.
    """
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    query = AmplificationQuery(n=n, epsilon=epsilon, alpha=alpha, delta=delta)
    if pq_divergence(query, epsilon).reported_delta > delta:
        return epsilon
    if pq_divergence(query, 0.0).reported_delta <= delta:
        return 0.0
    lo, hi = 0.0, epsilon
    for _ in range(64):
        if hi - lo <= tolerance:
            break
        mid = 0.5 * (lo + hi)
        if pq_divergence(query, mid).reported_delta <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def exact_pq_laws(n: int, epsilon: float, alpha: float) -> tuple[dict, dict]:
    """Full P and Q laws over pairs of counts, by direct convolution.

    Intended for small n (guarded at 128); the support has O(n^2) points.
    """
    if n > 128:
        raise ValueError("exact law enumeration guarded at n <= 128")
    a = alpha / math.expm1(epsilon)
    eeps = math.exp(epsilon)
    r = max(0.0, 1.0 - a - eeps * a)
    deltas = (((1, 0), eeps * a), ((0, 1), a), ((0, 0), r))
    P: dict[tuple[int, int], float] = {}
    Q: dict[tuple[int, int], float] = {}
    for c in range(n):
        pcv = math.comb(n - 1, c) * (2.0 * a) ** c * (1.0 - 2.0 * a) ** (n - 1 - c)
        for av in range(c + 1):
            pav = math.comb(c, av) * 0.5**c
            base = pcv * pav
            for (d1, d2), pd in deltas:
                kp = (av + d1, c - av + d2)
                kq = (av + d2, c - av + d1)
                P[kp] = P.get(kp, 0.0) + base * pd
                Q[kq] = Q.get(kq, 0.0) + base * pd
    return P, Q
