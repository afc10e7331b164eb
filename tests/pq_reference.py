"""Brute-force references for the shuffle accountant's counting laws.

``exact_pq_laws`` builds the P and Q laws of ``ldpvec.amplification`` by
direct convolution over every (clone count, split) cell, with no window
and no closed form, so tests can check the divergence engine against it.
``reference_amplified_epsilon`` is the accountant's plain bisection, each
midpoint decided by its own divergence evaluation; the shipped accountant
must return the same float.  ``lower_bound_statistic_distribution`` builds
the law of the worst-case counting statistic of a real shuffled collision
batch, which criterion 10 checks against (P, Q): the clone reduction is
tight for that statistic.
"""

import math

import numpy as np

from ldpvec import amplification
from ldpvec.amplification import BRACKET_WIDTH, AmplificationQuery
from ldpvec.collision import collision_table_probs
from ldpvec.domain import MechanismParams


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


def reference_amplified_epsilon(n: int, epsilon: float, alpha: float, delta: float) -> float:
    """Smallest eps_c in [0, eps] whose reported delta is below ``delta``, by plain bisection.

    Every decision is one ``amplification.pq_divergence`` evaluation, looked up on the module so that a test can
    count them.
    """
    query = AmplificationQuery(n=n, epsilon=epsilon, alpha=alpha, delta=delta)
    mass = query.window.truncation_mass
    if mass > delta:
        raise ValueError(f"truncation mass {mass:.6g} exceeds delta {delta:.6g}: no eps_c can be certified")
    if amplification.pq_divergence(query, 0.0).reported_delta <= delta:
        return 0.0
    lo, hi = 0.0, epsilon
    for _ in range(64):
        if hi - lo <= BRACKET_WIDTH:
            break
        mid = 0.5 * (lo + hi)
        if amplification.pq_divergence(query, mid).reported_delta <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def lower_bound_statistic_distribution(
    n: int, params: MechanismParams, swapped: bool = False
) -> dict[tuple[int, int], float]:
    """Exact law of the two-sided count statistic over a shuffled batch.

    Builds the worst case: x1, x1' and the n-1 background inputs hash to
    pairwise-disjoint bucket blocks (possible when t >= 3s), each message
    is mapped to (1,0) / (0,1) / (0,0) according to whether it lands in
    x1's or x1''s block, and the n per-message laws are convolved into a
    {(count, count): probability} dict.

    With ``swapped`` the batch contains x1' instead of x1, which mirrors
    the statistic's coordinates.
    """
    s, t = params.s, params.t
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 3 * s:
        raise ValueError("worst-case construction needs t >= 3s")

    def block_law(hit_buckets: range) -> dict[tuple[int, int], float]:
        probs = collision_table_probs(np.array(hit_buckets), None, params)
        return {(1, 0): math.fsum(probs[:s]), (0, 1): math.fsum(probs[s : 2 * s]), (0, 0): math.fsum(probs[2 * s :])}

    first = block_law(range(s + 1, 2 * s + 1) if swapped else range(1, s + 1))
    background = block_law(range(2 * s + 1, 3 * s + 1))

    law = {(0, 0): 1.0}
    for part in [first] + [background] * (n - 1):
        nxt: dict[tuple[int, int], float] = {}
        for (u, v), p in law.items():
            for (du, dv), q in part.items():
                key = (u + du, v + dv)
                nxt[key] = nxt.get(key, 0.0) + p * q
        law = nxt
    if min(law.values()) < -1e-12:
        raise ValueError(f"negative probability {min(law.values())}")
    total = math.fsum(law.values())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return law
