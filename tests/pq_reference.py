"""Brute-force reference for the shuffle accountant's counting laws.

``exact_pq_laws`` builds the P and Q laws of ``ldpvec.amplification`` by
direct convolution over every (clone count, split) cell, with no window
and no closed form, so tests can check the divergence engine and the
oracle's counting statistic against it.
"""

import math


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
