"""Exact rational values of the oracle's laws, estimator moments and privacy loss.

At epsilon = ln 2, e^eps is exactly 2 in floats as well
(``math.exp(math.log(2)) == 2.0``), so every quantity the oracle computes
is a rational function of integers: the laws, the orbit weights, CoCo's
collision rates and each estimator's moments.  This module computes them
in ``fractions.Fraction`` from the formulas, and imports nothing from
``ldpvec``, so a test can bound the float oracle's rounding error against
exact values rather than against another float enumeration.

* ``orbit_tables``: one hash table per bucket-relabelling orbit on a set
  of points, built from restricted growth strings, with its exact share
  of the uniform family.
* ``collision_law`` and ``coco_law``: P[z | x, table] over z = 1..t.
  Collision's hit buckets carry e^eps / Omega and the t - k unhit ones the
  residual (Omega - k e^eps) / ((t - k) Omega), Omega = s e^eps + t - s.
  CoCo's surviving-writer law: a bucket pair (k, k + t/2) written by g
  entries, a of which carry e^eps at bucket k and b = g - a at
  k + t/2, gives bucket k the weight (a e^eps + b) / g and bucket
  k + t/2 (b e^eps + a) / g, and the buckets of the t/2 - m free pairs
  share what is left of Omega = (e^eps + 1) s + t - 2s.
* ``coco_rates``: (p_t, p_o, p_f) with
  p_ow = 1 - (t^s - (t-2)^s) / (2 t^(s-1) s).
* ``moments``: the exact (mean, variance) of one user's estimate:
  collision's (1[z = H(c)] - 1/t) / (e^eps/Omega - 1/t) for event code c,
  and CoCo's mean (1[z = H(j+)] - 1[z = H(j-)]) / (p_t - p_o) and
  non-missing (1[z in {H(j+), H(j-)}] - 2 p_f) / (p_t + p_o - 2 p_f).
* ``worst_ratio``: the pairwise max over inputs, tables and z of
  P[z | x, H] / P[z | x', H], over every set of min(2s, |domain|) hash
  points, which ``verify_ldp`` bounds from above.
* ``certificate_ratio``: ``verify_ldp``'s certificate, the max of
  P[z | x, H] over inputs on dims 1..s with every sign pattern, their
  tables and z, divided by the min of the same.
"""

import functools
import math
from fractions import Fraction
from itertools import combinations, product

E = Fraction(2)  # e^eps at eps = ln 2
MECHANISMS = {"collision": False, "coco": True}  # name -> paired: a hash point is a dim whose events share a bucket pair


def _partner(bucket: int, t: int) -> int:
    return bucket + t // 2 if bucket <= t // 2 else bucket - t // 2


def _growth_strings(n: int, blocks: int) -> list[tuple[int, ...]]:
    """Every assignment of n points to at most ``blocks`` blocks, blocks numbered 0, 1, ... by first use."""
    strings = [()]
    for _ in range(n):
        strings = [g + (b,) for g in strings for b in range(min(max(g, default=-1) + 2, blocks))]
    return strings


def orbit_tables(points: tuple, t: int, paired: bool) -> list[tuple[dict, Fraction]]:
    """One table per relabelling orbit on ``points`` with its exact weight; the weights sum to exactly 1.

    A table's slots are numbered by first use.  Paired, slot k holds the buckets k and k + t/2, the first
    point in a slot takes bucket k, and each later one takes either; an orbit using k slots then holds
    perm(t/2, k) 2^k tables out of t^n.  Single, every bucket is a slot: perm(t, k) tables.
    """
    slots, sides = (t // 2, 2) if paired else (t, 1)
    tables = []
    for blocks in _growth_strings(len(points), slots):
        used = max(blocks) + 1
        later = [i for i, b in enumerate(blocks) if b in blocks[:i]]
        weight = Fraction(math.perm(slots, used) * sides**used, (slots * sides) ** len(points))
        for flips in product(range(sides), repeat=len(later)):
            side = dict(zip(later, flips))
            tables.append(({p: b + 1 + side.get(i, 0) * slots for i, (p, b) in enumerate(zip(points, blocks))}, weight))
    assert sum(w for _, w in tables) == 1
    return tables


def read_points(support: tuple, paired: bool) -> tuple[int, ...]:
    """The hash points an input reads: its dims if paired, else its event codes 2j - 1 (j_minus) and 2j (j_plus)."""
    return tuple(j if paired else 2 * j - (b < 0) for j, b in support)


def collision_law(support: tuple, table: dict, t: int) -> list[Fraction]:
    s = len(support)
    omega = s * E + t - s
    hit = {table[c] for c in read_points(support, False)}
    rest = (omega - len(hit) * E) / ((t - len(hit)) * omega)
    return [E / omega if z in hit else rest for z in range(1, t + 1)]


def coco_law(support: tuple, table: dict, t: int) -> list[Fraction]:
    s, half = len(support), t // 2
    omega = (E + 1) * s + t - 2 * s
    writers: dict[int, list[int]] = {}  # slot -> the bucket each of its writers puts e^eps on
    for j, b in support:
        writers.setdefault((table[j] - 1) % half + 1, []).append(table[j] if b > 0 else _partner(table[j], t))
    w: list = [None] * t
    for slot, high in writers.items():
        g, a = len(high), high.count(slot)
        b = g - a
        w[slot - 1] = (a * E + b) / g
        w[slot + half - 1] = (b * E + a) / g
    for slot in set(range(1, half + 1)) - writers.keys():
        w[slot - 1] = w[slot + half - 1] = (omega - len(writers) * (E + 1)) / (t - 2 * len(writers))
    assert sum(w) == omega and all(1 <= v <= E for v in w)
    return [v / omega for v in w]


LAWS = {"collision": collision_law, "coco": coco_law}


def coco_rates(s: int, t: int) -> tuple[Fraction, Fraction, Fraction]:
    """CoCo's true, opposite and false collision rates (p_t, p_o, p_f)."""
    omega = (E + 1) * s + t - 2 * s
    p_ow = 1 - Fraction(t**s - (t - 2) ** s, 2 * t ** (s - 1) * s)
    shared = p_ow * (E + 1) / (2 * omega)
    return shared + (1 - p_ow) * E / omega, shared + (1 - p_ow) / omega, Fraction(1, t)


def estimate(mechanism: str, estimator: str, s: int, t: int):
    """One user's estimate as a function of (z, the probed point's bucket, its pair partner's bucket or None)."""
    if mechanism == "collision":
        f = Fraction(1, t)
        den = E / (s * E + t - s) - f
        return lambda z, plus, _: ((z == plus) - f) / den
    p_t, p_o, p_f = coco_rates(s, t)
    if estimator == "mean":
        return lambda z, plus, minus: ((z == plus) - (z == minus)) / (p_t - p_o)
    return lambda z, plus, minus: ((z in (plus, minus)) - 2 * p_f) / (p_t + p_o - 2 * p_f)


def sparse_supports(d: int, s: int) -> list[tuple]:
    return [tuple(zip(dims, signs)) for dims in combinations(range(1, d + 1), s) for signs in product((-1, 1), repeat=s)]


def moments(mechanism: str, d: int, s: int, t: int, support: tuple, estimator: str, point: int) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of one user's ``estimator`` at hash ``point`` (an event code, or a dim if paired)."""
    paired = MECHANISMS[mechanism]
    value = estimate(mechanism, estimator, s, t)
    mean = second = Fraction(0)
    for table, weight in orbit_tables(tuple(dict.fromkeys(read_points(support, paired) + (point,))), t, paired):
        plus = table[point]
        minus = _partner(plus, t) if paired else None
        for z, p in enumerate(LAWS[mechanism](support, table, t), 1):
            v = value(z, plus, minus)
            mean += weight * p * v
            second += weight * p * v * v
    return mean, second - mean * mean


@functools.lru_cache(maxsize=None)  # two tests read each grid point's
def worst_ratio(mechanism: str, d: int, s: int, t: int) -> Fraction:
    """Max over inputs x, x', tables and z of P[z | x, H] / P[z | x', H], on every set of min(2s, |domain|) points."""
    paired = MECHANISMS[mechanism]
    domain = range(1, (d if paired else 2 * d) + 1)
    reads = [(support, set(read_points(support, paired))) for support in sparse_supports(d, s)]
    worst = Fraction(0)
    for points in combinations(domain, min(2 * s, len(domain))):
        group = [support for support, read in reads if read <= set(points)]
        for table, _ in orbit_tables(points, t, paired):
            laws = [LAWS[mechanism](support, table, t) for support in group]
            worst = max(worst, max(max(column) / min(column) for column in zip(*laws)))
    return worst


def certificate_ratio(mechanism: str, s: int, t: int) -> Fraction:
    """Max over every sign pattern x on dims 1..s, its tables and z of P[z | x, H], over the min of the same."""
    paired, cells = MECHANISMS[mechanism], []
    for signs in product((-1, 1), repeat=s):
        support = tuple(zip(range(1, s + 1), signs))
        for table, _ in orbit_tables(read_points(support, paired), t, paired):
            cells += LAWS[mechanism](support, table, t)
    return max(cells) / min(cells)
