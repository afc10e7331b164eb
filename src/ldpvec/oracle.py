"""Exact small-instance computations used to verify the randomizers.

Everything here enumerates explicit hash tables (weighted lookup tables)
rather than sampling, so privacy ratios, estimator moments and the
counting statistic's law come out exact up to float accumulation.  Sums
are taken with ``math.fsum`` (correctly-rounded accumulation).

Each mechanism has one ``TableLaw`` in ``LAWS``: its output law given an
explicit table, the hash points (event codes or dimensions) an input
reads, and the law's symmetry (its bucket slots, and whether a slot is a
bucket pair); the table restricted to an input's points keys the law's
cache.  CoCo's law is in closed form over surviving writers: for a fixed
(H1, H2) only the last writer of each H1 slot keeps its bucket pair, and
under a uniformly random write order it is uniform over the slot's
writers.

Mechanisms only read a hash at the events (or dimensions) an instance
touches, so the uniform family over all functions, restricted to those
points, is an exact marginal of the full family and is used whenever a
caller does not supply an explicit family.  Both laws are equivariant
under relabelling buckets (permuting slots, and swapping the two buckets
of a pair), and every quantity taken from them here is invariant, so
that family is enumerated as one table per relabelling orbit, weighted
by the orbit's share; it is materialised only when the representatives
fit in 20 bits.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .coco import check_coco_domain, coco_omega, collision_rates
from .collision import CollisionParams, check_collision_params, collision_output_probabilities
from .domain import EventId, MechanismParams, TernaryVector

_SIZE_GUARD = 10**6


class CollisionTable(dict):
    """Explicit single-layout hash table: event code -> bucket in 1..t."""

    def buckets(self, codes: Iterable[int]) -> frozenset[int]:
        return frozenset(self[c] for c in codes)


class CocoTable(dict):
    """Explicit paired-layout table: dim j -> the bucket of j_plus in 1..t.

    That bucket is H1(j) + t/2 when H2(j) = +1 and H1(j) otherwise; j_minus
    takes the other member of the pair (H1(j), H1(j) + t/2).
    """

    def __init__(self, plus: Mapping[int, int], t: int):
        super().__init__(plus)
        self.t = t

    def event_bucket(self, index: int, sign: int) -> int:
        plus, half = self[index], self.t // 2
        if sign > 0:
            return plus
        return plus - half if plus > half else plus + half

    def pair_slot(self, index: int) -> int:
        return (self[index] - 1) % (self.t // 2) + 1


def _guard(count: int, t: int) -> None:
    if count * t > _SIZE_GUARD:
        raise ValueError(f"enumeration size {count}*{t} exceeds guard {_SIZE_GUARD}")


def all_sparse_vectors(d: int, s: int) -> list[TernaryVector]:
    out = []
    for dims in combinations(range(1, d + 1), s):
        for signs in product((-1, 1), repeat=s):
            out.append(TernaryVector(d=d, support=tuple(zip(dims, signs))))
    return out


def _collision_table_probs(x: TernaryVector, table: CollisionTable, params: CollisionParams) -> np.ndarray:
    return collision_output_probabilities(table.buckets(x.event_codes()), params)


def _coco_table_probs(x: TernaryVector, table: CocoTable, params: MechanismParams) -> np.ndarray:
    """Output law for a fixed (H1, H2) under a uniformly random write order.

    Only the last writer of each H1 slot survives, uniform over the slot's
    g writers.  If a of them put their e^eps bucket at slot k, bucket k
    carries weight (a e^eps + g - a)/g and bucket k + t/2 carries
    ((g - a) e^eps + a)/g.  With m occupied slots, every bucket of a free
    pair carries the residual (Omega - m(e^eps + 1))/(t - 2m).
    """
    eeps = math.exp(params.epsilon)
    t, half = params.t, params.t // 2
    omega = coco_omega(x.s, params.epsilon, t)
    writers: dict[int, list[int]] = {}  # occupied slot -> its writers' e^eps buckets
    for j, b in x.support:
        writers.setdefault(table.pair_slot(j), []).append(table.event_bucket(j, b))
    w = [0.0] * t
    for slot, high in writers.items():
        g, a = len(high), high.count(slot)
        w[slot - 1] = (a * eeps + g - a) / g
        w[slot + half - 1] = ((g - a) * eeps + a) / g
    m = len(writers)
    for slot in set(range(1, half + 1)) - writers.keys():
        w[slot - 1] = w[slot + half - 1] = (omega - m * (eeps + 1.0)) / (t - 2 * m)
    if abs(math.fsum(w) - omega) > 1e-9 * max(1.0, omega):
        raise ValueError(f"weights sum to {math.fsum(w)}, expected omega={omega}")
    if min(w) < 1.0 - 1e-12 or max(w) > eeps * (1.0 + 1e-12):
        raise ValueError("weights must lie in [1, e^eps]")
    return np.array(w) / omega


class TableLaw(NamedTuple):
    """One mechanism's exact output law given an explicit hash table."""

    probs: Callable  # (x, table, params) -> P[z | x, table] over z = 1..t
    points: Callable  # x -> the hash points its law reads: event codes or dims
    slots: Callable  # t -> the number of slots a point hashes to
    paired: bool  # slot k is the bucket pair (k, k + slots), else bucket k
    table: Callable  # ({point: value}, t) -> the explicit table
    check: Callable  # params -> None; a ValueError outside the law's domain


LAWS = {
    "collision": TableLaw(
        _collision_table_probs, TernaryVector.event_codes, lambda t: t, False, lambda values, t: CollisionTable(values),
        check_collision_params,  # CollisionParams enforces t > s
    ),
    "coco": TableLaw(
        _coco_table_probs, lambda x: tuple(j for j, _ in x.support), lambda t: t // 2, True, CocoTable,
        lambda params: check_coco_domain(params.s, params.t),
    ),
}


def _law(mechanism: str, params) -> TableLaw:
    """The law of ``mechanism``, once its domain check has passed on ``params``."""
    try:
        law = LAWS[mechanism]
    except KeyError:
        raise ValueError(f"unknown mechanism {mechanism!r}") from None
    law.check(params)
    return law


def _orbit_count(n: int, slots: int, paired: bool) -> int:
    """Relabelling orbits of tables on n points: sum over k <= slots of S(n, k), times 2^(n-k) if paired."""
    members = 2 if paired else 1
    ways = [1] + [0] * min(slots, n)  # ways[k]: representatives with k slots in use
    for _ in range(n):
        ways = [0] + [ways[k] * k * members + ways[k - 1] for k in range(1, len(ways))]
    return sum(ways)


def _uniform_tables(law: TableLaw, points: Sequence[int], t: int) -> Iterator[tuple[object, float]]:
    """One table per relabelling orbit on ``points``, weighted by its share of the uniform family.

    Slots are numbered by first use and, for a paired law, the first point
    in a slot takes its lower bucket.  An orbit using k slots holds
    perm(slots, k) tables, times 2^k if paired, out of (slots * 2)^n or
    slots^n.  Generated lazily; the 20-bit guard counts representatives.
    """
    slots, n = law.slots(t), len(points)
    offsets = (0, slots) if law.paired else (0,)
    if _orbit_count(n, slots, law.paired) > 1 << 20:
        raise ValueError("uniform family too large; pass an explicit sub-family")
    total = (len(offsets) * slots) ** n

    def extend(values: tuple[int, ...], used: int) -> Iterator[tuple[object, float]]:
        if len(values) == n:
            yield law.table(dict(zip(points, values)), t), math.perm(slots, used) * len(offsets) ** used / total
            return
        for slot in range(1, used + 1):
            for offset in offsets:
                yield from extend(values + (slot + offset,), used)
        if used < slots:
            yield from extend(values + (used + 1,), used + 1)

    yield from extend((), 0)


def _cached_probs(law: TableLaw, x: TernaryVector, points, table, params, cache: dict) -> np.ndarray:
    key = (x.support, tuple(map(table.__getitem__, points)))
    got = cache.get(key)
    if got is None:
        got = cache[key] = law.probs(x, table, params)
    return got


# ---------------------------------------------------------------------------
# LDP verification


def verify_ldp(mechanism: str, params, family=None) -> float:
    """Max over inputs, tables and outputs of log(P[z|x,H] / P[z|x',H]).

    With ``family=None`` the check is exhaustive over all hash tables.  A
    pair (x, x') reads at most 2|points(x)| points, so every pair lies in
    some set of that many points of the domain (or in the whole domain).
    Each such set is checked on the uniform family restricted to it, an
    exact marginal, over the inputs that read only its points, and that
    family is enumerated as one table per bucket-relabelling orbit: the
    worst ratio over z is the same on every table of an orbit.  The size
    guard counts (input, representative table) evaluations.  An explicit
    ``family`` is checked over all inputs at once; a table without an entry
    for a point some input reads is a ValueError.
    """
    law = _law(mechanism, params)
    reads = [(x, law.points(x)) for x in all_sparse_vectors(params.d, params.s)]
    domain = sorted({p for _, points in reads for p in points})
    if family is None:
        k = len(reads[0][1])
        size = min(2 * k, len(domain))
        # each input lies in comb(|domain| - k, size - k) of the point sets
        memberships = len(reads) * math.comb(len(domain) - k, size - k)
        _guard(memberships * _orbit_count(size, law.slots(params.t), law.paired), params.t)
        groups = (
            ([r for r in reads if set(r[1]).issubset(points)], _uniform_tables(law, points, params.t))
            for points in combinations(domain, size)
        )
    elif not family:
        raise ValueError("verify_ldp needs a non-empty family of tables, got an empty family")
    else:
        _guard(len(family) * len(reads), params.t)
        for i, (table, _) in enumerate(family):
            missing = [p for p in domain if p not in table]
            if missing:
                raise ValueError(f"table {i} of the family has no entry for point {missing[0]}, which an input reads")
        groups = [(reads, family)]
    cache: dict[tuple, np.ndarray] = {}
    worst = 0.0
    for group, tables in groups:
        for table, _ in tables:
            m = np.stack([_cached_probs(law, x, points, table, params, cache) for x, points in group])
            worst = max(worst, float(np.max(m.max(axis=0) / m.min(axis=0))))
    return math.log(worst)


# ---------------------------------------------------------------------------
# Exact estimator moments


def exact_estimator_moments(
    mechanism: str,
    params,
    x: TernaryVector,
    estimator: str,
    event: EventId | None = None,
    dim: int | None = None,
    family=None,
) -> tuple[float, float]:
    """Exact (mean, variance) of one per-user estimator under ideal hashing.

    The default family is the uniform family restricted to the events or
    dimensions the instance touches, which is an exact marginalisation.
    """
    law = _law(mechanism, params)
    point, terms = _estimator_terms(mechanism, params, estimator, event, dim)
    points = law.points(x)
    if family is None:
        family = _uniform_tables(law, tuple(dict.fromkeys(points + (point,))), params.t)
    cache: dict[tuple, np.ndarray] = {}
    means, seconds, weights = [], [], []
    for table, weight in family:
        mean_t, second_t = terms(_cached_probs(law, x, points, table, params, cache), table)
        means.append(weight * mean_t)
        seconds.append(weight * second_t)
        weights.append(weight)
    mean = math.fsum(means) / math.fsum(weights)
    second = math.fsum(seconds) / math.fsum(weights)
    return mean, second - mean**2


def _debiased_indicator(p_hit: float, p_true: float, p_false: float) -> tuple[float, float]:
    """Mean and second moment of (1[hit] - p_false) / (p_true - p_false) when P[hit] = p_hit."""
    denom = p_true - p_false
    hit_v, miss_v = (1.0 - p_false) / denom, (0.0 - p_false) / denom
    return p_hit * hit_v + (1 - p_hit) * miss_v, p_hit * hit_v**2 + (1 - p_hit) * miss_v**2


def _estimator_terms(mechanism: str, params, estimator: str, event, dim) -> tuple[int, Callable]:
    """The hash point an estimator reads, and its (mean, second moment) given the law p of z on a table."""
    if mechanism == "collision":
        if estimator != "indicator" or event is None:
            raise ValueError("collision supports estimator='indicator' with an event")
        p_true, p_false = params.hit_prob, params.false_prob
        return event.code, lambda p, table: _debiased_indicator(p[table[event.code] - 1], p_true, p_false)
    if estimator not in ("mean", "nonmissing") or dim is None:
        raise ValueError("coco supports estimator in {'mean','nonmissing'} with a dim")
    rates = collision_rates(params.s, params.epsilon, params.t)
    if estimator == "mean":
        denom = rates.p_t - rates.p_o
        moments = lambda pp, pm: ((pp - pm) / denom, (pp + pm) / denom**2)
    else:
        moments = lambda pp, pm: _debiased_indicator(pp + pm, rates.p_t + rates.p_o, 2.0 * rates.p_f)
    # H(j_+) != H(j_-), so at most one can equal z
    return dim, lambda p, table: moments(p[table.event_bucket(dim, 1) - 1], p[table.event_bucket(dim, -1) - 1])


# ---------------------------------------------------------------------------
# Lower-bound statistic (worst-case two-sided counting law)


def lower_bound_statistic_distribution(
    n: int, params: CollisionParams, swapped: bool = False
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
    check_collision_params(params)
    s, t = params.s, params.t
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 3 * s:
        raise ValueError("worst-case construction needs t >= 3s")

    def block_law(hit_buckets: frozenset[int]) -> dict[tuple[int, int], float]:
        probs = collision_output_probabilities(hit_buckets, params)
        law = {(1, 0): 0.0, (0, 1): 0.0, (0, 0): 0.0}
        for z in range(1, t + 1):
            if z <= s:
                law[(1, 0)] += probs[z - 1]
            elif z <= 2 * s:
                law[(0, 1)] += probs[z - 1]
            else:
                law[(0, 0)] += probs[z - 1]
        return law

    first = block_law(frozenset(range(s + 1, 2 * s + 1) if swapped else range(1, s + 1)))
    background = block_law(frozenset(range(2 * s + 1, 3 * s + 1)))

    law = {(0, 0): 1.0}
    parts = [first] + [background] * (n - 1)
    for part in parts:
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
