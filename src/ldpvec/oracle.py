"""Exact small-instance computations used to verify the randomizers.

Everything here enumerates explicit hash tables (weighted lookup tables)
rather than sampling, so privacy ratios, estimator moments and output
laws come out exact up to float accumulation.  Sums are taken with
``math.fsum`` (correctly-rounded accumulation).

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
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .coco import check_coco_domain, coco_omega, collision_rates
from .collision import CollisionParams, check_collision_params, collision_output_probabilities
from .domain import EventId, MechanismParams, TernaryVector

_SIZE_GUARD = 10**6


@dataclass(frozen=True)
class ExactDistribution:
    """A finite output law over (hash-table id, output symbol) pairs."""

    support: tuple
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if len(self.support) != len(p):
            raise ValueError("support and probs lengths differ")
        if p.min() < -1e-12:
            raise ValueError(f"negative probability {p.min()}")
        total = math.fsum(p.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class MixtureDecomposition:
    q1: ExactDistribution
    q1_prime: ExactDistribution
    q1_star: ExactDistribution
    beta: float


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


def uniform_collision_family(codes: Sequence[int], t: int) -> list[tuple[CollisionTable, float]]:
    """All functions from ``codes`` into 1..t, equally weighted (the full family, not orbit representatives)."""
    count = t ** len(codes)
    if count > 1 << 20:
        raise ValueError("uniform family too large; pass an explicit sub-family")
    return [(CollisionTable(zip(codes, values)), 1.0 / count) for values in product(range(1, t + 1), repeat=len(codes))]


def _cached_probs(law: TableLaw, x: TernaryVector, points, table, params, cache: dict) -> np.ndarray:
    key = (x.support, tuple(map(table.__getitem__, points)))
    got = cache.get(key)
    if got is None:
        got = cache[key] = law.probs(x, table, params)
    return got


def enumerate_distribution(mechanism: str, x: TernaryVector, params, family) -> ExactDistribution:
    """Exact output law over (table id, z), including hash randomness."""
    law = _law(mechanism, params)
    _guard(len(family), params.t)
    probs = [weight * law.probs(x, table, params) for table, weight in family]
    support = tuple((tid, z) for tid in range(len(probs)) for z in range(1, params.t + 1))
    return ExactDistribution(support=support, probs=np.concatenate(probs))


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
    ``family`` is checked over all inputs at once.
    """
    law = _law(mechanism, params)
    reads = [(x, law.points(x)) for x in all_sparse_vectors(params.d, params.s)]
    if family is None:
        domain = sorted({p for _, points in reads for p in points})
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
# Exact CoCo collision rates (enumeration routes, independent of the
# closed-form expressions in coco.collision_rates)


def coco_exact_rates_by_rank(s: int, epsilon: float, t: int) -> tuple[float, float, float]:
    """(P_t, P_o, P_f) by summing over write ranks, no geometric closed form.

    Conditions on the probed entry's uniform rank among the s writes; each
    later write hits its bucket pair independently with chance 2/t, and a
    fair orientation coin applies when overwritten.  Exact under the
    uniform hash family for any s.
    """
    eeps = math.exp(epsilon)
    omega = coco_omega(s, epsilon, t)
    survive_terms = [((t - 2.0) / t) ** (s - k) for k in range(1, s + 1)]
    p_t = math.fsum(
        (1.0 / s) * (sv * eeps / omega + (1.0 - sv) * (eeps + 1.0) / (2.0 * omega))
        for sv in survive_terms
    )
    p_o = math.fsum(
        (1.0 / s) * (sv * 1.0 / omega + (1.0 - sv) * (eeps + 1.0) / (2.0 * omega))
        for sv in survive_terms
    )
    # An absent dimension's bucket is uniform and independent of z.
    p_f = 1.0 / t
    return p_t, p_o, p_f


def coco_exact_rates_by_table(s: int, epsilon: float, t: int) -> tuple[float, float, float]:
    """(P_t, P_o, P_f) by enumerating tables up to bucket relabelling, each under its surviving-writer law."""
    check_coco_domain(s, t)
    d = s + 1  # support dims 1..s, probe dim s+1 for the false rate
    params = MechanismParams(d=d, s=s, epsilon=epsilon, t=t)
    x = TernaryVector(d=d, support=tuple((j, 1) for j in range(1, s + 1)))
    family = _uniform_tables(LAWS["coco"], tuple(range(1, d + 1)), t)
    pt, po, pf = [], [], []
    for table, weight in family:
        p = _coco_table_probs(x, table, params)
        pt.append(weight * p[table.event_bucket(1, 1) - 1])
        po.append(weight * p[table.event_bucket(1, -1) - 1])
        pf.append(weight * p[table.event_bucket(d, 1) - 1])
    return math.fsum(pt), math.fsum(po), math.fsum(pf)


# ---------------------------------------------------------------------------
# Mixture decomposition (three-component clone construction)


def mixture_decompose(r1: ExactDistribution, r1_prime: ExactDistribution, epsilon: float) -> MixtureDecomposition:
    """Decompose an e^eps-ratio-bounded pair into the clone mixture.

    beta = sum(max(0, R1 - R1')) / (e^eps - 1); the components satisfy
        R1  = e^eps*beta*Q1 +       beta*Q1' + (1 - beta - e^eps*beta)*Q1*
        R1' =       beta*Q1 + e^eps*beta*Q1' + (1 - beta - e^eps*beta)*Q1*
    pointwise, with Q1 and Q1' supported on disjoint sets.
    """
    if r1.support != r1_prime.support:
        raise ValueError("distributions must share a support ordering")
    eeps = math.exp(epsilon)
    a = np.asarray(r1.probs, dtype=float)
    b = np.asarray(r1_prime.probs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        hi = np.where(b > 0, a / b, np.where(a > 0, np.inf, 1.0))
        lo = np.where(a > 0, b / a, np.where(b > 0, np.inf, 1.0))
    if max(hi.max(), lo.max()) > eeps * (1.0 + 1e-9):
        raise ValueError("inputs are not e^eps-ratio bounded")
    pos = np.maximum(a - b, 0.0)
    neg = np.maximum(b - a, 0.0)
    beta = math.fsum(pos.tolist()) / (eeps - 1.0)
    if beta <= 0.0:
        uniform = np.full(len(a), 1.0 / len(a))
        return MixtureDecomposition(
            q1=ExactDistribution(r1.support, uniform),
            q1_prime=ExactDistribution(r1.support, uniform),
            q1_star=ExactDistribution(r1.support, a.copy()),
            beta=0.0,
        )
    rest = 1.0 - beta - eeps * beta
    if rest < -1e-12:
        raise ValueError(f"mixture weight 1 - (1+e^eps)*beta = {rest} is negative")
    q1 = pos / ((eeps - 1.0) * beta)
    q1p = neg / ((eeps - 1.0) * beta)
    if rest > 1e-12:
        q1s = (np.minimum(a, b) - np.abs(a - b) / (eeps - 1.0)) / rest
        q1s = np.maximum(q1s, 0.0)
    else:
        q1s = np.full(len(a), 1.0 / len(a))
    return MixtureDecomposition(
        q1=ExactDistribution(r1.support, q1),
        q1_prime=ExactDistribution(r1.support, q1p),
        q1_star=ExactDistribution(r1.support, q1s),
        beta=beta,
    )


# ---------------------------------------------------------------------------
# Lower-bound statistic (worst-case two-sided counting law)


def lower_bound_statistic_distribution(n: int, params: CollisionParams, swapped: bool = False) -> ExactDistribution:
    """Exact law of the two-sided count statistic over a shuffled batch.

    Builds the worst case: x1, x1' and the n-1 background inputs hash to
    pairwise-disjoint bucket blocks (possible when t >= 3s), each message
    is mapped to (1,0) / (0,1) / (0,0) according to whether it lands in
    x1's or x1''s block, and the n per-message laws are convolved.  The
    support of the result holds the (count, count) pairs.

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
    keys = sorted(law)
    return ExactDistribution(support=tuple(keys), probs=np.array([law[k] for k in keys]))
