"""Exact small-instance computations used to verify the randomizers.

Everything here enumerates explicit hash tables (weighted lookup tables)
rather than sampling, so privacy ratios, estimator moments and output
laws come out exact up to float accumulation.  Sums are taken with
``math.fsum`` (correctly-rounded accumulation).

Each mechanism has one ``TableLaw`` in ``LAWS``: its output law given an
explicit table, and the hash points (event codes or dimensions) an input
reads; the table restricted to those points keys the law's cache.  CoCo's
law is in closed form over surviving writers: for a fixed (H1, H2) only
the last writer of each H1 slot keeps its bucket pair, and under a
uniformly random write order it is uniform over the slot's writers.

The uniform hash family over all functions is materialised only when its
description fits in 20 bits; mechanisms only read a hash at the events
(or dimensions) an instance touches, so the family restricted to those
points is an exact marginal of the full uniform family and is used
whenever a caller does not supply an explicit family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .coco import coco_omega, collision_rates
from .collision import CollisionParams, collision_output_probabilities
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
    buckets: Callable  # t -> the number of values one point hashes to
    table: Callable  # ({point: value}, t) -> the explicit table


LAWS = {
    "collision": TableLaw(
        _collision_table_probs, TernaryVector.event_codes, lambda t: t, lambda values, t: CollisionTable(values)
    ),
    "coco": TableLaw(_coco_table_probs, lambda x: tuple(j for j, _ in x.support), lambda t: 2 * (t // 2), CocoTable),
}


def _law(mechanism: str) -> TableLaw:
    try:
        return LAWS[mechanism]
    except KeyError:
        raise ValueError(f"unknown mechanism {mechanism!r}") from None


def _uniform_tables(law: TableLaw, points: Sequence[int], t: int) -> Iterator[tuple[object, float]]:
    """Every table on ``points``, equally weighted, generated lazily.

    Exact marginal of the uniform family over the full domain; the 20-bit
    description guard keeps enumeration honest.
    """
    count = law.buckets(t) ** len(points)
    if count > 1 << 20:
        raise ValueError("uniform family too large; pass an explicit sub-family")
    for values in product(range(1, law.buckets(t) + 1), repeat=len(points)):
        yield law.table(dict(zip(points, values)), t), 1.0 / count


def uniform_collision_family(codes: Sequence[int], t: int) -> list[tuple[CollisionTable, float]]:
    """All functions from ``codes`` into 1..t, equally weighted."""
    return list(_uniform_tables(LAWS["collision"], codes, t))


def _cached_probs(law: TableLaw, x: TernaryVector, points, table, params, cache: dict) -> np.ndarray:
    key = (x.support, tuple(map(table.__getitem__, points)))
    got = cache.get(key)
    if got is None:
        got = cache[key] = law.probs(x, table, params)
    return got


def enumerate_distribution(mechanism: str, x: TernaryVector, params, family) -> ExactDistribution:
    """Exact output law over (table id, z), including hash randomness."""
    law = _law(mechanism)
    _guard(len(family), params.t)
    probs = [weight * law.probs(x, table, params) for table, weight in family]
    support = tuple((tid, z) for tid in range(len(probs)) for z in range(1, params.t + 1))
    return ExactDistribution(support=support, probs=np.concatenate(probs))


# ---------------------------------------------------------------------------
# LDP verification


def verify_ldp(mechanism: str, params, family=None) -> float:
    """Max over inputs, tables and outputs of log(P[z|x,H] / P[z|x',H]).

    With ``family=None`` the check is exhaustive over all hash tables: the
    output law only depends on a table through its restriction to the
    points the inputs read, so enumerating restrictions covers the full
    uniform family exactly.  Collision does so through its cached hit-set
    signatures; CoCo enumerates every (H1, H2) on all d dimensions.
    """
    law = _law(mechanism)
    if family is None and mechanism == "collision":
        return _collision_ldp_exhaustive(params)
    inputs = all_sparse_vectors(params.d, params.s)
    if family is None:
        domain = tuple(dict.fromkeys(p for x in inputs for p in law.points(x)))
        _guard(law.buckets(params.t) ** len(domain), params.t)
        family = _uniform_tables(law, domain, params.t)
    else:
        _guard(len(family) * len(inputs), params.t)
    reads = [(x, law.points(x)) for x in inputs]
    cache: dict[tuple, np.ndarray] = {}
    worst = 0.0
    for table, _ in family:
        m = np.stack([_cached_probs(law, x, points, table, params, cache) for x, points in reads])
        worst = max(worst, float(np.max(m.max(axis=0) / m.min(axis=0))))
    return math.log(worst)


_collision_signature_cache: dict[tuple[int, int, int], frozenset] = {}


def _collision_pair_signatures(d: int, s: int, t: int) -> frozenset:
    """Distinct hit-set layouts over all input pairs and hash restrictions.

    A pattern only matters through (|H(Y_x)|, |H(Y_x')|) and which of the
    three z-classes (hit only x, hit only x', unhit by both) are
    non-empty, so the exhaustive pattern sweep is collapsed once per
    (d, s, t) and reused across privacy budgets.
    """
    key = (d, s, t)
    got = _collision_signature_cache.get(key)
    if got is not None:
        return got
    inputs = all_sparse_vectors(d, s)
    sigs = set()
    for i, x in enumerate(inputs):
        cx = x.event_codes()
        for xp in inputs[i + 1 :]:
            cxp = xp.event_codes()
            union = tuple(dict.fromkeys(cx + cxp))
            for values in product(range(1, t + 1), repeat=len(union)):
                lookup = dict(zip(union, values))
                hx = frozenset(lookup[c] for c in cx)
                hxp = frozenset(lookup[c] for c in cxp)
                sigs.add(
                    (len(hx), len(hxp), bool(hx - hxp), bool(hxp - hx), t > len(hx | hxp))
                )
    got = frozenset(sigs)
    _collision_signature_cache[key] = got
    return got


def _collision_ldp_exhaustive(params: CollisionParams) -> float:
    """Exhaustive per-table check via the cached hit-set signatures.

    For a fixed table the law of z takes one value on hit buckets and one
    on the rest, so the worst ratio over z is the max over the z-classes
    a signature marks non-empty.
    """
    p_hit = params.hit_prob
    worst = 1.0
    for kx, kxp, x_only, xp_only, both_miss in _collision_pair_signatures(params.d, params.s, params.t):
        ra = params.residual_prob(kx)
        rb = params.residual_prob(kxp)
        if x_only:
            worst = max(worst, p_hit / rb, rb / p_hit)
        if xp_only:
            worst = max(worst, p_hit / ra, ra / p_hit)
        if both_miss:
            worst = max(worst, ra / rb, rb / ra)
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
    law = _law(mechanism)
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
    """(P_t, P_o, P_f) by full enumeration of tables, each under its surviving-writer law (s <= 3)."""
    if s > 3:
        raise ValueError("table enumeration supported for s <= 3")
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
