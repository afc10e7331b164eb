"""Exact small-instance computations used to verify the randomizers.

Everything here enumerates explicit hash tables (weighted lookup tables)
rather than sampling, so privacy ratios, estimator moments and output
laws come out exact up to float accumulation.  Sums are taken with
``math.fsum`` (correctly-rounded accumulation).

The uniform hash family over all functions is materialised only when its
description fits in 20 bits; mechanisms only read a hash at the events
(or dimensions) an instance touches, so the family restricted to those
points is an exact marginal of the full uniform family and is used
whenever a caller does not supply an explicit family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .coco import coco_omega, coco_weight_vector, collision_rates
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


class CollisionTable(Mapping):
    """Explicit single-layout hash table: event code -> bucket in 1..t."""

    def __init__(self, mapping: Mapping[int, int]):
        self._m = dict(mapping)

    def __getitem__(self, code):
        return self._m[code]

    def __iter__(self):
        return iter(self._m)

    def __len__(self):
        return len(self._m)

    def buckets(self, codes: Iterable[int]) -> frozenset[int]:
        return frozenset(self._m[c] for c in codes)


class CocoTable:
    """Explicit paired-layout table: h1 dim -> 1..t/2, h2 dim -> {-1,+1}."""

    def __init__(self, h1: Mapping[int, int], h2: Mapping[int, int], t: int):
        self.h1 = dict(h1)
        self.h2 = dict(h2)
        self.t = t

    def event_bucket(self, index: int, sign: int) -> int:
        hi = (sign * self.h2[index] + 1) // 2
        return self.h1[index] + hi * (self.t // 2)

    def pair_slot(self, index: int) -> int:
        return self.h1[index]


def _guard(count: int, t: int) -> None:
    if count * t > _SIZE_GUARD:
        raise ValueError(f"enumeration size {count}*{t} exceeds guard {_SIZE_GUARD}")


def uniform_collision_family(codes: Sequence[int], t: int) -> list[tuple[CollisionTable, float]]:
    """All functions from ``codes`` into 1..t, equally weighted.

    Exact marginal of the uniform family over the full event domain; the
    20-bit description guard keeps enumeration honest.
    """
    if len(codes) * math.log2(t) > 20:
        raise ValueError("uniform family too large; pass an explicit sub-family")
    tables = []
    weight = 1.0 / t ** len(codes)
    for values in product(range(1, t + 1), repeat=len(codes)):
        tables.append((CollisionTable(dict(zip(codes, values))), weight))
    return tables


def uniform_coco_family(dims: Sequence[int], t: int) -> list[tuple[CocoTable, float]]:
    """All (H1, H2) pairs over ``dims``, equally weighted."""
    half = t // 2
    bits = len(dims) * (math.log2(half) + 1)
    if bits > 20:
        raise ValueError("uniform family too large; pass an explicit sub-family")
    tables = []
    weight = 1.0 / (half ** len(dims) * 2 ** len(dims))
    for h1_vals in product(range(1, half + 1), repeat=len(dims)):
        for h2_vals in product((-1, 1), repeat=len(dims)):
            tables.append((CocoTable(dict(zip(dims, h1_vals)), dict(zip(dims, h2_vals)), t), weight))
    return tables


def all_sparse_vectors(d: int, s: int) -> list[TernaryVector]:
    out = []
    for dims in combinations(range(1, d + 1), s):
        for signs in product((-1, 1), repeat=s):
            out.append(TernaryVector(d=d, support=tuple(zip(dims, signs))))
    return out


def _collision_table_probs(x: TernaryVector, table: CollisionTable, params: CollisionParams) -> np.ndarray:
    return collision_output_probabilities(table.buckets(x.event_codes()), params)


def _coco_table_probs(x: TernaryVector, table: CocoTable, params: MechanismParams) -> np.ndarray:
    """Output law for a fixed (H1, H2), averaged over write permutations."""
    fake = _TableHash(table)
    acc = np.zeros(params.t)
    perms = list(permutations(x.support))
    for ordered in perms:
        acc += coco_weight_vector(ordered, fake, params.epsilon, params.t).w
    omega = coco_omega(x.s, params.epsilon, params.t)
    return acc / (len(perms) * omega)


class _TableHash:
    """Adapter: expose an explicit CocoTable through the UserHash interface."""

    def __init__(self, table: CocoTable):
        self._t = table

    def event_bucket(self, index, sign):
        return self._t.event_bucket(index, sign)

    def pair_slot(self, index):
        return self._t.pair_slot(index)


def enumerate_distribution(mechanism: str, x: TernaryVector, params, family) -> ExactDistribution:
    """Exact output law over (table id, z), including hash randomness."""
    _guard(len(family), params.t)
    support = []
    probs = []
    for tid, (table, weight) in enumerate(family):
        if mechanism == "collision":
            p = _collision_table_probs(x, table, params)
        elif mechanism == "coco":
            p = _coco_table_probs(x, table, params)
        else:
            raise ValueError(f"unknown mechanism {mechanism!r}")
        for z in range(1, params.t + 1):
            support.append((tid, z))
            probs.append(weight * p[z - 1])
    return ExactDistribution(support=tuple(support), probs=np.asarray(probs))


# ---------------------------------------------------------------------------
# LDP verification


def verify_ldp(mechanism: str, params, family=None) -> float:
    """Max over inputs, tables and outputs of log(P[z|x,H] / P[z|x',H]).

    With ``family=None`` the check is exhaustive over all hash tables: the
    output law only depends on a table through its restriction to the
    events the inputs touch, so enumerating restrictions covers the full
    uniform family exactly.
    """
    if mechanism == "collision":
        if family is None:
            return _collision_ldp_exhaustive(params)
        return _ldp_over_family("collision", params, family)
    if mechanism == "coco":
        if family is None:
            return _coco_ldp_exhaustive(params)
        return _ldp_over_family("coco", params, family)
    raise ValueError(f"unknown mechanism {mechanism!r}")


def _ldp_over_family(mechanism, params, family) -> float:
    inputs = all_sparse_vectors(params.d, params.s)
    _guard(len(family) * len(inputs), params.t)
    worst = 0.0
    for table, _ in family:
        dists = []
        for x in inputs:
            if mechanism == "collision":
                dists.append(_collision_table_probs(x, table, params))
            else:
                dists.append(_coco_table_probs(x, table, params))
        m = np.stack(dists)
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


def _coco_ldp_exhaustive(params: MechanismParams) -> float:
    """Exhaustive (H1, H2) patterns over all d dimensions, cached per input."""
    d, t = params.d, params.t
    half = t // 2
    inputs = all_sparse_vectors(d, params.s)
    n_patterns = half**d * 2**d
    _guard(n_patterns, t)
    dims = tuple(range(1, d + 1))
    cache: dict[tuple, np.ndarray] = {}

    def dist_for(x: TernaryVector, h1_vals, h2_vals) -> np.ndarray:
        key_dims = tuple(j for j, _ in x.support)
        key = (x.support, tuple(h1_vals[j - 1] for j in key_dims), tuple(h2_vals[j - 1] for j in key_dims))
        got = cache.get(key)
        if got is None:
            table = CocoTable(dict(zip(dims, h1_vals)), dict(zip(dims, h2_vals)), t)
            got = cache[key] = _coco_table_probs(x, table, params)
        return got

    worst = 0.0
    for h1_vals in product(range(1, half + 1), repeat=d):
        for h2_vals in product((-1, 1), repeat=d):
            m = np.stack([dist_for(x, h1_vals, h2_vals) for x in inputs])
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
    if mechanism == "collision":
        if estimator != "indicator" or event is None:
            raise ValueError("collision supports estimator='indicator' with an event")
        t = params.t
        if family is None:
            codes = tuple(dict.fromkeys(x.event_codes() + (event.code,)))
            family = uniform_collision_family(codes, t)
        denom = params.hit_prob - params.false_prob
        means, seconds, weights = [], [], []
        hit_v = (1.0 - params.false_prob) / denom
        miss_v = (0.0 - params.false_prob) / denom
        cache: dict[tuple, np.ndarray] = {}  # law depends on the table only via the input's codes
        for table, weight in family:
            key = tuple(table[c] for c in x.event_codes())
            p = cache.get(key)
            if p is None:
                p = cache[key] = _collision_table_probs(x, table, params)
            pe = p[table[event.code] - 1]
            means.append(weight * (pe * hit_v + (1 - pe) * miss_v))
            seconds.append(weight * (pe * hit_v**2 + (1 - pe) * miss_v**2))
            weights.append(weight)
        mean = math.fsum(means) / math.fsum(weights)
        second = math.fsum(seconds) / math.fsum(weights)
        return mean, second - mean**2

    if mechanism == "coco":
        if estimator not in ("mean", "nonmissing") or dim is None:
            raise ValueError("coco supports estimator in {'mean','nonmissing'} with a dim")
        t = params.t
        if family is None:
            dims = tuple(dict.fromkeys(tuple(j for j, _ in x.support) + (dim,)))
            family = uniform_coco_family(dims, t)
        rates = collision_rates(params.s, params.epsilon, t)
        means, seconds, weights = [], [], []
        cache: dict[tuple, np.ndarray] = {}  # law depends on the table only via the support dims
        for table, weight in family:
            key = tuple((table.h1[j], table.h2[j]) for j, _ in x.support)
            p = cache.get(key)
            if p is None:
                p = cache[key] = _coco_table_probs(x, table, params)
            pp = p[table.event_bucket(dim, 1) - 1]
            pm = p[table.event_bucket(dim, -1) - 1]
            if estimator == "mean":
                denom = rates.p_t - rates.p_o
                mean_t = (pp - pm) / denom
                second_t = (pp + pm) / denom**2
            else:
                denom = rates.p_t + rates.p_o - 2.0 * rates.p_f
                hit_v = (1.0 - 2.0 * rates.p_f) / denom
                miss_v = (0.0 - 2.0 * rates.p_f) / denom
                both = pp + pm  # H(j_+) != H(j_-), so at most one can equal z
                mean_t = both * hit_v + (1 - both) * miss_v
                second_t = both * hit_v**2 + (1 - both) * miss_v**2
            means.append(weight * mean_t)
            seconds.append(weight * second_t)
            weights.append(weight)
        mean = math.fsum(means) / math.fsum(weights)
        second = math.fsum(seconds) / math.fsum(weights)
        return mean, second - mean**2

    raise ValueError(f"unknown mechanism {mechanism!r}")


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
    """(P_t, P_o, P_f) by full enumeration of tables and permutations (s <= 3)."""
    if s > 3:
        raise ValueError("table enumeration supported for s <= 3")
    d = s + 1  # support dims 1..s, probe dim s+1 for the false rate
    params = MechanismParams(d=d, s=s, epsilon=epsilon, t=t)
    x = TernaryVector(d=d, support=tuple((j, 1) for j in range(1, s + 1)))
    family = uniform_coco_family(tuple(range(1, d + 1)), t)
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
