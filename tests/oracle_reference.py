"""References for the exact oracle that no program path needs.

``uniform_collision_family`` lists every single-layout hash table on a
set of event codes, the full family that the oracle's orbit
representatives stand for.  ``family_privacy_loss`` and
``family_moments`` evaluate the oracle's two quantities over such an
explicit family, from the law of each table alone: no orbit
representatives, orbit weights or point-set grouping, so they check the
oracle's enumeration without sharing it.  Each evaluates the law on the
whole family in one call (``law_block``), as the oracle does on one set
of points; the law's agreement with its own row-by-row evaluation is
tested on its own.
``per_event_moments`` is ``exact_estimator_moments`` one probe at a time:
each call enumerates the orbit tables on x's points and the probed point,
where the oracle enumerates the representative's s points once for all,
reads one of them for every point x reads, and puts an unread point's
outcomes in closed form.
Both references write each estimator out again (``estimator_terms``),
where the oracle reads the registered debias.
``all_point_sets_privacy_loss`` is the pairwise maximum that
``verify_ldp``'s one-input certificate bounds from above: it checks every
input pair on every set of 2s hash points of the domain, where the
oracle reads one input's law.  ``mixture_decompose``
splits a pair of e^eps-ratio-bounded output laws into the
three-component clone mixture of Feldman, McMillan & Talwar ("Hiding
Among the Clones", FOCS 2021), so tests can check its weight beta
against the accountant's clone probability.
"""

import math
from itertools import combinations, product

import numpy as np

from ldpvec.aggregate import MECHANISMS
from ldpvec.coco import collision_rates
from ldpvec.collision import collision_denominator
from ldpvec.domain import pair_partner
from ldpvec.oracle import _law, _orbit_count, _uniform_tables, all_sparse_vectors

from exact_reference import read_points

# the pairwise check's own limit on its work, (input, point set) pairs times orbit tables times t, apart from the
# oracle's law-array guard
_SIZE_GUARD = 10**6


def uniform_collision_family(codes, t: int) -> list:
    """All functions from ``codes`` into 1..t, equally weighted (the full family, not orbit representatives)."""
    count = t ** len(codes)
    if count > 1 << 20:
        raise ValueError(f"uniform family of {count} tables exceeds 2^20")
    return [(dict(zip(codes, values)), 1.0 / count) for values in product(range(1, t + 1), repeat=len(codes))]


def law_block(mechanism: str, params, supports, points, tables: np.ndarray) -> np.ndarray:
    """P[z | x, table] as a (tables, inputs, t) array from one law call; ``tables`` holds a row of buckets per table,
    a column per point of ``points``, and every input reads only those points."""
    mech, column = MECHANISMS[mechanism], {q: i for i, q in enumerate(points)}
    reads = np.array([[column[q] for q in read_points(support, mech.paired)] for support in supports])
    return mech.law(tables[:, reads], np.array([[v for _, v in support] for support in supports]), params)


def _family_laws(mechanism: str, params, supports, family) -> np.ndarray:
    """``law_block`` over the dict tables of ``family``."""
    points = list(family[0][0])
    return law_block(mechanism, params, supports, points, np.array([[table[q] for q in points] for table, _ in family]))


def family_privacy_loss(mechanism: str, params, inputs, family) -> float:
    """Max over the tables of ``family``, the inputs and z of log(P[z|x,H] / P[z|x',H])."""
    laws = _family_laws(mechanism, params, [x.support for x in inputs], family)
    return math.log(float(np.max(laws.max(axis=1) / laws.min(axis=1))))


def indicator_terms(p_hit: float, p_false: float, denom: float) -> tuple[float, float]:
    """Mean and second moment of (1[hit] - p_false) / denom when P[hit] = p_hit."""
    hit_v, miss_v = (1.0 - p_false) / denom, (0.0 - p_false) / denom
    return p_hit * hit_v + (1 - p_hit) * miss_v, p_hit * hit_v**2 + (1 - p_hit) * miss_v**2


def estimator_terms(mechanism: str, params, estimator: str, event=None, dim=None):
    """The hash point an estimator reads, and its (mean, second moment) given the law p of z on one table."""
    if mechanism == "collision":
        denom = collision_denominator(params.s, params.epsilon, params.t)
        return event.code, lambda p, table: indicator_terms(p[table[event.code] - 1], 1.0 / params.t, denom)
    rates = collision_rates(params.s, params.epsilon, params.t)
    if estimator == "mean":
        denom = rates.mean_denominator
        moments = lambda pp, pm: ((pp - pm) / denom, (pp + pm) / denom**2)
    else:
        denom = rates.nonmissing_denominator
        moments = lambda pp, pm: indicator_terms(pp + pm, 2.0 * rates.p_f, denom)
    # H(j_+) != H(j_-), so at most one can equal z
    return dim, lambda p, table: moments(p[table[dim] - 1], p[pair_partner(table[dim], params.t) - 1])


def per_event_moments(mechanism: str, params, x, estimator: str, event=None, dim=None) -> tuple[float, float]:
    """``exact_estimator_moments`` one event at a time: the orbit tables on x's points and the probed one."""
    paired = _law(mechanism).paired
    point, terms = estimator_terms(mechanism, params, estimator, event, dim)
    probed = tuple(dict.fromkeys(read_points(x.support, paired) + (point,)))
    tables, weights = _uniform_tables(paired, len(probed), params.t)
    laws = law_block(mechanism, params, [x.support], probed, tables)[:, 0]
    means, seconds = [], []
    for row, probs, weight in zip(tables.tolist(), laws, weights):
        mean_t, second_t = terms(probs, dict(zip(probed, row)))
        means.append(weight * mean_t)
        seconds.append(weight * second_t)
    mean = math.fsum(means) / math.fsum(weights)
    return mean, math.fsum(seconds) / math.fsum(weights) - mean**2


def family_moments(mechanism: str, params, x, family, estimator: str, event=None, dim=None) -> tuple[float, float]:
    """(mean, variance) of one per-user estimator over the weighted tables of ``family``."""
    _, terms = estimator_terms(mechanism, params, estimator, event, dim)
    laws = _family_laws(mechanism, params, [x.support], family)[:, 0]
    moments = [(weight, *terms(probs, table)) for (table, weight), probs in zip(family, laws)]
    total = math.fsum(w for w, _, _ in moments)
    mean = math.fsum(w * m for w, m, _ in moments) / total
    return mean, math.fsum(w * second for w, _, second in moments) / total - mean**2


def all_point_sets_privacy_loss(mechanism: str, params) -> float:
    """The max over input pairs, tables and z of log(P[z|x,H] / P[z|x',H]), on every set of min(2s, |domain|) hash
    points, with the size guard on that work."""
    paired = _law(mechanism).paired
    d, s = params.d, params.s
    domain = range(1, (d if paired else 2 * d) + 1)  # dims or event codes
    size = min(2 * s, len(domain))
    # comb(d, s) 2^s inputs, each reading s points and lying in comb(|domain| - s, size - s) of the point sets
    count = math.comb(d, s) * 2**s * math.comb(len(domain) - s, size - s)
    count *= _orbit_count(size, params.t, paired)
    if count * params.t > _SIZE_GUARD:
        raise ValueError(f"enumeration size {count}*{params.t} exceeds guard {_SIZE_GUARD}")
    reads = [(x.support, set(read_points(x.support, paired))) for x in all_sparse_vectors(d, s)]
    worst = 0.0
    for points in combinations(domain, size):
        group = [support for support, read in reads if read.issubset(points)]
        laws = law_block(mechanism, params, group, points, _uniform_tables(paired, len(points), params.t)[0])
        worst = max(worst, float(np.max(laws.max(axis=1) / laws.min(axis=1))))
    return math.log(worst)


def mixture_decompose(r1, r1_prime, epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Decompose two e^eps-ratio-bounded laws over the same cells into (Q1, Q1', Q1*, beta).

    beta = sum(max(0, R1 - R1')) / (e^eps - 1); the components satisfy
        R1  = e^eps*beta*Q1 +       beta*Q1' + (1 - beta - e^eps*beta)*Q1*
        R1' =       beta*Q1 + e^eps*beta*Q1' + (1 - beta - e^eps*beta)*Q1*
    pointwise, with Q1 and Q1' supported on disjoint sets.
    """
    a = np.asarray(r1, dtype=float)
    b = np.asarray(r1_prime, dtype=float)
    if a.shape != b.shape:
        raise ValueError("distributions must be over the same cells")
    eeps = math.exp(epsilon)
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
        return uniform, uniform, a.copy(), 0.0
    rest = 1.0 - beta - eeps * beta
    if rest < -1e-12:
        raise ValueError(f"mixture weight 1 - (1+e^eps)*beta = {rest} is negative")
    q1 = pos / ((eeps - 1.0) * beta)
    q1p = neg / ((eeps - 1.0) * beta)
    if rest > 1e-12:
        q1s = np.maximum((np.minimum(a, b) - np.abs(a - b) / (eeps - 1.0)) / rest, 0.0)
    else:
        q1s = np.full(len(a), 1.0 / len(a))
    return q1, q1p, q1s, beta
