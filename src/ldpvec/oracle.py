"""Exact small-instance computations used to verify the randomizers.

Everything here enumerates explicit hash tables (weighted lookup tables)
rather than sampling, so privacy ratios and estimator moments come out
exact up to float accumulation.  Sums are taken with ``math.fsum``
(correctly-rounded accumulation).

Each mechanism has one ``TableLaw`` in ``LAWS``: its output law given an
explicit table, the hash points (event codes or dimensions) an input
reads, and whether a point hashes to a bucket pair; the table restricted
to an input's points keys the law's cache.  A table is a plain
``{point: bucket}`` dict: collision's maps event codes to buckets, CoCo's
maps each dim to j_plus's bucket, and j_minus takes the other member of
its pair (k, k + t/2).  CoCo's law is in closed form over surviving
writers: for a fixed table only the last writer of each bucket pair keeps
it, and under a uniformly random write order it is uniform over the
pair's writers.

Mechanisms only read a hash at the events (or dimensions) an instance
touches, so the uniform family over all functions, restricted to those
points, is an exact marginal of the full family; it is the one family
the oracle enumerates.  Both laws are equivariant under relabelling
buckets (permuting slots, and swapping the two buckets of a pair), and
every quantity taken from them here is invariant, so that family is
enumerated as one table per relabelling orbit, weighted by the orbit's
share; it is materialised only when the representatives fit in 20 bits.
Permuting dimensions and swapping a dimension's two events maps inputs
onto inputs and that family onto itself, and both laws are equivariant
under it too, so ``verify_ldp`` checks one set of hash points per orbit of
that symmetry, and its work does not grow with d.  Hash values are iid
over points, so ``exact_estimator_moments`` enumerates an input once, on its
points plus one free point that stands for every point it does not read,
and keeps the last input's moments for all of its events.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import combinations, islice, product
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .coco import check_coco_domain, coco_omega, collision_rates
from .collision import CollisionParams, check_collision_params, collision_output_probabilities
from .domain import EventId, MechanismParams, TernaryVector, event_code, is_integer, pair_partner

_SIZE_GUARD = 10**6


def _sparse_vectors(s: int, signs: dict[int, tuple[int, ...]]) -> Iterator[tuple]:
    """The supports of s nonzero dims among ``signs``' keys, each dim taking one of its signs."""
    for dims in combinations(signs, s):
        for picked in product(*map(signs.__getitem__, dims)):
            yield tuple(zip(dims, picked))


def all_sparse_vectors(d: int, s: int) -> list[TernaryVector]:
    return [TernaryVector(d, support) for support in _sparse_vectors(s, dict.fromkeys(range(1, d + 1), (-1, 1)))]


def _collision_table_probs(support: tuple, table: dict[int, int], params: CollisionParams) -> np.ndarray:
    return collision_output_probabilities(frozenset(table[event_code(j, b)] for j, b in support), params)


def _coco_table_probs(support: tuple, table: dict[int, int], params: MechanismParams) -> np.ndarray:
    """Output law for a fixed table under a uniformly random write order.

    Only the last writer of each bucket pair (k, k + t/2), its slot k,
    survives, uniform over the slot's g writers.  If a of them put their
    e^eps bucket at slot k, bucket k carries weight (a e^eps + g - a)/g and
    bucket k + t/2 carries ((g - a) e^eps + a)/g.  With m occupied slots, every
    bucket of a free pair carries the residual (Omega - m(e^eps + 1))/(t - 2m).
    """
    eeps = math.exp(params.epsilon)
    t, half = params.t, params.t // 2
    omega = coco_omega(len(support), params.epsilon, t)
    writers: dict[int, list[int]] = {}  # occupied slot -> its writers' e^eps buckets
    for j, b in support:
        plus = table[j]
        writers.setdefault((plus - 1) % half + 1, []).append(plus if b > 0 else pair_partner(plus, t))
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
    """One mechanism's exact output law given an explicit ``{point: bucket}`` table."""

    probs: Callable  # (support, table, params) -> P[z | x, table] over z = 1..t
    points: Callable  # support -> the hash points its law reads: event codes or dims
    paired: bool  # a point is a dim whose bucket lies in the pair (k, k + t/2), else an event code's bucket k
    check: Callable  # params -> None; a ValueError outside the law's domain


LAWS = {
    "collision": TableLaw(
        _collision_table_probs, lambda support: tuple(event_code(j, b) for j, b in support), False,
        check_collision_params,  # CollisionParams enforces t > s
    ),
    "coco": TableLaw(
        _coco_table_probs, lambda support: tuple(j for j, _ in support), True,
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


def _slots(law: TableLaw, t: int) -> int:
    """The slots a point hashes to: t/2 bucket pairs for a paired law, else t buckets."""
    return t // 2 if law.paired else t


def _orbit_count(n: int, slots: int, paired: bool) -> int:
    """Relabelling orbits of tables on n points: sum over k <= slots of S(n, k), times 2^(n-k) if paired."""
    members = 2 if paired else 1
    ways = [1] + [0] * min(slots, n)  # ways[k]: representatives with k slots in use
    for _ in range(n):
        ways = [0] + [ways[k] * k * members + ways[k - 1] for k in range(1, len(ways))]
    return sum(ways)


def _uniform_tables(law: TableLaw, points: Sequence[int], t: int) -> Iterator[tuple[dict[int, int], float]]:
    """One table per relabelling orbit on ``points``, weighted by its share of the uniform family.

    Slots are numbered by first use and, for a paired law, the first point
    in a slot takes its lower bucket.  An orbit using k slots holds
    perm(slots, k) tables, times 2^k if paired, out of (slots * 2)^n or
    slots^n.  Generated lazily; the 20-bit guard counts representatives.
    """
    slots, n = _slots(law, t), len(points)
    offsets = (0, slots) if law.paired else (0,)
    if _orbit_count(n, slots, law.paired) > 1 << 20:
        raise ValueError(f"uniform family on {n} points has more than 2^20 orbit representatives")
    total = (len(offsets) * slots) ** n

    def extend(values: tuple[int, ...], used: int) -> Iterator[tuple[dict[int, int], float]]:
        if len(values) == n:
            yield dict(zip(points, values)), math.perm(slots, used) * len(offsets) ** used / total
            return
        for slot in range(1, used + 1):
            for offset in offsets:
                yield from extend(values + (slot + offset,), used)
        if used < slots:
            yield from extend(values + (used + 1,), used + 1)

    yield from extend((), 0)


def _cached_probs(law: TableLaw, support: tuple, points, table, params, cache: dict) -> np.ndarray:
    key = (support, tuple(map(table.__getitem__, points)))
    got = cache.get(key)
    if got is None:
        got = cache[key] = law.probs(support, table, params)
    return got


# ---------------------------------------------------------------------------
# LDP verification


def verify_ldp(mechanism: str, params) -> float:
    """Max over inputs, hash tables and outputs of log(P[z|x,H] / P[z|x',H]).

    The check is exhaustive over all hash tables.  A pair (x, x') reads at
    most 2|points(x)| points, so every pair lies in some set of that many
    points of the domain (or in the whole domain).  Each such set is
    checked on the uniform family restricted to it, an exact marginal,
    over the inputs that read only its points.  Permuting dims and swapping
    a dim's two signs maps inputs onto inputs and the uniform family onto
    itself, and both laws are equivariant under it, so every set has its
    orbit representative's worst ratios: one set per orbit is checked, and
    d only decides which orbits exist.  A set's family is enumerated as one
    table per bucket-relabelling orbit: the worst ratio over z is the same
    on every table of an orbit.  The size guard counts (input,
    representative table) evaluations, in closed form before anything is
    enumerated.
    """
    law = _law(mechanism, params)
    d, s = params.d, params.s
    size = min(2 * s, d if law.paired else 2 * d)
    # Point-set orbits as (a, b): a dims hold both signs' points and b one sign's.  A paired law's points
    # are dims, so all its sets are one orbit; an event-code set of a given a has b = size - 2a.
    orbits = [(size, 0)] if law.paired else [(a, size - 2 * a) for a in range(max(0, size - d), size // 2 + 1)]
    count = sum(math.comb(a, i) * 2**i * math.comb(b, s - i) for a, b in orbits for i in range(s + 1))  # inputs
    count *= _orbit_count(size, _slots(law, params.t), law.paired)
    if count * params.t > _SIZE_GUARD:
        raise ValueError(f"enumeration size {count}*{params.t} exceeds guard {_SIZE_GUARD}")
    cache: dict[tuple, np.ndarray] = {}
    worst = 0.0
    for a, b in orbits:  # representative: dims 1..a with both signs, then b dims with their minus sign
        signs = {j: (-1, 1) if j <= a else (-1,) for j in range(1, a + b + 1)}
        points = tuple(signs) if law.paired else tuple(event_code(j, v) for j, vs in signs.items() for v in vs)
        group = [(x, law.points(x)) for x in _sparse_vectors(s, signs)]
        for table, _ in _uniform_tables(law, points, params.t):
            m = np.stack([_cached_probs(law, x, x_points, table, params, cache) for x, x_points in group])
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
) -> tuple[float, float]:
    """Exact (mean, variance) of one per-user estimator under ideal hashing, from x's one enumeration.

    An input, event or dim outside the params' domain, or the other
    mechanism's probe keyword, is a ValueError raised before any table.
    """
    law = _law(mechanism, params)
    if not isinstance(x, TernaryVector) or (x.d, len(x.support)) != (params.d, params.s):
        raise ValueError(f"x must be a TernaryVector with d={params.d} and s={params.s}, got {x!r}")
    if mechanism == "collision":
        if estimator != "indicator" or event is None or dim is not None:
            raise ValueError("collision supports estimator='indicator' with an event and no dim")
        if not (is_integer(event.index) and 1 <= event.index <= params.d and event.sign in (-1, 1)):
            raise ValueError(f"event must have an integer index in 1..{params.d} and sign -1 or +1, got {event!r}")
        point = event.code
    else:
        if estimator not in ("mean", "nonmissing") or dim is None or event is not None:
            raise ValueError("coco supports estimator in {'mean','nonmissing'} with a dim and no event")
        if not (is_integer(dim) and 1 <= dim <= params.d):
            raise ValueError(f"dim must be an integer in 1..{params.d}, got {dim!r}")
        point = dim
    moments = _input_moments(mechanism, law, params, x.support)[estimator]
    if isinstance(moments, ValueError):
        raise ValueError(*moments.args)
    return moments[point] if point in moments else moments[None]


@functools.lru_cache(maxsize=1)
def _input_moments(mechanism: str, law: TableLaw, params, support: tuple) -> dict[str, dict | ValueError]:
    """Every estimator's {point: (mean, variance)} on one input, or the ValueError of its degenerate denominator;
    the points x does not read share the entry keyed None (CoCo has none at s = d)."""
    points = law.points(support)
    unread = (q for q in range(1, (params.d if law.paired else 2 * params.d) + 1) if q not in points)
    cache, weights, hits = {}, [], {q: [] for q in points + tuple(islice(unread, 1))}
    for table, weight in _uniform_tables(law, tuple(hits), params.t):
        p = _cached_probs(law, support, points, table, params, cache)
        weights.append(weight)
        for q, row in hits.items():  # H(j_+) != H(j_-), so at most one can equal z
            row.append((p[table[q] - 1], p[pair_partner(table[q], params.t) - 1] if law.paired else 0.0))
    total = math.fsum(weights)
    moments: dict[str, dict | ValueError] = {}
    for name, (denominator, terms) in _estimators(mechanism, params).items():
        try:
            den = denominator()
        except ValueError as error:  # a degenerate denominator fails only the calls that ask for its estimator
            moments[name] = error
            continue
        moments[name] = {}
        for q, row in hits.items():
            mean_t, second_t = zip(*(terms(plus, minus, den) for plus, minus in row))
            mean, second = (math.fsum(map(operator.mul, weights, column)) / total for column in (mean_t, second_t))
            moments[name][q if q in points else None] = mean, second - mean**2
    return moments


def _debiased_indicator(p_hit: float, p_false: float, denom: float) -> tuple[float, float]:
    """Mean and second moment of (1[hit] - p_false) / denom when P[hit] = p_hit."""
    hit_v, miss_v = (1.0 - p_false) / denom, (0.0 - p_false) / denom
    return p_hit * hit_v + (1 - p_hit) * miss_v, p_hit * hit_v**2 + (1 - p_hit) * miss_v**2


def _estimators(mechanism: str, params) -> dict[str, tuple[Callable, Callable]]:
    """Each estimator's denominator, unevaluated, and its terms: (P[z = H(q)], P[z = partner], den) -> (mean, second)."""
    if mechanism == "collision":
        indicator = lambda hit, _, den: _debiased_indicator(hit, params.false_prob, den)
        return {"indicator": (lambda: params.denominator, indicator)}
    rates = collision_rates(params.s, params.epsilon, params.t)
    mean = lambda plus, minus, den: ((plus - minus) / den, (plus + minus) / den**2)
    present = lambda plus, minus, den: _debiased_indicator(plus + minus, 2.0 * rates.p_f, den)
    return {"mean": (lambda: rates.mean_denominator, mean), "nonmissing": (lambda: rates.nonmissing_denominator, present)}
