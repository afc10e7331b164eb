"""Exact small-instance computations used to verify the randomizers.

Everything here enumerates explicit hash tables rather than sampling, so
privacy ratios and estimator moments are exact up to float rounding; sums
are taken with ``math.fsum`` (correctly-rounded accumulation).

Each hash mechanism's output law, its layout and its domain check are
read from its ``aggregate.MECHANISMS`` entry.  The law takes the buckets
of the points an input reads, and its signs, with tables and inputs on
leading axes, so each set of tables is evaluated in one call.
Collision's points are event codes on t buckets; CoCo's (``paired``) are
dims on t/2 bucket pairs (k, k + t/2): a dim maps to j_plus's bucket and
j_minus takes the other one.

Mechanisms only read a hash at the points an instance touches, so the
uniform family over all functions, restricted to those points, is an
exact marginal of the full family; it is the one family the oracle
enumerates.  Both laws are equivariant under relabelling buckets
(permuting slots, and swapping the two buckets of a pair), and every
quantity taken from them here is invariant, so that family is enumerated
as one table per relabelling orbit, weighted by the orbit's share; it is
materialised only when the representatives fit in 20 bits.  Permuting
dimensions and swapping a dimension's two events maps inputs and that
family onto themselves, so ``verify_ldp`` checks one set of hash points
per orbit of that symmetry, and its work does not grow with d.

``exact_estimator_moments`` checks the estimators the server runs: once
per parameter set, one user's hit counts at each outcome of a probe (a
hit on the probed event, on j_minus or j_plus of a paired dim, or none)
go through the registered ``debias`` and ``aggregate.target_values``, and
each table adds sum_o P[o] v_o and sum_o P[o] v_o^2.  Hash values are iid
over points, so an input is enumerated on its points plus one free point
that stands for every point it does not read, once per orbit: x's dims
relabelled 1..s in support order.  Collision's points are event codes,
which carry the signs (one orbit); CoCo's law reads x's signs, so it
keeps them (2^s orbits): its two pair weights are not computed as mirror
images, so folding signs moves ulps.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, islice, product
from typing import Iterator, Sequence

import numpy as np

from .aggregate import Mechanism, mechanism as registered, target_values
from .domain import EventId, TernaryVector, check_sparsity, event_code, is_integer, pair_partner

_SIZE_GUARD = 10**6  # cells of verify_ldp's law arrays: its closed-form (input, representative table) count times t


def _sparse_vectors(s: int, signs: dict[int, tuple[int, ...]]) -> Iterator[tuple]:
    """The supports of s nonzero dims among ``signs``' keys, each dim taking one of its signs."""
    for dims in combinations(signs, s):
        for picked in product(*map(signs.__getitem__, dims)):
            yield tuple(zip(dims, picked))


def all_sparse_vectors(d: int, s: int) -> list[TernaryVector]:
    check_sparsity(d, s)
    return [TernaryVector(d, support) for support in _sparse_vectors(s, dict.fromkeys(range(1, d + 1), (-1, 1)))]


def _law(mechanism: str, params) -> Mechanism:
    """The registered entry of ``mechanism``, once it has a law and its domain check passed on ``params``."""
    mech = registered(mechanism)  # an unknown name is a ValueError
    if mech.law is None:
        raise ValueError(f"mechanism {mechanism!r} has no exact law")
    mech.check(params)
    return mech


def _points(support: tuple, paired: bool) -> tuple[int, ...]:
    """The hash points an input reads: its dims if paired, else its event codes."""
    return tuple(j if paired else event_code(j, b) for j, b in support)


def _orbit_count(n: int, t: int, paired: bool) -> int:
    """Relabelling orbits of tables on n points: sum over k <= slots (t/2 pairs or t) of S(n, k), times 2^(n-k) if paired."""
    slots, members = (t // 2, 2) if paired else (t, 1)
    ways = [1] + [0] * min(slots, n)  # ways[k]: representatives with k slots in use
    for _ in range(n):
        ways = [0] + [ways[k] * k * members + ways[k - 1] for k in range(1, len(ways))]
    return sum(ways)


def _uniform_tables(paired: bool, points: Sequence[int], t: int) -> tuple[np.ndarray, np.ndarray]:
    """One table per relabelling orbit on ``points``, weighted by its share of the uniform family: a (tables, points)
    array of buckets, a row per table and a column per point in ``points``' order, and the tables' weights.

    Slots are numbered by first use and, for a paired layout, the first point
    in a slot takes its lower bucket.  An orbit using k slots holds
    perm(slots, k) tables, times 2^k if paired, out of (slots * 2)^n or
    slots^n.  The 20-bit guard counts representatives before any is built.
    """
    slots, n = t // 2 if paired else t, len(points)
    offsets = (0, slots) if paired else (0,)
    if _orbit_count(n, t, paired) > 1 << 20:
        raise ValueError(f"uniform family on {n} points has more than 2^20 orbit representatives")
    total = (len(offsets) * slots) ** n

    def extend(values: tuple[int, ...], used: int) -> Iterator[tuple[tuple[int, ...], float]]:
        if len(values) == n:
            yield values, math.perm(slots, used) * len(offsets) ** used / total
            return
        for slot in range(1, used + 1):
            for offset in offsets:
                yield from extend(values + (slot + offset,), used)
        if used < slots:
            yield from extend(values + (used + 1,), used + 1)

    rows, weights = zip(*extend((), 0))
    return np.array(rows, dtype=np.int64).reshape(len(rows), n), np.array(weights)


# ---------------------------------------------------------------------------
# LDP verification


def verify_ldp(mechanism: str, params) -> float:
    """Max over inputs, hash tables and outputs of log(P[z|x,H] / P[z|x',H]).

    The check is exhaustive over all hash tables.  A pair (x, x') reads at
    most 2s hash points, so every pair lies in some set of that many points
    of the domain (or in the whole domain), checked on the uniform family
    restricted to it, an exact marginal, over the inputs that read only its
    points.  By the symmetries in the module docstring, one set per orbit of
    dims and signs is checked (d only decides which orbits exist), on one
    table per bucket-relabelling orbit, where the worst ratio over z is the
    same.  Each set's law is one (tables, inputs, t) array from one law call,
    so the size guard's count of (input, representative table) pairs times t,
    taken in closed form before anything is enumerated, is exactly the number
    of cells of those arrays: it bounds memory.
    """
    mech = _law(mechanism, params)
    d, s, paired = params.d, params.s, mech.paired
    size = min(2 * s, d if paired else 2 * d)
    # Point-set orbits as (a, b): a dims hold both signs' points and b one sign's.  A paired layout's points
    # are dims, so all its sets are one orbit; an event-code set of a given a has b = size - 2a.
    orbits = [(size, 0)] if paired else [(a, size - 2 * a) for a in range(max(0, size - d), size // 2 + 1)]
    count = sum(math.comb(a, i) * 2**i * math.comb(b, s - i) for a, b in orbits for i in range(s + 1))  # inputs
    count *= _orbit_count(size, params.t, paired)
    if count * params.t > _SIZE_GUARD:
        raise ValueError(f"enumeration size {count}*{params.t} exceeds guard {_SIZE_GUARD}")
    worst = 0.0
    for a, b in orbits:  # representative: dims 1..a with both signs, then b dims with their minus sign
        signs = {j: (-1, 1) if j <= a else (-1,) for j in range(1, a + b + 1)}
        points = tuple(signs) if paired else tuple(event_code(j, v) for j, vs in signs.items() for v in vs)
        tables, _ = _uniform_tables(paired, points, params.t)
        inputs, column = list(_sparse_vectors(s, signs)), {q: i for i, q in enumerate(points)}
        reads = np.array([[column[q] for q in _points(x, paired)] for x in inputs])  # (inputs, s) columns of tables
        laws = mech.law(tables[:, reads], np.array([[v for _, v in x] for x in inputs]), params)  # (tables, inputs, t)
        worst = max(worst, float(np.max(laws.max(axis=1) / laws.min(axis=1))))
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
    """Exact (mean, variance) of one user's estimate under ideal hashing, from the enumeration of x's orbit.

    The estimate is the registered debias read through ``aggregate.target_values``: an unpaired layout's
    ``indicator`` of an event, a paired layout's ``mean`` or ``nonmissing`` of a dim.  An input, event or dim outside
    the params' domain, the other layout's probe keyword or a degenerate denominator is a ValueError raised before
    any table.
    """
    mech = _law(mechanism, params)
    paired = mech.paired
    if not isinstance(x, TernaryVector) or (x.d, len(x.support)) != (params.d, params.s):
        raise ValueError(f"x must be a TernaryVector with d={params.d} and s={params.s}, got {x!r}")
    probe, other = (dim, event) if paired else (event, dim)
    if estimator not in _ESTIMATORS[paired] or probe is None or other is not None:
        raise ValueError(f"{mechanism} supports estimator in {sorted(_ESTIMATORS[paired])} with "
                         + ("a dim and no event" if paired else "an event and no dim"))
    if paired and not (is_integer(dim) and 1 <= dim <= params.d):
        raise ValueError(f"dim must be an integer in 1..{params.d}, got {dim!r}")
    if not (paired or isinstance(event, EventId) and is_integer(event.index) and 1 <= event.index <= params.d
            and event.sign in (-1, 1)):
        raise ValueError(f"event must have an integer index in 1..{params.d} and sign -1 or +1, got {event!r}")
    point = dim if paired else event.code
    rep = tuple((i, b if paired else 1) for i, (_, b) in enumerate(x.support, 1))
    values, memo = _input_moments(mech, params)
    if rep not in memo:
        memo[rep] = _representative_moments(mech, params, rep, values)
    # x's points map onto the representative's in support order; a point x does not read maps to the free point, last
    reads = _points(x.support, paired)
    return memo[rep][estimator][reads.index(point) if point in reads else -1]


# Each layout's estimators and the ``aggregate`` target each reads: an event code's indicator, a dim's mean or not.
_ESTIMATORS = {False: {"indicator": "frequency"}, True: {"mean": "mean", "nonmissing": "nonmissing"}}


@functools.lru_cache(maxsize=1)
def _input_moments(mech: Mechanism, params) -> tuple[np.ndarray, dict]:
    """One entry's and parameter set's estimates at each outcome of a probe, a row per estimator then per square, and
    its moments, filled in per orbit representative: x's dims relabelled 1..s (signs kept if paired).  The outcomes are
    a hit on the probed point's event (paired: on j_minus, then on j_plus, the debias's column order), then no hit."""
    frequencies = mech.debias(np.eye(3, 2) if mech.paired else np.eye(2, 1), 1, params)  # hit counts per outcome
    values = np.array([target_values(frequencies, target)[:, 0] for target in _ESTIMATORS[mech.paired].values()])
    return np.vstack([values, values**2]), {}


def _representative_moments(mech: Mechanism, params, support: tuple, values: np.ndarray) -> dict[str, list]:
    """Every estimator's (mean, variance) at each point the input reads, in support order, then at one point it does
    not read, which stands for all of them (CoCo has none at s = d), from ``_input_moments``' ``values``."""
    paired = mech.paired
    points = _points(support, paired)
    unread = (q for q in range(1, (params.d if paired else 2 * params.d) + 1) if q not in points)
    probed = points + tuple(islice(unread, 1))
    buckets, weights = _uniform_tables(paired, probed, params.t)
    laws = mech.law(buckets[:, : len(points)], np.array([v for _, v in support]), params)  # (tables, t)
    rows = np.arange(len(buckets))[:, None]
    # P[outcome] per (table, probed point): z on H(q)'s partner (j_minus) if paired, z on H(q), neither
    hits = [laws[rows, b - 1] for b in ((pair_partner(buckets, params.t), buckets) if paired else (buckets,))]
    outcomes = hits + [1 - sum(hits)]
    # sum over outcomes of P[o] v_o per (row of values, table, probed point), in outcome order, times the table's weight
    terms = sum(p * v[:, None, None] for p, v in zip(outcomes, values.T)) * weights[:, None]
    total = math.fsum(weights)
    sums = [[math.fsum(column) / total for column in term.T.tolist()] for term in terms]
    n = len(sums) // 2
    return {name: [(m, v - m**2) for m, v in zip(sums[i], sums[n + i])] for i, name in enumerate(_ESTIMATORS[paired])}
