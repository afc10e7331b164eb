"""Exact small-instance computations used to verify the randomizers.

Everything here enumerates explicit hash tables rather than sampling, so
privacy ratios and estimator moments are exact up to float rounding; sums
are taken with ``math.fsum`` (correctly-rounded accumulation).

Each hash mechanism's output law, its layout and its domain check are
read from its ``aggregate.MECHANISMS`` entry; the law is that of the
layout its randomizer inverts (``domain.layout_law``).  It takes the
buckets of the points an input reads, and its signs, with tables on
leading axes, so each set of tables is evaluated in one call.
Collision's points are event codes on t buckets; CoCo's (``paired``) are
dims on t/2 bucket pairs (k, k + t/2): a dim maps to j_plus's bucket and
j_minus takes the other one.

Mechanisms only read a hash at the points an instance touches, so the
uniform family over all functions, restricted to those points, is an
exact marginal of the full family; it is the one family the oracle
enumerates.  Both laws are equivariant under relabelling buckets
(permuting slots, and swapping the two buckets of a pair) bit for bit,
and every quantity taken from them here is invariant, so that family is
enumerated as one table per relabelling orbit, weighted by the orbit's
share; it is materialised only when the representatives fit in 20 bits.

Hash values are iid over points, and permuting dims maps inputs and that
family onto themselves, so one input, ((1, +1), ..., (s, +1)), stands for
all of a parameter set: its orbit tables on its s points are the one set
enumerated.  A CoCo dim of sign -1 has, bit for bit, the law of the +1 dim
on its mirrored bucket, so its j_minus and j_plus outcomes swap.  A moment
is the dot product of a probe's outcome law (a hit on the probed event, on
j_minus or j_plus of a paired dim, or none), averaged over the tables at
the representative's first point, which stands for every point x reads, or
1/t per hit at an unread one, with one user's estimate per outcome through
the registered ``debias``.  One memo per registry entry and parameter set,
keyed by value and made once the entry's domain check passed, holds the
loss and moments, never the law array: both callers share one enumeration
and one check, and a later probe costs its own checks and a lookup.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, product
from typing import Iterator

import numpy as np

from .aggregate import Mechanism, mechanism as registered, target_values
from .domain import EventId, TernaryVector, check_sparsity, is_integer, pair_partner

# Cells of the one law array both callers read, the representative's orbit tables on s points times t.  It admits
# CoCo's full-scale shapes (d = 512, s = 8: 75,905 tables x t <= 100) at a few hundred MB, and refuses a t of 2^40.
_LAW_GUARD = 1 << 26


def all_sparse_vectors(d: int, s: int) -> list[TernaryVector]:
    check_sparsity(d, s)  # before the lookup, where (3, 1.0) would be (3, 1)
    return list(_sparse_vectors(d, s))


@functools.lru_cache(maxsize=2, typed=True)
def _sparse_vectors(d: int, s: int) -> tuple[TernaryVector, ...]:
    return tuple(TernaryVector(d, tuple(zip(dims, signs)))
                 for dims in combinations(range(1, d + 1), s) for signs in product((-1, 1), repeat=s))


def _law(mechanism: str) -> Mechanism:
    """The registered entry of ``mechanism``, once it has a law."""
    mech = registered(mechanism)  # an unknown name is a ValueError
    if mech.law is None:
        raise ValueError(f"mechanism {mechanism!r} has no exact law")
    return mech


def _orbit_count(n: int, t: int, paired: bool) -> int:
    """Relabelling orbits of tables on n points: sum over k <= slots (t/2 pairs or t) of S(n, k), times 2^(n-k) if paired."""
    slots, members = (t // 2, 2) if paired else (t, 1)
    ways = [1] + [0] * min(slots, n)  # ways[k]: representatives with k slots in use
    for _ in range(n):
        ways = [0] + [ways[k] * k * members + ways[k - 1] for k in range(1, len(ways))]
    return sum(ways)


def _uniform_tables(paired: bool, n: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """One table per relabelling orbit on n points, weighted by its share of the uniform family: a (tables, n) array
    of buckets, a row per table and a column per point, and the tables' weights.

    Slots are numbered by first use and, for a paired layout, the first point
    in a slot takes its lower bucket.  An orbit using k slots holds
    perm(slots, k) tables, times 2^k if paired, out of (slots * 2)^n or
    slots^n.  The 20-bit guard counts representatives before any is built.
    """
    slots = int(t) // 2 if paired else int(t)  # Python ints, as a numpy int32 t's family size t^n overflows
    offsets = (0, slots) if paired else (0,)
    if _orbit_count(n, t, paired) > 1 << 20:
        raise ValueError(f"uniform family on {n} points has more than 2^20 orbit representatives")
    total = (len(offsets) * slots) ** int(n)

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
    """log(max P[z|x,H] / min P[z|x,H]) over one input x (the representative), its orbit tables H and outputs z.

    An input's law depends only on the buckets of its own s points, and every input shares one z-space, so by the
    module docstring's symmetries every (x, H, z) has a cell of the same value in that one law.  So this is an upper
    bound on the max over inputs x, x', tables and z of log(P[z|x,H] / P[z|x',H]), and equals it wherever one pair
    on one table attains both extremes at one z (it lies above by ulps for CoCo at s = d).  The size guard counts
    the cells of that (tables, t) law array in closed form before any table is built: it bounds memory.
    """
    return _enumerated(_law(mechanism), params)["loss"]


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
    """Exact (mean, variance) of one user's estimate under ideal hashing, read off the representative's enumeration.

    The estimate is the registered debias read through ``aggregate.target_values``: an unpaired layout's
    ``indicator`` of an event, a paired layout's ``mean`` or ``nonmissing`` of a dim.  An input, event or dim outside
    the params' domain, the other layout's probe keyword, a degenerate denominator or a law array of more than
    ``_LAW_GUARD`` cells is a ValueError raised before any table.
    """
    mech = _law(mechanism)
    memo, paired = _input_moments(mech, params), mech.paired
    if not isinstance(x, TernaryVector) or (x.d, len(x.support)) != (params.d, params.s):
        raise ValueError(f"x must be a TernaryVector with d={params.d} and s={params.s}, got {x!r}")
    probe, other = (dim, event) if paired else (event, dim)
    if estimator not in _ESTIMATORS[paired] or probe is None or other is not None:
        raise ValueError(f"{mechanism} supports estimator in {sorted(_ESTIMATORS[paired])} with "
                         + ("a dim and no event" if paired else "an event and no dim"))
    if paired and not (is_integer(dim) and 1 <= dim <= params.d):
        raise ValueError(f"dim must be an integer in 1..{params.d}, got {dim!r}")
    if not (paired or isinstance(event, EventId) and is_integer(event.index) and 1 <= event.index <= params.d
            and is_integer(event.sign) and event.sign in (-1, 1)):
        raise ValueError(f"event must have an integer index in 1..{params.d} and sign -1 or +1, got {event!r}")
    held = next((b for j, b in x.support if j == (dim if paired else event.index)), 0)  # x's sign at the dim, or 0
    read = held != 0 if paired else held == event.sign
    moments = memo.get("moments") or _moments(mech, params)
    return moments[read and held < 0, estimator][not read]


# Each layout's estimators and the ``aggregate`` target each reads: an event code's indicator, a dim's mean or not.
_ESTIMATORS = {False: {"indicator": "frequency"}, True: {"mean": "mean", "nonmissing": "nonmissing"}}


@functools.lru_cache(maxsize=1)
def _input_moments(mech: Mechanism, params) -> dict:
    """One entry's and parameter set's memo, filled as it is read, made once the entry's domain check passed.  Keyed by
    value: every check reads values only, as t is an integer, and a replaced entry's functions compare by identity."""
    mech.check(params)
    return {}


def _enumerated(mech: Mechanism, params) -> dict:
    """The memo with the privacy loss and the (read, unread) law of a probe's outcomes: a hit, paired: on j_minus,
    then j_plus, the debias's column order; then none.  Over ``_LAW_GUARD`` law cells are refused before any table."""
    memo = _input_moments(mech, params)
    if "loss" not in memo:
        count = _orbit_count(params.s, params.t, mech.paired)
        if count * int(params.t) > _LAW_GUARD:  # in Python ints: a numpy t's product could wrap below the guard
            raise ValueError(f"enumeration size {count}*{params.t} exceeds guard {_LAW_GUARD}")
        buckets, weights = _uniform_tables(mech.paired, params.s, params.t)
        laws = mech.law(buckets, np.ones(params.s, dtype=np.int64), params)  # (tables, t)
        first, rows, total = buckets[:, 0], np.arange(len(buckets)), math.fsum(weights)
        read = (pair_partner(first, params.t), first) if mech.paired else (first,)
        # each hit's probability, z on H(q)'s partner (j_minus) if paired then on H(q): averaged over the tables at
        # the representative's first point, and 1/t at an unread point, whose bucket is uniform and independent of z
        hits = [[math.fsum(weights * laws[rows, b - 1]) / total for b in read], [1 / params.t] * len(read)]
        memo.update(loss=math.log(float(laws.max() / laws.min())), law=np.array([row + [1 - sum(row)] for row in hits]))
    return memo


def _moments(mech: Mechanism, params) -> dict[tuple[bool, str], list]:
    """(mean, variance) read then unread, keyed by (mirrored, estimator), through the debias, run first once per
    orientation.  Mirrored, as a dim of sign -1 reads them, the counts' columns swap: CoCo's mean is negated."""
    targets, counts = _ESTIMATORS[mech.paired], np.eye(3, 2) if mech.paired else np.eye(2, 1)
    estimates = [mech.debias(c, 1, params) for c in (counts, counts[:, ::-1])]  # before any table
    values = np.array([target_values(e, target)[:, 0] for e in estimates for target in targets.values()])  # row per key
    memo = _enumerated(mech, params)
    means, seconds = ((memo["law"][:, None] * w).sum(axis=-1).T.tolist() for w in (values, values**2))
    moments = [[(m, e2 - m**2) for m, e2 in zip(*key)] for key in zip(means, seconds)]
    return memo.setdefault("moments", dict(zip(product((False, True), targets), moments)))
