"""The correlated-collision (CoCo) randomizer and its collision rates.

CoCo pairs output buckets (k, k + t/2) and orients each dimension's two
events onto one pair via hashes H1 (dimension -> half-bucket) and H2
(dimension -> sign).  The present event's bucket gets relative weight
e^eps and its pair partner weight 1, so within a dimension the two
indicator observations are anti-correlated; that drives the opposite
collision rate P_o below the false rate P_f and shrinks the variance of
the mean estimator.

Entries are written in a uniformly random order; on an H1 conflict the
later entry overwrites the whole bucket pair.  The probability freed by
overwrites is spread evenly over untouched pairs so the normaliser
Omega = (e^eps + 1)*s + t - 2s holds for every input and hash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import MechanismParams, check_batch, exp_budget, pair_signs, pair_slots


@dataclass(frozen=True)
class CollisionRates:
    """True/false/opposite collision rates plus the overwrite probability."""

    p_t: float
    p_f: float
    p_o: float
    p_ow: float

    def __post_init__(self):
        for name in ("p_t", "p_f", "p_o", "p_ow"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} is not a probability")


def coco_omega(s: int, epsilon: float, t: int) -> float:
    return (math.exp(epsilon) + 1.0) * s + t - 2 * s


def _check_domain(s: int, t: int) -> None:
    if s < 1:
        raise ValueError("s must be >= 1")
    if t % 2 != 0 or t < 2 * s + 2:
        raise ValueError(f"CoCo needs even t >= 2s+2, got t={t}, s={s}")


def overwrite_probability(s: int, t: int) -> float:
    """Chance a non-zero entry's bucket pair is overwritten by a later entry.

    Closed form 1 - (t^s - (t-2)^s) / (2 t^(s-1) s), derived from the
    uniform rank of an entry and independent 2/t pair collisions.
    """
    _check_domain(s, t)
    ratio = (t - 2.0) / t
    return 1.0 - t * (1.0 - ratio**s) / (2.0 * s)


def collision_rates(s: int, epsilon: float, t: int) -> CollisionRates:
    """Marginal collision rates of CoCo under ideal uniform hashing."""
    _check_domain(s, t)
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    p_ow = overwrite_probability(s, t)
    omega = coco_omega(s, epsilon, t)
    eeps = math.exp(epsilon)
    shared = p_ow * (eeps + 1.0) / (2.0 * omega)
    p_t = shared + (1.0 - p_ow) * eeps / omega
    p_o = shared + (1.0 - p_ow) * 1.0 / omega
    p_f = 1.0 / t
    return CollisionRates(p_t=p_t, p_f=p_f, p_o=p_o, p_ow=p_ow)


def coco_choose_t(s: int, epsilon: float, which: str) -> int:
    """Output-size choice minimising the predicted MSE, rounded up to even.

    mean:       ceil(e^eps s + s + 2)
    nonmissing: ceil(e^eps s + 5 s)
    The ceiling can be odd while the randomizer needs even t, so the value
    is rounded up to the nearest even integer >= 2s+2.
    """
    if s < 1 or not epsilon > 0:
        raise ValueError("need s >= 1 and epsilon > 0")
    if which == "mean":
        t = math.ceil(exp_budget(epsilon, s) + s + 2)
    elif which == "nonmissing":
        t = math.ceil(exp_budget(epsilon, s) + 5 * s)
    else:
        raise ValueError(f"which must be 'mean' or 'nonmissing', got {which!r}")
    t = max(t, 2 * s + 2)
    if t % 2 != 0:
        t += 1
    return t


def coco_params(d: int, s: int, epsilon: float, t: int | None = None, which: str = "mean") -> MechanismParams:
    if t is None:
        t = coco_choose_t(s, epsilon, which)
    _check_domain(s, t)
    return MechanismParams(d=d, s=s, epsilon=epsilon, t=t)


def coco_randomize_batch(
    supports: np.ndarray,
    signs: np.ndarray,
    seeds: np.ndarray,
    params: MechanismParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample one output symbol per row.

    Each row follows CoCo's law under a uniformly random write order (the
    surviving-writer law of ``oracle._coco_table_probs``), but the
    bucket-pair weight layout is never materialised.  For each row the
    surviving (last-written) entry per distinct H1 value is found by
    sorting, then a single uniform draw picks a weight-e^eps bucket, a
    weight-1 bucket or a residual bucket.
    """
    _check_domain(params.s, params.t)
    check_batch(supports, signs, params)
    n, s = supports.shape
    t = params.t
    half = t // 2
    eeps = math.exp(params.epsilon)
    omega = coco_omega(s, params.epsilon, t)

    h1 = pair_slots(seeds[:, None], supports, t)
    sg2 = pair_signs(seeds[:, None], supports)
    hi_bit = (signs * sg2 + 1) // 2
    high = h1 + hi_bit * half  # bucket carrying weight e^eps per slot
    low = 2 * h1 + half - high

    # Random write order; within equal H1 the max-rank slot wins.
    ranks = np.argsort(np.argsort(rng.random((n, s)), axis=1), axis=1)
    order = np.argsort(h1 * s + (s - 1 - ranks), axis=1)
    h1_s = np.take_along_axis(h1, order, axis=1)
    high_s = np.take_along_axis(high, order, axis=1)
    low_s = np.take_along_axis(low, order, axis=1)
    lead = np.ones((n, s), dtype=bool)
    lead[:, 1:] = h1_s[:, 1:] != h1_s[:, :-1]
    m = lead.sum(axis=1)  # surviving bucket pairs
    grp = np.cumsum(lead, axis=1) - 1

    u = rng.random(n) * omega
    seg_high = u < m * eeps
    seg_low = ~seg_high & (u < m * (eeps + 1.0))

    idx_high = np.minimum((u / eeps).astype(np.int64), m - 1)
    idx_low = np.minimum((u - m * eeps).astype(np.int64), m - 1)
    idx = np.where(seg_high, idx_high, idx_low)
    pick = lead & (grp == idx[:, None])
    z_high = (high_s * pick).sum(axis=1)
    z_low = (low_s * pick).sum(axis=1)

    # Residual: the r-th bucket among unassigned pairs.
    w = (omega - m * (eeps + 1.0)) / (t - 2 * m)
    v = u - m * (eeps + 1.0)
    r = np.minimum((v / w).astype(np.int64), t - 2 * m - 1)
    r = np.maximum(r, 0)
    free = half - m
    pos = r % np.maximum(free, 1)
    member = r // np.maximum(free, 1)
    pv = pos + 1
    for col in range(s):
        pv += (lead[:, col] & (h1_s[:, col] <= pv)).astype(np.int64)
    z_res = pv + member * half

    return np.where(seg_high, z_high, np.where(seg_low, z_low, z_res))


def coco_event_buckets(seeds: np.ndarray, params: MechanismParams) -> np.ndarray:
    """Each user's bucket for every event code 1..2d, shape (n, 2d): j_plus is code 2j."""
    half = params.t // 2
    dims = np.arange(1, params.d + 1, dtype=np.int64)
    h1 = pair_slots(seeds[:, None], dims[None, :], params.t)
    up = (pair_signs(seeds[:, None], dims[None, :]) > 0) * half  # j_plus's offset above H1(j)
    buckets = np.empty((len(seeds), params.d, 2), dtype=np.int64)  # (j_minus, j_plus) per dimension
    np.subtract(h1 + half, up, out=buckets[:, :, 0])
    np.add(h1, up, out=buckets[:, :, 1])
    return buckets.reshape(len(seeds), 2 * params.d)


def coco_predicted_mse(d: int, s: int, rates: CollisionRates, which: str) -> float:
    """Single-user summed estimator MSE predicted from the collision rates."""
    if d < s:
        raise ValueError("need d >= s")
    if which == "nonmissing":
        denom = (rates.p_t + rates.p_o - 2.0 * rates.p_f) ** 2
        if denom < 1e-30:
            raise ValueError("degenerate rates: p_t + p_o equals 2 p_f")
        both = rates.p_t + rates.p_o
        return (s * both * (1.0 - both) + (d - s) * 2.0 * rates.p_f * (1.0 - 2.0 * rates.p_f)) / denom
    if which == "mean":
        denom = (rates.p_t - rates.p_o) ** 2
        if denom < 1e-30:
            raise ValueError("degenerate rates: p_t equals p_o")
        both = rates.p_t + rates.p_o
        return (s * (both - (rates.p_t - rates.p_o) ** 2) + (d - s) * 2.0 * rates.p_f) / denom
    raise ValueError(f"which must be 'mean' or 'nonmissing', got {which!r}")
