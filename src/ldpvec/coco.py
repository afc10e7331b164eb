"""The correlated-collision (CoCo) randomizer and its collision rates.

CoCo pairs output buckets (k, k + t/2) and orients each dimension's two
events onto one pair with one hash H of the dimension into 1..t: j_plus
takes bucket H(j), and j_minus the other member of its pair.  The present
event's bucket gets relative weight e^eps and its pair partner weight 1,
so within a dimension the two indicator observations are anti-correlated;
that drives the opposite collision rate P_o below the false rate P_f and
shrinks the variance of the mean estimator.

Entries are written in a uniformly random order; on a pair conflict the
later entry overwrites the whole bucket pair.  The probability freed by
overwrites is spread evenly over untouched pairs so the normaliser
Omega = (e^eps + 1)*s + t - 2s holds for every input and hash
(``coco_table_probs``, for arrays of hash tables and inputs at once),
whose two weights on a pair are mirror images bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    FLOAT_MAX, STREAM_H1, MechanismParams, check_batch, check_budget, check_size, check_sparsity, debias_denominator,
    exp_budget, hash_buckets, is_real, map_rows, pair_partner, sample_layout,
)


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

    @property
    def mean_denominator(self) -> float:
        """p_t - p_o, the mean estimate's debias denominator; a ValueError when it is too close to 0."""
        return debias_denominator(self.p_t - self.p_o, "degenerate rates: p_t equals p_o")

    @property
    def nonmissing_denominator(self) -> float:
        """p_t + p_o - 2 p_f, the non-missing estimate's debias denominator; a ValueError when it is too close to 0."""
        return debias_denominator(self.p_t + self.p_o - 2.0 * self.p_f, "degenerate rates: p_t + p_o equals 2 p_f")


def coco_omega(s: int, epsilon: float, t: int) -> float:
    """The normaliser Omega = (e^eps + 1)*s + t - 2s; an e^eps too large for a float is a ValueError."""
    return (exp_budget(epsilon) + 1.0) * s + t - 2 * s


def check_coco_domain(s: int, t: int) -> None:
    """Reject a (s, t) outside CoCo's domain, an integer t with even t >= 2s+2 that a float holds, with a ValueError."""
    check_size("s", s)
    check_size("t", t)
    if t > FLOAT_MAX:  # the closed forms take t as a float
        raise ValueError(f"t must be at most {FLOAT_MAX:g}, got t={t}")
    if t % 2 != 0 or t < 2 * s + 2:
        raise ValueError(f"CoCo needs even t >= 2s+2, got t={t}, s={s}")


def overwrite_probability(s: int, t: int) -> float:
    """Chance a non-zero entry's bucket pair is overwritten by a later entry.

    Closed form 1 - (t^s - (t-2)^s) / (2 t^(s-1) s), derived from the
    uniform rank of an entry and independent 2/t pair collisions, taken as
    1 + t * expm1(s * log1p(-2/t)) / (2s): the ratio form's 1 - ((t-2)/t)^s
    lost about t * 1e-16 and reached 1.0 from t ~ 1e17.  At s = 1 it is
    exactly 0, which rounding can leave 1e-16 off; it is clamped at 0.
    """
    check_coco_domain(s, t)
    return max(0.0, 1.0 + t * math.expm1(s * math.log1p(-2.0 / t)) / (2.0 * s))


def collision_rates(s: int, epsilon: float, t: int) -> CollisionRates:
    """Marginal collision rates of CoCo under ideal uniform hashing."""
    p_ow = overwrite_probability(s, t)  # checks (s, t) against CoCo's domain
    if not (is_real(epsilon) and epsilon >= 0):  # a bool is no budget, and nan is not >= 0
        raise ValueError(f"epsilon must be a non-negative real number, got epsilon={epsilon!r}")
    omega = coco_omega(s, epsilon, t)
    eeps = math.exp(epsilon)
    shared = p_ow * (eeps + 1.0) / (2.0 * omega)
    p_t = shared + (1.0 - p_ow) * eeps / omega
    p_o = shared + (1.0 - p_ow) * 1.0 / omega
    p_f = 1.0 / t
    return CollisionRates(p_t=p_t, p_f=p_f, p_o=p_o, p_ow=p_ow)


def coco_choose_t(s: int, epsilon: float, which: str) -> int:
    """Closed-form output size, rounded up to the nearest even t >= 2s+2, as the randomizer needs even t:

    mean:       ceil(e^eps s + s + 2)
    nonmissing: ceil(e^eps s + 5 s)
    It does not minimise ``coco_predicted_mse``: at d = 512, s = 1..32 and eps in 0.001..4 that is up to 50% (mean)
    and 33% (nonmissing) above the best even t's, both at s = 1, eps = 0.001 (6 and 8 against 4).
    """
    check_size("s", s)
    check_budget(epsilon)
    check_which(which)
    t = math.ceil(exp_budget(epsilon, s) + s + 2) if which == "mean" else math.ceil(exp_budget(epsilon, s) + 5 * s)
    t = max(t, 2 * s + 2)
    return t + t % 2


def check_which(which) -> None:
    """Reject a target other than CoCo's two: its ``mean`` and ``nonmissing`` estimates."""
    if which not in ("mean", "nonmissing"):
        raise ValueError(f"which must be 'mean' or 'nonmissing', got {which!r}")


def coco_params(d: int, s: int, epsilon: float, t: int | None = None, which: str = "mean") -> MechanismParams:
    if t is None:
        t = coco_choose_t(s, epsilon, which)  # checks which
    else:
        check_which(which)
    check_coco_domain(s, t)
    return MechanismParams(d=d, s=s, epsilon=epsilon, t=t)


def coco_free_weight(params: MechanismParams, m):
    """The weight (Omega - m(e^eps + 1))/(t - 2m) of a free pair's bucket with m pairs occupied (an int or array m)."""
    return (coco_omega(params.s, params.epsilon, params.t) - m * (math.exp(params.epsilon) + 1.0)) / (params.t - 2 * m)


def coco_table_probs(buckets: np.ndarray, signs: np.ndarray, params: MechanismParams) -> np.ndarray:
    """P[z | x, table] over z = 1..t, on a new last axis, from x's j_plus buckets and signs on the last axis of
    ``buckets`` and ``signs`` (leading axes, tables and inputs, broadcast), under a uniformly random write order.

    It is in closed form over surviving writers: only the last writer of each bucket pair (k, k + t/2), its
    slot k, survives, uniform over the slot's g writers.  If a of them put their e^eps bucket at k and b = g - a at
    k + t/2, bucket k carries weight (a e^eps + b)/g and bucket k + t/2 (b e^eps + a)/g: mirror images, so swapping
    the pair or a writer's sign swaps them bit for bit.  With m occupied slots, every bucket of a free pair carries
    ``coco_free_weight``.  Each row's weights must lie in [1, e^eps] and sum to Omega.
    """
    t, half = params.t, params.t // 2
    eeps, omega = math.exp(params.epsilon), coco_omega(params.s, params.epsilon, t)
    slot = buckets - half * (buckets > half)  # the pair's lower bucket, in 1..t/2
    writes = slot[..., None] == np.arange(1, half + 1)  # (..., writer, slot)
    g = writes.sum(axis=-2)
    # a writer puts e^eps on its slot's lower bucket when j_plus is there and x_j = +1, or j_plus is not and x_j = -1
    a = (writes & ((buckets <= half) == (signs > 0))[..., None]).sum(axis=-2)
    b = g - a
    free = coco_free_weight(params, (g > 0).sum(axis=-1))[..., None]
    g_or_1 = np.maximum(g, 1)  # a free slot divides by 1, not 0, and takes ``free``
    w = np.concatenate([np.where(g > 0, (a * eeps + b) / g_or_1, free),
                        np.where(g > 0, (b * eeps + a) / g_or_1, free)], axis=-1)
    total = w.sum(axis=-1)
    if np.any(abs(total - omega) > 1e-9 * max(1.0, omega)):
        raise ValueError(f"weights sum to {total.flat[np.argmax(abs(total - omega))]}, expected omega={omega}")
    if w.min() < 1.0 - 1e-12 or w.max() > eeps * (1.0 + 1e-12):
        raise ValueError("weights must lie in [1, e^eps]")
    return w / omega


def coco_randomize_batch(
    supports: np.ndarray,
    signs: np.ndarray,
    seeds: np.ndarray,
    params: MechanismParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """One output symbol per row under a uniformly random write order (the surviving-writer law of
    ``coco_table_probs``): the last writer of each of the m distinct occupied bucket pairs puts e^eps on
    its own event's bucket and 1 on the partner, and the t - 2m buckets of the other pairs take ``coco_free_weight``.
    """
    check_coco_domain(params.s, params.t)
    check_batch(supports, signs, params.d, params.s)
    (n, s), t, half = supports.shape, params.t, params.t // 2
    eeps, omega = math.exp(params.epsilon), coco_omega(s, params.epsilon, t)
    write, u = rng.random((n, s)), rng.random(n)

    def rows(r: slice) -> np.ndarray:
        high = hash_buckets(seeds[r, None], supports[r], t, STREAM_H1)  # j_plus's bucket; where the sign is -1,
        np.copyto(high, pair_partner(high, t), where=signs[r] < 0)  # j_minus's: the bucket carrying e^eps
        slot = high - half * (high > half)  # the pair's lower bucket, in 1..t/2
        # Random write order; sorted by slot, and within equal slots the last-written (max) entry first.
        order = np.lexsort((-write[r], slot), axis=1)
        slot_s, high_s = np.take_along_axis(slot, order, axis=1), np.take_along_axis(high, order, axis=1)
        layers = [(high_s, eeps), (pair_partner(high_s, t), 1.0)]
        return sample_layout(u[r] * omega, slot_s, layers, functools.partial(coco_free_weight, params), half)

    return map_rows(rows, n, s)


def coco_debias(counts: np.ndarray, n: int, params: MechanismParams) -> np.ndarray:
    """The 2d event-frequency estimates, (nonmissing +- mean) / 2 per dimension, from ``n`` views' hit counts."""
    rates = collision_rates(params.s, params.epsilon, params.t)
    plus, minus = counts[..., 1::2], counts[..., 0::2]
    mean = (plus - minus) / (n * rates.mean_denominator)
    nonmissing = (plus + minus - 2.0 * n * rates.p_f) / (n * rates.nonmissing_denominator)
    values = np.empty(counts.shape)
    values[..., 1::2] = (nonmissing + mean) / 2.0  # j_plus
    values[..., 0::2] = (nonmissing - mean) / 2.0  # j_minus
    return values


def coco_predicted_mse(d: int, s: int, rates: CollisionRates, which: str) -> float:
    """Single-user summed estimator MSE predicted from the collision rates."""
    check_sparsity(d, s)
    check_which(which)
    both, p_f = rates.p_t + rates.p_o, rates.p_f
    if which == "nonmissing":
        return (s * both * (1.0 - both) + (d - s) * 2.0 * p_f * (1.0 - 2.0 * p_f)) / rates.nonmissing_denominator**2
    denom = rates.mean_denominator
    return (s * (both - denom**2) + (d - s) * 2.0 * p_f) / denom**2
