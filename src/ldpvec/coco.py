"""The correlated-collision (CoCo) randomizer and its collision rates.

CoCo pairs output buckets (k, k + t/2) and orients each dimension's two
events onto one pair with one hash H of the dimension into 1..t: j_plus
takes bucket H(j), and j_minus the other member of its pair.  The present
event's bucket gets relative weight e^eps and its pair partner weight 1,
so within a dimension the two indicator observations are anti-correlated;
that drives the opposite collision rate P_o below the false rate P_f and
shrinks the variance of the mean estimator.

Entries are written in a uniformly random order; on a pair conflict the
later entry overwrites the whole bucket pair.  The weight freed by
overwrites is spread evenly over untouched pairs so the normaliser
Omega = (e^eps + 1)*s + t - 2s holds for every input and hash.  The
randomizer inverts ``coco_layout``, and ``coco_table_probs`` is its law
(``domain.layout_law``), whose two weights on a pair mirror bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    FLOAT_MAX, STREAM_H1, MechanismParams, check_budget, check_size, check_sparsity, debias_denominator, exp_budget,
    hash_buckets, is_real, layout_law, map_rows, pair_partner, read_batch, read_view, sample_layout,
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


def coco_layout(buckets: np.ndarray, signs: np.ndarray, params: MechanismParams):
    """(positions, layers) from x's j_plus buckets and signs: a dim's position is the lower bucket k in 1..t/2 of its
    pair (k, k + t/2), its present event's bucket carries e^eps and the partner 1."""
    t, half = params.t, params.t // 2
    high = np.where(signs < 0, pair_partner(buckets, t), buckets)  # j_minus's bucket where the sign is -1
    return high - half * (high > half), [(high, math.exp(params.epsilon)), (pair_partner(high, t), 1.0)]


def coco_table_probs(buckets: np.ndarray, signs: np.ndarray, params: MechanismParams) -> np.ndarray:
    """P[z | x, table] over z = 1..t, on a new last axis, from x's j_plus buckets and signs on the last axis of
    ``buckets`` and ``signs`` (leading axes, tables and inputs, broadcast): ``coco_layout``'s law under a uniformly
    random write order.  If a of a pair's g writers put e^eps on its lower bucket, it carries (a e^eps + g - a)/g."""
    return layout_law(*coco_layout(buckets, signs, params), coco_omega(params.s, params.epsilon, params.t), params.t // 2)


def coco_randomize_batch(
    supports: np.ndarray,
    signs: np.ndarray,
    seeds: np.ndarray,
    params: MechanismParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """One output symbol per row from ``coco_layout``, under a uniformly random write order: the last writer
    of each of the m distinct occupied bucket pairs puts e^eps on its own event's bucket and 1 on the partner."""
    check_coco_domain(params.s, params.t)
    supports, signs = read_batch(supports, signs, params.d, params.s)
    seeds = read_view("seeds", seeds, 0, 2**64 - 1, ndim=1)
    if len(seeds) != len(supports):
        raise ValueError(f"seeds and supports differ in length: {len(seeds)} vs {len(supports)}")
    (n, s), t, omega = supports.shape, params.t, coco_omega(params.s, params.epsilon, params.t)
    write, u = rng.random((n, s)), rng.random(n)

    def rows(r: slice) -> np.ndarray:
        slot, layers = coco_layout(hash_buckets(seeds[r, None], supports[r], t, STREAM_H1), signs[r], params)
        # Random write order; sorted by slot, and within equal slots the last-written (max) entry first, to lead.
        order = np.lexsort((-write[r], slot), axis=1)
        layers = [(np.take_along_axis(buckets, order, axis=1), weight) for buckets, weight in layers]
        return sample_layout(u[r] * omega, np.take_along_axis(slot, order, axis=1), layers, omega, t // 2)

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
