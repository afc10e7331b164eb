"""The (d, s, epsilon, t)-Collision randomizer and its output law.

The randomizer hashes a user's event set into buckets 1..t and emits one
bucket z.  Buckets hit by a hashed event carry relative weight e^eps; the
fixed normaliser Omega = s*e^eps + t - s makes the output law sum to one
for every input, with the probability freed by internal hash conflicts
spread uniformly over the unhit buckets.

Each user's unbiased estimate of the indicator [event in Y_x] is

    ([H(event) = z] - 1/t) / (e^eps/Omega - 1/t);

the server averages it over users from per-event hit counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    MechanismParams, check_batch, check_budget, check_size, debias_denominator, event_code, exp_budget, hash_buckets,
    map_rows, sample_layout,
)


@dataclass(frozen=True)
class CollisionParams(MechanismParams):
    """Validated parameters with the normaliser Omega = s*e^eps + t - s."""

    def __post_init__(self):
        super().__post_init__()
        if self.t <= self.s:
            raise ValueError(f"collision mechanism needs t > s, got t={self.t}, s={self.s}")

    @property
    def omega(self) -> float:
        return collision_omega(self.s, self.epsilon, self.t)

    @property
    def hit_prob(self) -> float:
        """P[z = b] for a bucket b hit by a hashed event: e^eps / Omega."""
        return math.exp(self.epsilon) / self.omega

    @property
    def false_prob(self) -> float:
        """Marginal hit rate 1/t of a uniformly hashed absent event."""
        return 1.0 / self.t

    def residual_prob(self, k: int) -> float:
        """P[z = b] for an unhit bucket when k distinct buckets are hit."""
        return (self.omega - math.exp(self.epsilon) * k) / ((self.t - k) * self.omega)

    @property
    def denominator(self) -> float:
        """e^eps/Omega - 1/t, the debias denominator; a ValueError when it is too close to 0."""
        return debias_denominator(self.hit_prob - self.false_prob, "degenerate parameters: e^eps/Omega equals 1/t")


def collision_omega(s: int, epsilon: float, t: float) -> float:
    """The normaliser Omega = s*e^eps + t - s; an e^eps too large for a float is a ValueError."""
    return exp_budget(epsilon, s) + t - s


def check_collision_params(params: MechanismParams) -> None:
    """Reject params without collision's normaliser, which only ``CollisionParams`` carries, or with a non-integer t."""
    if not isinstance(params, CollisionParams):
        raise ValueError(
            f"collision needs CollisionParams, got {type(params).__name__}; build them with collision_params(d, s, epsilon, t)"
        )
    check_size("t", params.t)


def collision_optimal_t(s: int, epsilon: float) -> int:
    """Closed-form output size max(s+1, floor(s*e^eps + 2s - 1)).  It does not minimise ``collision_predicted_sum_variance``:
    at d = 512, s = 1..32 and eps in 0.001..4 that is up to 5.4% above the best integer t's (s = 1, eps = 0.5: 2 against 3)."""
    check_size("s", s)
    check_budget(epsilon)
    return max(s + 1, math.floor(exp_budget(epsilon, s) + 2 * s - 1))


def collision_params(d: int, s: int, epsilon: float, t: int | None = None) -> CollisionParams:
    return CollisionParams(d=d, s=s, epsilon=epsilon, t=collision_optimal_t(s, epsilon) if t is None else t)


def collision_output_probabilities(hit_buckets: frozenset[int], params: CollisionParams) -> np.ndarray:
    """Exact output law over buckets 1..t given the set of hit buckets."""
    t = params.t
    k = len(hit_buckets)
    probs = np.full(t, params.residual_prob(k))
    for b in hit_buckets:
        probs[b - 1] = params.hit_prob
    return probs


def collision_randomize_batch(
    supports: np.ndarray,
    signs: np.ndarray,
    seeds: np.ndarray,
    params: CollisionParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """One output symbol per row: each of the k distinct hashed buckets at e^eps/Omega, the t - k others at the residual.

    supports: (n, s) 1-based dimension indices, ascending per row.
    signs:    (n, s) entries in {-1, +1}.
    seeds:    (n,) per-user single-layout hash seeds.
    """
    check_collision_params(params)
    check_batch(supports, signs, params.d, params.s)
    u = rng.random(len(supports))

    def rows(r: slice) -> np.ndarray:
        hs = np.sort(hash_buckets(seeds[r, None], event_code(supports[r], signs[r]), params.t), axis=1)
        return sample_layout(u[r], hs, [(hs, params.hit_prob)], params.residual_prob, params.t)

    return map_rows(rows, *supports.shape)


def collision_debias(counts: np.ndarray, n: int, params: CollisionParams) -> np.ndarray:
    """The 2d event-frequency estimates from ``n`` views' per-event hit counts."""
    return (counts / n - params.false_prob) / params.denominator


def collision_predicted_sum_variance(d: int, s: int, epsilon: float, t: float) -> float:
    """Single-user variance of the 2d indicator estimates, summed.

    Treats t as a real parameter; used for the convexity of the t-choice.
    """
    params = CollisionParams(d=d, s=s, epsilon=epsilon, t=t)
    p, q = params.hit_prob, params.false_prob
    return (s * p * (1 - p) + (2 * d - s) * q * (1 - q)) / params.denominator**2
