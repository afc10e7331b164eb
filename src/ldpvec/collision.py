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

from .domain import STREAM_SINGLE, MechanismParams, check_batch, exp_budget, hash_buckets, keyed_hashes


@dataclass(frozen=True)
class CollisionParams(MechanismParams):
    """Validated parameters with the normaliser Omega = s*e^eps + t - s."""

    def __post_init__(self):
        super().__post_init__()
        if self.t <= self.s:
            raise ValueError(f"collision mechanism needs t > s, got t={self.t}, s={self.s}")

    @property
    def omega(self) -> float:
        return self.s * math.exp(self.epsilon) + self.t - self.s

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


def check_collision_params(params: MechanismParams) -> None:
    """Reject params without collision's normaliser, which only ``CollisionParams`` carries."""
    if not isinstance(params, CollisionParams):
        raise ValueError(
            f"collision needs CollisionParams, got {type(params).__name__}; build them with collision_params(d, s, epsilon, t)"
        )


def collision_optimal_t(s: int, epsilon: float) -> int:
    """Variance-minimising output size: max(s+1, floor(s*e^eps + 2s - 1))."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return max(s + 1, math.floor(exp_budget(epsilon, s) + 2 * s - 1))


def collision_params(d: int, s: int, epsilon: float, t: int | None = None) -> CollisionParams:
    if t is None:
        t = collision_optimal_t(s, epsilon)
    return CollisionParams(d=d, s=s, epsilon=epsilon, t=t)


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
    """Sample one output symbol per row of ``supports``.

    Each row's single uniform draw is routed through a two-segment inverse
    CDF: the hit segment selects among the k distinct hashed buckets, the
    residual segment selects uniformly among the t - k others.

    supports: (n, s) 1-based dimension indices, ascending per row.
    signs:    (n, s) entries in {-1, +1}.
    seeds:    (n,) per-user single-layout hash seeds.
    """
    check_collision_params(params)
    check_batch(supports, signs, params)
    n, s = supports.shape
    t = params.t
    codes = 2 * supports - 1 + (signs > 0)
    h = hash_buckets(seeds[:, None], codes, t)
    hs = np.sort(h, axis=1)
    new = np.ones_like(hs, dtype=bool)
    new[:, 1:] = hs[:, 1:] != hs[:, :-1]
    k = new.sum(axis=1)

    p_hit = params.hit_prob
    u = rng.random(n)
    is_hit = u < k * p_hit

    # Hit branch: pick the idx-th distinct hashed bucket (ascending).
    idx = np.minimum((u / p_hit).astype(np.int64), k - 1)
    rank = np.cumsum(new, axis=1) - 1
    sel = new & (rank == idx[:, None])
    z_hit = (hs * sel).sum(axis=1)

    # Residual branch: the m-th smallest bucket outside the hit set.
    q = (params.omega - math.exp(params.epsilon) * k) / ((t - k) * params.omega)
    m = np.minimum(((u - k * p_hit) / q).astype(np.int64), t - k - 1)
    m = np.maximum(m, 0)
    z_miss = m + 1
    for col in range(s):
        z_miss += (new[:, col] & (hs[:, col] <= z_miss)).astype(np.int64)

    return np.where(is_hit, z_hit, z_miss)


def collision_event_hits(seeds: np.ndarray, z: np.ndarray, params: MechanismParams) -> np.ndarray:
    """Whether each user's hash sends event code c onto its symbol z, for c = 1..2d: (m, 2d) bool.

    The buckets are compared 0-based in uint64: H(c) - 1 = mix(seed ^ key(c)) mod t against z - 1.
    Collision's debias needs ``CollisionParams``, so other params are rejected here, before any hashing.
    """
    check_collision_params(params)
    vals = keyed_hashes(seeds[:, None], np.arange(1, 2 * params.d + 1), STREAM_SINGLE)
    np.remainder(vals, np.uint64(params.t), out=vals)
    return vals == (z - 1).astype(np.uint64)[:, None]


def collision_predicted_sum_variance(d: int, s: int, epsilon: float, t: float) -> float:
    """Single-user variance of the 2d indicator estimates, summed.

    Treats t as a real parameter; used for the convexity of the t-choice.
    """
    omega = s * math.exp(epsilon) + t - s
    p = math.exp(epsilon) / omega
    q = 1.0 / t
    return (s * p * (1 - p) + (2 * d - s) * q * (1 - q)) / (p - q) ** 2
