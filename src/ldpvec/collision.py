"""The (d, s, epsilon, t)-Collision randomizer and its output law.

The randomizer hashes a user's event set into buckets 1..t and emits one
bucket z.  Buckets hit by a hashed event carry relative weight e^eps; the
fixed normaliser Omega = s*e^eps + t - s makes the output law sum to one
for every input, with the weight freed by internal hash conflicts spread
evenly over the unhit buckets.  ``collision_layout`` states that layout once:
the randomizer inverts it (``domain.randomize_layout``), and its law is
``domain.layout_law`` of it.

Each user's unbiased estimate of the indicator [event in Y_x] is

    ([H(event) = z] - 1/t) / (e^eps/Omega - 1/t);

the server averages it over users from per-event hit counts.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import (
    MechanismParams, check_budget, check_size, check_sparsity, debias_denominator, exp_budget, randomize_layout,
)


def collision_omega(s: int, epsilon: float, t: float) -> float:
    """The normaliser Omega = s*e^eps + t - s; an e^eps or an Omega too large for a float is a ValueError."""
    omega = exp_budget(epsilon, s) + t - s
    if math.isinf(omega):  # t ~ s*e^eps at the default t, so from eps ~ 709.1 at s = 1
        raise ValueError(f"epsilon={epsilon} is too large: the normaliser s*e^epsilon + t - s overflows float arithmetic")
    return omega


def check_collision_domain(s: int, t: int) -> None:
    """Reject a (s, t) outside collision's domain, an integer t > s, with a ValueError."""
    check_size("s", s)
    check_size("t", t)
    if t <= s:
        raise ValueError(f"collision mechanism needs t > s, got t={t}, s={s}")


def collision_hit_prob(s: int, epsilon: float, t: float) -> float:
    """P[z = b] for a bucket b hit by a hashed event: e^eps / Omega."""
    return math.exp(epsilon) / collision_omega(s, epsilon, t)


def collision_denominator(s: int, epsilon: float, t: float) -> float:
    """e^eps/Omega - 1/t, the debias denominator; a ValueError when it is too close to 0."""
    return debias_denominator(collision_hit_prob(s, epsilon, t) - 1.0 / t, "degenerate parameters: e^eps/Omega equals 1/t")


def collision_optimal_t(s: int, epsilon: float) -> int:
    """Closed-form output size max(s+1, floor(s*e^eps + 2s - 1)).  It does not minimise ``collision_predicted_sum_variance``:
    at d = 512, s = 1..32 and eps in 0.001..4 that is up to 5.4% above the best integer t's (s = 1, eps = 0.5: 2 against 3)."""
    check_size("s", s)
    check_budget(epsilon)
    return max(s + 1, math.floor(exp_budget(epsilon, s) + 2 * s - 1))


def collision_params(d: int, s: int, epsilon: float, t: int | None = None) -> MechanismParams:
    t = collision_optimal_t(s, epsilon) if t is None else t
    check_collision_domain(s, t)
    return MechanismParams(d=d, s=s, epsilon=epsilon, t=t)


def collision_layout(buckets: np.ndarray, signs, params: MechanismParams):
    """(positions, layers, Omega, t) from x's event-code buckets on the last axis (event codes carry the unread
    ``signs``): each hit bucket is its own position, at weight e^eps, in the entries' own order, which neither
    ``domain.sample_layout`` nor ``domain.layout_law`` reads."""
    return buckets, [(buckets, math.exp(params.epsilon))], collision_omega(params.s, params.epsilon, params.t), params.t


def collision_randomize_batch(supports: np.ndarray, signs: np.ndarray, seeds: np.ndarray, params: MechanismParams,
                              rng: np.random.Generator) -> np.ndarray:
    """One symbol per row of a batch ((n, s) supports and signs, (n,) hash seeds), drawn from ``collision_layout`` by
    ``domain.randomize_layout``: each of the k distinct hashed buckets at e^eps/Omega."""
    check_collision_domain(params.s, params.t)
    return randomize_layout(collision_layout, False, supports, signs, seeds, params, rng)


def collision_debias(counts: np.ndarray, n: int, params: MechanismParams) -> np.ndarray:
    """The 2d event-frequency estimates from ``n`` views' per-event hit counts; 1/t is an absent event's hit rate."""
    return (counts / n - 1.0 / params.t) / collision_denominator(params.s, params.epsilon, params.t)


def collision_predicted_sum_variance(d: int, s: int, epsilon: float, t: float) -> float:
    """Single-user variance of the 2d indicator estimates, summed.

    Takes t as a real number > s, which a ``MechanismParams`` cannot hold; used for the t-choice's convexity.
    """
    check_sparsity(d, s)
    check_budget(epsilon)
    if not s < t < math.inf:  # nan fails too
        raise ValueError(f"collision mechanism needs a finite t > s, got t={t}, s={s}")
    p, q = collision_hit_prob(s, epsilon, t), 1.0 / t
    return (s * p * (1 - p) + (2 * d - s) * q * (1 - q)) / collision_denominator(s, epsilon, t)**2
