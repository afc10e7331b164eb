"""The (d, s, epsilon, t)-Collision randomizer and its output law.

The randomizer hashes a user's event set into buckets 1..t and emits one
bucket z.  Buckets hit by a hashed event carry relative weight e^eps; the
fixed normaliser Omega = s*e^eps + t - s makes the output law sum to one
for every input, with the probability freed by internal hash conflicts
spread uniformly over the unhit buckets (``collision_table_probs``, for
arrays of hash tables and inputs at once).

Each user's unbiased estimate of the indicator [event in Y_x] is

    ([H(event) = z] - 1/t) / (e^eps/Omega - 1/t);

the server averages it over users from per-event hit counts.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .domain import (
    MechanismParams, check_budget, check_size, debias_denominator, event_code, exp_budget, hash_buckets, map_rows,
    read_batch, read_view, sample_layout,
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


def collision_hit_prob(params: MechanismParams) -> float:
    """P[z = b] for a bucket b hit by a hashed event: e^eps / Omega."""
    return math.exp(params.epsilon) / collision_omega(params.s, params.epsilon, params.t)


def collision_residual_prob(params: MechanismParams, k):
    """P[z = b] for an unhit bucket when k distinct buckets are hit, for an int or elementwise over an array k."""
    omega = collision_omega(params.s, params.epsilon, params.t)
    return (omega - math.exp(params.epsilon) * k) / ((params.t - k) * omega)


def collision_denominator(params: MechanismParams) -> float:
    """e^eps/Omega - 1/t, the debias denominator; a ValueError when it is too close to 0."""
    return debias_denominator(collision_hit_prob(params) - 1.0 / params.t, "degenerate parameters: e^eps/Omega equals 1/t")


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


def collision_table_probs(buckets: np.ndarray, signs, params: MechanismParams) -> np.ndarray:
    """P[z | x, table] over z = 1..t, on a new last axis, from x's event-code buckets on the last axis of ``buckets``.

    Leading axes (tables, inputs) broadcast.  Each bucket a row hits takes e^eps/Omega and each of the t - k others
    ``collision_residual_prob`` of the row's k distinct hit buckets.  ``signs`` goes unread: event codes carry them.
    """
    hit = (buckets[..., None] == np.arange(1, params.t + 1)).any(axis=-2)
    return np.where(hit, collision_hit_prob(params), collision_residual_prob(params, hit.sum(axis=-1))[..., None])


def collision_randomize_batch(
    supports: np.ndarray,
    signs: np.ndarray,
    seeds: np.ndarray,
    params: MechanismParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """One output symbol per row: each of the k distinct hashed buckets at e^eps/Omega, the t - k others at the residual.

    supports: (n, s) 1-based dimension indices, ascending per row.
    signs:    (n, s) entries in {-1, +1}.
    seeds:    (n,) per-user single-layout hash seeds, one per row.
    """
    check_collision_domain(params.s, params.t)
    supports, signs = read_batch(supports, signs, params.d, params.s)
    seeds = read_view("seeds", seeds, 0, 2**64 - 1, ndim=1)
    if len(seeds) != len(supports):
        raise ValueError(f"seeds and supports differ in length: {len(seeds)} vs {len(supports)}")
    u, hit = rng.random(len(supports)), collision_hit_prob(params)

    def rows(r: slice) -> np.ndarray:
        hs = np.sort(hash_buckets(seeds[r, None], event_code(supports[r], signs[r]), params.t), axis=1)
        return sample_layout(u[r], hs, [(hs, hit)], functools.partial(collision_residual_prob, params), params.t)

    return map_rows(rows, *supports.shape)


def collision_debias(counts: np.ndarray, n: int, params: MechanismParams) -> np.ndarray:
    """The 2d event-frequency estimates from ``n`` views' per-event hit counts; 1/t is an absent event's hit rate."""
    return (counts / n - 1.0 / params.t) / collision_denominator(params)


def collision_predicted_sum_variance(d: int, s: int, epsilon: float, t: float) -> float:
    """Single-user variance of the 2d indicator estimates, summed.

    Treats t as a real parameter > s; used for the convexity of the t-choice.
    """
    params = MechanismParams(d=d, s=s, epsilon=epsilon, t=t)
    if t <= s:
        raise ValueError(f"collision mechanism needs t > s, got t={t}, s={s}")
    p, q = collision_hit_prob(params), 1.0 / t
    return (s * p * (1 - p) + (2 * d - s) * q * (1 - q)) / collision_denominator(params)**2
