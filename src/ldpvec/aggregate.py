"""Server-side aggregation: frequency/mean estimates, projection, metrics.

Every mechanism is reduced to a single pipeline: views -> unbiased
estimates of the 2d event frequencies -> optional simplex projection ->
mean / non-missing values derived through the exact identities

    mean_j       = f(j_plus) - f(j_minus)
    nonmissing_j = f(j_plus) + f(j_minus).

Mechanisms are looked up by name in ``MECHANISMS``.  The two hash
mechanisms share one estimator: count, per event, the views whose own
hash sends the event onto their symbol z, then debias the integer counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import baselines as _bl
from . import coco as _coco
from . import collision as _col
from .domain import MechanismParams, PrivateView

# Cells of the (users x events) bucket matrix evaluated per chunk of the hit count.
HIT_CHUNK_CELLS = 4_000_000


@dataclass(frozen=True)
class FrequencyEstimate:
    """Estimated frequencies of the 2d events, plus the contributing count."""

    values: np.ndarray
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if np.asarray(self.values).ndim != 1:
            raise ValueError("values must be 1-d over the 2d events")


@dataclass(frozen=True)
class MeanEstimate:
    """Per-dimension mean values, optionally with non-missing frequencies."""

    values: np.ndarray
    nonmissing: np.ndarray | None = None


class Mechanism(NamedTuple):
    """One randomizer and its server-side estimator.

    Hash mechanisms debias per-event hit counts: ``debias(counts, n, params)``.
    The hash-free baselines have no ``hash_kind`` or ``event_buckets`` and
    debias their reports: ``debias(views, params) -> (values, n)``.
    """

    params: Callable  # (d, s, epsilon, t, target) -> params; t=None picks the default
    randomize: Callable  # (supports, signs, seeds, params, rng) -> views
    hash_kind: str | None  # UserHash layout of the views
    event_buckets: Callable | None  # (seeds, params) -> (n, 2d) buckets in event-code order
    debias: Callable


def mechanism(name: str) -> Mechanism:
    """The registered mechanism called ``name``; an unknown name is a ValueError."""
    try:
        return MECHANISMS[name]
    except KeyError:
        raise ValueError(f"unknown mechanism {name!r}") from None


def aggregate_frequencies(views, mechanism_name: str, params) -> FrequencyEstimate:
    """Average the per-user unbiased contributions for all 2d events.

    Hash mechanisms take a list of ``PrivateView`` or a ``(seeds, z)`` pair
    of 1-d arrays; baselines take their batch randomizer's reports.
    """
    mech = mechanism(mechanism_name)
    if mech.event_buckets is None:
        values, n = mech.debias(views, params)
        return FrequencyEstimate(values=values, n=n)
    seeds, z = _views_to_arrays(views, mech.hash_kind, params.t)
    n = len(seeds)
    if n == 0:
        raise ValueError("no views to aggregate")
    counts = event_hit_counts(seeds, z, mech.event_buckets, params)
    return FrequencyEstimate(values=mech.debias(counts, n, params), n=n)


def _views_to_arrays(views, kind: str, t: int) -> tuple[np.ndarray, np.ndarray]:
    if not (isinstance(views, tuple) and len(views) == 2 and not isinstance(views[0], PrivateView)):
        for view in views:
            if not isinstance(view, PrivateView):
                raise TypeError("views must be PrivateView instances or (seeds, z) arrays")
            if view.hash.kind != kind or view.hash.t != t:
                raise ValueError("views are not homogeneous with the given params")
        views = ([view.hash.seed for view in views], [view.z for view in views])
    seeds, z = np.asarray(views[0], dtype=np.uint64), np.asarray(views[1], dtype=np.int64)
    if seeds.ndim != 1 or z.ndim != 1:
        raise ValueError(f"seeds and z must be 1-d arrays, got shapes {seeds.shape} and {z.shape}")
    if len(seeds) != len(z):
        raise ValueError(f"seeds and z differ in length: {len(seeds)} vs {len(z)}")
    if len(z) and (z.min() < 1 or z.max() > t):
        raise ValueError(f"z must lie in 1..{t}, got values in {z.min()}..{z.max()}")
    return seeds, z


def event_hit_counts(seeds: np.ndarray, z: np.ndarray, event_buckets: Callable, params) -> np.ndarray:
    """Per event code 1..2d, the number of views whose hash sends it onto their z.

    Counts are integers, so the chunking, which keeps the (users x events)
    bucket matrix out of memory at large n, cannot change the result.
    """
    counts = np.zeros(2 * params.d, dtype=np.int64)
    chunk = max(1, HIT_CHUNK_CELLS // (2 * params.d))
    for lo in range(0, len(seeds), chunk):
        hi = lo + chunk
        counts += (event_buckets(seeds[lo:hi], params) == z[lo:hi, None]).sum(axis=0, dtype=np.int64)
    return counts


def _collision_frequencies(counts: np.ndarray, n: int, params: _col.CollisionParams) -> np.ndarray:
    denom = params.hit_prob - params.false_prob
    if abs(denom) < 1e-15:
        raise ValueError("degenerate parameters: e^eps/Omega equals 1/t")
    return (counts / n - params.false_prob) / denom


def _coco_frequencies(counts: np.ndarray, n: int, params: MechanismParams) -> np.ndarray:
    rates = _coco.collision_rates(params.s, params.epsilon, params.t)
    plus, minus = counts[..., 1::2], counts[..., 0::2]
    mean = (plus - minus) / (n * (rates.p_t - rates.p_o))
    nonmissing = (plus + minus - 2.0 * n * rates.p_f) / (n * (rates.p_t + rates.p_o - 2.0 * rates.p_f))
    values = np.empty(counts.shape)
    values[..., 1::2] = (nonmissing + mean) / 2.0  # j_plus
    values[..., 0::2] = (nonmissing - mean) / 2.0  # j_minus
    return values


def _baseline_params(variant: str) -> Callable:
    return lambda d, s, epsilon, t, target: _bl.BaselineParams(d=d, s=s, epsilon=epsilon, variant=variant)


def _pckv_randomize(supports, signs, seeds, params, rng):
    return _bl.pckv_randomize_batch(supports, signs, params, rng)


# Randomizers are looked up on their modules at call time, so a wrapper
# installed on a module attribute (a profiler, say) sees every call.
MECHANISMS: dict[str, Mechanism] = {
    "collision": Mechanism(
        lambda d, s, epsilon, t, target: _col.collision_params(d, s, epsilon, t),
        lambda *args: _col.collision_randomize_batch(*args),
        "single", _col.collision_event_buckets, _collision_frequencies,
    ),
    "coco": Mechanism(
        lambda d, s, epsilon, t, target: _coco.coco_params(
            d, s, epsilon, t, which="nonmissing" if target == "nonmissing" else "mean"
        ),
        lambda *args: _coco.coco_randomize_batch(*args),
        "paired", _coco.coco_event_buckets, _coco_frequencies,
    ),
    "privkv": Mechanism(
        _baseline_params("privkv"),
        lambda supports, signs, seeds, params, rng: _bl.privkv_randomize_batch(supports, signs, params, rng),
        None, None, _bl.privkv_debias,
    ),
    "pckv_grr": Mechanism(_baseline_params("pckv_grr"), _pckv_randomize, None, None, _bl.pckv_debias),
    "pckv_agrr": Mechanism(_baseline_params("pckv_agrr"), _pckv_randomize, None, None, _bl.pckv_debias),
}


def simplex_projection(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sum 1, nonneg).

    Sort-and-threshold with the cumulative tie rule; O(m log m), no
    randomness, idempotent.
    """
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, len(v) + 1)
    rho = np.max(j[u + (1.0 - css) / j > 0.0])
    lam = (1.0 - css[rho - 1]) / rho
    return np.maximum(v + lam, 0.0)


def project_to_simplex(estimate: FrequencyEstimate, s: int) -> FrequencyEstimate:
    """Project 1/s-scaled frequencies onto the simplex, rescale back by s."""
    projected = s * simplex_projection(np.asarray(estimate.values, dtype=float) / s)
    return FrequencyEstimate(values=projected, n=estimate.n)


def mean_estimate(freq: FrequencyEstimate) -> MeanEstimate:
    """Mean and non-missing values via the exact frequency identities."""
    values = np.asarray(freq.values, dtype=float)
    return MeanEstimate(values=values[1::2] - values[0::2], nonmissing=values[1::2] + values[0::2])


def conditional_mean(est: MeanEstimate, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension conditional mean with a definedness mask.

    Undefined (masked, value NaN) where the non-missing estimate is below
    1/n, i.e. less than one user's worth of mass.
    """
    if est.nonmissing is None:
        raise ValueError("nonmissing frequencies required")
    defined = est.nonmissing >= 1.0 / n
    ratio = np.full_like(est.values, np.nan)
    np.divide(est.values, est.nonmissing, out=ratio, where=defined)
    return ratio, defined


def tve(estimate, truth) -> float:
    """Total variation error: sum of absolute estimation errors."""
    a, b = _as_matched_arrays(estimate, truth)
    return float(np.abs(a - b).sum())


def mae(estimate, truth) -> float:
    """Maximum absolute estimation error."""
    a, b = _as_matched_arrays(estimate, truth)
    return float(np.abs(a - b).max())


def _as_matched_arrays(estimate, truth) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(estimate.values if isinstance(estimate, FrequencyEstimate) else estimate, dtype=float)
    b = np.asarray(truth.values if isinstance(truth, FrequencyEstimate) else truth, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return a, b


def true_event_frequencies(supports: np.ndarray, signs: np.ndarray, d: int) -> np.ndarray:
    """Empirical event frequencies of a dataset given as index/sign arrays."""
    n = supports.shape[0]
    codes = (2 * supports - 1 + (signs > 0)).ravel()
    return np.bincount(codes - 1, minlength=2 * d) / n
