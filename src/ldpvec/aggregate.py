"""Server-side aggregation: frequency/mean estimates, projection, metrics.

Every mechanism is reduced to a single pipeline: views -> unbiased
estimates of the 2d event frequencies -> optional simplex projection ->
mean / non-missing values derived through the exact identities

    mean_j       = f(j_plus) - f(j_minus)
    nonmissing_j = f(j_plus) + f(j_minus).

The conditional mean of dimension j is the post-processing
mean_j / nonmissing_j of these two estimates.

Mechanisms are looked up by name in ``MECHANISMS``.  The two hash
mechanisms share one estimator: count, per event, the views whose own
hash sends the event onto their symbol z, then debias the integer counts.
Each brings one in-place hit kernel, ``event_hits(seeds, z, params)``, whose
rows ``event_hit_counts`` sums over chunks sized to stay in a per-core L2 cache.
The chunks are shared out among one worker thread per CPU the process may use,
so each worker's chunk buffers sit in its own core's L2.
"""

from __future__ import annotations

import os
from concurrent import futures  # ThreadPoolExecutor loads on first use, not at import
from typing import Callable, NamedTuple

import numpy as np

from . import baselines as _bl
from . import coco as _coco
from . import collision as _col
from .domain import MechanismParams, check_integer

TARGETS = ("frequency", "mean", "nonmissing")

# Cells of the (users x events) hit matrix evaluated per chunk of the hit count:
# each worker's kernel buffers for one chunk (two uint64 arrays, 1 MiB together)
# stay in the L2 cache of the core it runs on.
HIT_CHUNK_CELLS = 1 << 16


class Mechanism(NamedTuple):
    """One randomizer and its server-side estimator.

    Hash mechanisms debias per-event hit counts: ``debias(counts, n, params)``.
    The hash-free baselines have no ``event_hits`` and debias their
    reports: ``debias(views, params) -> values``.  Either way the values
    are the 2d event-frequency estimates in event-code order.
    """

    params: Callable  # (d, s, epsilon, t, target) -> MechanismParams; t=None picks the default; baselines fix t
    randomize: Callable  # (supports, signs, seeds, params, rng) -> views
    event_hits: Callable | None  # (seeds, z, params) -> (m, 2d) bool hits in event-code order
    debias: Callable


def mechanism(name: str) -> Mechanism:
    """The registered mechanism called ``name``; an unknown name is a ValueError."""
    try:
        return MECHANISMS[name]
    except KeyError:
        raise ValueError(f"unknown mechanism {name!r}") from None


def aggregate_frequencies(views, mechanism_name: str, params) -> np.ndarray:
    """Average the per-user unbiased contributions for all 2d events.

    Hash mechanisms take a ``(seeds, z)`` pair of 1-d integer arrays;
    baselines take their batch randomizer's reports.
    """
    mech = mechanism(mechanism_name)
    if mech.event_hits is None:
        return mech.debias(views, params)
    seeds, z = _views_to_arrays(views, params.t)
    n = len(seeds)
    if n == 0:
        raise ValueError("no views to aggregate")
    counts = event_hit_counts(seeds, z, mech.event_hits, params)
    return mech.debias(counts, n, params)


def _views_to_arrays(views, t: int) -> tuple[np.ndarray, np.ndarray]:
    if not (isinstance(views, tuple) and len(views) == 2):
        raise ValueError("hash mechanisms take a (seeds, z) pair")
    seeds, z = views
    check_integer(seeds=seeds, z=z)
    seeds, z = np.asarray(seeds, dtype=np.uint64), np.asarray(z, dtype=np.int64)
    if seeds.ndim != 1 or z.ndim != 1:
        raise ValueError(f"seeds and z must be 1-d arrays, got shapes {seeds.shape} and {z.shape}")
    if len(seeds) != len(z):
        raise ValueError(f"seeds and z differ in length: {len(seeds)} vs {len(z)}")
    if len(z) and (z.min() < 1 or z.max() > t):
        raise ValueError(f"z must lie in 1..{t}, got values in {z.min()}..{z.max()}")
    return seeds, z


def event_hit_counts(seeds: np.ndarray, z: np.ndarray, event_hits: Callable, params) -> np.ndarray:
    """Per event code 1..2d, the number of views whose hash sends it onto their z.

    The chunks, each small enough for its (users x events) matrix to stay
    in cache, are dealt round-robin to one thread per CPU the process may
    use, but no more threads than chunks; each thread sums its chunks into
    its own count vector.  Counts are integers, so neither the chunking nor
    the thread count can change the result.  A single chunk is counted on
    the caller's thread.
    """
    chunk = max(1, HIT_CHUNK_CELLS // (2 * params.d))
    starts = range(0, len(seeds), chunk)

    def count(mine: range) -> np.ndarray:
        counts = np.zeros(2 * params.d, dtype=np.int64)
        for lo in mine:
            hi = lo + chunk
            counts += event_hits(seeds[lo:hi], z[lo:hi], params).sum(axis=0, dtype=np.int64)
        return counts

    workers = min(_hit_workers(), len(starts))
    if workers <= 1:
        return count(starts)
    with futures.ThreadPoolExecutor(workers) as pool:
        return sum(pool.map(count, (starts[w::workers] for w in range(workers))))


def _hit_workers() -> int:
    """The number of CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _collision_frequencies(counts: np.ndarray, n: int, params: _col.CollisionParams) -> np.ndarray:
    denom = params.hit_prob - params.false_prob
    if abs(denom) < 1e-15:
        raise ValueError("degenerate parameters: e^eps/Omega equals 1/t")
    return (counts / n - params.false_prob) / denom


def _coco_frequencies(counts: np.ndarray, n: int, params: MechanismParams) -> np.ndarray:
    rates = _coco.collision_rates(params.s, params.epsilon, params.t)
    mean_denom, nonmissing_denom = rates.p_t - rates.p_o, rates.p_t + rates.p_o - 2.0 * rates.p_f
    if abs(mean_denom) < 1e-15:
        raise ValueError("degenerate rates: p_t equals p_o")
    if abs(nonmissing_denom) < 1e-15:
        raise ValueError("degenerate rates: p_t + p_o equals 2 p_f")
    plus, minus = counts[..., 1::2], counts[..., 0::2]
    mean = (plus - minus) / (n * mean_denom)
    nonmissing = (plus + minus - 2.0 * n * rates.p_f) / (n * nonmissing_denom)
    values = np.empty(counts.shape)
    values[..., 1::2] = (nonmissing + mean) / 2.0  # j_plus
    values[..., 0::2] = (nonmissing - mean) / 2.0  # j_minus
    return values


def _pckv_batch(supports, signs, seeds, params, rng):
    return _bl.pckv_randomize_batch(supports, signs, params, rng)


# Randomizers are looked up on their modules at call time, so a wrapper
# installed on a module attribute (a profiler, say) sees every call.
MECHANISMS: dict[str, Mechanism] = {
    "collision": Mechanism(
        lambda d, s, epsilon, t, target: _col.collision_params(d, s, epsilon, t),
        lambda *args: _col.collision_randomize_batch(*args),
        _col.collision_event_hits, _collision_frequencies,
    ),
    "coco": Mechanism(
        lambda d, s, epsilon, t, target: _coco.coco_params(
            d, s, epsilon, t, which="nonmissing" if target == "nonmissing" else "mean"
        ),
        lambda *args: _coco.coco_randomize_batch(*args),
        _coco.coco_event_hits, _coco_frequencies,
    ),
    "privkv": Mechanism(
        lambda d, s, epsilon, t, target: MechanismParams(d, s, epsilon, 3),
        lambda supports, signs, seeds, params, rng: _bl.privkv_randomize_batch(supports, signs, params, rng),
        None, _bl.privkv_debias,
    ),
    "pckv_grr": Mechanism(
        lambda d, s, epsilon, t, target: MechanismParams(d, s, epsilon, 2 * d),
        _pckv_batch, None, _bl.pckv_debias,
    ),
    "pckv_agrr": Mechanism(  # the PCKV GRR at the sampling-amplified inner budget
        lambda d, s, epsilon, t, target: MechanismParams(d, s, _bl.amplified_budget(s, epsilon), 2 * d),
        _pckv_batch, None, _bl.pckv_debias,
    ),
}


def simplex_projection(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sum 1, nonneg).

    Sort-and-threshold with the cumulative tie rule; O(m log m), no
    randomness, idempotent.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"estimates must be one 1-d vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("estimates must be finite")
    u = np.sort(v)[::-1]
    with np.errstate(over="ignore"):
        css = np.cumsum(u)
    j = np.arange(1, len(v) + 1)
    support = j[u + (1.0 - css) / j > 0.0]  # never empty in exact arithmetic
    if not np.isfinite(css).all() or not support.size:
        raise ValueError("estimates overflow float arithmetic: their cumulative sum is infinite or absorbs 1")
    rho = np.max(support)
    lam = (1.0 - css[rho - 1]) / rho
    return np.maximum(v + lam, 0.0)


def project_to_simplex(estimate: np.ndarray, s: int) -> np.ndarray:
    """Project 1/s-scaled frequencies onto the simplex, rescale back by s."""
    return s * simplex_projection(np.asarray(estimate, dtype=float) / s)


def target_values(frequencies: np.ndarray, target: str) -> np.ndarray:
    """The ``target`` estimate from event frequencies (last axis over the 2d events)."""
    if target == "frequency":
        return frequencies
    if target == "mean":
        return frequencies[..., 1::2] - frequencies[..., 0::2]
    if target == "nonmissing":
        return frequencies[..., 1::2] + frequencies[..., 0::2]
    raise ValueError(f"unknown target {target!r}")


def tve(estimate, truth) -> float:
    """Total variation error: sum of absolute estimation errors."""
    a, b = _as_matched_arrays(estimate, truth)
    return float(np.abs(a - b).sum())


def mae(estimate, truth) -> float:
    """Maximum absolute estimation error."""
    a, b = _as_matched_arrays(estimate, truth)
    return float(np.abs(a - b).max())


def _as_matched_arrays(estimate, truth) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.asarray(estimate, dtype=float), np.asarray(truth, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return a, b


def true_event_frequencies(supports: np.ndarray, signs: np.ndarray, d: int) -> np.ndarray:
    """Empirical event frequencies of a dataset given as index/sign arrays."""
    n = supports.shape[0]
    codes = (2 * supports - 1 + (signs > 0)).ravel()
    return np.bincount(codes - 1, minlength=2 * d) / n
