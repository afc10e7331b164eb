"""Server-side aggregation: frequency/mean estimates, projection, metrics.

Every mechanism is reduced to a single pipeline: views -> unbiased
estimates of the 2d event frequencies -> optional simplex projection ->
mean / non-missing values derived through the exact identities

    mean_j       = f(j_plus) - f(j_minus)
    nonmissing_j = f(j_plus) + f(j_minus).

The conditional mean of dimension j is the post-processing
mean_j / nonmissing_j of these two estimates.

Mechanisms are looked up by name in ``MECHANISMS``.  Each entry states
its domain ``check``; a hash mechanism's also its points (``paired``) and
``layout``, which its randomizer inverts and whose law the exact oracle
reads.  Every debias reads counts of views: per event, those whose own hash
sends it onto their symbol z (``domain.event_hit_counts``), or per symbol.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import baselines as _bl
from . import coco as _coco
from . import collision as _col
from . import domain as _dom
from .domain import FLOAT_MAX, event_code, is_real, read_view

TARGETS = ("frequency", "mean", "nonmissing")


class Mechanism(NamedTuple):
    """One randomizer and its server-side estimator.

    Every view is a symbol z in 1..t, the report alphabet.  ``debias(counts,
    n, params)`` reads n views' counts (per event, a hash mechanism's hits;
    per symbol, a baseline's reports, as it has no ``layout``) and returns
    the 2d event-frequency estimates in event-code order.
    """

    params: Callable  # (d, s, epsilon, target) -> MechanismParams at the mechanism's default t
    randomize: Callable  # (supports, signs, seeds, params, rng) -> views
    check: Callable  # params -> None, a ValueError outside the mechanism's domain
    debias: Callable  # (counts, n, params) -> values
    paired: bool = False  # a hash point is a dim whose events sit on a bucket pair, else an event code
    layout: Callable | None = None  # (x's buckets, x's signs, params) -> (positions, layers, Omega, space)


def mechanism(name: str) -> Mechanism:
    """The registered mechanism called ``name``; an unknown name is a ValueError."""
    try:
        return MECHANISMS[name]
    except KeyError:
        raise ValueError(f"unknown mechanism {name!r}") from None


def aggregate_frequencies(views, mechanism_name: str, params) -> np.ndarray:
    """Average the per-user unbiased contributions for all 2d events.

    Hash mechanisms take a ``(seeds, z)`` pair of 1-d integer arrays, a
    mechanism with no ``layout`` its symbols z alone.
    """
    mech = mechanism(mechanism_name)
    mech.check(params)
    if mech.layout is not None and not (isinstance(views, tuple) and len(views) == 2):
        raise ValueError("hash mechanisms take a (seeds, z) pair")
    seeds = None if mech.layout is None else read_view("seeds", views[0], 0, 2**64 - 1, ndim=1)
    z = read_view("z", views if seeds is None else views[1], 1, params.t, ndim=1)
    if seeds is None:
        return mech.debias(np.bincount(z - 1, minlength=params.t), len(z), params)
    if len(seeds) != len(z):
        raise ValueError(f"seeds and z differ in length: {len(seeds)} vs {len(z)}")
    return mech.debias(_dom.event_hit_counts(seeds, z, params.d, params.t, mech.paired), len(z), params)


# Randomizers are looked up on their modules at call time, so a wrapper
# installed on a module attribute (a profiler, say) sees every call.
_PCKV = Mechanism(
    lambda d, s, epsilon, target: _bl.grr_params(d, s, epsilon, 2),
    lambda supports, signs, seeds, params, rng: _bl.pckv_randomize_batch(supports, signs, params, rng),
    lambda params: _bl.check_alphabet(params, 2), _bl.pckv_debias,
)
MECHANISMS: dict[str, Mechanism] = {
    "collision": Mechanism(
        lambda d, s, epsilon, target: _col.collision_params(d, s, epsilon),
        lambda *args: _col.collision_randomize_batch(*args),
        lambda params: _col.check_collision_domain(params.s, params.t), _col.collision_debias,
        layout=_col.collision_layout,
    ),
    "coco": Mechanism(
        lambda d, s, epsilon, target: _coco.coco_params(
            d, s, epsilon, which="nonmissing" if target == "nonmissing" else "mean"
        ),
        lambda *args: _coco.coco_randomize_batch(*args),
        lambda params: _coco.check_coco_domain(params.s, params.t), _coco.coco_debias, paired=True,
        layout=_coco.coco_layout,
    ),
    "privkv": Mechanism(
        lambda d, s, epsilon, target: _bl.grr_params(d, s, epsilon, 3),
        lambda supports, signs, seeds, params, rng: _bl.privkv_randomize_batch(supports, signs, params, rng),
        lambda params: _bl.check_alphabet(params, 3), _bl.privkv_debias,
    ),
    "pckv_grr": _PCKV,
    "pckv_agrr": _PCKV._replace(params=lambda d, s, eps, target: _bl.grr_params(d, s, _bl.amplified_budget(s, eps), 2)),
}


def simplex_projection(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sum 1, nonneg).

    Sort-and-threshold with the cumulative tie rule; O(m log m), no
    randomness, idempotent.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or not v.size:
        raise ValueError(f"estimates must be one non-empty 1-d vector, got shape {v.shape}")
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
    if not is_real(s) or not s >= 1:  # a bool or a string is no scale, and nan is not >= 1
        raise ValueError(f"s must be at least 1, got s={s}")
    if s > FLOAT_MAX:  # a float64 overflows
        raise ValueError(f"s must be at most {FLOAT_MAX:g}, got s={s}")
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
    if not a.size:
        raise ValueError("estimate and truth are empty")
    return a, b


def true_event_frequencies(supports: np.ndarray, signs: np.ndarray, d: int) -> np.ndarray:
    """Empirical event frequencies of a dataset given as index/sign arrays."""
    n = supports.shape[0]
    codes = event_code(supports, signs).ravel()
    return np.bincount(codes - 1, minlength=2 * d) / n
