"""Comparison mechanisms: PrivKV, PCKV-GRR and the amplified PCKV-AGRR.

PrivKV samples one dimension uniformly from [d] and reports (dimension,
value) where the ternary value passes through a 3-outcome generalized
randomized response.  PCKV samples one of the s existing entries and
reports its event code through a GRR over all 2d codes; PCKV-AGRR is the
same GRR run at the amplified inner budget eps' = log(s(e^eps - 1) + 1).
Their ``MechanismParams`` carry the GRR's budget as ``epsilon`` and its
number of categories as ``t``: 3 for PrivKV, 2d for PCKV.  Each debias
takes a batch of reports and returns the 2d event-frequency estimates.

These reconstructions keep the error orders of the originals, which is
all the comparative experiments rely on.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import MechanismParams, check_batch, check_integer, exp_budget


def amplified_budget(s: int, epsilon: float) -> float:
    """Sampling-amplified budget log(s(e^eps - 1) + 1); > eps when s > 1."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    exp_budget(epsilon, s)
    return math.log(s * math.expm1(epsilon) + 1.0)


def _check_categories(params: MechanismParams, k: int) -> None:
    if params.t != k:
        raise ValueError(f"this GRR reports one of {k} categories, got t={params.t}")


def grr_probabilities(epsilon: float, k: int) -> tuple[float, float]:
    """(truth, other) probabilities of a k-outcome randomized response."""
    eeps = math.exp(epsilon)
    return eeps / (eeps + k - 1.0), 1.0 / (eeps + k - 1.0)


def privkv_randomize_batch(
    supports: np.ndarray, signs: np.ndarray, params: MechanismParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    _check_categories(params, 3)
    check_batch(supports, signs, params)
    n, s = supports.shape
    j = rng.integers(1, params.d + 1, size=n)
    pos = (supports < j[:, None]).sum(axis=1)
    clipped = np.minimum(pos, s - 1)
    found = supports[np.arange(n), clipped] == j
    true = np.where(found, signs[np.arange(n), clipped], 0)
    # 3-ary GRR on category codes {0, 1, 2} for values {-1, 0, +1}
    cat = true + 1
    p, _ = grr_probabilities(params.epsilon, params.t)
    keep = rng.random(n) < p
    offset = rng.integers(1, 3, size=n)
    out = np.where(keep, cat, (cat + offset) % 3)
    return j, out - 1


def pckv_randomize_batch(
    supports: np.ndarray, signs: np.ndarray, params: MechanismParams, rng: np.random.Generator
) -> np.ndarray:
    _check_categories(params, 2 * params.d)
    check_batch(supports, signs, params)
    n, s = supports.shape
    slot = rng.integers(0, s, size=n)
    j = supports[np.arange(n), slot]
    b = signs[np.arange(n), slot]
    code = 2 * j - 1 + (b > 0)
    p, _ = grr_probabilities(params.epsilon, params.t)
    keep = rng.random(n) < p
    shift = rng.integers(1, params.t, size=n)
    return np.where(keep, code, (code - 1 + shift) % params.t + 1)


def privkv_debias(views, params: MechanismParams) -> np.ndarray:
    """Unbiased event-frequency estimates from PrivKV (j, value) reports.

    A report only carries information about its sampled dimension, so each
    contribution is debiased within dimension j's group and scaled by d.
    """
    _check_categories(params, 3)
    j, values = (np.asarray(v) for v in views)
    n = len(j)
    if n == 0:
        raise ValueError("no views to aggregate")
    check_integer(j=j, values=values)
    d = params.d
    if j.shape != values.shape or j.min() < 1 or j.max() > d or not np.isin(values, (-1, 0, 1)).all():
        raise ValueError(f"PrivKV reports need dimensions j in 1..{d} and values in -1, 0, +1, one per j")
    p, q = grr_probabilities(params.epsilon, params.t)
    est = np.zeros(2 * d)
    group = np.bincount(j - 1, minlength=d).astype(float)
    for sign, off in ((-1, 0), (1, 1)):
        hits = np.bincount((j - 1)[values == sign], minlength=d).astype(float)
        est[off::2] = d * (hits - q * group) / (p - q) / n
    return est


def pckv_debias(views, params: MechanismParams) -> np.ndarray:
    """Unbiased event-frequency estimates (scale s) from PCKV code reports."""
    _check_categories(params, 2 * params.d)
    codes = np.asarray(views)
    n = len(codes)
    if n == 0:
        raise ValueError("no views to aggregate")
    check_integer(codes=codes)
    if codes.ndim != 1 or codes.min() < 1 or codes.max() > params.t:
        raise ValueError(f"reported codes must be a 1-d array of values in 1..{params.t}")
    p, q = grr_probabilities(params.epsilon, params.t)
    hits = np.bincount(codes - 1, minlength=params.t).astype(float)
    return params.s * (hits / n - q) / (p - q)
