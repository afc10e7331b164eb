"""Comparison mechanisms: PrivKV, PCKV-GRR and the amplified PCKV-AGRR.

PrivKV samples one dimension uniformly from [d] and reports (dimension,
value) where the ternary value passes through a 3-outcome generalized
randomized response.  PCKV samples one of the s existing entries and
reports its event code through a GRR over all 2d codes; the AGRR variant
runs the inner GRR at the amplified budget eps' = log(s(e^eps - 1) + 1).

These reconstructions keep the error orders of the originals, which is
all the comparative experiments rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import TernaryVector, check_batch, exp_budget

_VARIANTS = ("privkv", "pckv_grr", "pckv_agrr")


@dataclass(frozen=True)
class BaselineParams:
    d: int
    s: int
    epsilon: float
    variant: str

    def __post_init__(self):
        if self.d < 1 or self.s < 1 or self.s > self.d:
            raise ValueError(f"need 1 <= s <= d, got s={self.s}, d={self.d}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")
        exp_budget(self.epsilon)
        exp_budget(self.effective_epsilon)

    @property
    def effective_epsilon(self) -> float:
        """Budget of the inner GRR; amplified by sampling for pckv_agrr."""
        if self.variant == "pckv_agrr":
            return amplified_budget(self.s, self.epsilon)
        return self.epsilon


def amplified_budget(s: int, epsilon: float) -> float:
    """Sampling-amplified budget log(s(e^eps - 1) + 1); > eps when s > 1."""
    return math.log(s * math.expm1(epsilon) + 1.0)


def grr_probabilities(epsilon: float, k: int) -> tuple[float, float]:
    """(truth, other) probabilities of a k-outcome randomized response."""
    eeps = math.exp(epsilon)
    return eeps / (eeps + k - 1.0), 1.0 / (eeps + k - 1.0)


def privkv_randomize(
    x: TernaryVector, params: BaselineParams, rng: np.random.Generator
) -> tuple[int, int]:
    """Report (sampled dimension j, perturbed ternary value)."""
    if params.variant != "privkv":
        raise ValueError("params.variant must be 'privkv'")
    j = int(rng.integers(1, params.d + 1))
    true = 0
    for idx, sign in x.support:
        if idx == j:
            true = sign
            break
    p, _ = grr_probabilities(params.epsilon, 3)
    u = rng.random()
    if u < p:
        return j, true
    others = [v for v in (-1, 0, 1) if v != true]
    return j, others[0] if u < (1.0 + p) / 2.0 else others[1]


def privkv_randomize_batch(
    supports: np.ndarray, signs: np.ndarray, params: BaselineParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    check_batch(supports, signs, params)
    n, s = supports.shape
    j = rng.integers(1, params.d + 1, size=n)
    pos = (supports < j[:, None]).sum(axis=1)
    clipped = np.minimum(pos, s - 1)
    found = supports[np.arange(n), clipped] == j
    true = np.where(found, signs[np.arange(n), clipped], 0)
    # 3-ary GRR on category codes {0, 1, 2} for values {-1, 0, +1}
    cat = true + 1
    p, _ = grr_probabilities(params.epsilon, 3)
    keep = rng.random(n) < p
    offset = rng.integers(1, 3, size=n)
    out = np.where(keep, cat, (cat + offset) % 3)
    return j, out - 1


def pckv_randomize(x: TernaryVector, params: BaselineParams, rng: np.random.Generator) -> int:
    """Report one event code in 1..2d via GRR at the variant's inner budget."""
    if params.variant not in ("pckv_grr", "pckv_agrr"):
        raise ValueError("params.variant must be a pckv variant")
    slot = int(rng.integers(0, x.s))
    j, b = x.support[slot]
    code = 2 * j - 1 + (1 if b > 0 else 0)
    p, _ = grr_probabilities(params.effective_epsilon, 2 * params.d)
    if rng.random() < p:
        return code
    shift = int(rng.integers(1, 2 * params.d))
    return (code - 1 + shift) % (2 * params.d) + 1


def pckv_randomize_batch(
    supports: np.ndarray, signs: np.ndarray, params: BaselineParams, rng: np.random.Generator
) -> np.ndarray:
    check_batch(supports, signs, params)
    n, s = supports.shape
    slot = rng.integers(0, s, size=n)
    j = supports[np.arange(n), slot]
    b = signs[np.arange(n), slot]
    code = 2 * j - 1 + (b > 0)
    p, _ = grr_probabilities(params.effective_epsilon, 2 * params.d)
    keep = rng.random(n) < p
    shift = rng.integers(1, 2 * params.d, size=n)
    return np.where(keep, code, (code - 1 + shift) % (2 * params.d) + 1)


def privkv_debias(views, params: BaselineParams) -> tuple[np.ndarray, int]:
    """Unbiased event-frequency estimates from PrivKV (j, value) reports, and their count.

    A report only carries information about its sampled dimension, so each
    contribution is debiased within dimension j's group and scaled by d.
    """
    j, values = (np.asarray(v) for v in views)
    n = len(j)
    if n == 0:
        raise ValueError("no views to aggregate")
    d = params.d
    if j.shape != values.shape or j.min() < 1 or j.max() > d or not np.isin(values, (-1, 0, 1)).all():
        raise ValueError(f"PrivKV reports need dimensions j in 1..{d} and values in -1, 0, +1, one per j")
    p, q = grr_probabilities(params.epsilon, 3)
    est = np.zeros(2 * d)
    group = np.bincount(j - 1, minlength=d).astype(float)
    for sign, off in ((-1, 0), (1, 1)):
        hits = np.bincount((j - 1)[values == sign], minlength=d).astype(float)
        est[off::2] = d * (hits - q * group) / (p - q) / n
    return est, n


def pckv_debias(views, params: BaselineParams) -> tuple[np.ndarray, int]:
    """Unbiased event-frequency estimates (scale s) from PCKV code reports, and their count."""
    codes = np.asarray(views)
    n = len(codes)
    if n == 0:
        raise ValueError("no views to aggregate")
    if codes.ndim != 1 or codes.min() < 1 or codes.max() > 2 * params.d:
        raise ValueError(f"reported codes must be a 1-d array of values in 1..{2 * params.d}")
    p, q = grr_probabilities(params.effective_epsilon, 2 * params.d)
    hits = np.bincount(codes - 1, minlength=2 * params.d).astype(float)
    return params.s * (hits / n - q) / (p - q), n
