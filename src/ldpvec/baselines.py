"""Comparison mechanisms: PrivKV, PCKV-GRR and the amplified PCKV-AGRR.

Each is a generalized randomized response (GRR) on one sampled item that
reports one symbol z in 1..t.  PrivKV samples one dimension j uniformly
from [d] and passes its ternary value through a 3-outcome GRR, reporting
the code 3(j - 1) + c + 1 in 1..3d (c = 0, 1, 2 for the values -1, 0, +1).
PCKV samples one of the s existing entries and reports its event code
through a GRR over all 2d codes; PCKV-AGRR is the same GRR run at the
amplified inner budget eps' = log(s(e^eps - 1) + 1).  Their
``MechanismParams`` carry the GRR's budget as ``epsilon`` and the report
alphabet as ``t``: 3d for PrivKV, 2d for PCKV.  Each debias takes the
counts of the t symbols among n reports and returns the 2d event-frequency
estimates, as the hash mechanisms' do: ``debias(counts, n, params)``.

These reconstructions keep the error orders of the originals, which is
all the comparative experiments rely on.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import (
    MechanismParams, check_budget, check_size, check_sparsity, debias_denominator, event_code, exp_budget, read_batch,
)


def amplified_budget(s: int, epsilon: float) -> float:
    """Sampling-amplified budget log(s(e^eps - 1) + 1); > eps when s > 1."""
    check_size("s", s)
    check_budget(epsilon)
    exp_budget(epsilon, s)
    return math.log1p(s * math.expm1(epsilon))


def grr_params(d: int, s: int, epsilon: float, per_dim: int) -> MechanismParams:
    """The params of a GRR over per_dim * d symbols, its alphabet taken in Python ints once d is known an integer."""
    check_sparsity(d, s)  # before the product, which overflows for a numpy d
    return MechanismParams(d, s, epsilon, per_dim * int(d))


def check_alphabet(params: MechanismParams, per_dim: int) -> None:
    """Reject params whose t is not the alphabet of a GRR over per_dim * d symbols."""
    if params.t != per_dim * int(params.d):
        raise ValueError(f"this GRR reports one of {per_dim * int(params.d)} categories, got t={params.t}")


def grr_probabilities(epsilon: float, k: int) -> tuple[float, float]:
    """(truth, other) probabilities of a k-outcome randomized response."""
    eeps = math.exp(epsilon)
    return eeps / (eeps + k - 1.0), 1.0 / (eeps + k - 1.0)


def _randomized_response(truth: np.ndarray, k: int, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    """Each category in 1..k kept with the GRR's truth probability, else moved to one of the other k - 1 uniformly."""
    keep = rng.random(len(truth)) < grr_probabilities(epsilon, k)[0]
    shift = rng.integers(1, k, size=len(truth))
    return np.where(keep, truth, (truth - 1 + shift) % k + 1)


def _debias_probabilities(epsilon: float, k: int) -> tuple[float, float]:
    """The (p, q) of a k-outcome GRR, with p - q too small to divide by as a ValueError."""
    p, q = grr_probabilities(epsilon, k)
    debias_denominator(p - q, f"degenerate GRR: p - q = {p - q:.3g} at GRR budget {epsilon:g} over {k} categories")
    return p, q


def privkv_randomize_batch(
    supports: np.ndarray, signs: np.ndarray, params: MechanismParams, rng: np.random.Generator
) -> np.ndarray:
    check_alphabet(params, 3)
    supports, signs = read_batch(supports, signs, params.d, params.s)
    n, s = supports.shape
    j = rng.integers(1, params.d + 1, size=n)
    clipped = np.minimum((supports < j[:, None]).sum(axis=1), s - 1)  # j's slot in the row, if present
    found = supports[np.arange(n), clipped] == j
    value = np.where(found, signs[np.arange(n), clipped], 0)
    value += 2  # categories 1, 2, 3 for the values -1, 0, +1
    j -= 1
    j *= 3  # in place: dimension j's codes are 3(j - 1) + 1..3
    return np.add(j, _randomized_response(value, 3, params.epsilon, rng), out=j)


def pckv_randomize_batch(
    supports: np.ndarray, signs: np.ndarray, params: MechanismParams, rng: np.random.Generator
) -> np.ndarray:
    check_alphabet(params, 2)
    supports, signs = read_batch(supports, signs, params.d, params.s)
    n, s = supports.shape
    slot = rng.integers(0, s, size=n)
    code = event_code(supports[np.arange(n), slot], signs[np.arange(n), slot])
    return _randomized_response(code, params.t, params.epsilon, rng)


def privkv_debias(counts: np.ndarray, n: int, params: MechanismParams) -> np.ndarray:
    """Unbiased event-frequency estimates from the counts of PrivKV's 3d codes among n reports.

    A report only carries information about its sampled dimension, so each
    contribution is debiased within dimension j's group and scaled by d.
    """
    p, q = _debias_probabilities(params.epsilon, 3)
    hits = counts.reshape(params.d, 3)  # per dimension, the reports of -1, 0 and +1
    group = hits.sum(axis=1, keepdims=True)
    return (params.d * (hits[:, ::2] - q * group) / (p - q) / n).ravel()  # rows of (j_minus, j_plus): event-code order


def pckv_debias(counts: np.ndarray, n: int, params: MechanismParams) -> np.ndarray:
    """Unbiased event-frequency estimates (scale s) from the counts of PCKV's 2d codes among n reports."""
    p, q = _debias_probabilities(params.epsilon, params.t)
    return params.s * (counts / n - q) / (p - q)
