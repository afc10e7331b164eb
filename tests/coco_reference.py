"""Literal per-permutation reference for CoCo's output law.

``coco_weight_vector`` runs the randomizer's assignment loop for one
write order of the support, and ``CocoWeights`` validates one such
trace.  Averaging the weight vector over all s! orders gives the law
that ``ldpvec.oracle._coco_table_probs`` computes in closed form over
surviving writers, so tests can check the closed form against it.
"""

import math
from dataclasses import dataclass

import numpy as np

from ldpvec.coco import coco_omega


@dataclass(frozen=True)
class CocoWeights:
    """Relative bucket weights of one randomization trace.

    Every weight lies in [1, e^eps] and the total equals the input- and
    hash-independent normaliser omega.
    """

    w: np.ndarray
    omega: float
    epsilon: float

    def __post_init__(self):
        total = float(np.sum(self.w))
        if abs(total - self.omega) > 1e-9 * max(1.0, self.omega):
            raise ValueError(f"weights sum to {total}, expected omega={self.omega}")
        eeps = math.exp(self.epsilon)
        if float(np.min(self.w)) < 1.0 - 1e-12 or float(np.max(self.w)) > eeps + 1e-12:
            raise ValueError("weights must lie in [1, e^eps]")

    @property
    def probabilities(self) -> np.ndarray:
        return self.w / self.omega


def coco_weight_vector(
    ordered_support: tuple[tuple[int, int], ...],
    table,
    epsilon: float,
    t: int,
) -> CocoWeights:
    """Relative weights over buckets 1..t for one permutation of the support.

    ``table`` is one user's paired-layout hash (an ``oracle.CocoTable``):
    ``table.event_bucket(j, b)`` and ``table.pair_slot(j)``.  Implements
    the assignment loop literally: later entries overwrite both members of
    a conflicting bucket pair, then unassigned pairs receive the uniform
    residual weight.
    """
    eeps = math.exp(epsilon)
    s = len(ordered_support)
    half = t // 2
    W = np.zeros(t)
    for j, b in ordered_support:
        hb = table.event_bucket(j, b)
        lb = 2 * table.pair_slot(j) + half - hb
        W[hb - 1] = eeps
        W[lb - 1] = 1.0
    omega = coco_omega(s, epsilon, t)
    assigned = W.sum()
    w = (omega - assigned) / (t - 2.0 * assigned / (eeps + 1.0))
    for k in range(half):
        if W[k] == 0.0 and W[k + half] == 0.0:
            W[k] = w
            W[k + half] = w
    return CocoWeights(w=W, omega=omega, epsilon=epsilon)
