"""Literal references for CoCo's output law and its hash family.

``coco_weight_vector`` runs the randomizer's assignment loop for one
write order of the support, and ``CocoWeights`` validates one such
trace.  Averaging the weight vector over all s! orders gives the law
that ``ldpvec.coco.coco_table_probs`` reads off CoCo's layout with each
pair's last writer uniform, so tests can check that law against it.
``event_buckets`` states the pair rule of a table on its own, and
``uniform_coco_family`` lists every table on a set of dimensions, the
full family that the oracle's orbit representatives stand for.
``coco_exact_rates_by_rank`` reaches the collision rates (P_t, P_o, P_f)
by summing over write ranks, a route independent of the geometric closed
form in ``ldpvec.coco.collision_rates``.
"""

import math
from dataclasses import dataclass
from itertools import product

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


def event_buckets(table: dict[int, int], j: int, t: int) -> tuple[int, int]:
    """(j_plus's bucket, j_minus's bucket) of dim j: the pair (k, k + t/2), j_plus on ``table[j]``."""
    half = t // 2
    h1 = (table[j] - 1) % half + 1
    return table[j], 2 * h1 + half - table[j]


def coco_weight_vector(
    ordered_support: tuple[tuple[int, int], ...],
    table,
    epsilon: float,
    t: int,
) -> CocoWeights:
    """Relative weights over buckets 1..t for one permutation of the support.

    ``table`` is one user's paired-layout hash, ``{dim: j_plus's bucket}``
    (see ``event_buckets``).  Implements the assignment loop literally:
    later entries overwrite both members of a conflicting bucket pair, then
    unassigned pairs receive the uniform residual weight.
    """
    eeps = math.exp(epsilon)
    s = len(ordered_support)
    half = t // 2
    W = np.zeros(t)
    for j, b in ordered_support:
        plus, minus = event_buckets(table, j, t)
        hb, lb = (plus, minus) if b > 0 else (minus, plus)
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


def uniform_coco_family(dims, t: int) -> list:
    """Every table on ``dims`` for even t, equally weighted: each dim's j_plus bucket uniform over 1..t."""
    count = t ** len(dims)
    return [(dict(zip(dims, plus)), 1.0 / count) for plus in product(range(1, t + 1), repeat=len(dims))]


def coco_exact_rates_by_rank(s: int, epsilon: float, t: int) -> tuple[float, float, float]:
    """(P_t, P_o, P_f) by summing over write ranks, no geometric closed form.

    Conditions on the probed entry's uniform rank among the s writes; each
    later write hits its bucket pair independently with chance 2/t, and a
    fair orientation coin applies when overwritten.  Exact under the
    uniform hash family for any s.
    """
    eeps = math.exp(epsilon)
    omega = coco_omega(s, epsilon, t)
    survive_terms = [((t - 2.0) / t) ** (s - k) for k in range(1, s + 1)]
    p_t = math.fsum(
        (1.0 / s) * (sv * eeps / omega + (1.0 - sv) * (eeps + 1.0) / (2.0 * omega))
        for sv in survive_terms
    )
    p_o = math.fsum(
        (1.0 / s) * (sv * 1.0 / omega + (1.0 - sv) * (eeps + 1.0) / (2.0 * omega))
        for sv in survive_terms
    )
    # An absent dimension's bucket is uniform and independent of z.
    p_f = 1.0 / t
    return p_t, p_o, p_f
