"""Literal bucket layouts that the hit kernels are checked against.

Each layout returns every user's bucket for every event code 1..2d, shape
(n, 2d), built from the public hash streams; a view hits event c exactly
when its row's bucket for c equals its symbol z.  ``ldpvec.domain.event_hit_counts``
counts those hits without materialising buckets.
"""

import numpy as np

from ldpvec import aggregate as agg
from ldpvec.coco import coco_params
from ldpvec.collision import collision_params
from ldpvec.domain import STREAM_H1, MechanismParams, hash_buckets, keyed_hashes, stream_keys, user_hash_seeds
from ldpvec.harness import _rep_streams, gen_synthetic_arrays


def collision_event_buckets(seeds: np.ndarray, params: MechanismParams) -> np.ndarray:
    """Each user's bucket for every event code 1..2d, shape (n, 2d)."""
    codes = np.arange(1, 2 * params.d + 1, dtype=np.int64)
    return hash_buckets(seeds[:, None], codes[None, :], params.t)


def coco_event_buckets(seeds: np.ndarray, params: MechanismParams) -> np.ndarray:
    """Each user's bucket for every event code 1..2d, shape (n, 2d): j_plus is code 2j, on bucket H(j), and
    j_minus the other member of its pair (k, k + t/2)."""
    t, half = np.uint64(params.t), np.uint64(params.t // 2)
    dims = np.arange(1, params.d + 1, dtype=np.int64)
    plus = keyed_hashes(seeds[:, None], stream_keys(dims, STREAM_H1)[None, :]) % t + np.uint64(1)
    buckets = np.empty((len(seeds), params.d, 2), dtype=np.uint64)  # (j_minus, j_plus) per dimension
    buckets[:, :, 0] = np.where(plus > half, plus - half, plus + half)
    buckets[:, :, 1] = plus
    return buckets.reshape(len(seeds), 2 * params.d).astype(np.int64)


REFERENCE_BUCKETS = {"collision": collision_event_buckets, "coco": coco_event_buckets}
# (d, s, epsilon, t) -> params of each hash mechanism; t=None picks its default (CoCo's for the mean)
HASH_PARAMS = {"collision": collision_params, "coco": coco_params}


def single_user_mean_squared_errors(
    mechanism: str,
    d: int,
    s: int,
    epsilon: float,
    trials: int,
    master_seed: int,
    t: int | None = None,
) -> np.ndarray:
    """Per-trial summed squared error of the single-user mean estimate.

    Each trial draws a fresh user (data and hash) and estimates the full
    d-dimensional mean vector from that one private view.
    """
    mech = agg.mechanism(mechanism)
    rng_data, rng_mech, hash_master = _rep_streams(master_seed, 0, 0)
    supports, signs = gen_synthetic_arrays(trials, d, s, rng_data)
    seeds = user_hash_seeds(hash_master, trials)
    params = HASH_PARAMS[mechanism](d, s, epsilon, t)
    z = mech.randomize(supports, signs, seeds, params, rng_mech)
    # Each trial is its own one-user aggregation: debias its row of hits.
    hits = (REFERENCE_BUCKETS[mechanism](seeds, params) == z[:, None]).astype(np.int64)
    est = agg.target_values(mech.debias(hits, 1, params), "mean")
    truth = np.zeros((trials, d))
    truth[np.arange(trials)[:, None], supports - 1] = signs
    return ((est - truth) ** 2).sum(axis=1)
