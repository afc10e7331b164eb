"""The shipped hash samplers draw the registered law exactly (``sampler_reference``'s breakpoint law).

The Monte Carlo law tests in ``test_collision.py`` and ``test_coco.py`` have a 5-sigma band of ~7.5e-3 at 40,000
draws; a sampler that drew 1% off its law moved it by ~5e-3 and passed them.  The breakpoint law is exact to a few
ulps, so these cases see such a defect.
"""

import numpy as np
import pytest

from ldpvec.aggregate import MECHANISMS
from ldpvec.coco import coco_params
from ldpvec.collision import collision_params
from ldpvec.domain import STREAM_H1, STREAM_SINGLE, event_code, hash_buckets
from sampler_reference import sampler_law

# Fixed before the first run, as were the shapes and seeds: the breakpoint law is exact to a few ulps per piece.
TOLERANCE = 1e-12

# (mechanism, d, s, epsilon, t or None for the default): the smallest t makes bucket conflicts likely, the default t
# draws the usual layout, and s = d and s = 4 (all 24 CoCo write orders) are covered.
SHAPES = [
    ("collision", 1, 1, 1.0, None), ("collision", 4, 2, 0.5, 3), ("collision", 6, 3, 1.0, None),
    ("collision", 3, 3, 0.3, 4), ("collision", 8, 4, 2.0, 5), ("collision", 8, 2, 4.0, None),
    ("coco", 1, 1, 1.0, None), ("coco", 4, 2, 0.7, 6), ("coco", 5, 3, 1.0, None),
    ("coco", 3, 3, 0.3, 8), ("coco", 8, 4, 1.0, 10), ("coco", 8, 2, 3.0, None),
]
SEEDS = [1, 2**64 - 1, 0x9E37_79B9_7F4A_7C15]  # each a user's hash seed, and the seed of the user's datum


@pytest.mark.parametrize("seed", SEEDS, ids=["1", "max", "golden"])
@pytest.mark.parametrize("mechanism, d, s, epsilon, t", SHAPES)
def test_the_shipped_sampler_draws_the_registered_law(mechanism, d, s, epsilon, t, seed):
    params = (collision_params if mechanism == "collision" else coco_params)(d, s, epsilon, t)
    rng = np.random.default_rng(seed)
    support, signs = np.sort(rng.choice(d, s, replace=False) + 1), rng.choice([-1, 1], s)
    if mechanism == "collision":
        buckets = hash_buckets(np.uint64(seed), event_code(support, signs), params.t, STREAM_SINGLE)
    else:
        buckets = hash_buckets(np.uint64(seed), support, params.t, STREAM_H1)
    want = MECHANISMS[mechanism].law(buckets, signs, params)
    got = sampler_law(mechanism, support, signs, seed, params)
    assert np.abs(got - want).max() <= TOLERANCE
