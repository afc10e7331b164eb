"""The hash randomizers' views and estimates at sweep shapes, pinned by one sha256 across commits.

The ``simulate`` pins in ``tests/pinned/`` run n=400, d=8, s=2 and eps in {0.5, 2}: one row chunk, no s = d and no
extreme eps.  This pins collision's and CoCo's views z and their ``aggregate_frequencies`` estimates at (n, d, s) =
(2e4, 64, 8), two row chunks, and (5e3, 16, 16), where s = d, over eps from 0.001 to 4, each at the mechanism's
default t for the ``mean`` target.  A change that alters either random stream on purpose recomputes the digest with
this recipe and says so in CHANGES.md.
"""

import hashlib

import numpy as np

from ldpvec.aggregate import MECHANISMS, aggregate_frequencies
from ldpvec.domain import ROW_CHUNK_CELLS, user_hash_seeds
from ldpvec.harness import gen_synthetic_arrays

SHAPES = [(20_000, 64, 8), (5_000, 16, 16)]
EPSILONS = (0.001, 0.1, 0.5, 1, 2, 4)
DIGEST = "a0a875917483c1a9bc836b6b520aa6b02076cd438afa4087cfbfe2162a19469b"


def test_hash_views_and_estimates_match_the_pinned_digest():
    assert SHAPES[0][0] * SHAPES[0][2] > ROW_CHUNK_CELLS  # the first shape spans two row chunks
    digest = hashlib.sha256()
    for name in ("collision", "coco"):
        mech = MECHANISMS[name]
        for n, d, s in SHAPES:
            supports, signs = gen_synthetic_arrays(n, d, s, np.random.default_rng(7))
            seeds = user_hash_seeds(3, n)
            for epsilon in EPSILONS:
                params = mech.params(d, s, epsilon, "mean")
                z = mech.randomize(supports, signs, seeds, params, np.random.default_rng(9))
                digest.update(z.tobytes())
                digest.update(aggregate_frequencies((seeds, z), name, params).tobytes())
    assert digest.hexdigest() == DIGEST
