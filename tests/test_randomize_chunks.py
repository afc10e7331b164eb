"""The hash randomizers give the same symbols and leave the generator alike for any row chunking and worker count."""

import threading

import numpy as np
import pytest

from ldpvec import coco, collision, domain
from ldpvec.domain import user_hash_seeds
from ldpvec.harness import gen_synthetic_arrays

RANDOMIZERS = {
    "collision": (collision.collision_params, collision.collision_randomize_batch),
    "coco": (coco.coco_params, coco.coco_randomize_batch),
}
# (mechanism, n, d, s, t): default t, s = d at the smallest t (s+1 for collision, 2s+2 for CoCo), and n = 1
SHAPES = [
    ("collision", 7, 6, 2, None), ("collision", 5, 3, 3, 4), ("collision", 1, 5, 1, 2),
    ("coco", 7, 6, 2, None), ("coco", 5, 3, 3, 8), ("coco", 1, 4, 1, 4),
]


def _randomize(name, n, d, s, t, seed=5):
    """One batch of the mechanism at the shape; the symbols and the generator's state after the call."""
    make_params, randomize = RANDOMIZERS[name]
    supports, signs = gen_synthetic_arrays(n, d, s, np.random.default_rng(n * d + s))
    rng = np.random.default_rng(seed)
    z = randomize(supports, signs, user_hash_seeds(seed, n), make_params(d, s, 1.0, t), rng)
    return z, rng.bit_generator.state


def _chunk_cells(n, s):
    """Row-chunk sizes in cells: one row, an uneven split, exactly one chunk, and one chunk plus one row."""
    uneven = [k for k in range(2, n) if n % k][:1]
    return [s, *(k * s for k in uneven), n * s, max(1, n - 1) * s]


@pytest.mark.parametrize("name, n, d, s, t", SHAPES)
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_symbols_and_generator_state_do_not_depend_on_the_chunking(monkeypatch, name, n, d, s, t, workers):
    z_one, state_one = _randomize(name, n, d, s, t)  # the default chunk holds these batches whole
    assert z_one.dtype == np.int64 and z_one.shape == (n,)
    monkeypatch.setattr(domain, "pool_workers", lambda: workers)
    for cells in _chunk_cells(n, s):
        monkeypatch.setattr(domain, "ROW_CHUNK_CELLS", cells)
        z, state = _randomize(name, n, d, s, t)
        assert z.dtype == z_one.dtype and np.array_equal(z, z_one), cells
        assert state == state_one, cells


@pytest.mark.parametrize("name", sorted(RANDOMIZERS))
def test_a_desk_batch_is_one_chunk_and_starts_no_thread(monkeypatch, name):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built for one chunk")

    monkeypatch.setattr(domain.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(domain, "pool_workers", lambda: 4)
    baseline = threading.active_count()
    n, d, s = 10_000, 64, 8  # the CLI's default grid point: n * s = 8e4 cells
    assert n * s <= domain.ROW_CHUNK_CELLS
    _randomize(name, n, d, s, None)
    rows = domain.ROW_CHUNK_CELLS // s
    with pytest.raises(AssertionError, match="a thread pool was built"):  # one row more than a chunk is two chunks
        _randomize(name, rows + 1, d, s, None)
    assert threading.active_count() == baseline


@pytest.mark.parametrize("name, hashed", [("collision", "hash_buckets"), ("coco", "hash_buckets")])
def test_an_error_in_a_randomize_worker_reaches_the_caller(monkeypatch, name, hashed):
    module = collision if name == "collision" else coco
    callers = []

    def out_of_memory(*args):
        callers.append(threading.current_thread())
        raise MemoryError("row chunk too large")

    monkeypatch.setattr(domain, "ROW_CHUNK_CELLS", 1)  # one row per chunk
    monkeypatch.setattr(domain, "pool_workers", lambda: 2)
    monkeypatch.setattr(module, hashed, out_of_memory)
    baseline = threading.active_count()
    with pytest.raises(MemoryError, match="row chunk too large"):
        _randomize(name, 6, 4, 2, None)
    assert threading.active_count() == baseline
    assert callers and threading.main_thread() not in callers
