import math
import threading
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hit_reference import REFERENCE_BUCKETS
from ldpvec import aggregate
from ldpvec.aggregate import (
    MECHANISMS,
    TARGETS,
    aggregate_frequencies,
    event_hit_counts,
    mae,
    project_to_simplex,
    simplex_projection,
    target_values,
    true_event_frequencies,
    tve,
)
from ldpvec.coco import coco_params, coco_randomize_batch, collision_rates
from ldpvec.collision import collision_params, collision_randomize_batch
from ldpvec.domain import EventId, MechanismParams, hash_buckets, pair_signs, pair_slots, user_hash_seeds
from ldpvec.oracle import exact_estimator_moments, all_sparse_vectors

LN2 = math.log(2)


def qp_simplex_projection(v):
    """Active-set KKT enumeration oracle for tiny instances."""
    v = np.asarray(v, dtype=float)
    m = len(v)
    best = None
    for k in range(1, m + 1):
        for free in combinations(range(m), k):
            free = list(free)
            lam = (1.0 - v[free].sum()) / len(free)
            x = np.zeros(m)
            x[free] = v[free] + lam
            if x[free].min() < -1e-12:
                continue
            zero = [i for i in range(m) if i not in free]
            if zero and (v[np.array(zero)] + lam).max() > 1e-12:
                continue
            cand = x
            if best is None or np.linalg.norm(cand - v) < np.linalg.norm(best - v) - 1e-15:
                best = cand
    return best


def test_projection_examples():
    assert simplex_projection([0.8, 0.4]) == pytest.approx([0.7, 0.3])
    feasible = np.array([0.2, 0.5, 0.3])
    assert simplex_projection(feasible) == pytest.approx(feasible)
    vertex = simplex_projection([-1.0, -2.0, -3.0])
    assert vertex == pytest.approx([1.0, 0.0, 0.0])
    # one vector in, not a batch of rows or a scalar
    for bad in (np.zeros((2, 3)), np.float64(0.5)):
        with pytest.raises(ValueError, match="estimates must be one 1-d vector"):
            simplex_projection(bad)


def test_projection_matches_qp_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = rng.normal(0, 1, size=3)
        assert simplex_projection(v) == pytest.approx(qp_simplex_projection(v), abs=1e-10)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    values=arrays(np.float64, st.integers(1, 40), elements=st.floats(-1e3, 1e3)),
    s=st.integers(1, 16),
)
def test_projection_idempotent_and_scaled(values, s):
    once = project_to_simplex(values, s)
    twice = project_to_simplex(once, s)
    assert once.min() >= 0.0
    assert once.sum() == pytest.approx(s, abs=1e-9)
    assert twice == pytest.approx(once, abs=1e-12)


def test_projection_contracts_toward_feasible_points():
    # projection onto a convex set never increases distance to points in it
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.normal(0, 2, size=4)
        p = simplex_projection(v)
        w = rng.dirichlet(np.ones(4))
        assert np.linalg.norm(p - w) <= np.linalg.norm(v - w) + 1e-12


def test_metrics_examples():
    truth = np.zeros(4)
    assert tve(truth, truth) == 0.0 and mae(truth, truth) == 0.0
    est = np.array([0.1, -0.1, 0.0, 0.0])
    assert tve(est, truth) == pytest.approx(0.2)
    assert mae(est, truth) == pytest.approx(0.1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert mae(a, b) <= tve(a, b) + 1e-15
    with pytest.raises(ValueError):
        tve(np.zeros(3), np.zeros(4))


def test_mean_estimate_identities_exact():
    values = np.array([0.1, 0.4, 0.0, 0.2, 0.3, 0.05])
    assert target_values(values, "frequency") is values
    assert np.array_equal(target_values(values, "mean"), values[1::2] - values[0::2])
    assert np.array_equal(target_values(values, "nonmissing"), values[1::2] + values[0::2])
    # a batch of frequency rows maps row by row
    rows = np.stack([values, 2 * values])
    for target in TARGETS:
        mapped = target_values(rows, target)
        assert np.array_equal(mapped[1], target_values(2 * values, target))
    with pytest.raises(ValueError, match="unknown target 'conditional'"):
        target_values(values, "conditional")


def test_mechanism_table_builds_one_params_type():
    for name, mech in MECHANISMS.items():
        for target in TARGETS:
            params = mech.params(6, 2, 0.8, None, target)
            assert isinstance(params, MechanismParams), name
            assert (params.d, params.s) == (6, 2)


def test_collision_single_view_contribution_pattern():
    # a single view contributes the 9 / -3 debiased pattern per event
    params = collision_params(6, 2, LN2, 4)
    seeds = user_hash_seeds(5, 1)
    z = collision_randomize_batch(np.array([[3, 5]]), np.array([[1, -1]]), seeds, params, np.random.default_rng(0))
    est = aggregate_frequencies((seeds, z), "collision", params)
    for code in range(1, 13):
        hit = hash_buckets(seeds, np.int64(code), 4)[0] == z[0]
        assert est[code - 1] == pytest.approx(9.0 if hit else -3.0)


def test_aggregate_expectation_matches_truth_small_instance():
    # exact expectation over mechanism randomness equals empirical frequency
    params = collision_params(4, 2, 0.9, 5)
    vectors = all_sparse_vectors(4, 2)[:3]
    expect = np.zeros(8)
    for x in vectors:
        for code in range(1, 9):
            mean, _ = exact_estimator_moments(
                "collision", params, x, "indicator", event=EventId.from_code(code)
            )
            expect[code - 1] += mean / len(vectors)
    sup = np.array([[j for j, _ in x.support] for x in vectors])
    sg = np.array([[b for _, b in x.support] for x in vectors])
    truth = true_event_frequencies(sup, sg, 4)
    assert np.abs(expect - truth).max() < 1e-10


def coco_hits(seed, z, j, t):
    """Whether one view's symbol z is the bucket of j_plus, and of j_minus."""
    seed = np.array([seed], dtype=np.uint64)
    h1, h2 = pair_slots(seed, np.int64(j), t)[0], pair_signs(seed, np.int64(j))[0]
    plus = h1 + (h2 + 1) // 2 * (t // 2)  # H1(j) + ((sign*H2(j)+1)/2) * t/2
    minus = h1 + (1 - h2) // 2 * (t // 2)
    return float(plus == z), float(minus == z)


def coco_mean_contribution(seed, z, j, rates, t):
    """One view's unbiased estimate of [j_plus in Y_x] - [j_minus in Y_x]."""
    hp, hm = coco_hits(seed, z, j, t)
    return (hp - hm) / (rates.p_t - rates.p_o)


def coco_nonmissing_contribution(seed, z, j, rates, t):
    """One view's unbiased estimate of [j_plus in Y_x] + [j_minus in Y_x]."""
    hp, hm = coco_hits(seed, z, j, t)
    return (hp + hm - 2.0 * rates.p_f) / (rates.p_t + rates.p_o - 2.0 * rates.p_f)


def test_coco_scalar_contributions_match_frequency_aggregation():
    params = coco_params(5, 2, 0.9, t=8)
    rates = collision_rates(2, 0.9, 8)
    n = 200
    seeds = user_hash_seeds(77, n)
    z = coco_randomize_batch(
        np.tile([[2, 4]], (n, 1)), np.tile([[1, -1]], (n, 1)), seeds, params, np.random.default_rng(21)
    )
    freq = aggregate_frequencies((seeds, z), "coco", params)
    mean, nonmissing = target_values(freq, "mean"), target_values(freq, "nonmissing")
    for j in range(1, 6):
        by_views = np.mean([coco_mean_contribution(seed, zi, j, rates, 8) for seed, zi in zip(seeds, z)])
        assert mean[j - 1] == pytest.approx(by_views, abs=1e-12)
        by_views_nm = np.mean([coco_nonmissing_contribution(seed, zi, j, rates, 8) for seed, zi in zip(seeds, z)])
        assert nonmissing[j - 1] == pytest.approx(by_views_nm, abs=1e-12)


def test_coco_high_budget_recovers_one_hot():
    # eps large, s=1: estimates converge to the exact one-hot frequencies
    rng = np.random.default_rng(11)
    n, d = 100_000, 4
    supports = np.full((n, 1), 3, dtype=np.int64)
    signs = np.full((n, 1), -1, dtype=np.int64)
    params = coco_params(d, 1, 8.0)
    seeds = user_hash_seeds(17, n)
    z = coco_randomize_batch(supports, signs, seeds, params, rng)
    est = aggregate_frequencies((seeds, z), "coco", params)
    truth = np.zeros(2 * d)
    truth[2 * 3 - 1 - 1] = 1.0
    assert np.abs(est - truth).max() < 0.02


def test_aggregate_rejects_empty_and_mismatched():
    params = collision_params(4, 1, 1.0, 3)
    with pytest.raises(ValueError):
        aggregate_frequencies((np.array([], dtype=np.uint64), np.array([], dtype=np.int64)), "collision", params)
    seeds, z = user_hash_seeds(0, 2), np.array([1, 2])
    for views in ((seeds, z, z), [seeds, z], seeds):
        with pytest.raises(ValueError, match=r"take a \(seeds, z\) pair"):
            aggregate_frequencies(views, "collision", params)


@pytest.mark.parametrize("mechanism, params", [("collision", collision_params(4, 1, 1.0, 3)), ("coco", coco_params(4, 1, 1.0))])
def test_aggregate_rejects_symbols_outside_output_domain(mechanism, params):
    seeds = user_hash_seeds(1, 3)
    with pytest.raises(ValueError, match="z must lie in"):
        aggregate_frequencies((seeds, [0, 999, -3]), mechanism, params)
    with pytest.raises(ValueError, match="z must lie in"):
        aggregate_frequencies((seeds, [1, 1, params.t + 1]), mechanism, params)


@pytest.mark.parametrize("mechanism, params", [("collision", collision_params(4, 1, 1.0, 3)), ("coco", coco_params(4, 1, 1.0))])
def test_aggregate_rejects_seeds_and_z_of_different_lengths(mechanism, params):
    with pytest.raises(ValueError, match="differ in length"):
        aggregate_frequencies((user_hash_seeds(1, 3), [1, 2]), mechanism, params)


@pytest.mark.parametrize("mechanism, params", [("collision", collision_params(4, 1, 1.0, 3)), ("coco", coco_params(4, 1, 1.0))])
def test_aggregate_rejects_arrays_that_are_not_1d(mechanism, params):
    seeds = user_hash_seeds(1, 4)
    with pytest.raises(ValueError, match="must be 1-d"):
        aggregate_frequencies((seeds.reshape(2, 2), np.ones((2, 2), dtype=np.int64)), mechanism, params)
    with pytest.raises(ValueError, match="must be 1-d"):
        aggregate_frequencies((seeds, np.ones((4, 1), dtype=np.int64)), mechanism, params)


@pytest.mark.parametrize("mechanism, params", [("collision", collision_params(4, 1, 1.0, 3)), ("coco", coco_params(4, 1, 1.0))])
def test_aggregate_rejects_non_integer_seeds_or_symbols(mechanism, params):
    seeds = user_hash_seeds(1, 3)
    with pytest.raises(ValueError, match="z must be an integer array"):
        aggregate_frequencies((seeds, [1.7, 2.2, 3.9]), mechanism, params)
    with pytest.raises(ValueError, match="seeds must be an integer array"):
        aggregate_frequencies((seeds.astype(float), [1, 2, 3]), mechanism, params)


def test_aggregate_rejects_non_integer_baseline_reports():
    privkv = MECHANISMS["privkv"].params(4, 1, 1.0, None, "frequency")
    with pytest.raises(ValueError, match="j must be an integer array"):
        aggregate_frequencies((np.array([1.0, 2.0]), np.array([1, -1])), "privkv", privkv)
    with pytest.raises(ValueError, match="values must be an integer array"):
        aggregate_frequencies((np.array([1, 2]), np.array([1.0, -1.0])), "privkv", privkv)
    for name in ("pckv_grr", "pckv_agrr"):
        pckv = MECHANISMS[name].params(4, 1, 1.0, None, "frequency")
        with pytest.raises(ValueError, match="codes must be an integer array"):
            aggregate_frequencies(np.array([1.5, 2.0]), name, pckv)


def test_aggregate_rejects_malformed_baseline_reports():
    privkv = MECHANISMS["privkv"].params(4, 1, 1.0, None, "frequency")
    with pytest.raises(ValueError, match="dimensions j"):
        aggregate_frequencies((np.array([0, 2]), np.array([1, -1])), "privkv", privkv)
    with pytest.raises(ValueError, match="values in"):
        aggregate_frequencies((np.array([1, 2]), np.array([1, 5])), "privkv", privkv)
    pckv = MECHANISMS["pckv_grr"].params(4, 1, 1.0, None, "frequency")
    with pytest.raises(ValueError, match="codes"):
        aggregate_frequencies(np.array([1, 9]), "pckv_grr", pckv)


@st.composite
def _hit_instances(draw):
    """A hash mechanism's params, user seeds and symbols z, half of them on a bucket of the user's own."""
    name = draw(st.sampled_from(sorted(REFERENCE_BUCKETS)))
    d = draw(st.integers(1, 12))
    s = draw(st.integers(1, d))
    epsilon = draw(st.floats(0.05, 6.0))
    low = 2 * s + 2 if name == "coco" else s + 1  # CoCo's minimum t, collision's t > s
    t = draw(st.one_of(st.none(), st.just(low), st.integers(low, low + 40), st.integers(2**32 + 1, 2**40)))
    if t is not None and name == "coco":
        t += t % 2
    params = MECHANISMS[name].params(d, s, epsilon, t, "mean")
    n = draw(st.integers(1, 40))
    seeds = user_hash_seeds(draw(st.integers(0, 2**64 - 1)), n)
    buckets = REFERENCE_BUCKETS[name](seeds, params)
    z = np.array([
        buckets[i, draw(st.integers(0, 2 * d - 1))] if draw(st.booleans()) else draw(st.integers(1, params.t))
        for i in range(n)
    ], dtype=np.int64)
    return name, params, seeds, z, buckets


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instance=_hit_instances(), data=st.data())
def test_hit_kernels_match_the_reference_layouts(instance, data):
    name, params, seeds, z, buckets = instance
    expected = buckets == z[:, None]
    hits = MECHANISMS[name].event_hits(seeds, z, params)
    assert hits.dtype == np.bool_ and np.array_equal(hits, expected)
    cells = len(seeds) * 2 * params.d
    for chunk in (1, 2 * params.d - 1, 2 * params.d, data.draw(st.integers(2, 3 * cells).filter(lambda c: cells % c))):
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(aggregate, "HIT_CHUNK_CELLS", chunk)
                mp.setattr(aggregate, "_hit_workers", lambda: workers)
                counts = event_hit_counts(seeds, z, MECHANISMS[name].event_hits, params)
            assert counts.dtype == np.int64 and np.array_equal(counts, expected.sum(axis=0)), (chunk, workers)


@pytest.mark.parametrize("name", sorted(REFERENCE_BUCKETS))
@pytest.mark.parametrize("workers", [2, 3])
def test_hit_counts_over_chunks_that_do_not_divide_among_the_workers(monkeypatch, name, workers):
    params = MECHANISMS[name].params(5, 2, 1.0, None, "mean")
    seeds = user_hash_seeds(11, 7)
    buckets = REFERENCE_BUCKETS[name](seeds, params)
    z = buckets[np.arange(7), np.arange(7) % (2 * params.d)]
    monkeypatch.setattr(aggregate, "HIT_CHUNK_CELLS", 2 * params.d)  # one user per chunk: 7 chunks
    monkeypatch.setattr(aggregate, "_hit_workers", lambda: workers)
    counts = event_hit_counts(seeds, z, MECHANISMS[name].event_hits, params)
    assert np.array_equal(counts, (buckets == z[:, None]).sum(axis=0))


def test_a_single_chunk_starts_no_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built for one chunk")

    monkeypatch.setattr(aggregate.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(aggregate, "_hit_workers", lambda: 4)
    baseline = threading.active_count()
    for name in ("collision", "coco"):
        params = MECHANISMS[name].params(8, 2, 1.0, None, "mean")
        seeds = user_hash_seeds(3, aggregate.HIT_CHUNK_CELLS // (2 * params.d))  # exactly one chunk
        z = np.ones(len(seeds), dtype=np.int64)
        counts = event_hit_counts(seeds, z, MECHANISMS[name].event_hits, params)
        assert counts.shape == (2 * params.d,)
        aggregate_frequencies((seeds, z), name, params)
    assert threading.active_count() == baseline


def test_a_worker_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(aggregate, "HIT_CHUNK_CELLS", 1)  # one user per chunk: 4 chunks
    monkeypatch.setattr(aggregate, "_hit_workers", lambda: 2)
    seeds, z = user_hash_seeds(5, 4), np.ones(4, dtype=np.int64)
    baseline = threading.active_count()
    callers = []

    def collision_hits(seeds, z, params):
        callers.append(threading.current_thread())
        return MECHANISMS["collision"].event_hits(seeds, z, params)

    def out_of_memory(seeds, z, params):
        callers.append(threading.current_thread())
        raise MemoryError("hit matrix too large")

    plain = MechanismParams(4, 1, 1.0, 3)
    with pytest.raises(ValueError, match="collision needs CollisionParams, got MechanismParams"):
        event_hit_counts(seeds, z, collision_hits, plain)
    assert threading.active_count() == baseline
    with pytest.raises(MemoryError, match="hit matrix too large"):
        event_hit_counts(seeds, z, out_of_memory, plain)
    assert threading.active_count() == baseline
    assert callers and threading.main_thread() not in callers
