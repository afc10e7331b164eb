import math
import re
import threading
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hit_reference import HASH_PARAMS, REFERENCE_BUCKETS
from ldpvec import aggregate, domain
from ldpvec.aggregate import (
    MECHANISMS,
    TARGETS,
    aggregate_frequencies,
    mae,
    project_to_simplex,
    simplex_projection,
    target_values,
    true_event_frequencies,
    tve,
)
from ldpvec.coco import coco_params, coco_randomize_batch, collision_rates
from ldpvec.collision import collision_params, collision_randomize_batch
from ldpvec.domain import (
    STREAM_H1,
    EventId,
    MechanismParams,
    event_hit_counts,
    hash_buckets,
    keyed_hashes,
    stream_keys,
    user_hash_seeds,
)
from ldpvec.harness import gen_synthetic_arrays
from ldpvec.oracle import all_sparse_vectors, exact_estimator_moments

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
    # one vector in, not a batch of rows, a scalar or an empty vector
    for bad in (np.zeros((2, 3)), np.float64(0.5), np.array([])):
        message = f"estimates must be one non-empty 1-d vector, got shape {np.shape(bad)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simplex_projection(bad)
    # an empty vector was reported as "estimates overflow float arithmetic"
    with pytest.raises(ValueError, match=r"^estimates must be one non-empty 1-d vector, got shape \(0,\)$"):
        project_to_simplex(np.array([]), 1)


@pytest.mark.parametrize("s", [0, -1, 0.5, math.nan, True, np.True_, "2", None])
def test_projection_rejects_a_scale_below_one(s):
    # s=0 raised "estimates must be finite" after a divide-by-zero warning; s=-1 projected onto the negative simplex;
    # s=True projected at s = 1; s="2" and s=None ended in a TypeError
    with pytest.raises(ValueError, match=f"s must be at least 1, got s={s}"):
        project_to_simplex(np.array([0.8, 0.4]), s)


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
    # mae leaked numpy's "zero-size array to reduction operation maximum", and tve returned 0.0
    for metric in (tve, mae):
        with pytest.raises(ValueError, match="^estimate and truth are empty$"):
            metric([], [])


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
            params = mech.params(6, 2, 0.8, target)
            assert type(params) is MechanismParams, name
            assert (params.d, params.s) == (6, 2)


# Each t was a real or bool alphabet that MechanismParams held, and an entry point had to refuse: collision at t=4.5
# drew float64 symbols up to 4.5 (each absent event's aggregate biased by ~+0.23), at t=1.5 read z = 2 against t
# ("z must lie in 1..1.5"), and CoCo took t=6.0 as 6; PCKV at t=8.0 drew float64 codes its own debias rejected, and
# PrivKV ran end to end at a real t; and t=6.0 equals and hashes like t=6, so the oracle's value-keyed memo would
# serve it the checked set's values.
@pytest.mark.parametrize("t", [
    4.5, np.float64(5.0), 1.5, 6.0, np.float64(6.0), 8.0, np.float64(8.0), 12.0, np.float64(12.0), True,
], ids=repr)
def test_params_refuse_a_t_that_is_not_an_integer(t):
    with pytest.raises(ValueError, match=f"^{re.escape(f't must be an integer in 1..2^63-1, got {t}')}$"):
        MechanismParams(d=4, s=1, epsilon=1.0, t=t)
    for build in (collision_params, coco_params):  # the factories check t before they build
        with pytest.raises(ValueError, match=f"^{re.escape(f't must be an integer, got t={t!r}')}$"):
            build(4, 1, 1.0, t)


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
    plus = int(keyed_hashes(np.uint64(seed), stream_keys(j, STREAM_H1))) % t + 1  # H(j), j_plus's bucket
    minus = plus - t // 2 if plus > t // 2 else plus + t // 2  # the other member of its pair
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
    with pytest.raises(ValueError, match=r"^seeds must be a 1-d array, got shape \(2, 2\)$"):
        aggregate_frequencies((seeds.reshape(2, 2), np.ones((2, 2), dtype=np.int64)), mechanism, params)
    with pytest.raises(ValueError, match=r"^z must be a 1-d array, got shape \(4, 1\)$"):
        aggregate_frequencies((seeds, np.ones((4, 1), dtype=np.int64)), mechanism, params)


@pytest.mark.parametrize("mechanism, params", [("collision", collision_params(4, 1, 1.0, 3)), ("coco", coco_params(4, 1, 1.0))])
def test_aggregate_rejects_non_integer_seeds_or_symbols(mechanism, params):
    seeds = user_hash_seeds(1, 3)
    with pytest.raises(ValueError, match="z must be an integer array"):
        aggregate_frequencies((seeds, [1.7, 2.2, 3.9]), mechanism, params)
    with pytest.raises(ValueError, match="seeds must be an integer array"):
        aggregate_frequencies((seeds.astype(float), [1, 2, 3]), mechanism, params)


@pytest.mark.parametrize("mechanism, params", [("collision", collision_params(4, 1, 1.0, 3)), ("coco", coco_params(4, 1, 1.0))])
def test_aggregate_checks_ranges_on_the_values_as_given(mechanism, params):
    # an int64 seed of -1 was read as 2^64 - 1 and aggregated, a list's -1 leaked numpy's OverflowError, and a uint64
    # z of 2^63 was reported as -9223372036854775808
    for seeds in (np.array([5, -1], dtype=np.int64), [5, -1]):
        with pytest.raises(ValueError, match=r"^seeds must lie in 0\.\.2\*\*64-1, got values in -1\.\.5$"):
            aggregate_frequencies((seeds, [1, 2]), mechanism, params)
    z = np.array([1, 2**63], dtype=np.uint64)
    with pytest.raises(ValueError, match=rf"^z must lie in 1\.\.{params.t}, got values in 1\.\.{2**63}$"):
        aggregate_frequencies((user_hash_seeds(1, 2), z), mechanism, params)
    seeds = np.array([0, 2**64 - 1], dtype=np.uint64)  # the whole seed range aggregates
    assert aggregate_frequencies((seeds, [1, 2]), mechanism, params).shape == (8,)


@pytest.mark.parametrize("mechanism, params", [("collision", collision_params(4, 1, 1.0)), ("coco", coco_params(4, 1, 1.0))])
def test_aggregate_reads_a_list_of_seeds_value_by_value(mechanism, params):
    # numpy read [1, 2**64 - 1] as float64, so valid seeds given as a list were "not an integer array"
    seeds = [1, 2**64 - 1]
    want = aggregate_frequencies((np.array(seeds, dtype=np.uint64), [1, 2]), mechanism, params)
    np.testing.assert_array_equal(aggregate_frequencies((seeds, [1, 2]), mechanism, params), want)


def test_every_view_reader_rejects_a_bool_inside_a_list():
    # numpy read [True, 2] as int64, so the bool aggregated as 1, while a bool array was rejected
    cases = [
        (lambda v: aggregate_frequencies((v, [1, 2]), "collision", collision_params(4, 1, 1.0)), "seeds"),
        (lambda v: aggregate_frequencies((user_hash_seeds(1, 2), v), "coco", coco_params(4, 1, 1.0)), "z"),
        (lambda v: aggregate_frequencies(v, "privkv", MechanismParams(4, 1, 1.0, 12)), "z"),
        (lambda v: aggregate_frequencies(v, "pckv_grr", MechanismParams(4, 1, 1.0, 8)), "z"),
    ]
    for call, name in cases:
        for bad in (True, np.True_):
            with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer array, got value {bad!r}')}$"):
                call([bad, 2])


@pytest.mark.parametrize("mechanism, params", [("collision", collision_params(4, 1, 1.0)), ("coco", coco_params(4, 1, 1.0))])
def test_aggregate_reports_a_list_value_from_2_63_as_out_of_range(mechanism, params):
    # numpy read [1, 2**63] as float64, so an out-of-range z was reported as "not an integer array"
    with pytest.raises(ValueError, match=rf"^z must lie in 1\.\.{params.t}, got values in 1\.\.{2**63}$"):
        aggregate_frequencies((user_hash_seeds(1, 2), [1, 2**63]), mechanism, params)


def test_aggregate_rejects_non_integer_baseline_reports():
    privkv = MECHANISMS["privkv"].params(4, 1, 1.0, "frequency")
    # PrivKV's codes for (j, value) = (1, +1), (2, -1), as floats
    with pytest.raises(ValueError, match="z must be an integer array"):
        aggregate_frequencies(np.array([3.0, 4.0]), "privkv", privkv)
    for name in ("pckv_grr", "pckv_agrr"):
        pckv = MECHANISMS[name].params(4, 1, 1.0, "frequency")
        with pytest.raises(ValueError, match="z must be an integer array"):
            aggregate_frequencies(np.array([1.5, 2.0]), name, pckv)


def test_aggregate_rejects_malformed_baseline_reports():
    privkv = MECHANISMS["privkv"].params(4, 1, 1.0, "frequency")
    # a code below dimension 1's first, and one past dimension 4's last
    with pytest.raises(ValueError, match=r"z must lie in 1\.\.12"):
        aggregate_frequencies(np.array([0, 4]), "privkv", privkv)
    with pytest.raises(ValueError, match=r"z must lie in 1\.\.12"):
        aggregate_frequencies(np.array([3, 13]), "privkv", privkv)
    pckv = MECHANISMS["pckv_grr"].params(4, 1, 1.0, "frequency")
    with pytest.raises(ValueError, match=r"z must lie in 1\.\.8"):
        aggregate_frequencies(np.array([1, 9]), "pckv_grr", pckv)
    # each used to escape as a TypeError or a numpy error from len, unpacking or bincount
    with pytest.raises(ValueError, match=r"z must be a 1-d array, got shape \(\)"):
        aggregate_frequencies(np.array(3), "pckv_grr", pckv)
    for views in (np.array(2), np.array([[2, 6]])):
        with pytest.raises(ValueError, match="z must be a 1-d array"):
            aggregate_frequencies(views, "privkv", privkv)


@pytest.mark.parametrize("name", list(MECHANISMS))
def test_every_randomizer_reports_one_integer_per_user(name):
    # z in 1..t: a bucket for the hash mechanisms, an event code (t = 2d) for PCKV, a (dimension, value) code (t = 3d)
    # for PrivKV
    n, d, s = 400, 6, 2
    rng = np.random.default_rng(11)
    supports, signs = gen_synthetic_arrays(n, d, s, rng)
    mech = MECHANISMS[name]
    params = mech.params(d, s, 1.0, "frequency")
    views = mech.randomize(supports, signs, user_hash_seeds(5, n), params, rng)
    assert views.shape == (n,) and np.issubdtype(views.dtype, np.integer)
    assert views.min() == 1 and views.max() == params.t
    # every aggregation reads the same array as z, with the users' seeds beside it for a hash mechanism
    view = (lambda z: z) if mech.law is None else (lambda z: (user_hash_seeds(5, n), z))
    assert aggregate_frequencies(view(views), name, params).shape == (2 * d,)
    for bad in (views.reshape(2, -1), views.astype(float), np.array([0]), np.array([params.t + 1]), views[:0]):
        with pytest.raises(ValueError, match="^z must"):
            aggregate_frequencies(view(bad), name, params)


@st.composite
def _hit_instances(draw):
    """A hash mechanism's params, user seeds and symbols z, half of them on a bucket of the user's own."""
    name = draw(st.sampled_from(sorted(REFERENCE_BUCKETS)))
    d = draw(st.integers(1, 12))
    s = draw(st.integers(1, d))
    epsilon = draw(st.floats(0.05, 6.0))
    low = 2 * s + 2 if name == "coco" else s + 1  # CoCo's minimum t, collision's t > s
    t = draw(st.one_of(st.none(), st.just(low), st.integers(low, low + 40), st.integers(2**32 + 1, 2**40),
                        st.integers(2**62, 2**63 - 2)))
    if t is not None and name == "coco":
        t += t % 2
    params = HASH_PARAMS[name](d, s, epsilon, t)
    n = draw(st.integers(1, 40))
    seeds = user_hash_seeds(draw(st.integers(0, 2**64 - 1)), n)
    buckets = REFERENCE_BUCKETS[name](seeds, params)
    z = np.array([
        buckets[i, draw(st.integers(0, 2 * d - 1))] if draw(st.booleans()) else draw(st.integers(1, params.t))
        for i in range(n)
    ], dtype=np.int64)
    return name, params, seeds, z, buckets


def _points(name: str, d: int) -> int:
    """The hash points per user of a mechanism's layout: d dims if paired, else 2d event codes."""
    return d if MECHANISMS[name].paired else 2 * d


def _counts(seeds, z, name, params):
    return event_hit_counts(seeds, z, params.d, params.t, MECHANISMS[name].paired)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instance=_hit_instances(), data=st.data())
def test_hit_kernels_match_the_reference_layouts(instance, data):
    name, params, seeds, z, buckets = instance
    expected = buckets == z[:, None]
    for i in range(len(seeds)):  # each view on its own: a one-view count is that view's hits
        counts = _counts(seeds[i : i + 1], z[i : i + 1], name, params)
        assert counts.dtype == np.int64 and np.array_equal(counts, expected[i]), i
    cells = len(seeds) * 2 * params.d
    width = _points(name, params.d)  # one user per chunk up to 2 * width - 1 cells, two from 2 * width
    chunks = {1, 2 * params.d - 1, 2 * params.d, data.draw(st.integers(2, 3 * cells).filter(lambda c: cells % c))}
    for chunk in sorted(chunks | {c for c in (width - 1, width, 2 * width - 1, 2 * width) if c >= 1}):
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(domain, "HIT_CHUNK_CELLS", chunk)
                mp.setattr(domain, "pool_workers", lambda: workers)
                counts = _counts(seeds, z, name, params)
            assert counts.dtype == np.int64 and np.array_equal(counts, expected.sum(axis=0)), (chunk, workers)


@pytest.mark.parametrize("name", sorted(REFERENCE_BUCKETS))
@pytest.mark.parametrize("workers", [2, 3])
def test_hit_counts_over_chunks_that_do_not_divide_among_the_workers(monkeypatch, name, workers):
    params = MECHANISMS[name].params(5, 2, 1.0, "mean")
    seeds = user_hash_seeds(11, 7)
    buckets = REFERENCE_BUCKETS[name](seeds, params)
    z = buckets[np.arange(7), np.arange(7) % (2 * params.d)]
    monkeypatch.setattr(domain, "HIT_CHUNK_CELLS", _points(name, params.d))  # one user per chunk: 7 chunks
    monkeypatch.setattr(domain, "pool_workers", lambda: workers)
    counts = _counts(seeds, z, name, params)
    assert np.array_equal(counts, (buckets == z[:, None]).sum(axis=0))


@pytest.mark.parametrize("name", sorted(REFERENCE_BUCKETS))
def test_a_column_sum_holds_a_full_chunk_of_hits(monkeypatch, name):
    # each chunk's column sums are taken in the smallest unsigned type that holds its row count: a uint8 sum of 256
    # hits, or a uint16 one of 65536, would wrap to 0
    params = MECHANISMS[name].params(2, 1, 1.0, "mean")
    seeds = user_hash_seeds(29, 65_536)
    z = REFERENCE_BUCKETS[name](seeds, params)[:, 0]  # every view hits event code 1
    for rows in (255, 256, 65_535, 65_536):
        monkeypatch.setattr(domain, "HIT_CHUNK_CELLS", rows * _points(name, params.d))
        assert _counts(seeds, z, name, params)[0] == len(seeds), rows


@pytest.mark.parametrize("name", sorted(REFERENCE_BUCKETS))
def test_hit_counts_at_the_top_of_the_range_of_t(name):
    # from t ~ 2^63 * 2/3, z - 1 + t/2 overflows int64: a partner taken as (z - 1 + t/2) mod t there counted
    # 17 of 40 views on dim 1's j_minus
    params = HASH_PARAMS[name](6, 2, 1.0, 2**63 - 2)
    seeds = user_hash_seeds(3, 40)
    buckets = REFERENCE_BUCKETS[name](seeds, params)
    for code in range(2 * params.d):
        z = buckets[:, code]
        assert np.array_equal(_counts(seeds, z, name, params), (buckets == z[:, None]).sum(axis=0))


@pytest.mark.parametrize("name", sorted(REFERENCE_BUCKETS))
def test_a_counter_reused_on_a_shorter_chunk_counts_only_that_chunk(monkeypatch, name):
    # every view sits on one of its own buckets, so rows left over from a longer chunk would add hits; one worker
    # counts all 9 views in one set of buffers, in chunks of 4, 5 or 8 views, the last of them 1, 4 or 1 views long
    params = MECHANISMS[name].params(6, 2, 1.0, "mean")
    seeds = user_hash_seeds(23, 9)
    buckets = REFERENCE_BUCKETS[name](seeds, params)
    z = buckets[np.arange(9), (3 * np.arange(9)) % (2 * params.d)]
    monkeypatch.setattr(domain, "pool_workers", lambda: 1)
    for users in (4, 5, 8):
        monkeypatch.setattr(domain, "HIT_CHUNK_CELLS", users * _points(name, params.d))
        assert np.array_equal(_counts(seeds, z, name, params), (buckets == z[:, None]).sum(axis=0)), users


def test_a_single_chunk_starts_no_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built for one chunk")

    monkeypatch.setattr(domain.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(domain, "pool_workers", lambda: 4)
    baseline = threading.active_count()
    for name in ("collision", "coco"):
        params = MECHANISMS[name].params(8, 2, 1.0, "mean")
        users = domain.HIT_CHUNK_CELLS // _points(name, params.d)  # exactly one chunk
        seeds, z = user_hash_seeds(3, users + 1), np.ones(users + 1, dtype=np.int64)
        counts = _counts(seeds[:users], z[:users], name, params)
        assert counts.shape == (2 * params.d,)
        aggregate_frequencies((seeds[:users], z[:users]), name, params)
        with pytest.raises(AssertionError, match="a thread pool was built"):  # one user more is two chunks
            _counts(seeds, z, name, params)
    assert threading.active_count() == baseline


def test_a_worker_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(domain, "HIT_CHUNK_CELLS", 1)  # one user per chunk: 4 chunks
    monkeypatch.setattr(domain, "pool_workers", lambda: 2)
    seeds, z = user_hash_seeds(5, 4), np.ones(4, dtype=np.int64)
    baseline = threading.active_count()
    callers = []

    def out_of_memory(*args):
        callers.append(threading.current_thread())
        raise MemoryError("hit matrix too large")

    monkeypatch.setattr(domain, "keyed_hashes", out_of_memory)  # the seeds are built: only the count's workers hash
    with pytest.raises(ValueError, match=r"^collision mechanism needs t > s, got t=1, s=1$"):
        aggregate_frequencies((seeds, z), "collision", MechanismParams(4, 1, 1.0, 1))
    assert threading.active_count() == baseline and callers == []  # rejected before any worker hashed
    with pytest.raises(MemoryError, match="hit matrix too large"):
        aggregate_frequencies((seeds, z), "collision", collision_params(4, 1, 1.0, 3))
    assert threading.active_count() == baseline
    assert callers and threading.main_thread() not in callers
