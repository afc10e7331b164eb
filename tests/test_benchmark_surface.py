"""The program surface that the benchmark in ``perfbench/`` calls, run in-process.

The benchmark imports the program's names and wraps its public functions.
A change that deletes or renames one of them fails here, in the test suite,
rather than first in a benchmark run.  The benchmark's files are only read.
"""

import math
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from ldpvec import oracle

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_oracle_and_closed_forms_run_without_failures(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no cache files in the benchmark's directory
    import layers
    import workloads as wl
    from spans import Tracer

    tally, tracer = wl.Tally(), Tracer("test")
    layers.install(tracer)
    try:
        wl.oracle_collision(wl.SMOKE_VERIFY, tally)
        wl.oracle_coco(wl.SMOKE_VERIFY, tally)
        predicted = [wl.predicted_tve_raw(m, wl.SMOKE_SWEEP) for m in ("collision", "coco")]
    finally:
        assert tracer.restore() == []
    assert tally.attempted > 0 and tally.failures == []
    assert tracer.named("oracle.verify_ldp") and tracer.named("oracle.exact_estimator_moments")
    assert oracle._input_moments.cache_info().currsize <= 1  # the oracle remembers one parameter set, not the grid
    assert all(math.isfinite(v) and v > 0 for v in predicted)


def test_benchmark_verify_round_runs_without_failures(monkeypatch):
    # the verify workload's whole round: accountant queries of every bound and both oracle grids
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layers
    import workloads as wl
    from spans import Tracer

    tally, tracer = wl.Tally(), Tracer("test")
    layers.install(tracer)
    try:
        families, _ = wl.verify_round(wl.SMOKE_VERIFY, tally, wl.Digests())
    finally:
        assert tracer.restore() == []
    assert tally.attempted > 0 and tally.failures == []
    assert set(families) == set(wl.FAMILIES)
    for name in ("amplification.amplified_epsilon", "amplification.pq_divergence", "oracle.verify_ldp",
                 "oracle.exact_estimator_moments"):
        assert tracer.named(name), name


def test_benchmark_sees_every_stage_of_every_mechanism(monkeypatch):
    # perfbench times a stage by wrapping the module function a point calls, so a mechanism table entry bound to the
    # function object hides it; each point's span needs a child of every stage perfbench times (user seeds: hash
    # mechanisms only), and the harness's metric lookup must run for every mechanism
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layers
    import workloads as wl
    from spans import Tracer

    tally, tracer = wl.Tally(), Tracer("test")
    layers.install(tracer)
    try:
        wl.sweep_round(wl.SMOKE_SWEEP, 1, tally, wl.Digests())
    finally:
        assert tracer.restore() == []
    assert tally.attempted == len(wl.MECHANISMS) and tally.failures == []
    stages = defaultdict(set)
    for span in tracer.spans:
        stages[span["parent"]].add(layers.STAGES.get(span["name"]))
    points = tracer.named("harness.simulate_point")
    assert {point["attrs"]["mechanism"] for point in points} == set(wl.MECHANISMS)
    for point in points:
        mechanism = point["attrs"]["mechanism"]
        expected = set(layers.STAGES.values()) - (set() if mechanism in ("collision", "coco") else {"seeds"})
        assert expected <= stages[point["id"]], mechanism


@pytest.mark.parametrize("is_sweep", [True, False])
def test_benchmark_whole_plan_runs_without_failures(monkeypatch, is_sweep):
    # the workload round plus every layer probe, the accountant's and domain.hash_buckets' among them
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layers
    import workloads as wl

    tally = wl.Tally()
    layers.run_plan(wl.SMOKE_SWEEP, wl.SMOKE_VERIFY, is_sweep, 1, tally, wl.Digests())
    assert tally.attempted > 0 and tally.failures == []
