"""The program surface that the benchmark in ``perfbench/`` calls, run in-process.

The benchmark imports the program's names and wraps its public functions.
A change that deletes or renames one of them fails here, in the test suite,
rather than first in a benchmark run.  The benchmark's files are only read.
"""

import math
import sys
from pathlib import Path

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
    assert all(math.isfinite(v) and v > 0 for v in predicted)
