"""Self-test of the benchmark on tiny shapes.

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py -q

Runs every workload in smoke mode, traced and untraced, checks that every
metric named in BENCHMARK.json is emitted with its unit, and that planted bad
outputs are counted as failed operations.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from ldpvec import harness  # noqa: E402

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def smoke_rows(mechanism):
    config = harness.ExperimentConfig(
        n=(wl.SMOKE_SWEEP.n,), d=(wl.SMOKE_SWEEP.d,), s=(wl.SMOKE_SWEEP.s,), epsilon=(1.0,),
        mechanism=(mechanism,), master_seed=5, repetitions=1,
    )
    return harness.run_experiment(config)


@pytest.mark.parametrize("plant", ["negative", "inflated_tve", "point_error"])
def test_planted_bad_sweep_output_counts_as_failed(monkeypatch, plant):
    rows, errors = smoke_rows("collision")
    if plant == "negative":
        rows = [dataclasses.replace(rows[0], value=-rows[0].value)] + rows[1:]
    elif plant == "inflated_tve":
        rows = [dataclasses.replace(r, value=3 * r.value) if r.metric == "tve_raw" else r for r in rows]
    else:
        errors = ["collision n=500: planted"]
    monkeypatch.setattr(harness, "run_experiment", lambda config: (rows, errors))
    tally = wl.Tally()
    wl.sweep_point("collision", wl.SMOKE_SWEEP, 5, tally, wl.Digests())
    assert (tally.attempted, tally.failed) == (1, 1)


def test_planted_bad_accountant_output_counts_as_failed():
    rows, errors = wl.amplify(wl.SMOKE_VERIFY, harness.AMPLIFICATION_BOUNDS)
    tally = wl.Tally()
    wl.check_amplify_rows(wl.SMOKE_VERIFY, rows, errors, tally)
    assert tally.failed == 0 and tally.attempted == 6
    planted = [dataclasses.replace(r, value=r.value * 2) if r.mechanism == "bound:collision" else r for r in rows]
    tally = wl.Tally()
    wl.check_amplify_rows(wl.SMOKE_VERIFY, planted, errors, tally)
    assert tally.failed == 2
    tally = wl.Tally()
    wl.check_amplify_rows(wl.SMOKE_VERIFY, [r for r in rows if r.mechanism != "bound:efmrtt"], errors, tally)
    assert tally.failed == 2


def test_planted_bad_oracle_mean_and_changed_digest_count_as_failed():
    tally = wl.Tally()
    wl.check_mean(lambda: (1.0 + 1e-9, 0.0), 1.0, "planted", tally)
    digests = wl.Digests()
    assert digests.record("out", "a") == []
    tally.record("digest", digests.record("out", "b"))
    assert (tally.attempted, tally.failed) == (2, 2)


def test_tracer_restores_wrapped_attributes_and_computes_self_time():
    original = harness.rows_to_csv
    tracer = Tracer("t")
    tracer.wrap(harness, "rows_to_csv", "harness.rows_to_csv")
    with tracer.span("outer"):
        harness.rows_to_csv([])
    assert tracer.restore() == [] and harness.rows_to_csv is original
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"]
    selfs = tracer.self_times()
    assert selfs[outer["id"]] == pytest.approx(Tracer.duration(outer) - Tracer.duration(inner))
