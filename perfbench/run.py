"""Layered benchmark of ldpvec: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep-full --seed 1 --seconds 30 --trace 0

Runs the program from ``src/`` of the checkout it sits in.  With ``--trace
0`` it prints the end-to-end metrics, with ``--trace 1`` the per-layer ones;
names and units are those of ``BENCHMARK.json``.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.  Each run also
appends a record (manifest, metrics, digests, failures) to
``.perfbench/results.jsonl``; a traced run writes its spans next to it.
``--smoke`` runs the same code on tiny shapes.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
SETUP_RUNS = 3
IMPORT_RUNS = 3
IMPORT_MODULES = ("ldpvec.cli", "ldpvec.amplification")


def import_program() -> None:
    init = ROOT / "src" / "ldpvec" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init.relative_to(ROOT)} not found; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import ldpvec

    if Path(ldpvec.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported ldpvec from {ldpvec.__file__}, not from this checkout")


def parse_args(workload_names: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Layered benchmark of ldpvec.")
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True, help="master seed of the generated inputs")
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    p.add_argument("--smoke", action="store_true", help="tiny shapes, for the benchmark's own test")
    p.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args()


def measure(is_sweep, sweep_shape, verify_shape, seed, seconds, clock, tally, digests) -> tuple[dict, dict]:
    """Rounds until the next one would end further past ``seconds`` than it
    starts before it; medians over rounds of calibrated times."""
    rounds, details = [], []
    start = time.perf_counter()
    while True:
        if is_sweep:
            point_s = wl.sweep_round(sweep_shape, seed, tally, digests, clock)
            rounds.append(wl.family_times(point_s))
            details.append({f"point_s.{m}": v for m, v in point_s.items()})
        else:
            families, detail = wl.verify_round(verify_shape, tally, digests, clock)
            rounds.append(families)
            details.append(detail)
            # The oracle keeps per-shape tables for the life of the process,
            # so a second round would time that cache instead of the work.
            break
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) / 2 >= seconds:
            break
    metrics = {f"op_s.{f}": statistics.median(r[f] for r in rounds) for f in wl.FAMILIES}
    detail = {k: statistics.median(d[k] for d in details) for k in details[0]}
    detail["rounds"] = len(rounds)
    return metrics, detail


def reference_plan(args) -> dict:
    """The untraced plan, run in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--reference"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: reference run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced(args, is_sweep, sweep_shape, verify_shape, run_id, tally, digests) -> tuple[dict, dict]:
    imports = environment.import_seconds(ROOT, IMPORT_MODULES, IMPORT_RUNS)
    reference = reference_plan(args)
    tally.attempted += reference["attempted"]
    tally.failures += [f"reference run: {f}" for f in reference["failures"]]
    tracer = Tracer(run_id)
    layers.install(tracer)
    try:
        plan = layers.run_plan(sweep_shape, verify_shape, is_sweep, args.seed, tally, digests, tracer)
    finally:
        stuck = tracer.restore()
    tally.record("restore wrapped attributes", [f"still wrapped: {stuck}"] if stuck else [])
    tally.record(
        "digests equal across processes",
        [f"{k} differs from the reference run" for k, v in digests.values.items() if reference["digests"].get(k) != v],
    )
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{run_id}.jsonl")
    metrics = layers.layer_metrics(tracer, plan, reference, sweep_shape, imports)
    detail = {"plan_s": plan["plan_s"], "reference_plan_s": reference["plan_s"], "spans": len(tracer.spans)}
    return metrics, detail


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit("error: BENCHMARK.json not found at the root of the checkout")
    spec = json.loads(spec_path.read_text())
    args = parse_args([w["name"] for w in spec["workloads"]])
    import_program()

    global wl, layers, environment, Calibration, Tracer
    import environment
    import layers
    import workloads as wl
    from calibrate import Calibration
    from spans import Tracer

    is_sweep = args.workload != "verify"
    if args.smoke:
        sweep_shape, verify_shape = wl.SMOKE_SWEEP, wl.SMOKE_VERIFY
    else:
        sweep_shape = {"sweep-full": wl.FULL, "sweep-desk": wl.DESK}.get(args.workload, wl.DESK_PROBE)
        verify_shape = wl.VERIFY
    tally, digests = wl.Tally(), wl.Digests()

    if args.reference:
        plan = layers.run_plan(sweep_shape, verify_shape, is_sweep, args.seed, tally, digests)
        print(json.dumps({**plan, "attempted": tally.attempted, "failures": tally.failures, "digests": digests.values}))
        return 0

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    if args.trace:
        metrics, detail = traced(args, is_sweep, sweep_shape, verify_shape, run_id, tally, digests)
        declared = spec["per_layer"]
    else:
        clock = Calibration()
        metrics, detail = measure(is_sweep, sweep_shape, verify_shape, args.seed, args.seconds, clock, tally, digests)
        metrics["setup_s"] = statistics.median(environment.setup_seconds(ROOT, SETUP_RUNS, clock, tally))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        detail["calibration.kernel_s"] = statistics.median(clock.kernel_s)
        detail["calibration.factor"] = statistics.median(clock.factors)
        declared = spec["end_to_end"]

    if set(metrics) != {m["name"] for m in declared}:
        sys.exit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json")

    man = environment.manifest(ROOT, BENCH, args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    registry_key = f"{args.workload}|seed={args.seed}|smoke={args.smoke}|{man['source_sha256']}"
    tally.record("digests equal to earlier runs", environment.check_registry(OUT / "digests.json", registry_key, digests.values))

    units = {m["name"]: m["unit"] for m in declared}
    record = {
        "run_id": run_id, "manifest": man, "trace": args.trace, "smoke": args.smoke, "seconds": args.seconds,
        "metrics": metrics, "detail": detail, "digests": digests.values,
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
    }
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  run {run_id}")
    for name in sorted(metrics):
        print(f"  {name:38s} {metrics[name]:.6g} {units[name]}")
    for name in sorted(detail):
        print(f"  {'(detail) ' + name:38s} {detail[name]:.6g}")
    print(f"  {'failed_frac':38s} {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} operations)")
    for name, value in sorted(digests.values.items()):
        print(f"  digest {name:31s} {value}")
    for failure in tally.failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
