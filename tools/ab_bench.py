"""Paired perfbench runs of two checkouts, A (the parent) and B (the change), on one workload and one seed.

    python3 tools/ab_bench.py PARENT CHANGE --workload sweep-desk --seed 1 --pairs 5 [--seconds 30]

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, in a fresh interpreter with the checkout as its
working directory; the side that runs first alternates from pair to pair.  Before every run both checkouts'
``src/ldpvec/__pycache__`` is deleted: bytecode left on one side only would lower that side's import time, and so its
``setup_s``.  It prints each pair's end-to-end metrics, then per metric each side's median and interquartile range and
the number of pairs B wins, by the ``better`` direction of A's ``BENCHMARK.json`` (ties win for neither).  The exit
status is 1 if any run fails or is not ``correct``, or if an output digest differs between the sides, else 0.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def parse_run(stdout: str) -> dict:
    """A perfbench run's result: its last line's ``correct`` and metric values, and its ``digest NAME VALUE`` lines."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = dict(line.split()[1:3] for line in lines if line.split()[:1] == ["digest"])
    return {"correct": result["correct"], "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "digests": digests}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, checkouts) -> dict:
    """One untraced perfbench run in ``checkout``, with every checkout's bytecode cache deleted first; a run that exits
    non-zero or prints no result line is not correct."""
    for root in checkouts:
        shutil.rmtree(root / "src" / "ldpvec" / "__pycache__", ignore_errors=True)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        return parse_run(proc.stdout) if proc.returncode == 0 else {"correct": False, "metrics": {}, "digests": {}}
    except (ValueError, KeyError, IndexError, TypeError):
        return {"correct": False, "metrics": {}, "digests": {}}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range) of ``values``; the range of fewer than two values is 0."""
    if len(values) < 2:
        return statistics.median(values), 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> tuple[list[str], bool]:
    """The report of ``pairs`` of (A, B) runs, and whether every run is correct with equal digests on both sides."""
    names = sorted(set().union(*(a["metrics"].keys() | b["metrics"].keys() for a, b in pairs)))
    lines = [f"pair  {'metric':22s} {'A':>12s} {'B':>12s}"]
    for i, (a, b) in enumerate(pairs):
        for name in names:
            lines.append(f"{i:4d}  {name:22s} {a['metrics'].get(name, float('nan')):12.6g} "
                         f"{b['metrics'].get(name, float('nan')):12.6g}")
    lines.append(f"{'metric':22s} {'A median':>12s} {'A IQR':>12s} {'B median':>12s} {'B IQR':>12s}  B wins")
    for name in names:
        both = [(a["metrics"][name], b["metrics"][name]) for a, b in pairs if name in a["metrics"] and name in b["metrics"]]
        if not both:
            continue
        (ma, ia), (mb, ib) = spread([x for x, _ in both]), spread([y for _, y in both])
        sign = -1 if better.get(name, "lower") == "lower" else 1
        wins = sum(sign * (y - x) > 0 for x, y in both)
        lines.append(f"{name:22s} {ma:12.6g} {ia:12.6g} {mb:12.6g} {ib:12.6g}  {wins} of {len(both)}")
    ok = True
    bad = [f"{side} run of pair {i}" for i, pair in enumerate(pairs) for side, run in zip("AB", pair) if not run["correct"]]
    if bad:
        lines.append("NOT CORRECT: " + ", ".join(bad))
        ok = False
    differ = sorted({k for a, b in pairs for k in a["digests"].keys() | b["digests"].keys()
                     if a["digests"].get(k) != b["digests"].get(k)})
    if differ:
        lines.append("DIGESTS DIFFER: " + ", ".join(differ))
        ok = False
    return lines, ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Paired perfbench runs of two checkouts.")
    p.add_argument("parent", type=Path, help="checkout A")
    p.add_argument("change", type=Path, help="checkout B")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)
    checkouts = (args.parent.resolve(), args.change.resolve())
    spec = json.loads((checkouts[0] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs = []
    for i in range(args.pairs):
        runs = [{}, {}]
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            runs[side] = run_once(checkouts[side], args.workload, args.seed, args.seconds, checkouts)
        pairs.append(tuple(runs))
        print(f"pair {i} done, {'A' if i % 2 == 0 else 'B'} first", file=sys.stderr, flush=True)
    lines, ok = summarize(pairs, better)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
