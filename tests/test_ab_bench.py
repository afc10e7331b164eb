"""``tools/ab_bench.py``'s report, on canned perfbench output: no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

spec = importlib.util.spec_from_file_location("ab_bench", Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

BETTER = {"op_s.coco": "lower", "evals_per_s": "higher"}


def canned(coco: float, evals: float, correct: bool = True, digest: str = "ab12") -> str:
    """A perfbench run's standard output: metric lines, a digest line, then the result line."""
    result = {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
              "metrics": {"op_s.coco": {"value": coco, "unit": "s"}, "evals_per_s": {"value": evals, "unit": "1/s"}}}
    return (f"workload sweep-desk  seed 1  trace 0  run x\n  op_s.coco {coco} s\n"
            f"  digest coco.views                      {digest}\n{json.dumps(result)}\n")


def test_parse_run_reads_the_result_line_and_the_digests():
    run = ab_bench.parse_run(canned(0.013, 5.0))
    assert run == {"correct": True, "metrics": {"op_s.coco": 0.013, "evals_per_s": 5.0}, "digests": {"coco.views": "ab12"}}


def test_summary_gives_medians_quartile_ranges_and_wins_by_direction():
    a = [ab_bench.parse_run(canned(c, e)) for c, e in [(0.013, 5.0), (0.012, 4.0), (0.015, 6.0), (0.014, 5.0)]]
    b = [ab_bench.parse_run(canned(c, e)) for c, e in [(0.011, 6.0), (0.010, 4.0), (0.016, 7.0), (0.011, 5.0)]]
    lines, ok = ab_bench.summarize(list(zip(a, b)), BETTER)
    assert ok
    rows = {line.split()[0]: line.split() for line in lines if line.split()[0] in BETTER}
    # op_s.coco: A median 0.0135 and quartiles 0.01275..0.01425, B 0.011 and 0.01075..0.01225; B lower in 3 of 4
    assert [float(v) for v in rows["op_s.coco"][1:5]] == [0.0135, 0.0015, 0.011, 0.0015]
    assert rows["op_s.coco"][5:] == ["3", "of", "4"]
    # higher is better: B higher in 2 of 4 pairs, one tie that wins for neither side
    assert rows["evals_per_s"][5:] == ["2", "of", "4"]
    assert len([line for line in lines if line.split()[0].isdigit()]) == 8  # every pair's every metric


def test_summary_fails_on_an_incorrect_run_or_differing_digests():
    good = ab_bench.parse_run(canned(0.013, 5.0))
    lines, ok = ab_bench.summarize([(good, ab_bench.parse_run(canned(0.011, 5.0, correct=False)))], BETTER)
    assert not ok and "NOT CORRECT: B run of pair 0" in lines
    lines, ok = ab_bench.summarize([(good, ab_bench.parse_run(canned(0.011, 5.0, digest="cd34")))], BETTER)
    assert not ok and "DIGESTS DIFFER: coco.views" in lines
    lines, ok = ab_bench.summarize([(good, {"correct": False, "metrics": {}, "digests": {}})], BETTER)
    assert not ok  # a run that printed no result line
