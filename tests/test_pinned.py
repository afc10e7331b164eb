"""CLI output at fixed seeds, and the exact oracle's values, pinned byte for byte across commits.

The expected files in ``tests/pinned/`` hold the output of the commands
below as recorded from an earlier commit.  A change that alters a random
stream on purpose regenerates them with the same arguments (``--out``
pointing into ``tests/pinned/``) and says so in CHANGES.md.

``oracle_moments.csv`` holds ``verify_ldp`` and every
``exact_estimator_moments`` value on the oracle grids of acceptance
criteria 1 and 2, as 17 significant digits, so every float is pinned
exactly.  A change that alters an oracle value on purpose regenerates it
with ``PYTHONPATH=src python tests/test_pinned.py``, which first prints
how many values moved and the worst move against the committed file, and
says so in CHANGES.md.
"""

import math
from pathlib import Path

import pytest
from click.testing import CliRunner

from ldpvec.cli import main
from ldpvec.collision import collision_params
from ldpvec.domain import EventId, MechanismParams
from ldpvec.oracle import all_sparse_vectors, exact_estimator_moments, verify_ldp

PINNED = Path(__file__).parent / "pinned"
SIMULATE = [
    "simulate", "--master-seed", "11", "--n", "400", "--d", "8", "--s", "2", "--epsilon", "0.5,2.0",
    "--mechanism", "collision,coco,privkv,pckv_grr,pckv_agrr", "--repetitions", "2",
]
EDGES = ["amplify", "--n", "2,17,1000,1000000", "--s", "1,8", "--epsilon", "0.05,3.0,8.0"]
COMMANDS = {
    "simulate_frequency.csv": SIMULATE + ["--target", "frequency"],
    "simulate_mean.csv": SIMULATE + ["--target", "mean"],
    "simulate_nonmissing.csv": SIMULATE + ["--target", "nonmissing"],
    "amplify.csv": ["amplify", "--n", "300,1000", "--s", "2", "--epsilon", "0.5,1.0"],
    "amplify_large.csv": ["amplify", "--n", "10000,100000", "--s", "4", "--epsilon", "0.5,1.0,2.0"],
    "amplify_edges_tiny.csv": EDGES + ["--delta", "1e-300"],
    "amplify_edges_vacuous.csv": EDGES + ["--delta", "0.5"],
    "simulate_mean.jsonl": SIMULATE + ["--target", "mean", "--format", "jsonl"],
    "simulate_raw_log.csv": SIMULATE + [
        "--target", "nonmissing", "--projection", "false", "--report", "mean_log", "--metrics", "mae",
    ],
    "amplify.jsonl": ["amplify", "--n", "300,1000", "--s", "2", "--epsilon", "0.5,1.0", "--format", "jsonl"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_pinned_bytes(name, tmp_path):
    out = tmp_path / name
    res = CliRunner().invoke(main, COMMANDS[name] + ["--out", str(out)])
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == (PINNED / name).read_bytes()


ORACLE_MOMENTS = PINNED / "oracle_moments.csv"


def _oracle_grids():
    """Criteria 1-2's oracle parameter sets: collision at d=4, s=2 and CoCo at d=4, s in {1, 2}."""
    epsilons = (0.5, math.log(2), 2.0)
    grid = [("collision", collision_params(4, 2, eps, t)) for t in (4, 5, 6) for eps in epsilons]
    return grid + [("coco", MechanismParams(d=4, s=s, epsilon=eps, t=t)) for s in (1, 2) for t in (6, 8) for eps in epsilons]


def _probes(mechanism: str, d: int):
    if mechanism == "collision":
        return [(f"indicator event={code}", {"estimator": "indicator", "event": EventId.from_code(code)})
                for code in range(1, 2 * d + 1)]
    return [(f"{estimator} dim={j}", {"estimator": estimator, "dim": j})
            for j in range(1, d + 1) for estimator in ("mean", "nonmissing")]


def oracle_moments_csv() -> str:
    """One row per oracle value: each grid point's privacy loss, then each input's and probe's mean and variance."""
    rows = ["mechanism,d,s,t,epsilon,x,quantity,value"]
    for mechanism, params in _oracle_grids():
        head = f"{mechanism},{params.d},{params.s},{params.t},{params.epsilon!r}"
        rows.append(f"{head},,verify_ldp,{verify_ldp(mechanism, params):.17g}")
        for x in all_sparse_vectors(params.d, params.s):
            signed = "".join(f"{'+' if b > 0 else '-'}{j}" for j, b in x.support)
            for name, probe in _probes(mechanism, params.d):
                mean, variance = exact_estimator_moments(mechanism, params, x, **probe)
                rows += [f"{head},{signed},{name} mean,{mean:.17g}", f"{head},{signed},{name} variance,{variance:.17g}"]
    return "\n".join(rows) + "\n"


def test_oracle_values_match_pinned_bytes():
    assert oracle_moments_csv().encode() == ORACLE_MOMENTS.read_bytes()


def moved_values(old: str, new: str) -> tuple[int, float]:
    """How many values of the csv ``new`` differ from ``old``'s on the same row, and the worst move in ulps of
    max(|v|, 1), v being ``old``'s value."""
    before = dict(line.rsplit(",", 1) for line in old.splitlines()[1:])
    moves = [abs(float(value) - float(before[key])) / math.ulp(max(abs(float(before[key])), 1.0))
             for key, value in (line.rsplit(",", 1) for line in new.splitlines()[1:])
             if key in before and float(value) != float(before[key])]
    return len(moves), max(moves, default=0.0)


if __name__ == "__main__":
    csv = oracle_moments_csv()
    moved, worst = moved_values(ORACLE_MOMENTS.read_text() if ORACLE_MOMENTS.exists() else "", csv)
    print(f"{ORACLE_MOMENTS.name}: {moved} values moved, the worst by {worst:.3g} ulps of max(|v|, 1)")
    ORACLE_MOMENTS.write_bytes(csv.encode())
