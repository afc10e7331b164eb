"""CLI output at fixed seeds, pinned byte for byte across commits.

The expected files in ``tests/pinned/`` hold the output of the commands
below as recorded from an earlier commit.  A change that alters a random
stream on purpose regenerates them with the same arguments (``--out``
pointing into ``tests/pinned/``) and says so in CHANGES.md.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from ldpvec.cli import main

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
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_pinned_bytes(name, tmp_path):
    out = tmp_path / name
    res = CliRunner().invoke(main, COMMANDS[name] + ["--out", str(out)])
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == (PINNED / name).read_bytes()
