"""Rejection paths that no other test reaches, one table row each, with the whole message.

Three raises guard internal invariants that no input reaches, so none has
a row: the CoCo law's weight-sum and weight-range checks
(``coco.coco_table_probs``) and ``CollisionRates``' probability range.
"""

import re

import numpy as np
import pytest
from click.testing import CliRunner

from ldpvec import aggregate
from ldpvec.amplification import AmplificationQuery, collision_alpha, efmrtt_closed_form, generic_clone_alpha
from ldpvec.cli import main
from ldpvec.coco import coco_choose_t, coco_params, coco_predicted_mse, collision_rates
from ldpvec.collision import collision_optimal_t, collision_params
from ldpvec.domain import EventId, MechanismParams, TernaryVector
from ldpvec.harness import ExperimentConfig, build_config, parse_config_text
from ldpvec.oracle import exact_estimator_moments, verify_ldp

GRID = dict(n=(50,), d=(8,), s=(2,), epsilon=(1.0,), mechanism=("privkv",), master_seed=1, repetitions=1)
# alpha within the 1e-12 slack above the clone bound, where e^eps a + a still exceeds 1 + 1e-12
MIXTURE_EPSILON = 0.27208633254958964
# 12 event codes: Bell(12) = 4,213,597 relabelling orbits on t = 13 buckets, more than 2^20, in 54.8M law cells, under
# the law-array guard
GUARDED = collision_params(13, 12, 1.0, 13)

REJECTIONS = {
    "mechanism: unknown name": (lambda: aggregate.mechanism("bogus"), "unknown mechanism 'bogus'"),
    "oracle: unknown name": (lambda: verify_ldp("bogus", collision_params(4, 1, 1.0)), "unknown mechanism 'bogus'"),
    "oracle: a baseline": (
        lambda: verify_ldp("privkv", MechanismParams(4, 1, 1.0, 3)), "mechanism 'privkv' has no exact law",
    ),
    "oracle: orbit guard": (
        lambda: exact_estimator_moments(
            "collision", GUARDED, TernaryVector(13, tuple((j, 1) for j in range(1, 13))), "indicator", event=EventId(1, 1)
        ),
        "uniform family on 12 points has more than 2^20 orbit representatives",
    ),
    # numpy's common type of a bool and an int is int, so each vector constructed with True read as 1
    "vector: a bool sign beside an int": (
        lambda: TernaryVector(4, ((1, True), (2, 1))), "signs must be an integer array, got value True",
    ),
    "vector: a bool index beside an int": (
        lambda: TernaryVector(4, ((True, 1), (2, 1))), "supports must be an integer array, got value True",
    ),
    # a 3-tuple entry constructed, and event_set() then failed to unpack it; a 1-tuple failed to unpack in construction
    "vector: an entry of three values": (
        lambda: TernaryVector(4, ((1, 1, 7), (2, 1))),
        "support must be non-empty (index, sign) pairs, got ((1, 1, 7), (2, 1))",
    ),
    "vector: an entry of one value": (
        lambda: TernaryVector(4, ((1,),)), "support must be non-empty (index, sign) pairs, got ((1,),)",
    ),
    # an int event ended in an AttributeError
    "oracle: an event that is not an EventId": (
        lambda: exact_estimator_moments(
            "collision", collision_params(4, 1, 1.0), TernaryVector(4, ((1, 1),)), "indicator", event=3
        ),
        "event must have an integer index in 1..4 and sign -1 or +1, got 3",
    ),
    "query: clone mixture weights": (
        lambda: AmplificationQuery(100, MIXTURE_EPSILON, generic_clone_alpha(MIXTURE_EPSILON) * (1 + 1e-12), 1e-6),
        "invalid alpha: clone mixture weights exceed 1",
    ),
    # Omega overflowed to inf, and alpha failed as "alpha must be a real number in (0, 1.0], got alpha=0.0"
    "collision_alpha: normaliser overflow": (
        lambda: collision_alpha(1, 709.1, collision_optimal_t(1, 709.1)),
        "epsilon=709.1 is too large: the normaliser s*e^epsilon + t - s overflows float arithmetic",
    ),
    "efmrtt_closed_form: delta outside (0,1)": (lambda: efmrtt_closed_form(1.0, 1.0, 100), "delta must lie in (0,1)"),
    "collision_rates: negative epsilon": (
        lambda: collision_rates(1, -0.5, 4), "epsilon must be a non-negative real number, got epsilon=-0.5",
    ),
    # a bool returned rates, a string ended in a TypeError, and nan failed as "p_t=nan is not a probability"
    "collision_rates: bool epsilon": (
        lambda: collision_rates(1, True, 4), "epsilon must be a non-negative real number, got epsilon=True",
    ),
    "collision_rates: string epsilon": (
        lambda: collision_rates(1, "1.0", 4), "epsilon must be a non-negative real number, got epsilon='1.0'",
    ),
    "collision_rates: nan epsilon": (
        lambda: collision_rates(1, float("nan"), 4), "epsilon must be a non-negative real number, got epsilon=nan",
    ),
    "coco_choose_t: unknown which": (
        lambda: coco_choose_t(2, 1.0, "median"), "which must be 'mean' or 'nonmissing', got 'median'",
    ),
    # with t given, which went unread: coco_params(4, 1, 1.0, t=4, which="median") returned params
    "coco_params: unknown which beside a t": (
        lambda: coco_params(4, 1, 1.0, t=4, which="median"), "which must be 'mean' or 'nonmissing', got 'median'",
    ),
    "coco_predicted_mse: unknown which": (
        lambda: coco_predicted_mse(8, 2, collision_rates(2, 1.0, 8), "median"),
        "which must be 'mean' or 'nonmissing', got 'median'",
    ),
    "coco_predicted_mse: d < s": (
        lambda: coco_predicted_mse(2, 3, collision_rates(3, 1.0, 8), "mean"), "need 1 <= s <= d, got s=3, d=2",
    ),
    "config: unknown target": (lambda: ExperimentConfig(**GRID, target="bogus"), "unknown target 'bogus'"),
    "config: unknown report": (lambda: ExperimentConfig(**GRID, report="bogus"), "unknown report convention 'bogus'"),
    # a library caller's "false" was truthy: projected rows labelled projection=true
    "config: non-bool projection": (
        lambda: ExperimentConfig(**GRID, projection="false"), "projection must be true or false, got projection='false'",
    ),
    "config text: projection = maybe": (
        lambda: build_config(parse_config_text("master_seed = 1\nprojection = maybe\n")),
        "projection must be true or false, got projection='maybe'",
    ),
    # the command line's --master-seed is click-typed, but a config file's was "invalid literal for int() ..."
    "config text: master_seed = abc": (
        lambda: build_config(parse_config_text("master_seed = abc\n")), "master_seed must be an integer, got master_seed='abc'",
    ),
}


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_rejection_path_raises_its_whole_message(case):
    call, message = REJECTIONS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_config_text_projection_reads_either_case():
    for text, flag in (("false", False), ("TRUE", True), ("False", False)):
        assert build_config({"master_seed": "1", "projection": text}).projection is flag


def test_cli_project_skips_blank_lines(tmp_path):
    estimates = tmp_path / "estimates.csv"
    estimates.write_text("0.8,0.4\n\n   \n0.2,0.2\n")
    res = CliRunner().invoke(main, ["project", "--s", "1", "--in", str(estimates)])
    assert res.exit_code == 0, res.output
    rows = ([0.8, 0.4], [0.2, 0.2])
    assert res.stdout.splitlines() == [
        ",".join(f"{v:.17g}" for v in aggregate.project_to_simplex(np.array(row), 1)) for row in rows
    ]
