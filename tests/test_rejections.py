"""Rejection paths that no other test reaches, one table row each, with the whole message.

The hash laws' weight-sum check (``domain.layout_law``) guards an
invariant that no input reaches; a planted free weight reaches it below.
``tools/line_reach.py`` lists every line of ``src/ldpvec`` that no tier-1
test executes.
"""

import re

import numpy as np
import pytest
from click.testing import CliRunner

from ldpvec import aggregate, domain
from ldpvec.amplification import AmplificationQuery, collision_alpha, efmrtt_closed_form, generic_clone_alpha
from ldpvec.cli import main
from ldpvec.coco import (
    CollisionRates, coco_choose_t, coco_omega, coco_params, coco_predicted_mse, coco_randomize_batch, coco_table_probs,
    collision_rates,
)
from ldpvec.collision import (
    collision_omega, collision_optimal_t, collision_params, collision_predicted_sum_variance, collision_randomize_batch,
    collision_table_probs,
)
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
        lambda: verify_ldp("privkv", MechanismParams(4, 1, 1.0, 12)), "mechanism 'privkv' has no exact law",
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
    # 2 orbit tables x t cells: in int32 the product wrapped to -2 and passed the guard, and the law would then have
    # built np.arange over all 2^31 - 1 buckets
    "oracle: a numpy int32 t past the law guard": (
        lambda: verify_ldp("collision", MechanismParams(4, 2, 1.0, np.int32(2**31 - 1))),
        "enumeration size 2*2147483647 exceeds guard 67108864",
    ),
    # the three non-integer d constructed, and the oracle took a vector of d=4.0 as one of d=4
    "vector: a real d": (lambda: TernaryVector(4.5, ((1, 1),)), "d and s must be integers, got d=4.5, s=1"),
    "vector: an integral real d": (lambda: TernaryVector(4.0, ((1, 1),)), "d and s must be integers, got d=4.0, s=1"),
    "vector: a bool d": (lambda: TernaryVector(True, ((1, 1),)), "d and s must be integers, got d=True, s=1"),
    "vector: more entries than d": (
        lambda: TernaryVector(1, ((1, 1), (2, 1))), "need 1 <= s <= d, got s=2, d=1",
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
    "CollisionRates: a rate above 1": (
        lambda: CollisionRates(p_t=1.5, p_f=0.25, p_o=0.1, p_ow=0.0), "p_t=1.5 is not a probability",
    ),
    "CollisionRates: a nan rate": (
        lambda: CollisionRates(p_t=0.5, p_f=float("nan"), p_o=0.1, p_ow=0.0), "p_f=nan is not a probability",
    ),
    # three writers under params of s = 1: each of the t - 6 free buckets takes (Omega - 3(e^eps + 1))/(t - 6) < 1
    "coco_table_probs: more writers than s": (
        lambda: coco_table_probs(np.array([1, 2, 3]), np.array([1, 1, 1]), MechanismParams(4, 1, 1.0, 8)),
        "weights must lie in [1, e^eps]",
    ),
    # three hit buckets under params of s = 1: each of the t - 3 unhit buckets took (Omega - 3e^eps)/(t - 3) = 0.313
    "collision_table_probs: more hit buckets than s": (
        lambda: collision_table_probs(np.array([1, 2, 3]), None, MechanismParams(4, 1, 1.0, 8)),
        "weights must lie in [1, e^eps]",
    ),
    # e^40 absorbs t - s in Omega, so the free weight at m = s, exactly 1, rounds to 0: collision's verify_ldp returned
    # inf (CoCo's law refused a row already), and both randomizers divided by zero
    "verify_ldp: collision's free weight rounds to 0": (
        lambda: verify_ldp("collision", collision_params(4, 2, 40.0, 3)), "weights must lie in [1, e^eps]",
    ),
    "verify_ldp: CoCo's free weight rounds to 0": (
        lambda: verify_ldp("coco", coco_params(4, 2, 40.0, 6)), "weights must lie in [1, e^eps]",
    ),
    "collision_randomize_batch: the free weight rounds to 0": (
        lambda: collision_randomize_batch(np.array([[1, 2]]), np.array([[1, 1]]), np.array([1]),
                                          collision_params(4, 2, 40.0, 3), np.random.default_rng(0)),
        "weights must lie in [1, e^eps]",
    ),
    "coco_randomize_batch: the free weight rounds to 0": (
        lambda: coco_randomize_batch(np.array([[1, 2]]), np.array([[1, 1]]), np.array([1]),
                                     coco_params(4, 2, 40.0, 6), np.random.default_rng(0)),
        "weights must lie in [1, e^eps]",
    ),
    # the closed form takes a real t, finite and above s
    "collision_predicted_sum_variance: t <= s": (
        lambda: collision_predicted_sum_variance(4, 2, 1.0, 2), "collision mechanism needs a finite t > s, got t=2, s=2",
    ),
    "collision_predicted_sum_variance: a real t <= s": (
        lambda: collision_predicted_sum_variance(4, 2, 1.0, 1.5),
        "collision mechanism needs a finite t > s, got t=1.5, s=2",
    ),
    # an infinite t has no normaliser, and nan compares false with s
    "collision_predicted_sum_variance: an infinite t": (
        lambda: collision_predicted_sum_variance(4, 2, 1.0, float("inf")),
        "collision mechanism needs a finite t > s, got t=inf, s=2",
    ),
    "collision_predicted_sum_variance: a nan t": (
        lambda: collision_predicted_sum_variance(4, 2, 1.0, float("nan")),
        "collision mechanism needs a finite t > s, got t=nan, s=2",
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


@pytest.mark.parametrize("mechanism", ["collision", "coco"])
def test_the_hash_laws_refuse_rows_off_their_normaliser(mechanism, monkeypatch):
    # a planted law: every free bucket 1% heavier, as a sampler whose free weight drifted would draw
    free_weight, unplanted = domain.free_weight, []

    def drifted(*args):
        unplanted.append(free_weight(*args))
        return 1.01 * unplanted[-1]

    monkeypatch.setattr(domain, "free_weight", drifted)
    mech = aggregate.MECHANISMS[mechanism]
    params = mech.params(4, 1, 1.0, "mean")
    omega = (coco_omega if mech.paired else collision_omega)(1, 1.0, params.t)
    message = rf"^weights sum to (\S+), expected omega={re.escape(str(omega))}$"
    with pytest.raises(ValueError, match=message) as err:
        mech.law(np.array([1]), np.array([1]), params)
    total = float(re.match(message, str(err.value)).group(1))
    # one occupied bucket leaves t - 1 free buckets; one occupied pair, t - 2
    assert total == pytest.approx(omega + 0.01 * (params.t - 1 - mech.paired) * unplanted[-1], rel=1e-12)


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
