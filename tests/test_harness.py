import dataclasses
import math
import re
import threading
import tracemalloc
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpvec import domain, harness
from ldpvec.aggregate import TARGETS
from ldpvec.amplification import AmplificationQuery, amplified_epsilon, collision_alpha, efmrtt_closed_form, generic_clone_alpha
from ldpvec.baselines import amplified_budget
from ldpvec.coco import check_coco_domain, coco_choose_t
from ldpvec.cli import main
from ldpvec.collision import collision_optimal_t, collision_params
from ldpvec.harness import (
    METRICS,
    REPORTS,
    ExperimentConfig,
    build_config,
    gen_synthetic_arrays,
    parse_config_text,
    rows_to_csv,
    rows_to_jsonl,
    run_amplification_sweep,
    run_experiment,
    simulate_point,
)
from ldpvec.oracle import verify_ldp


def test_gen_synthetic_deterministic_and_valid():
    supports, signs = gen_synthetic_arrays(50, 10, 3, np.random.default_rng(7))
    again = gen_synthetic_arrays(50, 10, 3, np.random.default_rng(7))
    assert np.array_equal(supports, again[0]) and np.array_equal(signs, again[1])
    assert supports.shape == signs.shape == (50, 3)
    assert supports.dtype == signs.dtype == np.int64
    assert supports.min() >= 1 and supports.max() <= 10
    assert (np.diff(supports, axis=1) > 0).all() and (np.abs(signs) == 1).all()
    full, _ = gen_synthetic_arrays(5, 4, 4, np.random.default_rng(1))
    assert (full == np.arange(1, 5)).all()


def test_gen_synthetic_event_frequencies():
    rng = np.random.default_rng(123)
    n, d, s = 100_000, 16, 4
    supports, signs = gen_synthetic_arrays(n, d, s, rng)
    freq = np.bincount((2 * supports - 1 + (signs > 0)).ravel() - 1, minlength=2 * d) / n
    target = s / (2 * d)
    sigma = math.sqrt(target * (1 - target) / n)
    assert np.abs(freq - target).max() < 4 * sigma


class _ScriptedDraws:
    """A Generator stand-in whose i-th support draw is column i of ``sequences``."""

    def __init__(self, d: int, sequences: np.ndarray):
        self.d, self.sequences, self.draws = d, sequences, 0

    def integers(self, low, high, size):
        if isinstance(size, tuple):  # the signs
            return np.ones(size, dtype=np.int64)
        n, k = self.sequences.shape
        assert (low, high, size) == (0, self.d - k + self.draws + 1, n)
        self.draws += 1
        return self.sequences[:, self.draws - 1]


@pytest.mark.parametrize("d, s", [(6, 1), (5, 2), (6, 3), (6, 4), (7, 5), (5, 5)])
def test_gen_synthetic_is_exactly_uniform_over_every_draw_sequence(d, s):
    # One row per possible draw sequence (draw i uniform in 0..d-k+i): every
    # s-subset must come out equally often, with no sampling and no tolerance.
    k = min(s, d - s)
    sequences = np.array(list(product(*(range(j + 1) for j in range(d - k, d)))), dtype=np.int64)
    rng = _ScriptedDraws(d, sequences)
    supports, signs = gen_synthetic_arrays(len(sequences), d, s, rng)
    assert rng.draws == k
    assert supports.dtype == signs.dtype == np.int64 and (signs == 1).all()
    counts = Counter(map(tuple, supports.tolist()))
    assert set(counts) == set(combinations(range(1, d + 1), s))
    assert len(set(counts.values())) == 1


def test_gen_synthetic_memory_is_linear_in_the_support():
    # an n x d float matrix at this size is 410 MB; the supports and signs are 6.4 MB each
    tracemalloc.start()
    try:
        gen_synthetic_arrays(100_000, 512, 8, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_cli_gen_at_huge_dimension():
    d = 10**12
    res = CliRunner().invoke(main, ["gen", "--n", "2", "--d", str(d), "--s", "3", "--seed", "1"])
    assert res.exit_code == 0, res.output
    rows = [[abs(int(v)) for v in line.split()] for line in res.stdout.splitlines()]
    assert len(rows) == 2
    assert all(len(dims) == 3 and 1 <= dims[0] < dims[1] < dims[2] <= d for dims in rows)


def test_user_hash_seeds_rejects_a_negative_n():
    # it returned no seeds
    for n in (-1, np.int64(-3)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'n must be >= 0, got n={n}')}$"):
            domain.user_hash_seeds(1, n)
    assert len(domain.user_hash_seeds(1, 0)) == 0 and len(domain.user_hash_seeds(1, np.int64(3))) == 3


def test_user_hash_seeds_rejects_a_master_seed_outside_64_bits():
    # -1 acted as 2**64 - 1 and 2**64 as 0, a float ended in a TypeError, and True acted as 1
    for seed in (-1, 2**64, np.int64(-1), 1.0, True):
        if domain.is_integer(seed):
            message = f"master_seed must lie in 0..2**64-1, got {seed}"
        else:
            message = f"master_seed must be an integer, got master_seed={seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            domain.user_hash_seeds(seed, 2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):  # the config states the same rule
            _grid_config(master_seed=seed)
    top = domain.user_hash_seeds(2**64 - 1, 2)
    assert np.array_equal(domain.user_hash_seeds(np.uint64(2**64 - 1), 2), top)
    assert not np.array_equal(domain.user_hash_seeds(0, 2), top)


def test_gen_synthetic_rejects_oversparse():
    for n, s in ((10, 5), (10, 0), (10, -1)):
        with pytest.raises(ValueError, match=rf"need 1 <= s <= d, got s={s}, d=4"):
            gen_synthetic_arrays(n, 4, s, np.random.default_rng(0))
    with pytest.raises(ValueError, match="n must be >= 0, got n=-5"):
        gen_synthetic_arrays(-5, 4, 2, np.random.default_rng(0))
    res = CliRunner().invoke(main, ["gen", "--n", "3", "--d", "4", "--s", "0", "--seed", "1"])
    assert res.exit_code == 1 and res.stdout == ""
    assert "invalid config: need 1 <= s <= d, got s=0, d=4" in res.stderr


def test_cli_gen_rejects_a_negative_seed_by_name():
    res = CliRunner().invoke(main, ["gen", "--n", "3", "--d", "4", "--s", "2", "--seed", "-5"])
    assert res.exit_code == 1 and res.stdout == ""
    assert res.stderr == "invalid config: seed must be >= 0, got seed=-5\n"
    res = CliRunner().invoke(main, ["gen", "--n", "3", "--d", "4", "--s", "2", "--seed", "0"])
    supports, signs = gen_synthetic_arrays(3, 4, 2, np.random.default_rng(0))
    assert res.exit_code == 0
    assert res.stdout.split() == [f"{'+' if b > 0 else '-'}{j}" for j, b in zip(supports.flat, signs.flat)]


@pytest.mark.parametrize(
    "args",
    [
        # the complement route's 2 x 1e15 row mask and a (2, 1e14) picks array: numpy refuses both up front
        ["gen", "--n", "2", "--d", "1000000000000000", "--s", "999999999999999"],
        ["gen", "--n", "100000000000000", "--d", "8", "--s", "2"],
    ],
)
def test_cli_gen_at_impossible_sizes_is_an_invalid_config(args):
    res = CliRunner().invoke(main, [*args, "--seed", "1"])
    assert res.exit_code == 1, res.output
    assert res.stdout == "" and res.stderr.startswith("invalid config: ")
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_dimension_beyond_int64_is_rejected_by_name():
    for d in (2**63, 2**64):
        with pytest.raises(ValueError, match=f"d must be < 2\\*\\*63, got d={d}"):
            gen_synthetic_arrays(2, d, 3, np.random.default_rng(0))
    gen_synthetic_arrays(2, 2**63 - 1, 3, np.random.default_rng(0))  # the largest d an int64 support holds
    res = CliRunner().invoke(main, ["gen", "--n", "2", "--d", str(2**64), "--s", "3", "--seed", "1"])
    assert res.stderr == f"invalid config: d must be < 2**63, got d={2**64}\n"
    res = _simulate("--d", str(2**64), "--s", "3", "--mechanism", "privkv")
    assert res.exit_code == 2, res.output
    assert res.stdout == harness.CSV_HEADER + "\n"
    assert res.stderr == f"point failed: privkv n=50 d={2**64} s=3 epsilon=1.0: d must be < 2**63, got d={2**64}\n"
    # from 2**62 on, the supports fit int64 but the event codes 1..2d do not: every mechanism's params reject d
    for d in (2**62, 2**63 - 1):
        res = _simulate("--n", "2", "--d", str(d), "--s", "1", "--mechanism", ",".join(harness.MECHANISMS))
        assert res.exit_code == 2, res.output
        assert res.stdout == harness.CSV_HEADER + "\n"
        assert sorted(res.stderr.splitlines()) == sorted(
            f"point failed: {name} n=2 d={d} s=1 epsilon=1.0: d must be < 2**62, since event codes 1..2d are int64, got d={d}"
            for name in harness.MECHANISMS
        )


def _grid_config(**sizes):
    grid = dict(n=(50,), d=(8,), s=(2,), epsilon=(1.0,), mechanism=("privkv",), master_seed=1, repetitions=1)
    return ExperimentConfig(**{**grid, **sizes})


SIZE_ENTRIES = {  # every library entry that takes a size, given one bad value
    "MechanismParams.d": lambda v: domain.MechanismParams(v, 2, 1.0, 8),
    "MechanismParams.s": lambda v: domain.MechanismParams(8, v, 1.0, 8),
    "collision_params.d": lambda v: collision_params(v, 2, 1.0),
    "verify_ldp.s": lambda v: verify_ldp("coco", domain.MechanismParams(4, v, 1.0, 8)),
    "amplified_epsilon.n": lambda v: amplified_epsilon(v, 1.0, generic_clone_alpha(1.0), 1e-6),
    "ExperimentConfig.n": lambda v: _grid_config(n=(v,)),
    "ExperimentConfig.d": lambda v: _grid_config(d=(v,)),
    "ExperimentConfig.s": lambda v: _grid_config(s=(v,)),
    "ExperimentConfig.repetitions": lambda v: _grid_config(repetitions=v),
    "run_amplification_sweep.n": lambda v: run_amplification_sweep([v], [2], [1.0], 1e-6),
    "run_amplification_sweep.s": lambda v: run_amplification_sweep([1000], [v], [1.0], 1e-6),
    "user_hash_seeds.n": lambda v: domain.user_hash_seeds(1, v),
    "gen_synthetic_arrays.n": lambda v: gen_synthetic_arrays(v, 8, 2, np.random.default_rng(0)),
    "gen_synthetic_arrays.d": lambda v: gen_synthetic_arrays(3, v, 2, np.random.default_rng(0)),
    "gen_synthetic_arrays.s": lambda v: gen_synthetic_arrays(3, 8, v, np.random.default_rng(0)),
    "collision_optimal_t.s": lambda v: collision_optimal_t(v, 1.0),
    "coco_choose_t.s": lambda v: coco_choose_t(v, 1.0, "mean"),
    "check_coco_domain.s": lambda v: check_coco_domain(v, 20),
    "amplified_budget.s": lambda v: amplified_budget(v, 1.0),
    "collision_alpha.s": lambda v: collision_alpha(v, 1.0, 40),
}


@pytest.mark.parametrize("value", [2.5, 8.0, True])
@pytest.mark.parametrize("entry", list(SIZE_ENTRIES))
def test_every_size_entry_rejects_a_float_or_bool(entry, value):
    # each was accepted, or ended in a TypeError (or, for n=True, returned an eps_c) past its checks, or named a range;
    # collision_optimal_t(2.5, 1.0) returned t=10 and check_coco_domain(1.5, 6) passed
    with pytest.raises(ValueError, match="integer"):
        SIZE_ENTRIES[entry](value)


BUDGET_ENTRIES = {  # every library entry that takes a budget epsilon, given one bad value
    "MechanismParams": lambda v: domain.MechanismParams(4, 1, v, 6),
    "collision_optimal_t": lambda v: collision_optimal_t(2, v),
    "coco_choose_t": lambda v: coco_choose_t(2, v, "mean"),
    "amplified_budget": lambda v: amplified_budget(2, v),
    "collision_alpha": lambda v: collision_alpha(2, v, 8),
    "generic_clone_alpha": generic_clone_alpha,
    "efmrtt_closed_form": lambda v: efmrtt_closed_form(v, 1e-6, 100),
    "AmplificationQuery": lambda v: AmplificationQuery(100, v, 0.1, 1e-6),
    "ExperimentConfig": lambda v: _grid_config(epsilon=(v,)),
    "run_amplification_sweep": lambda v: run_amplification_sweep([1000], [2], [v], 1e-6),
}


@pytest.mark.parametrize("value", [True, "1.0", 0, -1, math.nan])
@pytest.mark.parametrize("entry", list(BUDGET_ENTRIES))
def test_every_budget_entry_rejects_a_bool_string_or_nonpositive_epsilon(entry, value):
    # a bool passed every check (ExperimentConfig ran True and wrote epsilon=1), and a string ended in a TypeError
    if isinstance(value, (bool, str)):
        message = f"epsilon must be a real number, got epsilon={value!r}"
    else:
        message = f"epsilon must be > 0, got epsilon={value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BUDGET_ENTRIES[entry](value)


DELTA_ENTRIES = {  # every library entry that takes a failure probability delta, given one bad value
    "efmrtt_closed_form": lambda v: efmrtt_closed_form(1.0, v, 100),
    "AmplificationQuery": lambda v: AmplificationQuery(100, 1.0, 0.1, v),
    "check_amplification_grid": lambda v: harness.check_amplification_grid([1000], [2], [1.0], v, ["clone"]),
    "run_amplification_sweep": lambda v: run_amplification_sweep([1000], [2], [1.0], v),
}


@pytest.mark.parametrize("value", [True, False, "1e-6", 0, 1, -0.5, 1.5, math.nan])
@pytest.mark.parametrize("entry", list(DELTA_ENTRIES))
def test_every_delta_entry_rejects_a_bool_string_or_value_outside_the_unit_interval(entry, value):
    # a string delta ended in a TypeError at each entry
    with pytest.raises(ValueError, match=r"^delta must lie in \(0,1\)$"):
        DELTA_ENTRIES[entry](value)


def test_config_parsing_and_overrides():
    text = """
    # experiment sweep
    n = 1000, 2000
    d = 16
    s = 2
    epsilon = 0.5, 1.0
    mechanism = collision, privkv
    repetitions = 3
    master_seed = 42
    projection = false
    """
    raw = parse_config_text(text)
    cfg = build_config(raw)
    assert cfg.n == (1000, 2000) and cfg.mechanism == ("collision", "privkv")
    assert cfg.projection is False and cfg.repetitions == 3

    raw["target"] = "mean"
    raw["report"] = "mean_log"
    cfg2 = build_config(raw)
    assert cfg2.target == "mean" and cfg2.report == "mean_log"

    with pytest.raises(ValueError):
        build_config({"n": "10", "bogus": "1", "master_seed": "1"})
    with pytest.raises(ValueError):
        build_config({"n": "10"})  # master_seed mandatory
    with pytest.raises(ValueError):
        parse_config_text("just words\n")


def test_config_key_given_twice_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="line 4: key 'n' given twice"):
        parse_config_text("n = 100\nmaster_seed = 2\n\nn = 200\n")
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("n = 100\nmaster_seed = 2\nn = 200\nrepetitions = 1\n")
    res = CliRunner().invoke(main, ["simulate", "--config", str(cfg)])
    assert res.exit_code == 1, res.output
    assert res.stdout == "" and res.stderr == "invalid config: line 3: key 'n' given twice\n"


def test_every_config_field_has_a_config_key():
    assert list(harness._CONFIG_CASTS) == [f.name for f in dataclasses.fields(ExperimentConfig)]


def _distinct(elements):
    return st.lists(elements, min_size=1, max_size=3, unique=True).map(tuple)


CONFIGS = st.builds(
    ExperimentConfig,
    n=_distinct(st.integers(1, 10**6)),
    d=_distinct(st.integers(1, 4096)),
    s=_distinct(st.integers(1, 64)),
    epsilon=_distinct(st.floats(1e-6, 50.0)),
    mechanism=_distinct(st.sampled_from(harness.MECHANISMS)),
    master_seed=st.integers(0, 2**64 - 1),
    repetitions=st.integers(1, 1000),
    metrics=_distinct(st.sampled_from(METRICS)),
    target=st.sampled_from(TARGETS),
    projection=st.booleans(),
    report=st.sampled_from(REPORTS),
)


def _render(value) -> str:
    """One config value as the text a config file or a CLI flag holds."""
    if isinstance(value, tuple):
        return ", ".join(_render(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(file_config=CONFIGS, flag_config=CONFIGS, data=st.data())
def test_config_text_round_trip_and_cli_overrides(file_config, flag_config, data):
    keys = [f.name for f in dataclasses.fields(ExperimentConfig)]
    # key = value text round-trips through parse_config_text and build_config
    text = "".join(f"{key} = {_render(getattr(file_config, key))}\n" for key in keys)
    assert build_config(parse_config_text(text)) == file_config

    # through the CLI, every flag given wins over the file's value for that key
    flags = data.draw(st.sets(st.sampled_from(keys)))
    args = [arg for key in sorted(flags) for arg in (f"--{key.replace('_', '-')}", _render(getattr(flag_config, key)))]
    seen = []
    runner = CliRunner()
    with pytest.MonkeyPatch.context() as mp, runner.isolated_filesystem():
        mp.setattr(harness, "run_experiment", lambda config: seen.append(config) or ([], []))
        with open("sweep.cfg", "w") as fh:
            fh.write(text)
        res = runner.invoke(main, ["simulate", "--config", "sweep.cfg", *args])
    assert res.exit_code == 0, res.output
    assert seen == [dataclasses.replace(file_config, **{key: getattr(flag_config, key) for key in flags})]


def test_run_experiment_reproducible_byte_identical():
    cfg = ExperimentConfig(
        n=(500,), d=(8,), s=(2,), epsilon=(1.0,),
        mechanism=("collision", "coco", "privkv"),
        master_seed=99, repetitions=2,
    )
    rows1, err1 = run_experiment(cfg)
    rows2, err2 = run_experiment(cfg)
    assert err1 == err2 == []
    assert rows_to_csv(rows1) == rows_to_csv(rows2)
    assert rows_to_jsonl(rows1) == rows_to_jsonl(rows2)
    # headline + raw variants for both metrics at every point
    assert len(rows1) == 3 * 4


def test_rows_follow_the_config_metric_order_headline_before_raw():
    cfg = ExperimentConfig(n=(50,), d=(6,), s=(2,), epsilon=(1.0,), mechanism=("privkv",), master_seed=3,
                           repetitions=1, metrics=("mae", "tve"))
    rows, _ = run_experiment(cfg)
    assert [row.metric for row in rows] == ["mae", "tve", "mae_raw", "tve_raw"]
    rows, _ = run_experiment(dataclasses.replace(cfg, metrics=("mae",), projection=False))
    assert [row.metric for row in rows] == ["mae"]


def test_row_cells_follow_the_declared_field_types():
    row = harness.ReportRow("m", 1, 2, 3, 1, "t", True, "tve", 0.1, 4, 2**64)  # an int epsilon
    assert harness.CSV_HEADER == ",".join(f.name for f in dataclasses.fields(harness.ReportRow))
    assert harness.row_to_csv(row) == f"m,1,2,3,1,t,true,tve,0.10000000000000001,4,{2**64},"
    assert rows_to_jsonl([row]) == (
        '{"caveat": "", "d": 2, "epsilon": 1.0, "mechanism": "m", "metric": "tve", "n": 1, "projection": true, '
        f'"repetitions": 4, "s": 3, "seed": {2**64}, "target": "t", "value": 0.1}}\n'
    )


def test_run_experiment_flags_bad_points_and_continues():
    cfg = ExperimentConfig(
        n=(200,), d=(4,), s=(2, 8), epsilon=(1.0,),
        mechanism=("collision",), master_seed=1, repetitions=1,
    )
    rows, errors = run_experiment(cfg)
    assert len(errors) == 1 and "s=8" in errors[0]
    assert rows and all(r.s == 2 for r in rows)


def test_report_conventions_differ():
    base = dict(n=(400,), d=(8,), s=(2,), epsilon=(1.0,), mechanism=("collision",),
                master_seed=5, repetitions=3, projection=False)
    raw_rows, _ = run_experiment(ExperimentConfig(**base, report="raw_mean"))
    log_rows, _ = run_experiment(ExperimentConfig(**base, report="mean_log"))
    tve_raw = next(r.value for r in raw_rows if r.metric == "tve")
    tve_log = next(r.value for r in log_rows if r.metric == "tve")
    assert tve_log < math.log(tve_raw)  # Jensen: mean of logs below log of mean


def test_amplification_sweep_ordering_and_vacuous_delta():
    rows, errors = run_amplification_sweep([2000], [4], [0.5], 1e-6)
    assert not errors
    eps_c = {r.mechanism: r.value for r in rows if r.metric == "epsilon_c"}
    assert eps_c["bound:collision"] <= eps_c["bound:clone"] + 1e-4
    assert eps_c["bound:clone"] <= eps_c["bound:efmrtt"] + 1e-4
    caveats = {r.mechanism: r.caveat for r in rows if r.metric == "epsilon_c"}
    assert caveats["bound:efmrtt"] and not caveats["bound:clone"]
    # the collision bound is tight for the counting statistic, not for every shuffled batch of views
    assert "counting statistic" in caveats["bound:collision"] and "small n" in caveats["bound:collision"]
    assert "," not in caveats["bound:collision"]

    rows, _ = run_amplification_sweep([50], [2], [1.0], 1.0 - 1e-12, bounds=("collision", "clone"))
    for r in rows:
        if r.metric == "epsilon_c":
            assert r.value == 0.0


def test_collision_beats_privkv_at_desk_scale():
    # ordering check at n=2e4, d=64, s=8, eps=1: strictly smaller TVE
    vals = {}
    for mech in ("collision", "privkv"):
        runs = [simulate_point(mech, 20_000, 64, 8, 1.0, "frequency", True, 47, 0, rep)["tve"]
                for rep in range(4)]
        vals[mech] = np.mean(runs)
    assert vals["collision"] < vals["privkv"]


def test_ordering_at_high_dimension():
    # at d=256 the collision randomizer's frequency TVE sits
    # far below privkv's (the >60% reduction regime); measured before
    # projection, which compresses gaps when noise dominates the signal
    vals = {}
    for mech in ("collision", "privkv"):
        runs = [simulate_point(mech, 20_000, 256, 8, 1.0, "frequency", True, 31, 0, rep)["tve_raw"]
                for rep in range(3)]
        vals[mech] = np.mean(runs)
    assert vals["collision"] < 0.6 * vals["privkv"]


def test_cli_simulate_roundtrip(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n = 300\nd = 8\ns = 2\nepsilon = 1.0\nmechanism = collision\nrepetitions = 2\n")
    out = tmp_path / "rows.csv"
    runner = CliRunner()
    res = runner.invoke(main, ["simulate", "--config", str(cfg), "--master-seed", "7", "--out", str(out)])
    assert res.exit_code == 0, res.output
    text = out.read_text()
    assert text.splitlines()[0].startswith("mechanism,n,d,s,epsilon")
    res2 = runner.invoke(main, ["simulate", "--config", str(cfg), "--master-seed", "7"])
    assert res2.exit_code == 0
    assert res2.output == text

    # missing master seed -> invalid config -> exit 1
    res3 = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert res3.exit_code == 1

    # unknown mechanism -> exit 1
    res4 = runner.invoke(main, ["simulate", "--config", str(cfg), "--master-seed", "7",
                                "--mechanism", "nonsense"])
    assert res4.exit_code == 1

    # an infeasible grid point -> partial results, exit 2
    res5 = runner.invoke(main, ["simulate", "--config", str(cfg), "--master-seed", "7",
                                "--s", "2,9"])
    assert res5.exit_code == 2
    assert "point failed" in res5.output or res5.stderr


def test_cli_gen_and_project(tmp_path):
    runner = CliRunner()
    out = tmp_path / "data.txt"
    res = runner.invoke(main, ["gen", "--n", "4", "--d", "6", "--s", "2", "--seed", "3", "--out", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4 and all(len(line.split()) == 2 for line in lines)

    est = tmp_path / "est.csv"
    est.write_text("0.8,0.4,0.0,-0.2\n-1.0,-2.0,-3.0,-4.0\n")
    proj = tmp_path / "proj.csv"
    res2 = runner.invoke(main, ["project", "--s", "1", "--in", str(est), "--out", str(proj)])
    assert res2.exit_code == 0
    rows = [np.array([float(v) for v in line.split(",")]) for line in proj.read_text().splitlines()]
    for row in rows:
        assert row.sum() == pytest.approx(1.0, abs=1e-9) and row.min() >= 0.0

    # no rows in, no bytes out
    res3 = runner.invoke(main, ["gen", "--n", "0", "--d", "3", "--s", "1", "--seed", "1", "--out", str(out)])
    assert res3.exit_code == 0 and out.read_bytes() == b""
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    res4 = runner.invoke(main, ["project", "--s", "1", "--in", str(empty), "--out", str(proj)])
    assert res4.exit_code == 0 and proj.read_bytes() == b""


def test_cli_amplify(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["amplify", "--n", "500", "--s", "2", "--epsilon", "0.5",
                               "--delta", "1e-6"])
    assert res.exit_code == 0
    assert "bound:collision" in res.output and "bound:efmrtt" in res.output
    res2 = runner.invoke(main, ["amplify", "--delta", "2.0"])
    assert res2.exit_code == 1


@pytest.mark.parametrize("command, args", [
    ("simulate", ["--master-seed", "1"]),
    ("amplify", ["--n", "1000", "--s", "1", "--epsilon", "1"]),
    ("project", ["--s", "1"]),
    ("gen", ["--n", "3", "--d", "4", "--s", "2", "--seed", "0"]),
])
def test_cli_out_into_a_missing_directory_is_an_invalid_config(tmp_path, monkeypatch, command, args):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was opened")

    monkeypatch.setattr(harness, "run_experiment", no_sweep)
    monkeypatch.setattr(harness, "run_amplification_sweep", no_sweep)
    est = tmp_path / "est.csv"
    est.write_text("0.8,0.4\n")
    out = tmp_path / "no" / "such" / "x.csv"
    extra = ["--in", str(est)] if command == "project" else []
    res = CliRunner().invoke(main, [command, *args, *extra, "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith(f"invalid config: cannot write --out {out}: ")
    assert not out.parent.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_project_rejects_non_finite_estimates(tmp_path, bad):
    est = tmp_path / "est.csv"
    est.write_text(f"0.8,0.4,0.0,-0.2\n0.5,{bad},0.5\n")
    res = CliRunner().invoke(main, ["project", "--s", "1", "--in", str(est)])
    assert res.exit_code == 1, res.output
    assert "invalid config: estimates must be finite" in res.stderr


@pytest.mark.parametrize("line", ["1e308,1e308", "-1e308,-1e308", "1e17,0"])
def test_cli_project_rejects_overflowing_estimates(tmp_path, line):
    # finite entries whose sum overflows a float, or swallows the unit mass
    est = tmp_path / "est.csv"
    est.write_text(f"0.8,0.4,0.0,-0.2\n{line}\n")
    res = CliRunner().invoke(main, ["project", "--s", "1", "--in", str(est)])
    assert res.exit_code == 1, res.output
    assert res.stdout == ""
    assert "invalid config: estimates overflow float arithmetic" in res.stderr


def test_cli_project_rejects_a_scale_past_float_range(tmp_path):
    # an int s above the largest float ended in an OverflowError traceback
    est = tmp_path / "est.csv"
    est.write_text("0.8,0.4,0.0,-0.2\n")
    s = "1" + "0" * 400
    res = CliRunner().invoke(main, ["project", "--s", s, "--in", str(est)])
    assert res.exit_code == 1, res.output
    assert res.stdout == ""
    assert res.stderr == f"invalid config: s must be at most 1.79769e+308, got s={s}\n"


def test_cli_coco_at_epsilon_40_runs():
    # t ~ 9.4e17: the ratio form of the overwrite probability read 1.0, so p_t equalled p_o and the point failed
    res = CliRunner().invoke(main, ["simulate", "--master-seed", "1", "--n", "200", "--d", "8", "--s", "2",
                                    "--epsilon", "40", "--mechanism", "coco"])
    assert res.exit_code == 0, res.output
    assert res.stderr == "" and len(res.stdout.splitlines()) == 1 + 4


def test_cli_large_epsilon_is_a_per_point_failure():
    runner = CliRunner()
    mechanisms = ("collision", "coco", "privkv", "pckv_grr", "pckv_agrr")
    res = runner.invoke(main, ["simulate", "--master-seed", "1", "--n", "50", "--d", "4", "--s", "2",
                               "--epsilon", "800,1.0", "--repetitions", "1", "--mechanism", ",".join(mechanisms)])
    assert res.exit_code == 2, res.output
    failed = [line for line in res.stderr.splitlines() if line.startswith("point failed:")]
    assert sorted(line.split()[2] for line in failed) == sorted(mechanisms)
    assert all("epsilon=800" in line for line in failed)
    rows = res.stdout.splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == set(mechanisms)
    assert all(row.split(",")[4] == "1" for row in rows)

    res = runner.invoke(main, ["amplify", "--n", "100", "--s", "2", "--epsilon", "800"])
    assert res.exit_code == 2, res.output
    failed = [line for line in res.stderr.splitlines() if line.startswith("point failed:")]
    assert sorted(line.split()[2] for line in failed) == ["clone", "collision"]
    assert {row.split(",")[0] for row in res.stdout.splitlines()[1:]} == {"bound:efmrtt"}


def test_cli_collision_bound_names_an_overflowing_normaliser():
    # from eps ~ 709.1 at s = 1 the normaliser s e^eps + t - s is inf, and the point failed on "got alpha=0.0"
    res = CliRunner().invoke(main, ["amplify", "--n", "100", "--s", "1", "--epsilon", "709.1", "--bounds", "collision,clone"])
    assert res.exit_code == 2, res.output
    assert [row.split(",")[0] for row in res.stdout.splitlines()[1:]] == ["bound:clone"] * 2
    assert res.stderr.splitlines() == [
        "point failed: collision n=100 s=1 epsilon=709.1: "
        "epsilon=709.1 is too large: the normaliser s*e^epsilon + t - s overflows float arithmetic"
    ]


def test_cli_out_of_range_t_fails_on_one_short_line():
    # at epsilon = 700 the hash mechanisms' default t has over 300 digits
    res = _simulate("--epsilon", "700", "--n", "10", "--d", "8", "--mechanism", "collision,coco")
    assert res.exit_code == 2, res.output
    failed = res.stderr.splitlines()
    assert len(failed) == 2 and all(line.startswith("point failed:") and len(line) < 200 for line in failed)
    assert all(line.endswith("t must be an integer in 1..2^63-1, got about 2^1010.9") for line in failed)


def test_cli_efmrtt_at_a_subnormal_delta_names_delta():
    # 1/delta overflows to inf, and the ratio used to fail on log2(0) as "math domain error"
    res = CliRunner().invoke(main, ["amplify", "--n", "100", "--s", "1", "--epsilon", "1", "--delta", "1e-320"])
    assert res.exit_code == 2, res.output
    assert res.stderr.splitlines() == [
        "point failed: efmrtt n=100 s=1 epsilon=1.0: 1/delta overflows float arithmetic at delta=1e-320"
    ]


def test_cli_non_finite_row_is_a_per_point_failure():
    runner = CliRunner()
    for mechanism in ("collision", "coco", "privkv"):
        res = runner.invoke(main, ["simulate", "--master-seed", "1", "--n", "1", "--d", "1", "--s", "1",
                                   "--report", "mean_log", "--repetitions", "3", "--mechanism", mechanism])
        assert res.exit_code == 2, res.output
        assert "point failed:" in res.stderr and "is not finite" in res.stderr


def _simulate(*flags):
    grid = {"--n": "50", "--d": "4", "--s": "2", "--epsilon": "1.0", "--repetitions": "1"}
    grid.update(zip(flags[::2], flags[1::2]))
    return CliRunner().invoke(main, ["simulate", "--master-seed", "1", *(arg for pair in grid.items() for arg in pair)])


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--n", "0,-3"), "n must be >= 1, got n=0"),
        (("--n", "0"), "n must be >= 1, got n=0"),
        (("--d", "0"), "d must be >= 1, got d=0"),
        (("--s", "0"), "s must be >= 1, got s=0"),
        (("--s", "2,-1"), "s must be >= 1, got s=-1"),
        (("--epsilon", "0"), "epsilon must be > 0, got epsilon=0.0"),
        (("--epsilon", "1.0,-0.5"), "epsilon must be > 0, got epsilon=-0.5"),
        (("--epsilon", "nan"), "epsilon must be > 0, got epsilon=nan"),
        (("--metrics", "tve,mae,tve"), "metric 'tve' given twice"),
        (("--n", "50,50"), "n 50 given twice"),
        (("--d", "4,8,4"), "d 4 given twice"),
        (("--s", "2,2"), "s 2 given twice"),
        (("--epsilon", "1.0,1"), "epsilon 1.0 given twice"),
        (("--mechanism", "privkv,privkv"), "mechanism 'privkv' given twice"),
        (("--master-seed", "-1"), "master_seed must lie in 0..2**64-1, got -1"),
        (("--master-seed", str(2**64)), f"master_seed must lie in 0..2**64-1, got {2**64}"),
        # a value its cast could not read was reported as Python's "invalid literal for int() with base 10: '1.5'"
        (("--n", "1.5"), "n must be an integer, got n='1.5'"),
        (("--d", "4,x"), "d must be an integer, got d='x'"),
        (("--repetitions", "1.5"), "repetitions must be an integer, got repetitions='1.5'"),
        (("--epsilon", "abc"), "epsilon must be a real number, got epsilon='abc'"),
    ],
)
def test_cli_rejects_grid_values_outside_the_domain(flags, message):
    res = _simulate(*flags)
    assert res.exit_code == 1, res.output
    assert res.stdout == ""
    assert f"invalid config: {message}" in res.stderr
    assert "point failed:" not in res.stderr


def test_cli_master_seed_takes_the_whole_64_bit_range():
    # each bound of 0..2**64-1 runs and is recorded; -1 and 2**64 once aliased 2**64-1 and 0
    for seed in ("0", str(2**64 - 1)):
        res = _simulate("--master-seed", seed, "--mechanism", "collision")
        assert res.exit_code == 0, res.output
        rows = res.stdout.splitlines()[1:]
        assert rows and all(row.split(",")[10] == seed for row in rows)


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--master-seed", "1", "--target", "bogus"],
        ["simulate", "--master-seed", "abc"],
        ["simulate", "--master-seed", "1", "--format", "xml"],
        ["simulate", "--config", "missing.cfg", "--master-seed", "1"],
        ["amplify", "--delta", "abc"],
        ["amplify", "--format", "xml"],
        ["amplify", "--t", "2"],
        ["gen", "--n", "2", "--d", "4"],
        ["bogus"],
        ["--bogus"],
    ],
)
def test_cli_usage_error_is_an_invalid_config(args):
    # click's own exit code for these is 2, which here means that grid points failed
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 1, res.output
    assert res.stdout == "" and "Error: " in res.stderr
    assert "point failed:" not in res.stderr


@pytest.mark.parametrize("args", [["--help"], ["simulate", "--help"], ["gen", "--help"]])
def test_cli_help_exits_0(args):
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0 and res.stdout.startswith("Usage: ")


def _amplify(*flags):
    grid = {"--n": "500", "--s": "2", "--epsilon": "1.0"}
    grid.update(zip(flags[::2], flags[1::2]))
    return CliRunner().invoke(main, ["amplify", *(arg for pair in grid.items() for arg in pair)])


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--n", "0"), "n must be >= 1, got n=0"),
        (("--n", "500,-3"), "n must be >= 1, got n=-3"),
        (("--s", "0"), "s must be >= 1, got s=0"),
        (("--epsilon", "0"), "epsilon must be > 0, got epsilon=0.0"),
        (("--epsilon", "1.0,-1"), "epsilon must be > 0, got epsilon=-1.0"),
        (("--epsilon", "nan"), "epsilon must be > 0, got epsilon=nan"),
        (("--n", ""), "empty list value ''"),
        (("--bounds", " , "), "empty list value ' , '"),
        (("--bounds", "clone,clone"), "bound 'clone' given twice"),
        (("--n", "100,100"), "n 100 given twice"),
        (("--s", "2,3,2"), "s 2 given twice"),
        (("--epsilon", "0.5,0.50"), "epsilon 0.5 given twice"),
        (("--n", "1e4"), "n must be an integer, got n='1e4'"),
        (("--s", "2,2.5"), "s must be an integer, got s='2.5'"),
        (("--epsilon", "abc"), "epsilon must be a real number, got epsilon='abc'"),
    ],
)
def test_cli_amplify_rejects_grid_values_outside_the_domain(flags, message):
    res = _amplify(*flags)
    assert res.exit_code == 1, res.output
    assert res.stdout == ""
    assert f"invalid config: {message}" in res.stderr
    assert "point failed:" not in res.stderr


@pytest.mark.parametrize("command", ["amplify", "simulate", "config"])
def test_cli_names_an_integer_with_too_many_digits_to_read(command, tmp_path):
    # int() refuses a string of more than 4300 digits, and the whole value was echoed as "not an integer"
    nines = "9" * 5000
    if command == "amplify":
        res = _amplify("--n", nines)
    elif command == "simulate":
        res = _simulate("--n", nines)
    else:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"master_seed = 1\nn = 50\nrepetitions = {nines}\n")
        res = CliRunner().invoke(main, ["simulate", "--config", str(cfg)])
    key = "repetitions" if command == "config" else "n"
    assert res.exit_code == 1, res.output
    assert res.stdout == ""
    message = f"{key} has too many digits to read, got {key}='{nines[:20]}...' (5000 characters)"
    assert res.stderr == f"invalid config: {message}\n" and len(res.stderr) < 200


@pytest.mark.parametrize("n", [2**63, 10**30])
def test_cli_amplify_past_the_window_range_is_a_per_point_failure(n):
    # n >= 2^63 ended in an OverflowError traceback from the C-window's bisection, losing the efmrtt rows too
    res = _amplify("--n", str(n), "--s", "1", "--bounds", "collision,clone,efmrtt")
    assert res.exit_code == 2, res.output
    assert res.stderr.splitlines() == [
        f"point failed: {bound} n={n} s=1 epsilon=1.0: n must lie in 1..2^63-1, got n={n}" for bound in ("collision", "clone")
    ]
    rows = res.stdout.splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["bound:efmrtt", str(n)]] * 2


def test_cli_efmrtt_past_float_range_is_a_per_point_failure():
    # an int n above the largest float ended in an OverflowError traceback from the closed form
    n = "1" + "0" * 400
    res = _amplify("--n", n, "--s", "1", "--bounds", "efmrtt")
    assert res.exit_code == 2, res.output
    assert res.stderr == f"point failed: efmrtt n={n} s=1 epsilon=1.0: n must be at most 1.79769e+308, got n={n}\n"
    assert res.stdout.splitlines()[1:] == []


def test_log2_amplification_floor_never_exceeds_epsilon():
    # below BRACKET_WIDTH a certified eps_c of 0 is floored at epsilon itself: ratio 0, not negative
    rows, errors = run_amplification_sweep([1000], [1], [1e-5, 0.5], 1e-6, bounds=("collision", "clone"))
    assert not errors
    ratios = {(row.mechanism, row.epsilon): row.value for row in rows if row.metric == "log2_amplification"}
    assert ratios[("bound:collision", 1e-5)] == ratios[("bound:clone", 1e-5)] == 0.0
    assert all(ratio > 0.0 for (_, epsilon), ratio in ratios.items() if epsilon == 0.5)


@pytest.mark.parametrize("delta", [2.0, math.nan])
def test_amplification_sweep_rejects_delta_once(delta):
    with pytest.raises(ValueError, match=r"delta must lie in \(0,1\)"):
        run_amplification_sweep([1000], [1], [1.0], delta)


def test_amplification_sweep_rejects_empty_lists():
    for args, name in ((([], [2], [1.0]), "n"), (([500], [], [1.0]), "s"), (([500], [2], []), "epsilon")):
        with pytest.raises(ValueError, match=f"config field {name} must be non-empty"):
            run_amplification_sweep(*args, 1e-6)
    with pytest.raises(ValueError, match="config field bounds must be non-empty"):
        run_amplification_sweep([500], [2], [1.0], 1e-6, bounds=())


def test_cli_amplify_infinite_budget_fails_per_point():
    res = _amplify("--epsilon", "inf")
    assert res.exit_code == 2, res.output
    assert "point failed:" in res.stderr


@pytest.mark.parametrize("flags, failed", [(("--s", "2,5"), "s=5"), (("--epsilon", "1.0,800"), "epsilon=800")])
def test_cli_sparsity_above_dimension_and_huge_epsilon_fail_per_point(flags, failed):
    res = _simulate(*flags)
    assert res.exit_code == 2, res.output
    errors = [line for line in res.stderr.splitlines() if line.startswith("point failed:")]
    assert len(errors) == 1 and failed in errors[0]
    assert len(res.stdout.splitlines()) == 1 + 4  # header, then the good point's four metric rows


# Per field: (values the config accepts, among them epsilon = 800, on which every mechanism
# fails per point; values the config rejects).
_GRID_VALUES = {
    "n": (st.integers(1, 50), st.sampled_from([0, -3])),
    "d": (st.integers(1, 6), st.just(0)),
    "s": (st.integers(1, 6), st.sampled_from([0, -1])),
    "epsilon": (st.sampled_from([0.5, 1.0, 3.0, 800.0]), st.sampled_from([0.0, -0.5, math.nan])),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), mechanism=_distinct(st.sampled_from(harness.MECHANISMS)))
def test_cli_simulate_exit_code_follows_the_grid(data, mechanism):
    # at most one field carries an invalid value, mixed in with valid ones
    bad = data.draw(st.sampled_from([None, None, None, *_GRID_VALUES]))
    grid = {}
    for key, (valid, invalid) in _GRID_VALUES.items():
        values = data.draw(st.lists(valid, min_size=1, max_size=2, unique=True))
        if key == bad:
            values.insert(data.draw(st.integers(0, len(values))), data.draw(invalid))
        grid[key] = values
    res = _simulate(*(arg for key, values in grid.items() for arg in (f"--{key}", ",".join(map(str, values)))),
                    "--mechanism", ",".join(mechanism))
    failed = [line for line in res.stderr.splitlines() if line.startswith("point failed:")]
    if bad is not None:
        assert res.exit_code == 1, res.output
        assert res.stdout == "" and "invalid config:" in res.stderr and not failed
        return
    points = [(d, s, e) for d in grid["d"] for s in grid["s"] for e in grid["epsilon"]]
    failing = sum(s > d or e == 800.0 for d, s, e in points) * len(grid["n"]) * len(mechanism)
    assert res.exit_code == (2 if failing else 0), res.output
    assert len(failed) == failing
    good = len(points) * len(grid["n"]) * len(mechanism) - failing
    assert len(res.stdout.splitlines()) == 1 + 4 * good  # header, then four metric rows per good point


def test_cli_unallocatable_point_is_a_per_point_failure():
    # the 2d-long truth and report counts cannot be allocated; numpy refuses up front
    res = _simulate("--d", "1000000000000000", "--mechanism", "pckv_grr")
    assert res.exit_code == 2, res.output
    assert res.stdout == harness.CSV_HEADER + "\n"
    failed = [line for line in res.stderr.splitlines() if line.startswith("point failed:")]
    assert len(failed) == 1 and failed[0].startswith("point failed: pckv_grr n=50 d=1000000000000000 s=2 epsilon=1.0: ")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("error", [ValueError("no hits for you"), MemoryError("hit matrix too large")])
def test_a_worker_error_is_a_per_point_failure(monkeypatch, error):
    callers = []
    keyed_hashes = domain.keyed_hashes

    def failing_hits(*args, **kwargs):  # seeds and randomizers hash on the main thread, only the hit count off it
        if threading.current_thread() is threading.main_thread():
            return keyed_hashes(*args, **kwargs)
        callers.append(threading.current_thread())
        raise error

    monkeypatch.setattr(domain, "keyed_hashes", failing_hits)  # privkv counts no hits, so only collision fails
    monkeypatch.setattr(domain, "HIT_CHUNK_CELLS", 1)  # one user per chunk: 50 chunks
    monkeypatch.setattr(domain, "pool_workers", lambda: 2)
    baseline = threading.active_count()
    cfg = ExperimentConfig(n=(50,), d=(4,), s=(2,), epsilon=(1.0,), mechanism=("collision", "privkv"),
                           master_seed=1, repetitions=1)
    rows, errors = run_experiment(cfg)
    assert errors == [f"collision n=50 d=4 s=2 epsilon=1.0: {error}"]
    assert {row.mechanism for row in rows} == {"privkv"}
    res = _simulate("--mechanism", "collision,privkv")
    assert res.exit_code == 2, res.output
    assert [line for line in res.stderr.splitlines() if line.startswith("point failed:")] == [f"point failed: {errors[0]}"]
    assert threading.active_count() == baseline
    assert callers and threading.main_thread() not in callers


def test_cli_simulate_bytes_do_not_depend_on_the_worker_count(monkeypatch):
    outputs = set()
    for workers in (1, 2):
        monkeypatch.setattr(domain, "pool_workers", lambda: workers)
        # d=16: 2048 collision or 4096 CoCo users per chunk, so n=5000 is three or two chunks
        res = _simulate("--n", "5000", "--d", "16", "--s", "1,3", "--epsilon", "0.5,2", "--repetitions", "2",
                        "--mechanism", "collision,coco")
        assert res.exit_code == 0, res.output
        outputs.add(res.stdout)
    assert len(outputs) == 1


def test_cli_baselines_at_vanishing_epsilon_fail_per_point():
    # at eps=1e-300 every GRR keeps the truth as often as any other answer: p = q
    baselines = ("privkv", "pckv_grr", "pckv_agrr")
    res = _simulate("--epsilon", "1e-300", "--mechanism", ",".join(baselines))
    assert res.exit_code == 2, res.output
    failed = [line for line in res.stderr.splitlines() if line.startswith("point failed:")]
    assert sorted(line.split()[2] for line in failed) == sorted(baselines)
    assert all("degenerate GRR" in line for line in failed)


@pytest.mark.parametrize("target", TARGETS)
def test_cli_single_user_sweeps_every_mechanism(target):
    res = _simulate("--n", "1", "--repetitions", "2", "--mechanism", ",".join(harness.MECHANISMS), "--target", target)
    assert res.exit_code == 0, res.output
    rows = [row.split(",") for row in res.stdout.splitlines()[1:]]
    assert {row[0] for row in rows} == set(harness.MECHANISMS)
    assert all(math.isfinite(float(row[8])) for row in rows)


def test_cli_coco_at_full_support():
    res = _simulate("--d", "3", "--s", "3", "--mechanism", "coco")
    assert res.exit_code == 0, res.output
    rows = [row.split(",") for row in res.stdout.splitlines()[1:]]
    assert len(rows) == 4 and all(row[3] == "3" and math.isfinite(float(row[8])) for row in rows)
