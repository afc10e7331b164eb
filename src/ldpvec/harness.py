"""Experiment orchestration: synthetic data, metric sweeps, reporting.

Every repetition derives its own random streams from (master seed, grid
index, repetition index), so a sweep is bit-reproducible from one seed
and rows come out in a deterministic order regardless of execution
order.  Values are serialised with 17 significant digits.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, fields
from itertools import product
from typing import Sequence

import numpy as np

from . import aggregate as agg
from . import amplification as amp
from . import collision as col
from .domain import user_hash_seeds

MECHANISMS = tuple(agg.MECHANISMS)
METRICS = ("tve", "mae")
REPORTS = ("raw_mean", "mean_log")


def _check_grid(lists: dict[str, Sequence], sizes: Sequence[str]) -> None:
    """Reject an empty grid list, a size in ``sizes`` below 1, or an epsilon not > 0."""
    for name, values in lists.items():
        if not values:
            raise ValueError(f"config field {name} must be non-empty")
    for name in sizes:
        low = min(lists[name])
        if low < 1:
            raise ValueError(f"{name} must be >= 1, got {name}={low}")
    for epsilon in lists["epsilon"]:
        if not epsilon > 0:  # also rejects nan
            raise ValueError(f"epsilon must be > 0, got epsilon={epsilon}")


@dataclass(frozen=True)
class ExperimentConfig:
    n: tuple[int, ...]
    d: tuple[int, ...]
    s: tuple[int, ...]
    epsilon: tuple[float, ...]
    mechanism: tuple[str, ...]
    master_seed: int
    repetitions: int = 100
    metrics: tuple[str, ...] = ("tve", "mae")
    target: str = "frequency"
    projection: bool = True
    report: str = "raw_mean"

    def __post_init__(self):
        _check_grid({name: getattr(self, name) for name in ("n", "d", "s", "epsilon", "mechanism")}, ("n", "d", "s"))
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for m in self.mechanism:
            if m not in MECHANISMS:
                raise ValueError(f"unknown mechanism {m!r}")
        for m in self.metrics:
            if m not in METRICS:
                raise ValueError(f"unknown metric {m!r}")
        if self.target not in agg.TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.report not in REPORTS:
            raise ValueError(f"unknown report convention {self.report!r}")


@dataclass(frozen=True)
class ReportRow:
    mechanism: str
    n: int
    d: int
    s: int
    epsilon: float
    target: str
    projection: bool
    metric: str
    value: float
    repetitions: int
    seed: int
    caveat: str = ""

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"{self.metric} value {self.value} is not finite")


CSV_HEADER = (
    "mechanism,n,d,s,epsilon,target,projection,metric,value,repetitions,seed,caveat"
)


def row_to_csv(row: ReportRow) -> str:
    return ",".join(
        (
            row.mechanism,
            str(row.n),
            str(row.d),
            str(row.s),
            f"{row.epsilon:.17g}",
            row.target,
            "true" if row.projection else "false",
            row.metric,
            f"{row.value:.17g}",
            str(row.repetitions),
            str(row.seed),
            row.caveat,
        )
    )


def rows_to_csv(rows: Sequence[ReportRow]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for row in rows:
        out.write(row_to_csv(row) + "\n")
    return out.getvalue()


def rows_to_jsonl(rows: Sequence[ReportRow]) -> str:
    out = io.StringIO()
    for row in rows:
        record = {f.name: getattr(row, f.name) for f in fields(ReportRow)}
        record["epsilon"] = float(f"{row.epsilon:.17g}")
        record["value"] = float(f"{row.value:.17g}")
        out.write(json.dumps(record, sort_keys=True) + "\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Synthetic data


def gen_synthetic_arrays(n: int, d: int, s: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n random s-sparse supports (sorted 1-based dims) and fair signs."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got n={n}")
    if not 1 <= s <= d:
        raise ValueError(f"need 1 <= s <= d, got s={s}, d={d}")
    if s == d:
        supports = np.tile(np.arange(1, d + 1, dtype=np.int64), (n, 1))
    else:
        keys = rng.random((n, d))
        supports = np.sort(np.argpartition(keys, s - 1, axis=1)[:, :s], axis=1).astype(np.int64) + 1
    signs = rng.integers(0, 2, size=(n, s)).astype(np.int64) * 2 - 1
    return supports, signs


# ---------------------------------------------------------------------------
# One grid point


def _rep_streams(master_seed: int, grid_index: int, rep: int):
    ss = np.random.SeedSequence(entropy=(master_seed & ((1 << 64) - 1), grid_index, rep))
    c_data, c_mech, c_hash = ss.spawn(3)
    hash_master = int(c_hash.generate_state(1, np.uint64)[0])
    return np.random.default_rng(c_data), np.random.default_rng(c_mech), hash_master


def simulate_point(
    mechanism: str,
    n: int,
    d: int,
    s: int,
    epsilon: float,
    target: str,
    projection: bool,
    master_seed: int,
    grid_index: int,
    rep: int,
) -> dict[str, float]:
    """One repetition at one grid point; returns metric name -> value."""
    rng_data, rng_mech, hash_master = _rep_streams(master_seed, grid_index, rep)
    supports, signs = gen_synthetic_arrays(n, d, s, rng_data)
    truth_freq = agg.true_event_frequencies(supports, signs, d)
    truth = agg.target_values(truth_freq, target)

    # Randomize under the mechanism (its default t) and aggregate the event frequencies.
    mech = agg.mechanism(mechanism)
    params = mech.params(d, s, epsilon, None, target)
    seeds = None if mech.event_hits is None else user_hash_seeds(hash_master, n)
    views = mech.randomize(supports, signs, seeds, params, rng_mech)
    est = agg.aggregate_frequencies(views if seeds is None else (seeds, views), mechanism, params)
    out: dict[str, float] = {}
    raw = agg.target_values(est, target)
    if projection:
        projected = agg.target_values(agg.project_to_simplex(est, s), target)
        out["tve"] = agg.tve(projected, truth)
        out["mae"] = agg.mae(projected, truth)
        out["tve_raw"] = agg.tve(raw, truth)
        out["mae_raw"] = agg.mae(raw, truth)
    else:
        out["tve"] = agg.tve(raw, truth)
        out["mae"] = agg.mae(raw, truth)
    return out


def single_user_mean_squared_errors(
    mechanism: str,
    d: int,
    s: int,
    epsilon: float,
    trials: int,
    master_seed: int,
    t: int | None = None,
) -> np.ndarray:
    """Per-trial summed squared error of the single-user mean estimate.

    Each trial draws a fresh user (data and hash) and estimates the full
    d-dimensional mean vector from that one private view.
    """
    mech = agg.mechanism(mechanism)
    if mech.event_hits is None:
        raise ValueError(f"mechanism must be collision or coco, got {mechanism!r}")
    rng_data, rng_mech, hash_master = _rep_streams(master_seed, 0, 0)
    supports, signs = gen_synthetic_arrays(trials, d, s, rng_data)
    seeds = user_hash_seeds(hash_master, trials)
    params = mech.params(d, s, epsilon, t, "mean")
    z = mech.randomize(supports, signs, seeds, params, rng_mech)
    # Each trial is its own one-user aggregation: debias its row of hits.
    hits = mech.event_hits(seeds, z, params).astype(np.int64)
    est = agg.target_values(mech.debias(hits, 1, params), "mean")
    truth = np.zeros((trials, d))
    truth[np.arange(trials)[:, None], supports - 1] = signs
    return ((est - truth) ** 2).sum(axis=1)


# ---------------------------------------------------------------------------
# Sweeps


def run_experiment(config: ExperimentConfig) -> tuple[list[ReportRow], list[str]]:
    """Run the full grid; returns (rows, per-point failure messages).

    A precondition violation at one grid point, including a metric that
    cannot be reported as a finite value, is recorded and the sweep
    continues; partial results are still returned.
    """
    rows: list[ReportRow] = []
    errors: list[str] = []
    metric_names = list(config.metrics)
    if config.projection:
        metric_names += [f"{m}_raw" for m in config.metrics]
    grid = product(config.mechanism, config.n, config.d, config.s, config.epsilon)
    for grid_index, (mechanism, n, d, s, epsilon) in enumerate(grid):
        try:
            reps = [
                simulate_point(
                    mechanism, n, d, s, epsilon, config.target,
                    config.projection, config.master_seed, grid_index, rep,
                )
                for rep in range(config.repetitions)
            ]
            point_rows = []
            for metric in metric_names:
                vals = [r[metric] for r in reps]
                if config.report == "mean_log":
                    with np.errstate(divide="ignore"):  # log(0) = -inf, rejected by ReportRow
                        value = float(np.mean(np.log(vals)))
                else:
                    value = float(np.mean(vals))
                point_rows.append(
                    ReportRow(
                        mechanism=mechanism, n=n, d=d, s=s, epsilon=epsilon,
                        target=config.target, projection=config.projection,
                        metric=metric, value=value,
                        repetitions=config.repetitions, seed=config.master_seed,
                    )
                )
        except ValueError as exc:
            errors.append(f"{mechanism} n={n} d={d} s={s} epsilon={epsilon}: {exc}")
            continue
        rows += point_rows
    return rows, errors


AMPLIFICATION_BOUNDS = ("collision", "clone", "efmrtt")


def run_amplification_sweep(
    n_list: Sequence[int],
    s_list: Sequence[int],
    epsilons: Sequence[float],
    delta: float,
    bounds: Sequence[str] = AMPLIFICATION_BOUNDS,
    t_fixed: int | None = None,
) -> tuple[list[ReportRow], list[str]]:
    """Amplified budgets and log2 amplification ratios over a grid.

    The collision bound uses t = floor(s e^eps + 2s - 1) unless ``t_fixed``
    is given.  The closed-form bound rows carry a caveat: its validity
    conditions are not checked.
    """
    _check_grid({"n": n_list, "s": s_list, "epsilon": epsilons, "bounds": bounds}, ("n", "s"))
    rows: list[ReportRow] = []
    errors: list[str] = []
    for bound in bounds:
        if bound not in AMPLIFICATION_BOUNDS:
            raise ValueError(f"unknown bound {bound!r}")
    for n, s, epsilon, bound in product(n_list, s_list, epsilons, bounds):
        caveat = ""
        try:
            if bound == "collision":
                t = t_fixed if t_fixed is not None else col.collision_optimal_t(s, epsilon)
                alpha = amp.collision_alpha(s, epsilon, t)
                eps_c = amp.amplified_epsilon(n, epsilon, alpha, delta)
            elif bound == "clone":
                alpha = amp.generic_clone_alpha(epsilon)
                eps_c = amp.amplified_epsilon(n, epsilon, alpha, delta)
            else:
                eps_c = amp.efmrtt_closed_form(epsilon, delta, n)
                caveat = "closed-form validity conditions not checked"
            ratio = math.log2(epsilon / max(eps_c, amp.BRACKET_WIDTH))
            point_rows = [
                ReportRow(
                    mechanism=f"bound:{bound}", n=n, d=0, s=s, epsilon=epsilon,
                    target="amplification", projection=False, metric=metric,
                    value=value, repetitions=1, seed=0, caveat=caveat,
                )
                for metric, value in (("epsilon_c", eps_c), ("log2_amplification", ratio))
            ]
        except ValueError as exc:
            errors.append(f"{bound} n={n} s={s} epsilon={epsilon}: {exc}")
            continue
        rows += point_rows
    return rows, errors


# ---------------------------------------------------------------------------
# Config files: flat "key = value" lines, lists comma-separated


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_list(value: str, cast):
    items = [v.strip() for v in value.split(",") if v.strip()]
    if not items:
        raise ValueError(f"empty list value {value!r}")
    return tuple(cast(v) for v in items)


def build_config(raw: dict[str, str]) -> ExperimentConfig:
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "master_seed" not in raw:
        raise ValueError("master_seed is mandatory")
    kwargs = {
        "n": _parse_list(raw.get("n", "10000"), int),
        "d": _parse_list(raw.get("d", "64"), int),
        "s": _parse_list(raw.get("s", "8"), int),
        "epsilon": _parse_list(raw.get("epsilon", "1.0"), float),
        "mechanism": _parse_list(raw.get("mechanism", "collision"), str),
        "master_seed": int(raw["master_seed"]),
    }
    if "repetitions" in raw:
        kwargs["repetitions"] = int(raw["repetitions"])
    if "metrics" in raw:
        kwargs["metrics"] = _parse_list(raw["metrics"], str)
    if "target" in raw:
        kwargs["target"] = raw["target"]
    if "projection" in raw:
        value = raw["projection"].lower()
        if value not in ("true", "false"):
            raise ValueError("projection must be true or false")
        kwargs["projection"] = value == "true"
    if "report" in raw:
        kwargs["report"] = raw["report"]
    return ExperimentConfig(**kwargs)
