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
import re
from dataclasses import dataclass, fields
from itertools import product
from typing import Sequence

import numpy as np

from . import aggregate as agg
from . import collision as col
from .domain import check_budget, check_delta, check_master_seed, check_size, check_sparsity, user_hash_seeds

MECHANISMS = tuple(agg.MECHANISMS)
METRICS = ("tve", "mae")
REPORTS = ("raw_mean", "mean_log")


def _check_grid(lists: dict[str, Sequence], sizes: Sequence[str], names: dict[str, tuple[str, Sequence[str]]]) -> None:
    """Reject an empty grid list, a value given twice, a size in ``sizes`` not an integer >= 1, or an epsilon not > 0.

    Every list goes through ``_check_names``; ``names`` maps a list of
    names to the word its messages use for one name and the names it may
    hold.
    """
    for name, values in lists.items():
        if not values:
            raise ValueError(f"config field {name} must be non-empty")
        kind, known = names.get(name, (name, None))
        _check_names(kind, values, known)
    for name in sizes:
        for value in lists[name]:
            check_size(name, value)
    for epsilon in lists["epsilon"]:
        check_budget(epsilon)


def _check_names(kind: str, values: Sequence, known: Sequence | None = None) -> None:
    """Reject a value not in ``known`` (unless it is None) or given twice."""
    for i, value in enumerate(values):
        if known is not None and value not in known:
            raise ValueError(f"unknown {kind} {value!r}")
        if value in values[:i]:
            raise ValueError(f"{kind} {value!r} given twice")


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
        _check_grid(
            {name: getattr(self, name) for name in ("n", "d", "s", "epsilon", "mechanism", "metrics")},
            ("n", "d", "s"),
            {"mechanism": ("mechanism", MECHANISMS), "metrics": ("metric", METRICS)},
        )
        check_master_seed(self.master_seed)
        check_size("repetitions", self.repetitions)
        if not isinstance(self.projection, bool):  # a string such as "false" is truthy
            raise ValueError(f"projection must be true or false, got projection={self.projection!r}")
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


def _cell(kind: str, value) -> str:
    """The output cell of a field declared ``kind``: bool as true/false, float to 17 digits, else str."""
    if kind == "bool":
        return "true" if value else "false"
    return f"{value:.17g}" if kind == "float" else str(value)


CSV_HEADER = ",".join(f.name for f in fields(ReportRow))


def row_to_csv(row: ReportRow) -> str:
    return ",".join(_cell(f.type, getattr(row, f.name)) for f in fields(row))


def rows_to_csv(rows: Sequence[ReportRow]) -> str:
    return "".join(line + "\n" for line in (CSV_HEADER, *map(row_to_csv, rows)))


def rows_to_jsonl(rows: Sequence[ReportRow]) -> str:
    """One JSON object per row.  A float field is written as ``float(value)``,
    the float its 17-digit cell reads back as, so an int epsilon is 1.0."""
    out = io.StringIO()
    for row in rows:
        record = {f.name: getattr(row, f.name) for f in fields(row)}
        record.update((f.name, float(record[f.name])) for f in fields(row) if f.type == "float")
        out.write(json.dumps(record, sort_keys=True) + "\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Synthetic data


def gen_synthetic_arrays(n: int, d: int, s: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n random s-sparse supports (sorted 1-based dims) and fair signs.

    Each row's support is a uniform k-subset drawn by Floyd's sampler
    (Bentley & Floyd, "A Sample of Brilliance", CACM 30(9), 1987),
    vectorised over rows: for i = 0..k-1 and j = d-k+i, draw r uniform
    in 0..j and take j if r is already among the row's picks, else r.
    With k = s when 2s <= d the picks are the support; otherwise k = d-s
    and the support is each row's complement, read back in order from a
    row mask (at s = d nothing is drawn for the supports).  That is
    O(n min(s, d-s)^2) time and O(n s) memory, with no n x d array on the
    first route.  At d=512, n=1e5 (2-vCPU Intel Xeon VM) it takes 0.03 s
    and 20 MB at s=8, against 0.86 s and 0.8 GB for an argpartition of an
    n x d uniform matrix; the quadratic membership check makes it the
    slower of the two for k above ~100, i.e. s from ~96 to ~400 (1.6 s
    against 1.3 s at s=128, 6.9 s against 1.6 s at s=256).
    """
    check_size("n", n, low=0)
    check_sparsity(d, s)
    if d >= 1 << 63:  # the supports are 1-based int64
        raise ValueError(f"d must be < 2**63, got d={d}")
    k = s if 2 * s <= d else d - s
    picks = np.empty((k, n), dtype=np.int64)  # pick i of every row is one contiguous line
    for i in range(k):
        j = d - k + i
        r = rng.integers(0, j + 1, size=n)
        picks[i] = np.where((picks[:i] == r).any(axis=0), j, r)
    if k == s:
        supports = picks.T.copy()  # C order, one row per user
        supports.sort(axis=1)
        supports += 1
    else:
        mask = np.ones((n, d), dtype=bool)
        mask[np.arange(n), picks] = False
        supports = np.broadcast_to(np.arange(1, d + 1), (n, d))[mask].reshape(n, s)
    signs = rng.integers(0, 2, size=(n, s)) * 2 - 1
    return supports, signs


# ---------------------------------------------------------------------------
# One grid point


def _rep_streams(master_seed: int, grid_index: int, rep: int):
    ss = np.random.SeedSequence(entropy=(master_seed, grid_index, rep))
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
    mech = agg.mechanism(mechanism)
    params = mech.params(d, s, epsilon, target)  # before the truth: it rejects a d whose 2d events overflow int64
    truth = agg.target_values(agg.true_event_frequencies(supports, signs, d), target)

    # Randomize under the mechanism (its default t) and aggregate the event frequencies.
    seeds = None if mech.law is None else user_hash_seeds(hash_master, n)
    views = mech.randomize(supports, signs, seeds, params, rng_mech)
    est = agg.aggregate_frequencies(views if seeds is None else (seeds, views), mechanism, params)
    raw = agg.target_values(est, target)
    # With projection the headline metrics are on the projected estimate, the raw ones named *_raw.
    estimates = {"": raw}
    if projection:
        estimates = {"": agg.target_values(agg.project_to_simplex(est, s), target), "_raw": raw}
    return {
        metric + suffix: getattr(agg, metric)(values, truth)
        for suffix, values in estimates.items()
        for metric in METRICS
    }


# ---------------------------------------------------------------------------
# Sweeps


def _sweep(points, label, evaluate) -> tuple[list[ReportRow], list[str]]:
    """Each point's rows, or a ``ValueError`` or ``MemoryError`` at it recorded as "<label>: <message>"."""
    rows: list[ReportRow] = []
    errors: list[str] = []
    for point in points:
        try:
            rows += evaluate(point)
        except (ValueError, MemoryError) as exc:
            errors.append(f"{label(point)}: {exc}")
    return rows, errors


def run_experiment(config: ExperimentConfig) -> tuple[list[ReportRow], list[str]]:
    """Run the full grid; returns (rows, per-point failure messages).

    A precondition violation at one grid point, including a metric that
    cannot be reported as a finite value or an array too large to
    allocate, is recorded and the sweep continues; partial results are
    still returned.
    """

    def evaluate(point) -> list[ReportRow]:
        grid_index, (mechanism, n, d, s, epsilon) = point
        reps = [
            simulate_point(
                mechanism, n, d, s, epsilon, config.target,
                config.projection, config.master_seed, grid_index, rep,
            )
            for rep in range(config.repetitions)
        ]
        # The point's metric names, kept to config.metrics in its order, headline before *_raw.
        names = [name for name in reps[0] if name.removesuffix("_raw") in config.metrics]
        names.sort(key=lambda name: (name.endswith("_raw"), config.metrics.index(name.removesuffix("_raw"))))
        transform = np.log if config.report == "mean_log" else np.asarray
        with np.errstate(divide="ignore"):  # log(0) = -inf, rejected by ReportRow
            return [
                ReportRow(
                    mechanism=mechanism, n=n, d=d, s=s, epsilon=epsilon,
                    target=config.target, projection=config.projection,
                    metric=name, value=float(np.mean(transform([r[name] for r in reps]))),
                    repetitions=config.repetitions, seed=config.master_seed,
                )
                for name in names
            ]

    grid = enumerate(product(config.mechanism, config.n, config.d, config.s, config.epsilon))
    return _sweep(grid, lambda point: "{} n={} d={} s={} epsilon={}".format(*point[1]), evaluate)


AMPLIFICATION_BOUNDS = ("collision", "clone", "efmrtt")


def check_amplification_grid(n_list, s_list, epsilons, delta: float, bounds) -> None:
    """Reject an amplification grid, as ``run_amplification_sweep`` would, before any query runs."""
    check_delta(delta)
    _check_grid(
        {"n": n_list, "s": s_list, "epsilon": epsilons, "bounds": bounds}, ("n", "s"),
        {"bounds": ("bound", AMPLIFICATION_BOUNDS)},
    )


def run_amplification_sweep(
    n_list: Sequence[int],
    s_list: Sequence[int],
    epsilons: Sequence[float],
    delta: float,
    bounds: Sequence[str] = AMPLIFICATION_BOUNDS,
) -> tuple[list[ReportRow], list[str]]:
    """Amplified budgets and log2 amplification ratios over a grid.

    The collision bound uses t = floor(s e^eps + 2s - 1).  Its rows carry a
    caveat: it is tight for the counting statistic, and a real shuffled batch
    of views can exceed it at small n.  The closed-form bound rows carry one
    too: its validity conditions are not checked.
    """
    check_amplification_grid(n_list, s_list, epsilons, delta, bounds)
    from . import amplification as amp  # here, not at the top: only the accountant needs scipy

    def evaluate(point) -> list[ReportRow]:
        n, s, epsilon, bound = point
        caveat = ""
        if bound == "collision":
            alpha = amp.collision_alpha(s, epsilon, col.collision_optimal_t(s, epsilon))
            eps_c = amp.amplified_epsilon(n, epsilon, alpha, delta)
            caveat = "bounds the counting statistic only; a real shuffled batch can exceed it at small n"
        elif bound == "clone":
            eps_c = amp.amplified_epsilon(n, epsilon, amp.generic_clone_alpha(epsilon), delta)
        else:
            eps_c = amp.efmrtt_closed_form(epsilon, delta, n)
            caveat = "closed-form validity conditions not checked"
        # eps_c is resolved only to BRACKET_WIDTH, so it is floored there, but never above epsilon.
        ratio = math.log2(epsilon / max(eps_c, min(amp.BRACKET_WIDTH, epsilon)))
        return [
            ReportRow(
                mechanism=f"bound:{bound}", n=n, d=0, s=s, epsilon=epsilon,
                target="amplification", projection=False, metric=metric,
                value=value, repetitions=1, seed=0, caveat=caveat,
            )
            for metric, value in (("epsilon_c", eps_c), ("log2_amplification", ratio))
        ]

    grid = product(n_list, s_list, epsilons, bounds)
    return _sweep(grid, lambda point: "{3} n={0} s={1} epsilon={2}".format(*point), evaluate)


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
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"line {lineno}: key {key!r} given twice")
        out[key] = value
    return out


def _read(key: str, value: str, cast):
    """``cast(value)``; a value that int or float cannot read is a ValueError that names ``key``, as the checks do."""
    try:
        return cast(value)
    except ValueError:
        if cast is int and re.fullmatch(r"\s*[+-]?\d(_?\d)*\s*", value):  # int's grammar, over its digit limit
            head = value.strip()[:20]
            raise ValueError(f"{key} has too many digits to read, got {key}='{head}...' ({len(value)} characters)") from None
        raise ValueError(f"{key} must be {'an integer' if cast is int else 'a real number'}, got {key}={value!r}") from None


def _parse_list(key: str, value: str, cast):
    items = [v.strip() for v in value.split(",") if v.strip()]
    if not items:
        raise ValueError(f"empty list value {value!r}")
    return tuple(_read(key, v, cast) for v in items)


def _flag(value: str) -> bool | str:
    return {"true": True, "false": False}.get(value.lower(), value)  # any other text is ExperimentConfig's to reject


# How each ExperimentConfig field is read from its config text, and the grid
# fields' defaults: desk scale, or full scale (``ldpvec simulate --full-scale``).
_CONFIG_CASTS = {
    "n": (_parse_list, int), "d": (_parse_list, int), "s": (_parse_list, int), "epsilon": (_parse_list, float),
    "mechanism": (_parse_list, str), "master_seed": (_read, int), "repetitions": (_read, int),
    "metrics": (_parse_list, str), "target": (_read, str), "projection": (_read, _flag), "report": (_read, str),
}
_DESK_DEFAULTS = {"n": "10000", "d": "64", "s": "8", "epsilon": "1.0", "mechanism": "collision"}
_FULL_SCALE_DEFAULTS = {
    **_DESK_DEFAULTS, "n": "100000", "d": "512", "s": "4, 8, 16, 32",
    "epsilon": "0.001, 0.01, 0.1, 0.2, 0.4, 0.8, 1.0, 1.5, 2.0",
}


def build_config(raw: dict[str, str], full_scale: bool = False) -> ExperimentConfig:
    unknown = set(raw) - set(_CONFIG_CASTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "master_seed" not in raw:
        raise ValueError("master_seed is mandatory")
    text = {**(_FULL_SCALE_DEFAULTS if full_scale else _DESK_DEFAULTS), **raw}
    return ExperimentConfig(**{key: read(key, text[key], cast) for key, (read, cast) in _CONFIG_CASTS.items() if key in text})
