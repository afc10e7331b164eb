"""Workload shapes, the timed rounds that drive the public API, and output checks.

Every timed operation is a call into the program's public functions.  Each
operation counts once in ``Tally.attempted`` and once more in the failures
if it raised or if any check on its output failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

from ldpvec import amplification, coco, collision, harness, oracle
from ldpvec.domain import EventId, MechanismParams

BASELINES = ("privkv", "pckv_grr", "pckv_agrr")
MECHANISMS = ("collision", "coco") + BASELINES
FAMILIES = ("collision", "coco", "baselines")

# A sweep's raw TVE must lie within this factor of the closed-form prediction.
TVE_FACTOR = 1.5
# Recorded amplified budgets may drift by at most this much.
EPS_C_TOLERANCE = 1e-4
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


@dataclass(frozen=True)
class SweepShape:
    n: int
    d: int
    s: int
    epsilon: float
    repetitions: int


@dataclass(frozen=True)
class VerifyShape:
    n: tuple[int, ...]
    s: int
    epsilon: float
    delta: float
    oracle_epsilons: tuple[float, ...]
    collision_t: tuple[int, ...]
    coco_s: tuple[int, ...]
    coco_t: tuple[int, ...]


FULL = SweepShape(n=100_000, d=512, s=8, epsilon=1.0, repetitions=1)
DESK = SweepShape(n=10_000, d=64, s=8, epsilon=1.0, repetitions=20)
# Sweep layers on the verify workload are probed at the desk shape.
DESK_PROBE = SweepShape(n=10_000, d=64, s=8, epsilon=1.0, repetitions=3)
# The oracle grid of acceptance criteria 1 and 2.
VERIFY = VerifyShape(
    n=(10_000, 100_000), s=4, epsilon=1.0, delta=1e-6,
    oracle_epsilons=(0.5, math.log(2), 2.0), collision_t=(4, 5, 6), coco_s=(1, 2), coco_t=(6, 8),
)
SMOKE_SWEEP = SweepShape(n=500, d=16, s=4, epsilon=1.0, repetitions=2)
SMOKE_VERIFY = VerifyShape(
    n=(300, 3000), s=4, epsilon=1.0, delta=1e-6,
    oracle_epsilons=(math.log(2),), collision_t=(4,), coco_s=(1,), coco_t=(6,),
)


class Tally:
    """Operations attempted, and one message per failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    @property
    def failed(self) -> int:
        return len(self.failures)


class Digests:
    """sha256 of every output text, checked to repeat within and across runs."""

    def __init__(self):
        self.values: dict[str, str] = {}

    def record(self, key: str, text: str) -> list[str]:
        digest = hashlib.sha256(text.encode()).hexdigest()
        previous = self.values.setdefault(key, digest)
        if previous != digest:
            return [f"output digest of {key} changed between rounds"]
        return []


def timed(call):
    """Run ``call()``; returns (result or None, seconds, problems).

    Every timed operation goes through a clock with this signature.
    """
    start = time.perf_counter()
    try:
        result = call()
        problems = []
    except Exception:
        result = None
        problems = ["raised " + traceback.format_exc(limit=3).strip().replace("\n", " | ")]
    return result, time.perf_counter() - start, problems


# ---------------------------------------------------------------------------
# Sweeps


def predicted_tve_raw(mechanism: str, shape: SweepShape) -> float:
    """Expected raw TVE over the 2d event frequencies, from the closed forms.

    Each of the 2d estimates is near-normal with variance about V/(2d n),
    where V is the single-user variance summed over the events, so the
    expected sum of absolute errors is sqrt(2/pi) * sqrt(2d V / n).
    """
    d, s, eps = shape.d, shape.s, shape.epsilon
    if mechanism == "collision":
        v = collision.collision_predicted_sum_variance(d, s, eps, collision.collision_optimal_t(s, eps))
    else:
        rates = coco.collision_rates(s, eps, coco.coco_params(d, s, eps, which="mean").t)
        # f(j+) and f(j-) are (nonmissing +- mean)/2, so their variances sum
        # to half the mean and non-missing variances.
        v = (coco.coco_predicted_mse(d, s, rates, "mean") + coco.coco_predicted_mse(d, s, rates, "nonmissing")) / 2
    return math.sqrt(2.0 / math.pi) * math.sqrt(2 * d * v / shape.n)


def check_sweep_rows(mechanism: str, shape: SweepShape, rows, errors) -> list[str]:
    problems = [f"point failed: {e}" for e in errors]
    values = {row.metric: row.value for row in rows}
    expected = {"tve", "mae", "tve_raw", "mae_raw"}
    if len(rows) != len(expected) or set(values) != expected:
        problems.append(f"expected one row per metric {sorted(expected)}, got {[r.metric for r in rows]}")
    for metric, value in values.items():
        if not (math.isfinite(value) and value > 0):
            problems.append(f"{metric}={value!r} is not finite and positive")
    if mechanism in ("collision", "coco") and "tve_raw" in values:
        ratio = values["tve_raw"] / predicted_tve_raw(mechanism, shape)
        if not 1.0 / TVE_FACTOR <= ratio <= TVE_FACTOR:
            problems.append(f"raw TVE is {ratio:.3f}x the closed-form prediction")
    return problems


def sweep_point(mechanism: str, shape: SweepShape, seed: int, tally: Tally, digests: Digests, clock=timed) -> float:
    """One ``run_experiment`` call at one grid point; returns seconds per repetition."""
    config = harness.ExperimentConfig(
        n=(shape.n,), d=(shape.d,), s=(shape.s,), epsilon=(shape.epsilon,),
        mechanism=(mechanism,), master_seed=seed, repetitions=shape.repetitions,
    )
    result, seconds, problems = clock(lambda: harness.run_experiment(config))
    if result is not None:
        rows, errors = result
        problems += check_sweep_rows(mechanism, shape, rows, errors)
        problems += digests.record(f"sweep:{mechanism}", harness.rows_to_csv(rows))
    tally.record(f"sweep {mechanism} n={shape.n} d={shape.d}", problems)
    return seconds / shape.repetitions


def sweep_round(shape: SweepShape, seed: int, tally: Tally, digests: Digests, clock=timed) -> dict[str, float]:
    """Seconds per point for every mechanism."""
    return {m: sweep_point(m, shape, seed, tally, digests, clock) for m in MECHANISMS}


def family_times(point_s: dict[str, float]) -> dict[str, float]:
    return {
        "collision": point_s["collision"],
        "coco": point_s["coco"],
        "baselines": sum(point_s[b] for b in BASELINES) / len(BASELINES),
    }


# ---------------------------------------------------------------------------
# Privacy verification: accountant queries and the exact oracle


def query_alpha(bound: str, s: int, epsilon: float) -> float:
    if bound == "collision":
        return amplification.collision_alpha(s, epsilon, collision.collision_optimal_t(s, epsilon))
    return amplification.generic_clone_alpha(epsilon)


def reference_key(bound: str, n: int, s: int, epsilon: float, delta: float) -> str:
    return f"{bound}|n={n}|s={s}|epsilon={epsilon!r}|delta={delta!r}"


def check_amplify_rows(shape: VerifyShape, rows, errors, tally: Tally) -> None:
    """One operation per (bound, n); the accountant's outputs are re-derived untimed."""
    for e in errors:
        tally.record("amplify", [e])
    eps_c = {(r.mechanism.split(":", 1)[1], r.n): r.value for r in rows if r.metric == "epsilon_c"}
    for bound in harness.AMPLIFICATION_BOUNDS:
        for n in shape.n:
            if (bound, n) not in eps_c:
                tally.record(f"amplify {bound} n={n}", ["no epsilon_c row"])
    for (bound, n), value in sorted(eps_c.items()):
        problems = []
        ref = REFERENCE.get(reference_key(bound, n, shape.s, shape.epsilon, shape.delta))
        if ref is None or abs(value - ref) > EPS_C_TOLERANCE:
            problems.append(f"epsilon_c={value!r} differs from the recorded {ref!r}")
        if bound != "efmrtt":
            if value > shape.epsilon:
                problems.append(f"epsilon_c={value!r} exceeds epsilon")
            query = amplification.AmplificationQuery(
                n=n, epsilon=shape.epsilon, alpha=query_alpha(bound, shape.s, shape.epsilon), delta=shape.delta
            )
            reported = amplification.pq_divergence(query, value).reported_delta
            if reported > shape.delta:
                problems.append(f"reported delta {reported!r} at epsilon_c exceeds {shape.delta!r}")
        if bound == "collision" and ("clone", n) in eps_c and value > eps_c[("clone", n)]:
            problems.append("collision epsilon_c exceeds the generic clone epsilon_c")
        tally.record(f"amplify {bound} n={n}", problems)


def amplify(shape: VerifyShape, bounds: tuple[str, ...], n_list=None):
    n_list = list(shape.n) if n_list is None else n_list
    return harness.run_amplification_sweep(n_list, [shape.s], [shape.epsilon], shape.delta, bounds)


def oracle_collision(shape: VerifyShape, tally: Tally) -> None:
    """verify_ldp and exact estimator means of the collision randomizer (d=4, s=2)."""
    witnessed = [oracle_collision_t(t, shape, tally) for t in shape.collision_t]
    tally.record("verify_ldp collision equality", [] if any(witnessed) else ["equality never witnessed"])


def oracle_collision_t(t: int, shape: VerifyShape, tally: Tally) -> bool:
    """The collision oracle grid at one t; returns whether eps was attained."""
    witnessed = False
    for eps in shape.oracle_epsilons:
        params = collision.collision_params(4, 2, eps, t)
        got, _, problems = timed(lambda: oracle.verify_ldp("collision", params))
        if got is not None:
            witnessed |= abs(got - eps) <= 1e-9
            if got > eps + 1e-9:
                problems.append(f"privacy loss {got!r} exceeds epsilon {eps!r}")
        tally.record(f"verify_ldp collision t={t} eps={eps:.4f}", problems)
        for x in oracle.all_sparse_vectors(4, 2):
            events = x.event_set()
            for code in range(1, 9):
                event = EventId.from_code(code)
                truth = 1.0 if event in events else 0.0
                check_mean(
                    lambda: oracle.exact_estimator_moments("collision", params, x, "indicator", event=event),
                    truth, f"moments collision t={t} code={code}", tally,
                )
    return witnessed


def oracle_coco(shape: VerifyShape, tally: Tally) -> None:
    """verify_ldp and exact estimator means of the CoCo randomizer (d=4)."""
    for s in shape.coco_s:
        for t in shape.coco_t:
            oracle_coco_st(s, t, shape, tally)


def oracle_coco_st(s: int, t: int, shape: VerifyShape, tally: Tally) -> None:
    for eps in shape.oracle_epsilons:
        params = MechanismParams(d=4, s=s, epsilon=eps, t=t)
        got, _, problems = timed(lambda: oracle.verify_ldp("coco", params))
        if got is not None and got > eps + 1e-9:
            problems.append(f"privacy loss {got!r} exceeds epsilon {eps!r}")
        tally.record(f"verify_ldp coco s={s} t={t} eps={eps:.4f}", problems)
        for x in oracle.all_sparse_vectors(4, s):
            events = x.event_set()
            for j in range(1, 5):
                plus = 1.0 if EventId(j, 1) in events else 0.0
                minus = 1.0 if EventId(j, -1) in events else 0.0
                for estimator, truth in (("mean", plus - minus), ("nonmissing", plus + minus)):
                    check_mean(
                        lambda: oracle.exact_estimator_moments("coco", params, x, estimator, dim=j),
                        truth, f"moments coco s={s} t={t} {estimator} dim={j}", tally,
                    )


def check_mean(call, truth: float, what: str, tally: Tally) -> None:
    got, _, problems = timed(call)
    if got is not None and not abs(got[0] - truth) <= 1e-10:
        problems.append(f"estimator mean {got[0]!r} differs from the indicator {truth}")
    tally.record(what, problems)


def verify_round(
    shape: VerifyShape, tally: Tally, digests: Digests, clock=timed
) -> tuple[dict[str, float], dict[str, float]]:
    """Certify each family; returns (seconds per family, detail timings).

    collision: collision-bound queries and the collision oracle grid.
    coco:      the CoCo oracle grid (its accountant is the collision one).
    baselines: the bounds any eps-LDP randomizer has (generic clone, closed form).

    Each family is cut into pieces (one n, or one oracle parameter set) and
    the families' pieces run interleaved, so that every family's time
    samples the whole round rather than one stretch of it.
    """
    witnessed: list[bool] = []
    pieces = {
        "collision": [("query", lambda n=n: amplify(shape, ("collision",), [n])) for n in shape.n]
        + [("oracle", lambda t=t: witnessed.append(oracle_collision_t(t, shape, tally))) for t in shape.collision_t],
        "coco": [("oracle", lambda s=s, t=t: oracle_coco_st(s, t, shape, tally)) for s in shape.coco_s for t in shape.coco_t],
        "baselines": [("query", lambda n=n: amplify(shape, ("clone", "efmrtt"), [n])) for n in shape.n],
    }
    seconds: dict[tuple[str, str], float] = defaultdict(float)
    rows, errors = [], []
    for batch in zip_longest(*pieces.values()):
        for family, piece in zip(pieces, batch):
            if piece is None:
                continue
            kind, call = piece
            result, elapsed, problems = clock(call)
            seconds[family, kind] += elapsed
            if problems:
                tally.record(f"{family} {kind}", problems)
            if kind == "query" and result is not None:
                rows += result[0]
                errors += result[1]
    tally.record("verify_ldp collision equality", [] if any(witnessed) else ["equality never witnessed"])
    check_amplify_rows(shape, rows, errors, tally)
    digest_problems = digests.record("amplify", harness.rows_to_csv(rows))
    if digest_problems:
        tally.record("amplify digest", digest_problems)
    families = {f: seconds[f, "query"] + seconds[f, "oracle"] for f in FAMILIES}
    detail = {
        "query_s.collision": seconds["collision", "query"] / len(shape.n),
        "query_s.clone": seconds["baselines", "query"] / len(shape.n),
        "oracle_s": seconds["collision", "oracle"] + seconds["coco", "oracle"],
    }
    return families, detail
