"""The traced run: one round of a workload plus probes of the layers it does not reach.

The same plan runs twice: untraced in a fresh interpreter (the reference)
and traced in this one, so both start with the program's in-process state
empty.  Per-layer metrics come from the spans of the traced plan; the
difference between the two plan times is the tracing overhead.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import nullcontext

import numpy as np

from ldpvec import aggregate, amplification, baselines, coco, collision, domain, harness, oracle

import workloads as wl
from spans import Tracer

# One aggregation chunk of the collision hit counter at d=512.
HASH_PROBE_D = 512
HASH_PROBE_USERS = 4_000_000 // (2 * HASH_PROBE_D)
HASH_PROBE_CALLS = 5
# Accountant probe: one divergence at eps_c = eps/2 per n, and one full query.
DIVERGENCE_N = {"n1e4": 10_000, "n1e5": 100_000}
DIVERGENCE_CALLS = 3
QUERY_N = 10_000

STAGES = {
    "harness.gen": "gen",
    "domain.user_hash_seeds": "seeds",
    "collision.randomize": "randomize",
    "coco.randomize": "randomize",
    "baselines.randomize": "randomize",
    "aggregate.aggregate": "aggregate",
    "aggregate.project": "project",
    "aggregate.metrics": "metrics",
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions each layer is entered through."""
    w = tracer.wrap
    w(harness, "simulate_point", "harness.simulate_point", lambda a, k: {"mechanism": a[0]})
    w(harness, "gen_synthetic_arrays", "harness.gen", peak_memory=True)
    w(harness, "user_hash_seeds", "domain.user_hash_seeds")
    w(collision, "collision_randomize_batch", "collision.randomize")
    w(coco, "coco_randomize_batch", "coco.randomize")
    w(baselines, "privkv_randomize_batch", "baselines.randomize")
    w(baselines, "pckv_randomize_batch", "baselines.randomize")
    w(aggregate, "aggregate_frequencies", "aggregate.aggregate", lambda a, k: {"mechanism": a[1]}, peak_memory=True)
    w(aggregate, "project_to_simplex", "aggregate.project")
    for name in ("true_event_frequencies", "tve", "mae"):
        w(aggregate, name, "aggregate.metrics")
    w(amplification, "amplified_epsilon", "amplification.amplified_epsilon", lambda a, k: {"n": a[0]})
    w(amplification, "pq_divergence", "amplification.pq_divergence", lambda a, k: {"n": a[0].n})
    w(oracle, "verify_ldp", "oracle.verify_ldp")
    w(oracle, "exact_estimator_moments", "oracle.exact_estimator_moments")


def _span(tracer, name, **attrs):
    return tracer.span(name, **attrs) if tracer else nullcontext()


def run_plan(sweep_shape, verify_shape, is_sweep: bool, seed: int, tally, digests, tracer=None) -> dict:
    """The workload's round plus the layer probes; returns timings and probe outputs."""
    start = time.perf_counter()
    with _span(tracer, "plan"):
        if is_sweep:
            point_s = wl.sweep_round(sweep_shape, seed, tally, digests)
        else:
            wl.verify_round(verify_shape, tally, digests)
            point_s = wl.sweep_round(sweep_shape, seed, tally, digests)
        accountant = accountant_probe(tally, tracer)
        if is_sweep:
            with _span(tracer, "probe.oracle"):
                wl.oracle_collision(wl.SMOKE_VERIFY, tally)
                wl.oracle_coco(wl.SMOKE_VERIFY, tally)
        with _span(tracer, "probe.hash"):
            seeds = domain.user_hash_seeds(seed, HASH_PROBE_USERS)[:, None]
            codes = np.arange(1, 2 * HASH_PROBE_D + 1, dtype=np.int64)[None, :]
            t = collision.collision_optimal_t(sweep_shape.s, sweep_shape.epsilon)
            for _ in range(HASH_PROBE_CALLS):
                with _span(tracer, "domain.hash_buckets"):
                    domain.hash_buckets(seeds, codes, t)
    return {"plan_s": time.perf_counter() - start, "point_s": point_s, **accountant}


def accountant_probe(tally, tracer) -> dict:
    s, eps, delta = wl.VERIFY.s, wl.VERIFY.epsilon, wl.VERIFY.delta
    alpha = wl.query_alpha("collision", s, eps)
    with _span(tracer, "probe.divergence"):
        for n in DIVERGENCE_N.values():
            query = amplification.AmplificationQuery(n=n, epsilon=eps, alpha=alpha, delta=delta)
            for _ in range(DIVERGENCE_CALLS):
                amplification.pq_divergence(query, eps / 2)
    with _span(tracer, "probe.query"):
        eps_c = amplification.amplified_epsilon(QUERY_N, eps, alpha, delta)
    result = amplification.pq_divergence(
        amplification.AmplificationQuery(n=QUERY_N, epsilon=eps, alpha=alpha, delta=delta), eps_c
    )
    problems = [] if result.reported_delta <= delta else [f"reported delta {result.reported_delta!r} exceeds {delta!r}"]
    tally.record(f"accountant probe n={QUERY_N}", problems)
    return {"truncation_mass": result.truncation_mass, "reported_delta": result.reported_delta}


def layer_metrics(tracer: Tracer, traced: dict, reference: dict, sweep_shape, imports: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced plan and the untraced reference."""
    children = defaultdict(list)
    for s in tracer.spans:
        children[s["parent"]].append(s)
    dur = Tracer.duration
    med = statistics.median

    def only(name: str) -> dict:
        (span,) = tracer.named(name)
        return span

    # Per mechanism and stage: the stage's time within each point.
    stages: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for point in tracer.named("harness.simulate_point"):
        sums = defaultdict(float)
        for child in children[point["id"]]:
            if child["name"] in STAGES:
                sums[STAGES[child["name"]]] += dur(child)
        for stage, seconds in sums.items():
            stages[point["attrs"]["mechanism"]][stage].append(seconds)
    stage_med = {m: {st: med(v) for st, v in by_stage.items()} for m, by_stage in stages.items()}

    def pooled(stage: str, mechanisms=wl.MECHANISMS) -> float:
        return med([v for m in mechanisms for v in stages[m][stage]])

    def family(stage: str) -> dict[str, float]:
        return {
            "collision": stage_med["collision"][stage],
            "coco": stage_med["coco"][stage],
            "baselines": statistics.fmean(stage_med[b][stage] for b in wl.BASELINES),
        }

    unaccounted = wl.family_times({m: reference["point_s"][m] - sum(stage_med[m].values()) for m in wl.MECHANISMS})
    randomize, agg = family("randomize"), family("aggregate")
    hash_evals = sweep_shape.n * 2 * sweep_shape.d
    divergence = [s for s in children[only("probe.divergence")["id"]] if s["name"] == "amplification.pq_divergence"]
    (query,) = [s for s in children[only("probe.query")["id"]] if s["name"] == "amplification.amplified_epsilon"]
    hash_spans = tracer.named("domain.hash_buckets")

    metrics = {
        "cli.import_s": imports["ldpvec.cli"],
        "amplification.import_s": imports["ldpvec.amplification"],
        "harness.gen_s": pooled("gen"),
        "harness.gen_peak_mb": med(s["attrs"]["peak_mb"] for s in tracer.named("harness.gen")),
        "domain.user_seeds_s": pooled("seeds", ("collision", "coco")),
        "domain.hash_evals_per_s": HASH_PROBE_USERS * 2 * HASH_PROBE_D / med(dur(s) for s in hash_spans),
        "aggregate.hash_evals": float(hash_evals),
        "aggregate.hash_evals_per_s": hash_evals / agg["collision"],
        "aggregate.aggregate_peak_mb": med(
            s["attrs"]["peak_mb"] for s in tracer.named("aggregate.aggregate") if s["attrs"]["mechanism"] == "collision"
        ),
        "aggregate.project_s": pooled("project"),
        "aggregate.metrics_s": pooled("metrics"),
        "amplification.divergence_evals": float(
            sum(1 for s in children[query["id"]] if s["name"] == "amplification.pq_divergence")
        ),
        "amplification.truncation_mass": traced["truncation_mass"],
        "amplification.reported_delta": traced["reported_delta"],
        "oracle.verify_ldp_s": med(dur(s) for s in tracer.named("oracle.verify_ldp")),
        "oracle.moments_s": med(dur(s) for s in tracer.named("oracle.exact_estimator_moments")),
        "trace.overhead_s": traced["plan_s"] - reference["plan_s"],
    }
    for fam in wl.FAMILIES:
        metrics[f"{fam}.randomize_s"] = randomize[fam]
        metrics[f"aggregate.aggregate_s.{fam}"] = agg[fam]
        metrics[f"harness.unaccounted_s.{fam}"] = unaccounted[fam]
    for label, n in DIVERGENCE_N.items():
        metrics[f"amplification.divergence_s.{label}"] = med(dur(s) for s in divergence if s["attrs"]["n"] == n)
    return metrics
