"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.

Criterion 6 is known-red and kept faithful rather than loosened.  It
asks the collision randomizer's TVE to be at most 0.60 of each
baseline's, raw or after projection.  At d=64 the dimension-sampling
baseline's (PrivKV's) per-event variance penalty, linear in d, is only
~2.2x the collision randomizer's, which puts the raw TVE ratio near
1/sqrt(2.2) = 0.67 (measured 0.68 at eps=0.5 and 0.67 at eps=1.0).
Projection lowers PrivKV's TVE by more, in proportion, so the projected
ratios are higher still: 0.82 and 0.73.  Against PCKV-GRR both ratios
are well below 0.60.  The margin does hold from d=256 up
(test_harness.test_ordering_at_high_dimension).
"""

import math
import time

import numpy as np

from ldpvec.amplification import (
    AmplificationQuery,
    amplified_epsilon,
    collision_alpha,
    efmrtt_closed_form,
    generic_clone_alpha,
    pq_divergence,
)
from ldpvec.coco import coco_predicted_mse, collision_rates
from ldpvec.collision import collision_optimal_t, collision_params
from ldpvec.domain import EventId, MechanismParams, TernaryVector
from ldpvec.harness import simulate_point
from ldpvec.oracle import all_sparse_vectors, exact_estimator_moments, verify_ldp
from hit_reference import single_user_mean_squared_errors
from pq_reference import exact_pq_laws, lower_bound_statistic_distribution

LN2 = math.log(2)
EPSILONS = (0.5, LN2, 2.0)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_exact_ldp():
    start = time.time()
    worst_gap = 0.0
    equality_witnessed = False
    for t in (4, 5, 6):
        for eps in EPSILONS:
            got = verify_ldp("collision", collision_params(4, 2, eps, t))
            worst_gap = max(worst_gap, got - eps)
            if abs(got - eps) <= 1e-9:
                equality_witnessed = True
            assert got <= eps + 1e-9
    for s in (1, 2):
        for t in (6, 8):
            for eps in EPSILONS:
                got = verify_ldp("coco", MechanismParams(d=4, s=s, epsilon=eps, t=t))
                worst_gap = max(worst_gap, got - eps)
                assert got <= eps + 1e-9
    elapsed = time.time() - start
    ok = worst_gap <= 1e-9 and equality_witnessed and elapsed < 10.0
    assert _report(1, ok, f"max log-ratio excess {worst_gap:.2e}, collision equality witnessed, {elapsed:.1f}s")
    assert equality_witnessed and elapsed < 10.0


def test_criterion_2_exact_unbiasedness():
    worst = 0.0
    for t in (4, 5, 6):
        for eps in EPSILONS:
            params = collision_params(4, 2, eps, t)
            for x in all_sparse_vectors(4, 2):
                events = x.event_set()
                for code in range(1, 9):
                    event = EventId.from_code(code)
                    mean, _ = exact_estimator_moments("collision", params, x, "indicator", event=event)
                    worst = max(worst, abs(mean - (1.0 if event in events else 0.0)))
    for s in (1, 2):
        for t in (6, 8):
            for eps in EPSILONS:
                params = MechanismParams(d=4, s=s, epsilon=eps, t=t)
                for x in all_sparse_vectors(4, s):
                    events = x.event_set()
                    for j in range(1, 5):
                        plus = 1.0 if EventId(j, 1) in events else 0.0
                        minus = 1.0 if EventId(j, -1) in events else 0.0
                        mean, _ = exact_estimator_moments("coco", params, x, "mean", dim=j)
                        worst = max(worst, abs(mean - (plus - minus)))
                        mean, _ = exact_estimator_moments("coco", params, x, "nonmissing", dim=j)
                        worst = max(worst, abs(mean - (plus + minus)))
    assert _report(2, worst <= 1e-10, f"worst |E[estimator] - indicator| = {worst:.2e}")


def test_criterion_3_lemma4_equivalence():
    points = [
        (1, 4, 0.5), (1, 4, 1.0), (1, 6, LN2), (1, 6, 2.0), (1, 8, 1.0),
        (2, 6, 0.5), (2, 6, 1.0), (2, 8, LN2), (2, 8, 2.0), (2, 10, 1.0),
        (3, 8, 0.5), (3, 8, 1.0), (3, 10, LN2), (3, 10, 2.0), (3, 12, 1.0),
        (1, 10, 0.5), (2, 12, 0.5), (3, 14, 1.0), (2, 6, 2.0), (3, 8, 2.0),
    ]
    assert len(points) == 20
    worst_exact = 0.0
    worst_sigmas = 0.0
    for idx, (s, t, eps) in enumerate(points):
        d = s + 2
        params = MechanismParams(d=d, s=s, epsilon=eps, t=t)
        x = TernaryVector(d=d, support=tuple((j, 1 if j % 2 else -1) for j in range(1, s + 1)))
        oracle_total = 0.0
        for j in range(1, d + 1):
            _, var = exact_estimator_moments("coco", params, x, "mean", dim=j)
            oracle_total += var
        rates = collision_rates(s, eps, t)
        predicted = coco_predicted_mse(d, s, rates, "mean")
        worst_exact = max(worst_exact, abs(oracle_total - predicted))

        errs = single_user_mean_squared_errors("coco", d, s, eps, 100_000, 1000 + idx, t=t)
        se = errs.std(ddof=1) / math.sqrt(len(errs))
        worst_sigmas = max(worst_sigmas, abs(errs.mean() - predicted) / se)
    ok = worst_exact <= 1e-9 and worst_sigmas <= 3.0
    assert _report(
        3, ok, f"worst |oracle - predicted| = {worst_exact:.2e}, worst empirical z = {worst_sigmas:.2f}"
    )


def test_criterion_4_single_user_mse_gap():
    start = time.time()
    d, s, eps, trials = 128, 8, 0.5, 10_000
    coco_err = single_user_mean_squared_errors("coco", d, s, eps, trials, 41).mean()
    col_err = single_user_mean_squared_errors("collision", d, s, eps, trials, 42).mean()
    elapsed = time.time() - start
    ratio = coco_err / col_err
    ok = ratio <= 0.90 and elapsed < 60.0
    assert _report(
        4, ok, f"coco/collision single-user mean MSE = {ratio:.4f} (<= 0.90 required), {elapsed:.1f}s"
    )


def test_criterion_5_rate_ordering_grid():
    start = time.time()
    # vectorised closed forms over the full grid
    checked = 0
    for s in range(1, 33):
        ts = np.arange(2 * s + 2, 8 * s + 1, 2, dtype=float)
        if not len(ts):
            continue
        for eps in np.arange(0.1, 3.01, 0.1):
            eeps = math.exp(eps)
            omega = (eeps + 1.0) * s + ts - 2 * s
            p_ow = 1.0 - ts * (1.0 - ((ts - 2.0) / ts) ** s) / (2.0 * s)
            shared = p_ow * (eeps + 1.0) / (2.0 * omega)
            p_t = shared + (1.0 - p_ow) * eeps / omega
            p_o = shared + (1.0 - p_ow) / omega
            p_f = 1.0 / ts
            assert (p_o < p_f).all() and (p_f < p_t).all()
            assert (p_ow <= math.exp(-1) + 1e-12).all()
            checked += len(ts)
    # the vectorised forms agree with the scalar module implementation
    for (s, eps, t) in ((1, 0.1, 4), (8, 1.5, 40), (32, 3.0, 256)):
        r = collision_rates(s, eps, t)
        eeps = math.exp(eps)
        omega = (eeps + 1.0) * s + t - 2 * s
        p_ow = 1.0 - t * (1.0 - ((t - 2.0) / t) ** s) / (2.0 * s)
        assert abs(r.p_ow - p_ow) < 1e-14 and abs(r.p_f - 1.0 / t) < 1e-14
    elapsed = time.time() - start
    ok = elapsed < 1.0
    assert _report(5, ok, f"P_o < P_f < P_t at {checked} grid points, {elapsed:.2f}s")


def test_criterion_6_mechanism_ordering():
    start = time.time()
    reps = 20
    details = []
    ok = True
    for eps in (0.5, 1.0):
        means = {}
        for grid, mech in enumerate(("collision", "privkv", "pckv_grr")):
            proj, raw = [], []
            for rep in range(reps):
                out = simulate_point(mech, 20_000, 64, 8, eps, "frequency", True, 99, grid, rep)
                proj.append(out["tve"])
                raw.append(out["tve_raw"])
            means[mech] = (np.mean(proj), np.mean(raw))
        for other in ("privkv", "pckv_grr"):
            r_proj = means["collision"][0] / means[other][0]
            r_raw = means["collision"][1] / means[other][1]
            details.append(f"eps={eps} vs {other}: proj {r_proj:.3f} raw {r_raw:.3f}")
            ok = ok and min(r_proj, r_raw) <= 0.60
    elapsed = time.time() - start
    _report(6, ok and elapsed < 120.0, "; ".join(details) + f", {elapsed:.0f}s")
    assert elapsed < 120.0
    # Known-red at d=64: against privkv the ratio is ~0.67 raw and
    # 0.73-0.82 projected, above 0.60 (see module docstring).
    assert ok, "collision TVE not >=40% below every baseline at d=64"


def test_criterion_7_scaling_exponents():
    start = time.time()
    reps = 8

    def mean_tve(mech, n, d, s, eps, grid):
        vals = [simulate_point(mech, n, d, s, eps, "frequency", True, 55, grid, r)["tve"] for r in range(reps)]
        return float(np.mean(vals))

    ds = (64, 128, 256)
    tve_d = [mean_tve("collision", 20_000, d, 8, 1.0, gi) for gi, d in enumerate(ds)]
    slope_d = float(np.polyfit(np.log(ds), np.log(tve_d), 1)[0])

    ns = (1_000, 10_000, 100_000)
    tve_n = [mean_tve("collision", n, 64, 8, 2.0, 10 + gi) for gi, n in enumerate(ns)]
    slope_n = float(np.polyfit(np.log(ns), np.log(tve_n), 1)[0])

    ratio_d = tve_d[2] / tve_d[1]
    ratio_n = tve_n[1] / tve_n[2]
    elapsed = time.time() - start
    ok = (
        abs(slope_d - 0.5) <= 0.15
        and abs(slope_n + 0.5) <= 0.15
        and 1.30 <= ratio_d <= 1.55
        and 2.7 <= ratio_n <= 3.7
        and elapsed < 300.0
    )
    assert _report(
        7,
        ok,
        f"d-slope {slope_d:.3f} (0.5±0.15), n-slope {slope_n:.3f} (-0.5±0.15), "
        f"TVE(256)/TVE(128)={ratio_d:.3f} in [1.30,1.55], TVE(1e4)/TVE(1e5)={ratio_n:.3f} in [2.7,3.7], {elapsed:.0f}s",
    )


def _brute_force_divergence(n, eps, alpha, eps_c):
    a = alpha / (math.exp(eps) - 1.0)
    eeps = math.exp(eps)
    deltas = (((1, 0), eeps * a), ((0, 1), a), ((0, 0), 1.0 - a - eeps * a))
    P, Q = {}, {}
    for c in range(n):
        pcv = math.comb(n - 1, c) * (2 * a) ** c * (1 - 2 * a) ** (n - 1 - c)
        for av in range(c + 1):
            w = pcv * math.comb(c, av) * 0.5**c
            for (d1, d2), pd in deltas:
                kp = (av + d1, c - av + d2)
                kq = (av + d2, c - av + d1)
                P[kp] = P.get(kp, 0.0) + w * pd
                Q[kq] = Q.get(kq, 0.0) + w * pd
    ec = math.exp(eps_c)
    fwd = sum(max(0.0, P[k] - ec * Q.get(k, 0.0)) for k in P)
    bwd = sum(max(0.0, Q[k] - ec * P.get(k, 0.0)) for k in Q)
    return max(fwd, bwd)


def test_criterion_8_accountant_exactness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 5))
        eps = float(rng.uniform(0.2, 2.5))
        alpha = float(rng.uniform(0.01, generic_clone_alpha(eps)))
        eps_c = float(rng.uniform(0.0, eps))
        query = AmplificationQuery(n=n, epsilon=eps, alpha=alpha, delta=1e-6)
        got = pq_divergence(query, eps_c)
        brute = _brute_force_divergence(n, eps, alpha, eps_c)
        worst = max(worst, abs(got.reported_delta - brute))
    query = AmplificationQuery(n=1, epsilon=LN2, alpha=1 / 3, delta=1e-6)
    hand0 = pq_divergence(query, 0.0).reported_delta
    hand1 = pq_divergence(query, LN2).delta
    ok = worst <= 1e-12 and abs(hand0 - 1 / 3) <= 1e-15 and hand1 == 0.0
    assert _report(
        8, ok, f"worst |engine - brute| = {worst:.2e}; n=1 hand values delta(0)={hand0:.15f}, delta(eps)={hand1}"
    )


def test_criterion_9_tightness_ordering():
    n, s, delta = 10_000, 4, 1e-6
    ok = True
    details = []
    for eps in (0.5, 1.0, 2.0):
        start = time.time()
        t = collision_optimal_t(s, eps)
        ec_col = amplified_epsilon(n, eps, collision_alpha(s, eps, t), delta)
        ec_gen = amplified_epsilon(n, eps, generic_clone_alpha(eps), delta)
        ef = efmrtt_closed_form(eps, delta, n)
        elapsed = time.time() - start
        ordered = ec_col <= ec_gen + 1e-4 and ec_gen <= ef + 1e-4
        ok = ok and ordered and elapsed < 120.0
        saving = 1.0 - ec_col / ec_gen
        if eps == 2.0:
            ok = ok and saving >= 0.15
        details.append(f"eps={eps}: {ec_col:.5f} <= {ec_gen:.5f} <= {ef:.5f} (saving {saving:.1%}, {elapsed:.1f}s)")
    assert _report(9, ok, "; ".join(details))


def test_criterion_10_lower_bound_consistency():
    worst = 0.0
    for eps in (0.5, LN2, 1.7):
        for t in (4, 6):
            alpha = collision_alpha(1, eps, t)
            for n in (1, 2, 3):
                params = collision_params(3, 1, eps, t)
                g = lower_bound_statistic_distribution(n, params)
                gq = lower_bound_statistic_distribution(n, params, swapped=True)
                P, Q = exact_pq_laws(n, eps, alpha)
                for k in set(g) | set(P):
                    worst = max(worst, abs(g.get(k, 0.0) - P.get(k, 0.0)))
                for k in set(gq) | set(Q):
                    worst = max(worst, abs(gq.get(k, 0.0) - Q.get(k, 0.0)))
    assert _report(10, worst <= 1e-12, f"worst |g_n law - P/Q law| = {worst:.2e} over n<=3, t in {{4,6}}")


def test_criterion_11_mae_scaling():
    grid = [
        (2_000, 32, 2, 0.5), (2_000, 128, 2, 1.0), (2_000, 32, 8, 1.0), (2_000, 128, 8, 0.5),
        (8_000, 32, 2, 1.0), (8_000, 128, 2, 0.5), (8_000, 32, 8, 0.5), (8_000, 128, 8, 1.0),
        (32_000, 32, 2, 0.5), (32_000, 128, 2, 1.0), (32_000, 32, 8, 1.0), (32_000, 128, 8, 0.5),
    ]
    normalized = []
    for gi, (n, d, s, eps) in enumerate(grid):
        maes = [simulate_point("coco", n, d, s, eps, "mean", False, 321, gi, r)["mae"] for r in range(8)]
        normalized.append(np.mean(maes) * math.sqrt(eps**2 * n / (s * math.log(d))))
    spread = max(normalized) / min(normalized)
    assert _report(11, spread < 2.0, f"normalized MAE spread = {spread:.3f} over 12-point grid (< 2 required)")


def test_criterion_12_reproducibility(tmp_path):
    from click.testing import CliRunner

    from ldpvec.cli import main

    cfg = tmp_path / "acc.cfg"
    cfg.write_text(
        "n = 400\nd = 8\ns = 2\nepsilon = 0.5, 1.0\nmechanism = collision, coco\nrepetitions = 2\n"
    )
    runner = CliRunner()
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}.csv"
        res = runner.invoke(main, ["simulate", "--config", str(cfg), "--master-seed", "2718", "--out", str(out)])
        assert res.exit_code == 0, res.output
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    assert _report(12, ok, f"two simulate runs byte-identical ({len(outputs[0])} bytes)")
