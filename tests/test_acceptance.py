"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import math
import time
from dataclasses import replace

import numpy as np
from scipy.special import gamma

from masterop import (
    C0_constant,
    QuadSpec,
    combine,
    defect_estimate,
    difference_decomposition,
    fractional_laplacian,
    from_callable,
    heat_limit_check,
    kernel_constants,
    kernel_decay_check,
    marchaud,
    master_op,
    phi_family,
    verify_ratio_c1,
    verify_ratio_c2_c3,
    verify_ratio_step2,
    w_family,
    zero,
)
from masterop.handles import (
    GROWTH_BOUNDED,
    GROWTH_DECAYING,
    SupportBox,
    spatial,
    temporal,
)
from masterop.kernel import decay_grid
from masterop.quadrature import gauss_hermite_nodes
from masterop.regions import sample_past_points, step1_predicates, step2_predicates


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(line)
    assert ok, line


def exp_cos():
    return from_callable(
        lambda pts, tt: np.exp(tt) * np.cos(pts[:, 0]), 1, growth=GROWTH_DECAYING)


PROBES5 = [(np.zeros(1), 0.0), (np.array([0.4]), 0.3), (np.array([-0.7]), 0.5),
           (np.array([0.9]), -0.6), (np.array([-0.2]), -0.2)]


def test_criterion_01_symbol_oracle(q_horizon):
    u = exp_cos()
    worst = 0.0
    times = []
    for s in (0.25, 0.5, 0.75):
        p = kernel_constants(1, s)
        t0 = time.perf_counter()
        for x, t in PROBES5:
            got = master_op(u, (x, t), p, q_horizon).value
            want = 2.0 ** s * math.exp(t) * math.cos(x[0])
            worst = max(worst, abs(got - want) / abs(want))
            # independent reference at 10x resolution agrees
            q_ref = replace(q_horizon, grading=0.5 ** 0.1, gh_order=40)
            ref = master_op(u, (x, t), p, q_ref).value
            worst = max(worst, abs(got - ref) / abs(want))
        times.append(time.perf_counter() - t0)
    ok = worst <= 1e-3 and max(times) <= 10.0
    report(1, ok, f"symbol oracle: max rel err {worst:.2e}, "
                  f"max time/s-value {max(times):.2f}s")


def test_criterion_02_reduction_identities(p_half, q_horizon):
    cosx = spatial(lambda pts: np.cos(pts[:, 0]), dim=1, growth=GROWTH_BOUNDED)
    expt = temporal(lambda tt: np.exp(tt), dim=1, growth=GROWTH_DECAYING)
    d1 = abs(master_op(cosx, (np.zeros(1), 0.0), p_half, q_horizon).value
             - fractional_laplacian(cosx, np.zeros(1), p_half, q_horizon).value)
    d2 = abs(master_op(expt, (np.zeros(1), 0.0), p_half, q_horizon).value
             - marchaud(expt, 0.0, p_half, q_horizon).value)
    ok = d1 <= 1e-4 and d2 <= 1e-4
    report(2, ok, f"reduction identities: spatial gap {d1:.2e}, temporal gap {d2:.2e}")


def test_criterion_03_marchaud_exact_values(q_default, q_horizon):
    expt = temporal(lambda tt: np.exp(tt), dim=1, growth=GROWTH_DECAYING)
    worst_exp = 0.0
    for s in (0.25, 0.5, 0.75):
        p = kernel_constants(1, s)
        for t in (0.0, 1.0):
            got = marchaud(expt, t, p, q_horizon).value
            worst_exp = max(worst_exp, abs(got - math.exp(t)) / math.exp(t))
    tsq = from_callable(lambda pts, tt: np.maximum(tt, 0.0) ** 2, 1,
                        support=SupportBox(radius=math.inf, t_lo=0.0),
                        smoothness="c1t", time_kinks=(0.0,))
    p = kernel_constants(1, 0.5)
    got = marchaud(tsq, 1.0, p, q_default).value
    want = gamma(3.0) / gamma(2.5)
    gap_sq = abs(got - want)
    ok = worst_exp <= 1e-4 and gap_sq <= 1e-3
    report(3, ok, f"one-sided derivative: e^t rel err {worst_exp:.2e}, "
                  f"(t+)^2 abs err {gap_sq:.2e} (value {got:.6f})")


def test_criterion_04_spatial_family_dichotomy(p_half, q_default):
    t0 = time.perf_counter()
    C0 = C0_constant(0.5, 1, "normalized")
    crit = [fractional_laplacian(phi_family(j, 1.0, 1.0), np.zeros(1),
                                 p_half, q_default).value for j in (2, 4, 8, 16)]
    sub = [fractional_laplacian(phi_family(j, 0.5, 1.0), np.zeros(1),
                                p_half, q_default).value for j in (2, 4, 8, 16)]
    elapsed = time.perf_counter() - t0
    err_crit = abs(crit[-1] + C0) / C0
    ok = err_crit <= 0.02 and abs(sub[-1]) <= 1e-3 and elapsed <= 60.0
    report(4, ok, f"spatial family dichotomy: critical rel err {err_crit:.2e}, "
                  f"subcritical final {abs(sub[-1]):.2e}, {elapsed:.1f}s")


def test_criterion_05_coupled_family_limit(p_half, q_default):
    t0 = time.perf_counter()
    worst = 0.0
    for j in (2, 4, 8, 16):
        w = w_family(j, 1.0, 0.5)
        errs = [abs(master_op(w, (x, t), p_half, q_default).value + 1.0)
                for x, t in [(np.zeros(1), 0.0), (np.ones(1), 1.0),
                             (-np.ones(1), 0.5)]]
        if j == 16:
            worst = max(errs)
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-2 and elapsed <= 300.0
    report(5, ok, f"coupled family limit: max |value+1| at j=16 is {worst:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_06_defect_estimate(p_half, q_default):
    probes = [(np.zeros(1), 0.0), (np.array([1.0]), 1.0), (np.array([-1.0]), 0.5),
              (np.array([0.5]), -1.0), (np.array([-0.5]), -0.5)]
    rep = defect_estimate(lambda j: w_family(j, 1.0, 0.5), zero(1), probes,
                          [6.0, 12.0, 24.0], [4, 8, 16, 32], p_half, q_default)
    ok = (rep.converged and abs(rep.b_estimate - 1.0) <= 5e-2
          and rep.b_spread <= 5e-2 and rep.monotone_ok)
    report(6, ok, f"defect estimate: b = {rep.b_estimate:.4f}, "
                  f"spread {rep.b_spread:.2e}, monotone {rep.monotone_ok}")


def test_criterion_07_kernel_decay(p_half):
    rho, dt = decay_grid()   # 100 x 100 log-spaced grid
    value, majorant, ok_all = kernel_decay_check(rho[..., None], dt, p_half)
    violations = int(np.sum(value > majorant))
    ok = ok_all and violations == 0
    report(7, ok, f"kernel decay bound: {violations} violations on "
                  f"{value.size} grid points (Lambda {p_half.Lambda:.4f})")


def test_criterion_08_partition_exactness():
    rng = np.random.default_rng(0xA11CE)
    R, t = 100.0, 3.0
    ys, taus = sample_past_points(rng, 1, t, R, 100_000)
    c1 = sum(np.asarray(v, dtype=int)
             for v in step1_predicates(ys, taus, np.zeros(1), t, R).values())
    c2 = sum(np.asarray(v, dtype=int)
             for v in step2_predicates(ys, taus, t, R).values())
    bad = int(np.sum(c1 != 1)) + int(np.sum(c2 != 1))
    report(8, bad == 0, f"partition exactness: {bad} violations in 100000 samples x 2")


def test_criterion_09_ratio_envelopes(p_half):
    x = np.array([1.0])
    maxima = []
    all_pass = True
    for R in (1e2, 1e3, 1e4):
        rep = verify_ratio_c1(x, 0.0, R, 1000, p_half)
        maxima.append(rep.max_log_ratio)
        all_pass &= rep.passed
    decreasing = maxima[0] > maxima[1] > maxima[2]
    c23 = verify_ratio_c2_c3(x, 0.0, 1e4, 1000, p_half)
    s2 = verify_ratio_step2(math.sqrt(1e4), 1e4, 1000, p_half)
    all_pass &= all(r.passed for r in c23) and all(r.passed for r in s2)
    consts = {r.region: r.fitted_constant for r in c23 + s2}
    ok = all_pass and decreasing
    report(9, ok, f"ratio envelopes: shifted-kernel maxima {maxima[0]:.2f} > "
                  f"{maxima[1]:.2f} > {maxima[2]:.2f}, fitted constants "
                  + ", ".join(f"{k}={v:.3g}" for k, v in consts.items()))


def test_criterion_10_quadrature_self_consistency(p_half, q_default):
    # (a) Gauss-Hermite polynomial exactness
    gh_ok = True
    for order in (6, 20):
        z, w = gauss_hermite_nodes(order)
        for k in range(2 * order):
            want = 0.0 if k % 2 else gamma((k + 1) / 2.0)
            scale = max(1.0, gamma((k + 1) / 2.0))
            gh_ok &= abs(float(np.dot(w, z ** k)) - want) <= 1e-12 * scale
    # (b) refinement stays inside 4x the error estimate
    w8 = w_family(8, 1.0, 0.5)
    gauss = from_callable(
        lambda pts, tt: np.exp(-pts[:, 0] ** 2 - tt ** 2)
        * (np.abs(pts[:, 0]) < 5) * (np.abs(tt) < 5),
        1, support=SupportBox(radius=5.0, t_lo=-5.0, t_hi=5.0))
    refine_ok = True
    q2 = QuadSpec(grading=math.sqrt(0.5), gh_order=40)
    for u, at in [(w8, (np.zeros(1), 0.0)), (gauss, (np.array([0.5]), 0.2))]:
        r1 = master_op(u, at, p_half, q_default)
        r2 = master_op(u, at, p_half, q2)
        refine_ok &= abs(r1.value - r2.value) < 4.0 * max(r1.err_estimate, 1e-14)
    # (c) decomposition identity for two pairs at R in {20, 50}
    pairs = [(gauss, combine([1.0, 1.0], [gauss, phi_family(8, 1.0, 1.0)])),
             (zero(1), w_family(16, 1.0, 0.5))]
    worst_gap = 0.0
    for u, ui in pairs:
        direct = master_op(u, (np.zeros(1), 0.0), p_half, q_default).value \
            - master_op(ui, (np.zeros(1), 0.0), p_half, q_default).value
        for R in (20.0, 50.0):
            d = difference_decomposition(u, ui, (np.zeros(1), 0.0), R,
                                         p_half, q_default)
            gap = abs(d.I + d.E + d.F - direct)
            worst_gap = max(worst_gap, gap - max(d.err_estimate, 1e-7))
    decomp_ok = worst_gap <= 0.0
    ok = gh_ok and refine_ok and decomp_ok
    report(10, ok, f"quadrature self-consistency: GH exactness {gh_ok}, "
                   f"refinement {refine_ok}, decomposition identity {decomp_ok}")


def test_criterion_11_heat_limit_trend(p_half, q_horizon):
    rows, classical = heat_limit_check(exp_cos(), (np.zeros(1), 0.0),
                                       [0.9, 0.95, 0.99], p_half, q_horizon)
    gaps = [abs(v - 2.0) for _, v in rows]
    ok = gaps[0] > gaps[1] > gaps[2]
    report(11, ok, "heat-limit trend: |value - 2| = "
                   + " > ".join(f"{g:.4f}" for g in gaps)
                   + f" (classical {classical:.6f})")
