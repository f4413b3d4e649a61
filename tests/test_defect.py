import math

import numpy as np
import pytest

from masterop import (
    QuadSpec,
    constant,
    defect_estimate,
    kernel_constants,
    master_op,
    phi_family,
    tail_functional,
    w_family,
    zero,
)
from masterop.defect import pool_map
from masterop.handles import SupportBox, from_callable


def gauss_bump():
    return from_callable(
        lambda pts, tt: np.exp(-pts[:, 0] ** 2 - tt ** 2)
        * (np.abs(pts[:, 0]) < 5) * (np.abs(tt) < 5),
        1, support=SupportBox(radius=5.0, t_lo=-5.0, t_hi=5.0))


ORIGIN = (np.zeros(1), 0.0)


# --- tail functional -----------------------------------------------------------

def test_tail_zero_function(p_half, q_default):
    assert tail_functional(zero(1), ORIGIN, 20.0, p_half, q_default).value == 0.0


def test_tail_unit_function_monotone(p_half, q_default):
    F20 = tail_functional(constant(1.0, 1), ORIGIN, 20.0, p_half, q_default)
    F40 = tail_functional(constant(1.0, 1), ORIGIN, 40.0, p_half, q_default)
    assert F20.value > F40.value > 0.0
    # n=1, s=1/2: the exterior mass scales exactly like 1/R
    assert F20.value == pytest.approx(2.0 * F40.value, rel=1e-6)


def test_tail_unit_function_closed_form(p_half, q_default):
    # region beyond -R^2 in time contributes 1/(sqrt(pi) R); the spatial
    # tail adds 2 c sqrt(pi) * (4/R) * int_{1/2}^inf erfc, both exact
    from scipy.special import erfc
    from scipy.integrate import quad
    R = 20.0
    got = tail_functional(constant(1.0, 1), ORIGIN, R, p_half, q_default).value
    deep = 1.0 / (math.sqrt(math.pi) * R)
    ierfc_half = quad(lambda v: erfc(v), 0.5, math.inf)[0]
    side = 2.0 * p_half.c_ns * math.sqrt(math.pi) * 4.0 / R * ierfc_half
    assert got == pytest.approx(deep + side, rel=1e-6)


def test_tail_w_family_approaches_defect(p_half, q_default):
    vals = [tail_functional(w_family(j, 1.0, 0.5), ORIGIN, 50.0,
                            p_half, q_default).value for j in (8, 16, 32)]
    assert all(v >= 0.0 for v in vals)
    assert vals[-1] == pytest.approx(1.0, abs=5e-2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tail_of_w_family_keeps_its_inverse_square_law(n):
    # F(w_j, 6) - 1 ~ c / j^2: the far past is closed to a = inf, not cut at
    # a fixed duration, so the law holds out to j = 256, whose support
    # radius 3j the kernel reaches only at a ~ 1e5
    x0 = np.zeros(n)
    x0[0] = 0.3
    p, js = kernel_constants(n, 0.5), (16, 32, 128, 256)
    bias = [tail_functional(w_family(j, 1.0, 0.5, n=n), (x0, 0.2), 6.0, p, QuadSpec()).value - 1.0
            for j in js]
    for (j0, b0), (j1, b1) in zip(zip(js, bias), zip(js[1:], bias[1:])):
        # the ratio per doubling of j
        assert (b0 / b1) ** (1.0 / math.log2(j1 / j0)) == pytest.approx(4.0, abs=0.05), j1


def test_tail_matches_negated_master_when_support_clears(p_half, q_default):
    # once the support leaves the cylinder the tail is the whole integral
    w = w_family(16, 1.0, 0.5)
    at = (np.array([1.0]), 1.0)
    F = tail_functional(w, at, 20.0, p_half, q_default)
    m = master_op(w, at, p_half, q_default)
    assert F.value == pytest.approx(-m.value, rel=1e-4)


def test_tail_monotone_in_R_per_family(p_half, q_default):
    w = w_family(16, 1.0, 0.5)
    vals = [tail_functional(w, ORIGIN, R, p_half, q_default) for R in (6, 12, 24, 48)]
    for a, b in zip(vals[:-1], vals[1:]):
        assert b.value <= a.value + a.err_estimate + b.err_estimate


def test_tail_negative_function_warns(p_half, q_default):
    with pytest.warns(UserWarning, match="nonnegative"):
        tail_functional(constant(-1.0, 1), ORIGIN, 20.0, p_half, q_default)


def test_tail_scale_precondition(p_half, q_default):
    with pytest.raises(ValueError, match="R > 3"):
        tail_functional(constant(1.0, 1), (np.array([10.0]), 0.0), 20.0,
                        p_half, q_default)


# --- defect estimator ----------------------------------------------------------

PROBES = [(np.zeros(1), 0.0), (np.array([1.0]), 1.0), (np.array([-1.0]), 0.5),
          (np.array([0.5]), -1.0), (np.array([-0.5]), -0.5)]


def test_defect_constant_compact_family(p_half, q_default):
    u = gauss_bump()
    rep = defect_estimate(lambda j: u, u, PROBES, [12.0, 24.0, 48.0],
                          [2, 4], p_half, q_default)
    assert rep.converged
    assert rep.b_estimate == pytest.approx(0.0, abs=1e-2)
    assert rep.monotone_ok


def test_defect_w_family(p_half, q_default):
    rep = defect_estimate(lambda j: w_family(j, 1.0, 0.5), zero(1), PROBES,
                          [6.0, 12.0, 24.0], [4, 8, 16, 32], p_half, q_default)
    assert rep.converged
    assert rep.b_estimate == pytest.approx(1.0, abs=5e-2)
    assert rep.b_spread <= 5e-2
    assert rep.monotone_ok
    assert rep.liminf_bound_M >= 0.9
    assert rep.N_threshold == 6.0
    for key, b in rep.per_probe.items():
        assert b == pytest.approx(1.0, abs=5e-2)


def test_defect_subcritical_phi_family(p_half, q_default):
    rep = defect_estimate(lambda j: phi_family(j, 0.5, 1.0), zero(1),
                          PROBES[:3], [6.0, 12.0], [8, 16, 32], p_half,
                          q_default, inner_tol=5e-2, outer_tol=5e-2)
    assert rep.converged
    assert rep.b_estimate == pytest.approx(0.0, abs=1e-2)


def test_defect_consistency_with_operator_limits(p_half, q_default):
    # master(limit) - lim_j master(u_j) reproduces the estimated defect
    rep = defect_estimate(lambda j: w_family(j, 1.0, 0.5), zero(1),
                          PROBES[:3], [6.0, 12.0, 24.0], [4, 8, 16, 32],
                          p_half, q_default)
    for x, t in PROBES[:3]:
        mj = master_op(w_family(32, 1.0, 0.5), (x, t), p_half, q_default).value
        assert 0.0 - mj == pytest.approx(rep.b_estimate, abs=5e-2)


def test_defect_subtracts_the_limit_tail(p_half, q_default):
    # b = F(u_J, R) - F(limit, R): a family equal to its limit has no defect,
    # even where its own tail F is not 0
    u = phi_family(6, 0.5, 1.0)
    rep = defect_estimate(lambda j: u, u, PROBES, [6.0, 12.0], [2, 4],
                          p_half, q_default)
    assert rep.converged
    assert rep.b_estimate == 0.0
    assert all(F > 0.0 for (_, _, _, F, _) in rep.samples)


def test_defect_rejects_bad_schedules(p_half, q_default):
    with pytest.raises(ValueError, match="increasing"):
        defect_estimate(lambda j: zero(1), zero(1), PROBES[:1], [24.0, 12.0],
                        [2, 4], p_half, q_default)
    with pytest.raises(ValueError, match="R > 3"):
        defect_estimate(lambda j: zero(1), zero(1), [(np.array([4.0]), 0.0)],
                        [6.0, 12.0], [2, 4], p_half, q_default)


def test_defect_flags_unconverged_inner_limit(p_half, q_default):
    # a family still moving at the largest index must refuse to report b
    rep = defect_estimate(lambda j: w_family(j, 1.0, 0.5), zero(1),
                          PROBES[:1], [6.0, 12.0], [2, 4], p_half, q_default,
                          inner_tol=1e-6)
    assert not rep.converged
    assert math.isnan(rep.b_estimate)


def test_pool_map_workers_keep_the_callers_error_state():
    # a worker thread starts in numpy's default state, where overflow warns
    with np.errstate(over="ignore"):
        out = pool_map(np.exp, [1000.0, 1.0], jobs=2)
    assert out == [math.inf, math.e]
