import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gamma

from masterop import (
    C0_constant,
    QuadSpec,
    combine,
    constant,
    difference_decomposition,
    fractional_laplacian,
    from_callable,
    heat_limit_check,
    kernel_constants,
    marchaud,
    master_op,
    phi_family,
    psi_family,
    shifted,
    w_family,
    zero,
)
from masterop.families import C1_constant
from masterop.handles import (
    GROWTH_BOUNDED,
    GROWTH_DECAYING,
    SupportBox,
    spatial,
    temporal,
)
from masterop.quadrature import _POINT_BUDGET, angular_rule


def exp_cos(lam=1.0, xi=1.0):
    return from_callable(
        lambda pts, tt: np.exp(lam * tt) * np.cos(xi * pts[:, 0]), 1,
        growth=GROWTH_DECAYING)


def gauss_bump():
    return from_callable(
        lambda pts, tt: np.exp(-pts[:, 0] ** 2 - tt ** 2)
        * (np.abs(pts[:, 0]) < 5) * (np.abs(tt) < 5),
        1, support=SupportBox(radius=5.0, t_lo=-5.0, t_hi=5.0))


# --- master operator ---------------------------------------------------------

def test_master_constant_vanishes(p_half, q_default):
    res = master_op(constant(7.0, 1), (np.zeros(1), 0.0), p_half, q_default)
    assert abs(res.value) <= 1e-8


def test_master_symbol_sqrt2(p_half, q_horizon):
    at = (np.zeros(1), 0.0)
    res = master_op(exp_cos(), at, p_half, q_horizon)
    assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-3)
    assert res.value == pytest.approx(1.414214, rel=1e-4)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_master_symbol_identity_various_orders(s, q_horizon):
    p = kernel_constants(1, s)
    u = exp_cos()
    for at in [(np.zeros(1), 0.0), (np.array([0.4]), -0.3), (np.array([-0.7]), 0.5)]:
        res = master_op(u, at, p, q_horizon)
        want = 2.0 ** s * math.exp(at[1]) * math.cos(at[0][0])
        assert res.value == pytest.approx(want, rel=1e-3)


def test_master_reduces_to_fractional_laplacian(p_half, q_horizon):
    u = spatial(lambda pts: np.cos(pts[:, 0]), dim=1, growth=GROWTH_BOUNDED)
    m = master_op(u, (np.zeros(1), 0.0), p_half, q_horizon)
    f = fractional_laplacian(u, np.zeros(1), p_half, q_horizon)
    assert abs(m.value - f.value) <= 1e-4


def test_master_reduces_to_marchaud(p_half, q_horizon):
    u = temporal(lambda tt: np.exp(tt), dim=1, growth=GROWTH_DECAYING)
    m = master_op(u, (np.zeros(1), 0.0), p_half, q_horizon)
    r = marchaud(u, 0.0, p_half, q_horizon)
    assert abs(m.value - r.value) <= 1e-4


def test_master_on_temporal_bump_matches_marchaud(p_half, q_default):
    u = psi_family(4, 0.5, 1.0)
    m = master_op(u, (np.zeros(1), 0.0), p_half, q_default)
    r = marchaud(u, 0.0, p_half, q_default)
    assert not m.truncation_flag
    assert abs(m.value - r.value) <= 1e-4


def test_linearity(p_half, q_default):
    u, v = gauss_bump(), w_family(4, 1.0, 0.5)
    at = (np.array([0.5]), 0.3)
    lhs = master_op(combine([2.0, -3.0], [u, v]), at, p_half, q_default)
    ru = master_op(u, at, p_half, q_default)
    rv = master_op(v, at, p_half, q_default)
    tol = 3.0 * (lhs.err_estimate + 2 * ru.err_estimate + 3 * rv.err_estimate) + 1e-10
    assert abs(lhs.value - (2.0 * ru.value - 3.0 * rv.value)) <= tol


def test_translation_covariance(p_half, q_default):
    u = gauss_bump()
    x0, t0 = np.array([0.8]), -0.4
    v = shifted(u, x0, t0)
    at = (np.array([0.3]), 0.2)
    r1 = master_op(u, at, p_half, q_default)
    r2 = master_op(v, (at[0] + x0, at[1] + t0), p_half, q_default)
    assert r2.value == pytest.approx(r1.value, rel=1e-5, abs=1e-8)


def test_parabolic_scaling(q_horizon):
    # u_lam(x,t) = u(lam x, lam^2 t) gives master(u_lam) = lam^{2s} master(u)
    s = 0.5
    p = kernel_constants(1, s)
    lam = 1.5
    u = exp_cos()
    u_lam = from_callable(
        lambda pts, tt: np.exp(lam * lam * tt) * np.cos(lam * pts[:, 0]), 1,
        growth=GROWTH_DECAYING)
    x, t = np.array([0.3]), 0.1
    left = master_op(u_lam, (x, t), p, q_horizon).value
    right = lam ** (2 * s) * master_op(u, (lam * x, lam * lam * t), p, q_horizon).value
    assert left == pytest.approx(right, rel=1e-3)


# --- fractional Laplacian ----------------------------------------------------

def test_flap_constant(p_half, q_default):
    res = fractional_laplacian(constant(1.0, 1), np.zeros(1), p_half, q_default)
    assert abs(res.value) <= 1e-8


def test_flap_cos_symbol(p_half, q_horizon):
    u = spatial(lambda pts: np.cos(pts[:, 0]), dim=1, growth=GROWTH_BOUNDED)
    res = fractional_laplacian(u, np.zeros(1), p_half, q_horizon)
    assert res.value == pytest.approx(1.0, abs=1e-3)


def test_flap_phi_critical_limit(p_half, q_default):
    u = phi_family(16, 1.0, 1.0)
    res = fractional_laplacian(u, np.zeros(1), p_half, q_default)
    want = -p_half.C_ns_lap * C0_constant(0.5, 1, "raw")
    assert res.value == pytest.approx(want, rel=2e-2)


def _without_hole(u):
    """u with its declared hole stripped: at a point inside it, each operator then
    takes the route of an undeclared u (the singular radial rule, the difference panels)."""
    return replace(u, support=replace(u.support, inner=0.0))


def test_flap_master_route_cross_check(p_half, q_default):
    # x lies in phi_8's declared hole; master_op takes the difference panels
    # without the declaration, so the two routes stay independent
    u = phi_family(8, 1.0, 1.0)
    direct = fractional_laplacian(u, np.array([1.0]), p_half, q_default)
    via_master = master_op(_without_hole(u), (np.array([1.0]), 0.0), p_half, q_default)
    assert via_master.value == pytest.approx(direct.value, rel=1e-3, abs=1e-8)



def test_flap_holder_marking_gets_honest_error(p_half, q_default):
    # the small-r closure of a Hölder-marked function is a bound, not a fit
    u = phi_family(8, 1.0, 1.0)
    x = np.array([20.0])   # inside the support, the closure is not zero
    smooth = fractional_laplacian(u, x, p_half, q_default)
    holder = fractional_laplacian(replace(u, smoothness="holder", holder_eps=0.2),
                                  x, p_half, q_default)
    assert holder.err_estimate > 5 * smooth.err_estimate
    assert abs(holder.value - smooth.value) <= holder.err_estimate


@pytest.mark.parametrize("count", [16, 32])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_angular_rule_is_antipodally_symmetric(n, count):
    # the one-sided flap difference rests on it: -th is in the rule, with th's weight
    dirs, aw = angular_rule(n, count)
    gap = np.linalg.norm(dirs[:, None, :] + dirs[None, :, :], axis=-1)
    mirror = gap.argmin(axis=1)
    assert np.all(gap.min(axis=1) <= 1e-14)
    assert sorted(mirror) == list(range(len(dirs)))
    assert np.all(mirror != np.arange(len(dirs)))
    assert np.array_equal(aw[mirror], aw)


def _flap_calls(u, x, p, q):
    """fractional_laplacian's result and the points of each call of u's evaluator."""
    calls = []

    def record(pts, tt):
        calls.append(np.array(pts))
        return u.evaluator(pts, tt)

    return fractional_laplacian(replace(u, evaluator=record), x, p, q), calls


def _flap_points(u, x, p, q):
    """fractional_laplacian's result and every point it evaluated u at."""
    res, calls = _flap_calls(u, x, p, q)
    return res, np.vstack(calls)


@pytest.mark.parametrize("n, nodes", [(1, 774), (2, 6480), (3, 54144)])
def test_flap_evaluates_each_point_once(n, nodes):
    # u(x0 - r th) is u(x0 + r th') on the symmetric rule: no mirrored call
    x = np.zeros(n)
    x[0] = 0.2
    res, pts = _flap_points(_without_hole(phi_family(4, 0.8, 1.0, dim=n)), x,
                            kernel_constants(n, 0.4), QuadSpec())
    assert res.nodes_used == nodes
    assert len(np.unique(np.round(pts, 10), axis=0)) == len(pts)


def test_flap_evaluates_each_point_of_a_wave_once(q_horizon):
    u = spatial(lambda pts: np.cos(1.5 * pts[:, 0]), dim=2, growth=GROWTH_BOUNDED)
    _, pts = _flap_points(u, np.array([0.3, -0.2]), kernel_constants(2, 0.5), q_horizon)
    assert len(np.unique(np.round(pts, 10), axis=0)) == len(pts)


@pytest.mark.parametrize("case", ["wave-n2", "phi4-n3"])
def test_flap_calls_stay_within_the_point_budget(case, q_horizon):
    # a bisection level of the radial mesh is handed to u in blocks of at
    # most _POINT_BUDGET points, a row being the directions of one radius
    if case == "wave-n2":
        u = spatial(lambda pts: np.cos(1.5 * pts[:, 0]), dim=2, growth=GROWTH_BOUNDED)
        args = (np.array([0.3, -0.2]), kernel_constants(2, 0.5), q_horizon)
    else:
        u = _without_hole(phi_family(4, 0.8, 1.0, dim=3))
        args = (np.array([0.2, 0.0, 0.0]), kernel_constants(3, 0.4), QuadSpec())
    _, calls = _flap_calls(u, *args)
    sizes = [math.prod(pts.shape[:-1]) for pts in calls]
    assert 0 < max(sizes) <= _POINT_BUDGET
    assert sum(sizes) > _POINT_BUDGET

# --- Marchaud derivative -----------------------------------------------------

def test_marchaud_constant(p_half, q_default):
    assert abs(marchaud(constant(3.0, 1), 1.0, p_half, q_default).value) <= 1e-8


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("t", [0.0, 1.0])
def test_marchaud_exponential(s, t, q_horizon):
    p = kernel_constants(1, s)
    u = temporal(lambda tt: np.exp(tt), dim=1, growth=GROWTH_DECAYING)
    res = marchaud(u, t, p, q_horizon)
    assert res.value == pytest.approx(math.exp(t), rel=1e-4)


@pytest.mark.parametrize("s, err", [(0.1, 1e-3), (0.3, 2e-5)])
def test_marchaud_bounded_cosine(s, err):
    # D^s e^{it} = i^s e^{it}.  In v = 1/a the far past's f(v) = cos(t - 1/v)
    # oscillates without end at v = 0, where the closing product-rule panel
    # is exact only for a smooth f: the halving panels must leave it a small
    # share of the weight's mass (8 decades in r = v^s)
    u = temporal(np.cos, dim=1, growth=GROWTH_BOUNDED)
    res = marchaud(u, 0.3, kernel_constants(1, s), QuadSpec(horizon=1.0))
    assert abs(res.value - (1j ** s * np.exp(0.3j)).real) <= min(err, res.err_estimate)


def test_marchaud_forward_square(p_half, q_default):
    u = from_callable(lambda pts, tt: np.maximum(tt, 0.0) ** 2, 1,
                      support=SupportBox(radius=math.inf, t_lo=0.0),
                      smoothness="c1t", time_kinks=(0.0,))
    res = marchaud(u, 1.0, p_half, q_default)
    want = gamma(3.0) / gamma(2.5)
    assert res.value == pytest.approx(want, rel=1e-3)
    assert res.value == pytest.approx(1.504506, rel=1e-3)


def test_marchaud_psi_family_exact_at_origin(p_half, q_default):
    # at t = 0 the critically-scaled temporal bump gives exactly -C1 for every j
    want = -C1_constant(0.5)
    for j in (2, 8):
        u = psi_family(j, 0.5, 1.0)
        res = marchaud(u, 0.0, p_half, q_default)
        assert res.value == pytest.approx(want, rel=1e-6)


def test_marchaud_divergent_growth_rejected(p_half, q_default):
    u = temporal(lambda tt: tt * tt, dim=1)   # no envelope, no support
    with pytest.raises(ValueError, match="growth"):
        marchaud(u, 0.0, p_half, q_default)


# --- decomposition -----------------------------------------------------------

def test_decomposition_same_function(p_half, q_default):
    u = gauss_bump()
    d = difference_decomposition(u, u, (np.zeros(1), 0.0), 20.0, p_half, q_default)
    assert abs(d.I) <= 1e-6
    assert d.E == pytest.approx(-d.F, abs=1e-6)
    assert abs(d.I + d.E + d.F) <= 1e-6


@pytest.mark.parametrize("R", [20.0, 50.0])
def test_decomposition_identity(p_half, q_default, R):
    u = gauss_bump()
    ui = combine([1.0, 1.0], [u, phi_family(8, 1.0, 1.0)])
    at = (np.zeros(1), 0.0)
    d = difference_decomposition(u, ui, at, R, p_half, q_default)
    direct = master_op(u, at, p_half, q_default).value \
        - master_op(ui, at, p_half, q_default).value
    assert d.I + d.E + d.F == pytest.approx(direct, abs=max(d.err_estimate, 1e-7))


def test_decomposition_w_family_tail(p_half, q_default):
    # with u = 0 and ui = w_16 the tail term carries the whole defect
    d = difference_decomposition(zero(1), w_family(16, 1.0, 0.5),
                                 (np.zeros(1), 0.0), 50.0, p_half, q_default)
    assert 0.0 <= d.F <= 2.0
    assert d.I + d.E + d.F == pytest.approx(1.0, abs=5e-2)


def test_decomposition_interior_shrinks_with_family_index(p_half, q_default):
    u = gauss_bump()
    at = (np.zeros(1), 0.0)
    R = 20.0
    I_vals = []
    for j in (4, 8, 16):
        ui = combine([1.0, 1.0], [u, phi_family(j, 0.5, 1.0)])
        d = difference_decomposition(u, ui, at, R, p_half, q_default)
        I_vals.append(abs(d.I))
    assert I_vals[0] > I_vals[1] > I_vals[2]
    # once the bump leaves B_R the interior difference vanishes identically
    assert I_vals[-1] <= 1e-6


def test_decomposition_precondition(p_half, q_default):
    with pytest.raises(ValueError, match="R > 3"):
        difference_decomposition(gauss_bump(), zero(1), (np.array([8.0]), 0.0),
                                 20.0, p_half, q_default)


# --- heat limit --------------------------------------------------------------

def test_heat_limit_trend(p_half, q_horizon):
    rows, classical = heat_limit_check(exp_cos(), (np.zeros(1), 0.0),
                                       [0.9, 0.95, 0.99], p_half, q_horizon)
    assert classical == pytest.approx(2.0, abs=1e-5)
    assert rows[0][1] == pytest.approx(2.0 ** 0.9, rel=1e-3)
    gaps = [abs(v - classical) for _, v in rows]
    assert gaps[0] > gaps[1] > gaps[2]


def test_heat_limit_constant(p_half, q_default):
    rows, classical = heat_limit_check(constant(4.0, 1), (np.zeros(1), 0.0),
                                       [0.5, 0.9], p_half, q_default)
    assert all(abs(v) <= 1e-8 for _, v in rows)
    assert abs(classical) <= 1e-6
