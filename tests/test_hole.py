"""The declared hole (``SupportBox.inner``): its validation and propagation, and
the one non-singular window that ``master_op`` and ``fractional_laplacian``
take at a point where u vanishes around it."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, gammainc, hyp2f1

from masterop import (
    QuadSpec,
    SupportBox,
    fractional_laplacian,
    from_callable,
    kernel_constants,
    master_op,
    phi_family,
    psi_family,
    rescale,
    spatial,
    w_family,
    zero,
)
from masterop.families import standard_bump
from masterop.funcdsl import parse, to_handle
from masterop.handles import combine, shifted

#: points of u one hole window evaluates: 96 K9 panels in r, none bisected
HOLE_NODES = 864


# --- validation and propagation of the declaration ----------------------------

@pytest.mark.parametrize("inner", [math.nan, -1.0, 3.5])
def test_inner_radius_outside_zero_to_radius_is_refused(inner):
    with pytest.raises(ValueError, match="inner radius"):
        SupportBox(radius=3.0, inner=inner)


def test_inner_radius_may_reach_the_radius():
    assert SupportBox(radius=3.0, inner=3.0).inner == 3.0
    assert SupportBox().inner == 0.0


def test_families_declare_their_annulus():
    assert phi_family(4, 1.0, 1.0, dim=2).support.inner == 8.0
    assert phi_family(4, 1.0, 0.5).support.inner == pytest.approx(4.0)
    assert w_family(16, 1.0, 0.5, n=3).support.inner == 32.0
    assert psi_family(4, 1.0, 1.0).support.inner == 0.0
    assert zero(2).support.inner == 0.0


def test_rescale_and_shifted_shrink_the_hole_by_the_offset():
    w = w_family(4, 1.0, 0.5, n=2)
    # v(x, t) = u(2 x + x_bar, 4 t) / 3 vanishes for 2 |x| + |x_bar| < 8
    assert rescale(w, 3.0, 2.0, np.zeros(2), 0.0).support.inner == 4.0
    assert rescale(w, 3.0, 2.0, np.array([3.0, 4.0]), 0.0).support.inner == 1.5
    assert rescale(w, 3.0, 2.0, np.array([30.0, 40.0]), 0.0).support.inner == 0.0
    assert shifted(w, np.array([0.0, 0.5]), 1.0).support.inner == 7.5


def test_combine_takes_the_smallest_hole():
    w4, w8 = w_family(4, 1.0, 0.5), w_family(8, 1.0, 0.5)
    assert combine([1.0, -2.0], [w4, w8]).support.inner == 8.0
    assert combine([1.0, 1.0], [w8, zero(1)]).support.inner == 0.0


def test_dsl_family_atom_inherits_the_hole():
    assert to_handle(parse("w(8,1)"), 2, s=0.5).support.inner == 16.0
    assert to_handle(parse("phi(4,1,1)"), 1, growth="bounded").support.inner == 8.0
    assert to_handle(parse("2*w(8,1)"), 2, s=0.5).support is None


def test_support_override_replaces_the_family_box_hole_and_all():
    # a box passed in place of a family's own promises only what it states: with
    # no hole in it, x = 0.2 takes the route of an undeclared hole, the difference
    # panels, and no window is taken on a promise the caller did not make
    p, at = kernel_constants(1, 0.5), (np.array([0.2]), -0.1)
    box = SupportBox(radius=12.0)
    u = to_handle(parse("w(4,1)"), 1, s=0.5, support=box)
    assert u.support == box
    assert master_op(u, at, p, QuadSpec()).nodes_used > HOLE_NODES
    assert master_op(w_family(4, 1.0, 0.5), at, p, QuadSpec()).nodes_used == HOLE_NODES
    kept = SupportBox(radius=12.0, inner=8.0)
    assert to_handle(parse("w(4,1)"), 1, s=0.5, support=kept).support == kept


# --- the hole's window against scipy -------------------------------------------

def _riesz(u, x, n, k):
    """int u(y, 0) |x - y|^{-2k} dy for a radial u on its support annulus, by scipy
    in r, with the sphere average of |x - y|^{-2k} in closed form."""
    rho = float(np.linalg.norm(x))
    sup = u.support

    def f(r):
        return u.at(np.eye(n)[0] * r, 0.0)

    if n == 1:
        def dens(r):
            return f(r) * ((r - rho) ** (-2 * k) + (r + rho) ** (-2 * k))
    elif n == 2:
        def dens(r):
            a = r * r + rho * rho
            return (2 * math.pi * r * f(r) * a ** -k
                    * hyp2f1(k / 2, k / 2 + 0.5, 1.0, (2 * r * rho / a) ** 2))
    else:
        def dens(r):
            # ((r - rho)^m - (r + rho)^m) / (4 r rho (k - 1)), m = 2 - 2k, without cancellation
            m = 2 - 2 * k
            diff = (r + rho) ** m * math.expm1(m * math.log1p(-2 * rho / (r + rho)))
            return 4 * math.pi * r * r * f(r) * diff / (4 * r * rho * (k - 1))
    return quad(dens, sup.inner, sup.radius, epsabs=0.0, epsrel=1e-13, limit=200)[0]


# ROADMAP item 15's cells: the difference panels missed the first by 7.6e-10
# (estimate 2.4e-11) and the second by 2.0e-8 (estimate 9.7e-12)
@pytest.mark.parametrize("n, j, s, x, t", [
    (1, 4, 0.717, [0.163], -0.493),
    (3, 4, 0.9, [0.1, 0.2, 0.1], -0.3),
    (1, 16, 0.5, [0.3], 0.2),
    (2, 8, 0.3, [0.2, -0.1], 0.4),
    (3, 16, 0.5, [0.3, 0.0, 0.0], 0.2),
])
def test_master_op_of_w_in_its_hole_matches_the_riesz_integral(n, j, s, x, t):
    # master_op = -c int_0^inf int u(y, t - a) a^{-1-k} e^{-|x-y|^2/4a} dy da, k = n/2 + s,
    # and u(., t - a) = u(., 0) for a >= t; at t > 0 the durations a < t hold under
    # e^{-(2j - |x|)^2 / 4t} < e^{-150} of it, so both are -c Gamma(k) 4^k int u |x-y|^{-2k}
    p, u, k = kernel_constants(n, s), w_family(j, 1.0, s, n=n), n / 2 + s
    res = master_op(u, (np.array(x), t), p, QuadSpec())
    exact = -p.constant * gamma(k) * 4 ** k * _riesz(u, x, n, k)
    assert abs(res.value - exact) <= res.err_estimate
    assert res.nodes_used == HOLE_NODES and not res.truncation_flag


@pytest.mark.parametrize("n, j, s, x", [
    (1, 4, 0.4, [0.2]),
    (2, 16, 0.7, [0.3, -0.4]),
    (3, 4, 0.25, [0.2, 0.0, 0.1]),
])
def test_fractional_laplacian_of_phi_in_its_hole_matches_the_riesz_integral(n, j, s, x):
    # (-Lap)^s u(x) = -C_{n,s} int u |x - y|^{-n-2s} dy where u vanishes around x
    p, u = kernel_constants(n, s), phi_family(j, 2.0 * s, 1.0, dim=n)
    res = fractional_laplacian(u, np.array(x), p, QuadSpec())
    exact = -p.C_ns_lap * _riesz(u, x, n, n / 2 + s)
    assert abs(res.value - exact) <= res.err_estimate
    assert res.nodes_used == HOLE_NODES and not res.truncation_flag


def _bump_until_zero():
    """bump(|y|) on 2 < |y| < 3 up to t = 0, then 0: a time hole after t_hi = 0."""
    return from_callable(lambda pts, tt: standard_bump(np.abs(pts[:, 0])) * (tt <= 0.0), 1,
                         support=SupportBox(radius=3.0, t_hi=0.0), frozen_until=0.0,
                         radial=True)


def test_master_op_in_a_time_hole_matches_the_incomplete_gamma_integral():
    # at t = 0.3 the point x = 2.5, inside the spatial support, sees u only at
    # durations a > t, where int_t^inf a^{-1-k} e^{-d^2/4a} da = Gamma(k) (4/d^2)^k P(k, d^2/4t)
    s, x, t = 0.6, 2.5, 0.3
    p, k, u = kernel_constants(1, s), 0.5 + s, _bump_until_zero()
    res = master_op(u, (np.array([x]), t), p, QuadSpec())

    def dens(r):
        return standard_bump(r) * sum(gamma(k) * (4 / d2) ** k * gammainc(k, d2 / (4 * t))
                                      for d2 in ((r - x) ** 2, (r + x) ** 2))

    exact = -p.constant * quad(dens, 2.0, 3.0, points=[x], epsabs=0.0, epsrel=1e-13,
                               limit=200)[0]
    assert abs(res.value - exact) <= res.err_estimate
    assert res.nodes_used == HOLE_NODES and not res.truncation_flag


def test_a_hole_beyond_an_explicit_horizon_is_flagged():
    # the time hole's window starts at a = 0.3, past the horizon
    res = master_op(_bump_until_zero(), (np.array([2.5]), 0.3), kernel_constants(1, 0.6),
                    QuadSpec(horizon=0.2))
    assert res.value == 0.0 and res.truncation_flag


def test_a_hole_without_a_finite_radius_takes_the_difference_panels():
    # its window would be a full-space one, of the fixed order-20 rule
    u = spatial(lambda pts: np.maximum(np.abs(pts[:, 0]) - 1.0, 0.0) ** 3
                * np.exp(-pts[:, 0] ** 2), support=SupportBox(inner=1.0))
    res = master_op(u, (np.array([0.2]), 0.0), kernel_constants(1, 0.5), QuadSpec())
    assert res.nodes_used > HOLE_NODES


def test_flap_takes_the_window_only_where_u_is_frozen_by_t_0():
    # v(x, t) = w_4(x, t + 1) is frozen only until t = -1, so v(., 0) is not v(., -a)
    # and the flap keeps its singular radial rule; v(., 0) is 1 + (1/4)^2 times w_4's
    p, x = kernel_constants(1, 0.5), np.array([0.2])
    w = w_family(4, 1.0, 0.5)
    late = shifted(w, np.zeros(1), -1.0)
    assert late.frozen_until == -1.0 and late.support.inner == 8.0
    res, ref = (fractional_laplacian(u, x, p, QuadSpec()) for u in (late, w))
    assert ref.nodes_used == HOLE_NODES != res.nodes_used
    assert abs(res.value - 1.0625 * ref.value) <= res.err_estimate + 1.0625 * ref.err_estimate
