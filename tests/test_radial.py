"""The declared radial property: its propagation, the Funk-Hecke shell path,
the 1-D rule of the Gauss-Hermite difference panels and the closed-form
angular averages they rely on."""
import dataclasses
import math

import numpy as np
import pytest
from scipy.special import i0e as scipy_i0e

from masterop import (
    QuadResult,
    QuadSpec,
    constant,
    kernel_constants,
    master_op,
    phi_family,
    psi_family,
    rescale,
    tail_functional,
    w_family,
    zero,
)
from masterop.funcdsl import parse, to_handle
from masterop import quadrature
from masterop.handles import GROWTH_BOUNDED, combine, from_callable, shifted
from masterop.quadrature import (
    _GH_CAP,
    _GL_HI,
    _PIECES,
    _I0E_SWITCH,
    MAX_GH_ORDER,
    _on_axis,
    _shell_panels,
    angular_rule,
    gauss_hermite_nodes,
    gl_panel,
    i0e,
    radial_nodes,
    shell_rule,
    spatial_average,
    sphere_average,
    window_uM_integral,
)


# --- propagation of the declaration --------------------------------------------

def test_families_and_constants_are_radial():
    assert phi_family(4, 1.0, 1.0, dim=2).radial
    assert w_family(4, 1.0, 0.5, n=3).radial
    assert constant(2.0, 2).radial and zero(3).radial
    assert not psi_family(4, 1.0, 1.0).radial
    assert not from_callable(lambda p, t: t, 1).radial


def test_shifted_keeps_radial_only_at_the_origin():
    w = w_family(4, 1.0, 0.5, n=2)
    assert shifted(w, np.zeros(2), 1.5).radial
    assert not shifted(w, np.array([0.0, 0.3]), 0.0).radial


def test_rescale_keeps_radial_only_without_offset():
    w = w_family(4, 1.0, 0.5, n=2)
    assert rescale(w, 2.0, 3.0, np.zeros(2), -1.0).radial
    assert not rescale(w, 2.0, 3.0, np.array([1.0, 0.0]), 0.0).radial


def test_combine_is_radial_only_when_every_term_is():
    w = w_family(4, 1.0, 0.5)
    phi = phi_family(4, 1.0, 1.0)
    assert combine([1.0, -2.0], [w, phi]).radial
    assert not combine([1.0, 1.0], [w, psi_family(4, 1.0, 1.0)]).radial


def test_to_handle_family_atom_inherits_radial():
    assert to_handle(parse("w(8,1)"), 2, s=0.5).radial
    assert to_handle(parse("phi(4,1,1)"), 1, growth="bounded").radial
    assert not to_handle(parse("psi(4,1,1)"), 1).radial
    assert not to_handle(parse("2*phi(4,1,1)"), 1).radial


# --- rules ---------------------------------------------------------------------

@pytest.mark.parametrize("r_lo, r_hi, a_ref", [
    (0.0, 6.0, 0.25), (6.0, 48.0, 1e-3), (2.0, 2.5, 10.0), (0.0, 1.0, 1e-310)])
def test_radial_nodes_match_the_per_panel_loop(r_lo, r_hi, a_ref):
    width = r_hi - r_lo
    npan = math.ceil(width / max(min(math.sqrt(a_ref), width / 24.0), width / 96.0))
    assert _shell_panels(width, np.array([a_ref])).tolist() == [npan]
    edges = np.linspace(r_lo, r_hi, npan + 1)
    ref = [gl_panel(edges[i], edges[i + 1], _GL_HI) for i in range(npan)]
    rr, rw = radial_nodes(r_lo, r_hi, npan)
    assert len(rr) == npan * _GL_HI
    assert np.array_equal(rr, np.concatenate([r for r, _ in ref]))
    assert np.array_equal(rw, np.concatenate([w for _, w in ref]))
    pts, ww = shell_rule(2, r_lo, r_hi, npan, 12)
    assert pts.shape == (len(rr) * 12, 2)
    assert np.sum(ww) == pytest.approx(math.pi * (r_hi ** 2 - r_lo ** 2), rel=1e-12)


def test_i0e_against_scipy_on_both_branches():
    k = np.concatenate([np.linspace(0.0, 30.0, 3001), np.geomspace(30.0, 1e4, 4000),
                        _I0E_SWITCH * (1.0 + np.linspace(-1e-3, 1e-3, 21))])
    ref = scipy_i0e(k)
    assert np.max(np.abs(i0e(k) / ref - 1.0)) <= 1e-14
    assert i0e(0.0) == 1.0


def test_i0e_at_its_edges():
    # piece edges of the table in y = k / (k + 8), each +- 1 ulp, and both ends
    y = np.arange(1, _PIECES) / _PIECES
    edge = 8.0 * y / (1.0 - y)
    k = np.concatenate([edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf),
                        [0.0, 5e-324, 1e-300, 1e-8, 1e16, 1e300, np.finfo(float).max]])
    assert np.max(np.abs(i0e(k) / scipy_i0e(k) - 1.0)) <= 1e-14
    assert i0e(0.0) == 1.0 and i0e(np.inf) == 0.0
    assert np.shape(i0e(2.0)) == () and np.shape(i0e(np.array(2.0))) == ()
    grid = np.array([[0.0, 1.0, 2.0], [3e2, 6e2, np.inf]])
    assert i0e(grid).shape == grid.shape
    assert np.array_equal(i0e(grid).ravel(), i0e(grid.ravel()))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_average_limits(n):
    sphere = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[n]
    k = np.array([0.0, 1e-12, 1e-9, 1e-8, 2e-8, 1e-6])
    # e^{-k} int exp(k theta.e) = |S^{n-1}| (1 - k + O(k^2)) for every n
    assert np.allclose(sphere_average(n, k), sphere * (1.0 - k), rtol=1e-11, atol=0)
    big = sphere_average(n, np.array([1e3, 1e6]))
    assert np.all(np.isfinite(big)) and np.all(big > 0)


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_average_matches_angular_rule(n):
    dirs, aw = angular_rule(n, 64)
    for k in (0.3, 4.0, 25.0):
        ref = float(np.exp(k * dirs[:, 0] - k) @ aw)
        assert float(sphere_average(n, np.array(k))) == pytest.approx(ref, rel=1e-12)


# --- radial path against the angular path ---------------------------------------

def _both(u, fn):
    """fn on u and on u with the angular path forced."""
    return fn(u), fn(dataclasses.replace(u, radial=False))


def _agree(n, rad, ang):
    (v1, e1), (v2, e2) = rad, ang
    if n == 1:
        assert v1 == pytest.approx(v2, rel=1e-14, abs=1e-300)
    else:
        assert abs(v1 - v2) <= e1 + e2


@pytest.mark.parametrize("rho", [0.0, 0.7])
@pytest.mark.parametrize("n, j", [(1, 4), (2, 4), (3, 2)])
def test_tail_functional_radial_matches_angular(n, j, rho):
    p = kernel_constants(n, 0.5)
    at = (np.eye(n)[0] * rho, 0.1)
    rad, ang = _both(w_family(j, 1.0, 0.5, n=n),
                     lambda u: tail_functional(u, at, 6.0, p, QuadSpec()))
    assert rad.value > 0.0
    assert rad.nodes_used < ang.nodes_used
    _agree(n, (rad.value, rad.err_estimate), (ang.value, ang.err_estimate))


@pytest.mark.parametrize("rho", [0.0, 0.7])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r_lo, r_hi", [(4.0, 6.0), (5.0, None)])
def test_window_integral_radial_matches_angular(n, rho, r_lo, r_hi):
    p = kernel_constants(n, 0.5)
    at = (np.eye(n)[0] * rho, 0.1)
    rad, ang = _both(w_family(2, 1.0, 0.5, n=n),
                     lambda u: window_uM_integral(u, at, p, QuadSpec(), 0.5, 4.0,
                                                  r_lo=r_lo, r_hi=r_hi))
    assert rad.value > 0.0
    _agree(n, (rad.value, rad.err_estimate), (ang.value, ang.err_estimate))


def test_window_beyond_a_ball_stops_at_the_support_radius():
    # the support 2 < |y| < 3 of w_1 lies outside the ball r_lo = 1, so the
    # integral beyond the ball equals the one over the shell (0, 3)
    p = kernel_constants(3, 0.5)
    w, at = w_family(1, 1.0, 0.5, n=3), (np.zeros(3), 0.1)
    got = window_uM_integral(w, at, p, QuadSpec(), 0.5, 4.0, r_lo=1.0)
    shell = window_uM_integral(w, at, p, QuadSpec(), 0.5, 4.0, r_lo=0.0, r_hi=3.0)
    assert abs(got.value - shell.value) <= 1e-6 and got.err_estimate < 1e-6
    assert window_uM_integral(w, at, p, QuadSpec(), 0.5, 4.0, r_lo=3.0) == QuadResult(0.0, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tail_of_w_at_origin_is_one(n):
    # for R <= 2j the support of w_j lies outside Q_R, and at (0, 0) the tail is
    # C_{n,s} int phi_j(y) |y|^{-n-2s} dy / C0 = 1 exactly (normalized mode)
    p = kernel_constants(n, 0.5)
    F = tail_functional(w_family(16, 1.0, 0.5, n=n), (np.zeros(n), 0.0), 24.0,
                        p, QuadSpec())
    assert F.err_estimate < 1e-5
    assert abs(F.value - 1.0) <= F.err_estimate


# --- the radial body of the Gauss-Hermite difference panels --------------------

def _radial_gaussian(n):
    """e^{0.3 t - |x|^2}, whose Gauss-Hermite average has a closed form."""
    return from_callable(lambda pts, tt: np.exp(0.3 * tt - np.sum(pts * pts, axis=-1)), n,
                         growth=GROWTH_BOUNDED, radial=True)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("rho, beta", [(0.0, 0.0), (0.4, 0.5), (0.4, 1.0), (0.4, 3.0),
                                       (2.0, 3.0)])
def test_radial_body_matches_the_closed_form(n, rho, beta):
    # beta = rho / (2 sqrt a) picks the centred (<= 1) or the shifted (> 1) form at n = 3;
    # sum W u = (pi / (1 + 4a))^{n/2} exp(0.3 (t0 - a) - rho^2 / (1 + 4a))
    a = 0.3 if beta == 0.0 else (rho / (2.0 * beta)) ** 2
    x0, t0 = np.eye(n)[0] * rho, 0.1
    exact = ((math.pi / (1.0 + 4.0 * a)) ** (n / 2.0)
             * math.exp(0.3 * (t0 - a) - rho ** 2 / (1.0 + 4.0 * a)))
    u = _radial_gaussian(n)
    radial = spatial_average(u, x0, t0, np.array([a]), MAX_GH_ORDER)[0]
    tensor = spatial_average(dataclasses.replace(u, radial=False), x0, t0, np.array([a]),
                             _GH_CAP[n])[0]
    assert radial == pytest.approx(exact, rel=1e-13)
    assert tensor == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_radial_body_is_exact_for_a_constant_at_every_order(n):
    # so the cancelling difference pi^{n/2} u0 - sum W u stays at its rounding
    avals = np.geomspace(1e-10, 100.0, 30)
    for order in range(1, MAX_GH_ORDER + 1):
        for rho in (0.0, 0.4, 2.0):
            got = spatial_average(constant(-2.5, n), np.eye(n)[0] * rho, 0.1, avals, order)
            assert np.allclose(got, -2.5 * math.pi ** (n / 2.0), rtol=1e-15, atol=0.0)


def _whole_rule_radial_sums(u, x0, t0, avals, order):
    """The n = 3 radial body on the whole Gauss-Hermite rule: a centred duration
    evaluates u at |c z| for z and -z alike."""
    rho = float(np.linalg.norm(x0))
    z, w = gauss_hermite_nodes(max(order, 2))
    a = np.ravel(avals)[:, None]
    c = 2.0 * np.sqrt(a)
    beta = rho / c
    rr = np.where(beta > 1.0, rho + c * z, c * z)
    k = 2.0 * np.minimum(beta, 1.0) * z
    sinhc = np.divide(np.sinh(k), k, out=np.ones_like(k), where=k != 0)
    v = w * np.where(beta > 1.0, rr, z * z * sinhc)
    vals = _on_axis(u, rr, t0 - a)
    return (math.pi ** 1.5 * np.sum(v * vals, axis=1) / np.sum(v, axis=1)).reshape(np.shape(avals))


def test_centred_radial_body_evaluates_each_radius_once(monkeypatch):
    # at x = 0 every duration is centred; its sum is even in z, so the half
    # z >= 0 with doubled weights gives the whole rule's value
    u, at, p = w_family(4, 1.0, 0.5, n=3), (np.zeros(3), 0.1), kernel_constants(3, 0.5)
    half = master_op(u, at, p, QuadSpec())
    monkeypatch.setattr(quadrature, "_radial_sums", _whole_rule_radial_sums)
    whole = master_op(u, at, p, QuadSpec())
    assert half.nodes_used < whole.nodes_used
    assert half.value == pytest.approx(whole.value, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("x", [0.0, 0.4, 2.0])
@pytest.mark.parametrize("make, q", [
    (lambda n: w_family(16, 1.0, 0.5, n=n), QuadSpec()),
    (_radial_gaussian, QuadSpec(horizon=60.0)),
], ids=["w16", "gaussian"])
@pytest.mark.parametrize("n", [2, 3])
def test_radial_body_from_gh_order_one_agrees_with_the_default(n, make, q, x):
    # the radial rules of orders 1 and 2 coincide, so the escalation starts at 2;
    # run from order 1, every panel closed on the crudest rule, off by 0.85 at
    # n = 3, x = 0 with a summed err_estimate of 4e-6
    p, at = kernel_constants(n, 0.5), (np.eye(n)[0] * x, 0.1)
    low = master_op(make(n), at, p, dataclasses.replace(q, gh_order=1))
    ref = master_op(make(n), at, p, q)
    assert abs(low.value - ref.value) <= low.err_estimate + ref.err_estimate


@pytest.mark.parametrize("x", [0.0, 0.4])
@pytest.mark.parametrize("make, q", [
    (lambda n: w_family(16, 1.0, 0.5, n=n), QuadSpec()),
    (_radial_gaussian, QuadSpec(horizon=60.0)),
], ids=["w16", "gaussian"])
@pytest.mark.parametrize("n", [2, 3])
def test_radial_and_tensor_bodies_agree_within_err_estimate(n, make, q, x):
    # at x = 0.4 the panels below a = 0.04 take the shifted form, those above the centred
    p = kernel_constants(n, 0.5)
    rad, ten = _both(make(n), lambda u: master_op(u, (np.eye(n)[0] * x, 0.1), p, q))
    assert rad.nodes_used < ten.nodes_used
    _agree(n, (rad.value, rad.err_estimate), (ten.value, ten.err_estimate))
