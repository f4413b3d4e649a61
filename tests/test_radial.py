"""The declared radial property: its propagation, the Funk-Hecke shell path
and the closed-form angular averages it relies on."""
import dataclasses
import math

import numpy as np
import pytest
from scipy.special import i0e as scipy_i0e

from masterop import (
    QuadSpec,
    constant,
    kernel_constants,
    phi_family,
    psi_family,
    rescale,
    tail_functional,
    w_family,
    zero,
)
from masterop.funcdsl import parse, to_handle
from masterop.handles import combine, from_callable, shifted
from masterop.quadrature import (
    _I0E_SWITCH,
    angular_rule,
    gl_panel,
    i0e,
    radial_nodes,
    shell_rule,
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

@pytest.mark.parametrize("r_lo, r_hi, h, gl", [
    (0.0, 6.0, 0.25, 8), (6.0, 48.0, 1e-3, 8), (2.0, 2.5, 10.0, 5), (0.0, 1.0, 1e-310, 4)])
def test_radial_nodes_match_the_per_panel_loop(r_lo, r_hi, h, gl):
    npan = int(np.clip(math.ceil((r_hi - r_lo) / max(h, 1e-300)), 1, 96))
    edges = np.linspace(r_lo, r_hi, npan + 1)
    ref = [gl_panel(edges[i], edges[i + 1], gl) for i in range(npan)]
    rr, rw = radial_nodes(r_lo, r_hi, h, gl)
    assert np.array_equal(rr, np.concatenate([r for r, _ in ref]))
    assert np.array_equal(rw, np.concatenate([w for _, w in ref]))
    pts, ww = shell_rule(2, r_lo, r_hi, h, gl, 12)
    assert pts.shape == (len(rr) * 12, 2)
    assert np.sum(ww) == pytest.approx(math.pi * (r_hi ** 2 - r_lo ** 2), rel=1e-12)


def test_i0e_against_scipy_on_both_branches():
    k = np.concatenate([np.linspace(0.0, 30.0, 3001), np.geomspace(30.0, 1e4, 4000),
                        _I0E_SWITCH * (1.0 + np.linspace(-1e-3, 1e-3, 21))])
    ref = scipy_i0e(k)
    assert np.max(np.abs(i0e(k) / ref - 1.0)) <= 1e-14
    assert i0e(0.0) == 1.0


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
    assert rad[0] > 0.0
    _agree(n, rad[:2], ang[:2])


def test_window_beyond_a_ball_stops_at_the_support_radius():
    # the support 2 < |y| < 3 of w_1 lies outside the ball r_lo = 1, so the
    # integral beyond the ball equals the one over the shell (0, 3)
    p = kernel_constants(3, 0.5)
    w, at = w_family(1, 1.0, 0.5, n=3), (np.zeros(3), 0.1)
    got, err = window_uM_integral(w, at, p, QuadSpec(), 0.5, 4.0, r_lo=1.0)
    shell, _ = window_uM_integral(w, at, p, QuadSpec(), 0.5, 4.0, r_lo=0.0, r_hi=3.0)
    assert abs(got - shell) <= 1e-6 and err < 1e-6
    assert window_uM_integral(w, at, p, QuadSpec(), 0.5, 4.0, r_lo=3.0) == (0.0, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tail_of_w_at_origin_is_one(n):
    # for R <= 2j the support of w_j lies outside Q_R, and at (0, 0) the tail is
    # C_{n,s} int phi_j(y) |y|^{-n-2s} dy / C0 = 1 exactly (normalized mode)
    p = kernel_constants(n, 0.5)
    F = tail_functional(w_family(16, 1.0, 0.5, n=n), (np.zeros(n), 0.0), 24.0,
                        p, QuadSpec())
    assert F.err_estimate < 1e-5
    assert abs(F.value - 1.0) <= F.err_estimate
