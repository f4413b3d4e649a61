import math

import numpy as np
import pytest
from scipy.special import gamma

from masterop import (
    C0_constant,
    C1_constant,
    QuadSpec,
    constant,
    fractional_laplacian,
    marchaud,
    master_op,
    phi_family,
    psi_family,
    rescale,
    standard_bump,
    w_family,
)
from masterop.families import (
    eta_marchaud_closed_form,
    eta_profile,
    surface_measure,
)
from masterop.handles import SupportBox, from_callable


# --- bump profile ------------------------------------------------------------

def test_bump_center_value():
    assert standard_bump(2.5) == pytest.approx(math.exp(-4.0), rel=1e-14)
    assert standard_bump(2.5) == pytest.approx(0.0183156, rel=1e-5)


@pytest.mark.parametrize("r", [2.0, 3.0, 5.0, 0.0, -1.0])
def test_bump_vanishes_off_support(r):
    assert standard_bump(r) == 0.0


def test_bump_range_and_vectorization():
    rr = np.linspace(1.5, 3.5, 401)
    vals = standard_bump(rr)
    assert vals.shape == rr.shape
    assert np.all(vals >= 0.0) and np.all(vals < 1.0)
    assert np.max(vals) == pytest.approx(math.exp(-4.0), rel=1e-12)


# --- constants ----------------------------------------------------------------

def test_surface_measures():
    assert surface_measure(1) == pytest.approx(2.0, rel=1e-14)
    assert surface_measure(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert surface_measure(3) == pytest.approx(4.0 * math.pi, rel=1e-14)


def test_C0_frozen_values():
    # independent 30-digit quadrature oracle values
    assert C0_constant(0.5, 1, "raw") == pytest.approx(
        0.00227046396382486562887777528087, rel=1e-10)
    assert C0_constant(0.25, 1, "raw") == pytest.approx(
        0.00357746618733093253186166046479, rel=1e-10)
    assert C0_constant(0.75, 1, "raw") == pytest.approx(
        0.00144208606358615618665844898238, rel=1e-10)


def test_C0_positive_and_decreasing_in_s():
    vals = [C0_constant(s, 1, "raw") for s in (0.25, 0.5, 0.75)]
    assert all(v > 0 for v in vals)
    assert vals[0] > vals[1] > vals[2]


def test_C0_normalized_mode_factor(p_half):
    raw = C0_constant(0.5, 1, "raw")
    norm = C0_constant(0.5, 1, "normalized")
    assert norm == pytest.approx(raw * p_half.C_ns_lap, rel=1e-13)


def test_C1_frozen_value(p_half):
    # C_s * int_2^3 bump(r) r^{-1-s} dr at s = 1/2, 30-digit oracle
    want = 0.28209479177387814 * 0.0017887330936654662659308302324
    assert C1_constant(0.5) == pytest.approx(want, rel=1e-10)
    assert C1_constant(0.5, "raw") == pytest.approx(
        0.0017887330936654662659308302324, rel=1e-10)
    assert C1_constant(0.5) > 0


# --- spatial family ------------------------------------------------------------

def test_phi_support_and_values():
    u = phi_family(1, 1.0, 1.0)
    assert u.at(np.array([2.5]), 0.0) == pytest.approx(standard_bump(2.5), rel=1e-14)
    assert u.at(np.array([1.9]), 3.0) == 0.0
    assert u.support.radius == 3.0


def test_phi_scaling_and_sup():
    j, alpha, beta = 4, 1.5, 0.5
    u = phi_family(j, alpha, beta)
    assert u.support.radius == 3.0 * j ** beta
    peak = j ** alpha * math.exp(-4.0)
    assert u.at(np.array([2.5 * j ** beta]), 0.0) == pytest.approx(peak, rel=1e-12)
    rr = np.linspace(0, u.support.radius, 2001)[:, None]
    sup = float(np.max(u(rr, np.zeros(len(rr)))))
    assert sup <= peak * (1 + 1e-12)
    assert sup == pytest.approx(peak, rel=1e-3)
    assert u.at(np.array([1.9 * j ** beta]), 0.0) == 0.0


def test_phi_validation():
    with pytest.raises(ValueError):
        phi_family(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        phi_family(2, -1.0, 1.0)


# --- temporal family -----------------------------------------------------------

def test_psi_values():
    u = psi_family(1, 1.0, 1.0)
    assert u.at(np.zeros(1), 1.0) == 0.0
    assert u.at(np.zeros(1), -2.5) == pytest.approx(standard_bump(2.5), rel=1e-14)
    j, alpha, beta = 3, 0.5, 1.0
    uj = psi_family(j, alpha, beta)
    assert uj.at(np.zeros(1), -2.5 * j ** beta) == pytest.approx(
        j ** alpha * standard_bump(2.5), rel=1e-13)
    assert uj.support.t_hi == -2.0 * j ** beta


def test_psi_marchaud_limit(p_half, q_default):
    # the critically-scaled exponent gives exactly -C1 at t = 0
    want = -C1_constant(0.5)
    vals = [marchaud(psi_family(j, 0.5, 1.0), 0.0, p_half, q_default).value
            for j in (2, 4, 8)]
    for v in vals:
        assert v == pytest.approx(want, rel=1e-6)
    assert all(v < 0 for v in vals)


# --- eta and the coupled family --------------------------------------------------

def test_eta_profile():
    assert eta_profile(-3.0) == 1.0
    assert eta_profile(2.0) == 5.0


def test_eta_marchaud_closed_form(p_half, q_default):
    # d_t^s (t_+)^2 = Gamma(3)/Gamma(3-s) (t_+)^{2-s}; scaled copies follow
    s, j, gam = 0.5, 4, 1.0
    jg = float(j) ** (-gam)
    u = from_callable(lambda pts, tt: eta_profile(jg * tt), 1,
                      support=SupportBox(radius=math.inf, t_lo=-math.inf),
                      growth="forward-polynomial", smoothness="c1t",
                      time_kinks=(0.0,))
    # the constant part differentiates to zero; only (jg t)_+^2 contributes
    for t in (0.5, 2.0):
        got = marchaud(u, t, p_half, q_default)
        want = float(eta_marchaud_closed_form(t, s)) * j ** (-2 * gam)
        assert want == pytest.approx(
            gamma(3.0) / gamma(3.0 - s) * j ** (-2 * gam) * t ** (2.0 - s))
        assert got.value == pytest.approx(want, rel=1e-3)


def test_w_family_structure():
    s = 0.5
    w8 = w_family(8, 1.0, s)
    C0 = C0_constant(s, 1, "normalized")
    assert w8.at(np.array([10.0]), 5.0) == 0.0          # inside the hole
    x = np.array([20.0])
    assert w8.at(x, -3.0) == pytest.approx(
        8.0 ** (2 * s) * standard_bump(20.0 / 8.0) / C0, rel=1e-12)
    assert w8.at(x, -100.0) == w8.at(x, -3.0)           # flat in the past
    assert w8.support.radius == 24.0
    vals = w8(np.array([[20.0], [20.0]]), np.array([0.0, 8.0]))
    assert vals[1] == pytest.approx(vals[0] * 2.0, rel=1e-12)  # eta(1) = 2


def test_w_family_constraint():
    with pytest.raises(ValueError, match="gamma > s"):
        w_family(8, 0.4, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_family_parameters_must_be_finite(bad):
    for make in (lambda: phi_family(2, bad, 1.0), lambda: phi_family(2, 1.0, bad),
                 lambda: psi_family(2, bad, 1.0), lambda: psi_family(2, 1.0, bad)):
        with pytest.raises(ValueError, match="finite, positive alpha, beta"):
            make()
    with pytest.raises(ValueError, match="gamma > s"):
        w_family(8, bad, 0.5)


def test_w_family_master_limit(p_half, q_default):
    got = master_op(w_family(16, 1.0, 0.5), (np.zeros(1), 0.0), p_half, q_default)
    assert got.value == pytest.approx(-1.0, abs=5e-2)


def test_w_local_uniform_convergence_to_zero():
    # on any fixed parabolic box the family vanishes once 2 j exceeds the radius
    K = 10.0
    xs = np.linspace(-K, K, 101)[:, None]
    tt = np.linspace(-K * K, K * K, 41)
    for j in (8, 16):
        w = w_family(j, 1.0, 0.5)
        vals = [np.max(np.abs(w(xs, np.full(len(xs), t)))) for t in tt]
        assert max(vals) == 0.0


def test_w_family_sandwich(p_half, q_default):
    # the operator value sits between eta_j(t) flap(phi_j)(x) / C0 and that
    # plus the time-derivative cross bound, all computed from module pieces
    s, j, gam = 0.5, 8, 1.0
    C0 = C0_constant(s, 1, "normalized")
    x, t = np.array([1.0]), 1.0
    w = w_family(j, gam, s)
    got = master_op(w, (x, t), p_half, q_default).value
    phi = phi_family(j, 2 * s, 1.0)
    flap_val = fractional_laplacian(phi, x, p_half, q_default).value
    eta_t = float(eta_profile(j ** (-gam) * t))
    lower = eta_t * flap_val / C0
    sup_phi = j ** (2 * s) * math.exp(-4.0)
    cross = sup_phi * gamma(3.0) / gamma(3.0 - s) * j ** (-2 * gam) * t ** (2 - s)
    upper = lower + cross / C0
    assert lower - 1e-4 <= got <= upper + 1e-4


# --- rescaling -----------------------------------------------------------------

def test_rescale_identity(p_half):
    u = w_family(4, 1.0, 0.5)
    v = rescale(u, 1.0, 1.0, np.zeros(1), 0.0)
    pts = np.array([[9.0], [10.0]])
    tt = np.array([0.5, -2.0])
    assert np.allclose(v(pts, tt), u(pts, tt))


def test_rescale_point_value():
    u = w_family(4, 1.0, 0.5)
    Mk, lam, xb, tb = 2.0, 3.0, np.array([9.0]), -1.0
    v = rescale(u, Mk, lam, xb, tb)
    assert v.at(np.zeros(1), 0.0) == pytest.approx(u.at(xb, tb) / Mk, rel=1e-14)


def test_rescale_of_a_constant_is_a_constant(p_half):
    v = rescale(constant(2.0), 2.0, 1.5, 0.0, 0.0)
    assert v.constant_value == 1.0
    res = master_op(v, (np.zeros(1), 0.0), p_half, QuadSpec(horizon=10.0))
    assert res.value == 0.0 and res.err_estimate == 0.0
    assert res.nodes_used == 1 and not res.truncation_flag


def test_rescale_support_parabolic():
    lam = 4.0
    u = from_callable(
        lambda pts, tt: ((np.abs(pts[:, 0]) <= lam) & (np.abs(tt) <= lam * lam))
        .astype(float),
        1, support=SupportBox(radius=lam, t_lo=-lam * lam, t_hi=lam * lam))
    v = rescale(u, 1.0, lam, np.zeros(1), 0.0)
    assert v.support.radius == pytest.approx(1.0)
    assert v.support.t_lo == pytest.approx(-1.0)
    assert v.support.t_hi == pytest.approx(1.0)
    assert v.at(np.array([0.5]), 0.5) == 1.0
    assert v.at(np.array([1.5]), 0.0) == 0.0


# --- the dichotomy -------------------------------------------------------------

def test_dichotomy_critical(p_half, q_default):
    C0 = C0_constant(0.5, 1, "normalized")
    vals = [fractional_laplacian(phi_family(j, 1.0, 1.0), np.zeros(1),
                                 p_half, q_default).value
            for j in (2, 4, 8, 16)]
    assert abs(vals[-1] + C0) <= 0.02 * C0
    assert abs(vals[-2] - vals[-1]) <= 0.02 * C0


def test_dichotomy_subcritical(p_half, q_default):
    vals = [fractional_laplacian(phi_family(j, 0.5, 1.0), np.zeros(1),
                                 p_half, q_default).value
            for j in (2, 4, 8, 16)]
    assert abs(vals[-1]) <= 1e-3
    assert abs(vals[-1]) < abs(vals[0])


def test_raw_mode_consistency(q_default):
    # in raw mode the constant-1 singular integral pairs with the raw C0
    from masterop import kernel_constants
    from masterop.kernel import RAW
    p_raw = kernel_constants(1, 0.5, RAW)
    got = fractional_laplacian(phi_family(16, 1.0, 1.0), np.zeros(1),
                               p_raw, q_default).value
    assert got == pytest.approx(-C0_constant(0.5, 1, "raw"), rel=1e-6)
