import dataclasses
import math

import numpy as np
import pytest
from scipy.special import gamma

from masterop import (
    QuadSpec,
    constant,
    fractional_laplacian,
    from_callable,
    kernel_constants,
    marchaud,
    master_op,
    phi_family,
    psi_family,
    tail_functional,
    w_family,
)
from masterop.handles import (
    GROWTH_BOUNDED,
    GROWTH_DECAYING,
    SupportBox,
    spatial,
    temporal,
)
from masterop.quadrature import (
    _gh_tensor,
    gauss_hermite_nodes,
    graded_time_mesh,
    integrate_difference,
    slab_mass,
    split_panels,
    window_uM_integral,
)


# --- Gauss-Hermite rule -----------------------------------------------------

def test_gh_order_one():
    z, w = gauss_hermite_nodes(1)
    assert z[0] == pytest.approx(0.0, abs=1e-15)
    assert w[0] == pytest.approx(math.sqrt(math.pi), rel=1e-15)


def test_gh_order_two():
    z, w = gauss_hermite_nodes(2)
    assert sorted(z) == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], rel=1e-14)
    assert w == pytest.approx([math.sqrt(math.pi) / 2] * 2, rel=1e-14)


@pytest.mark.parametrize("order", [1, 2, 5, 20, 64, 200])
def test_gh_weights_sum(order):
    _, w = gauss_hermite_nodes(order)
    assert np.sum(w) == pytest.approx(math.sqrt(math.pi), abs=1e-12)


@pytest.mark.parametrize("order", [2, 6, 13, 20])
def test_gh_polynomial_exactness(order):
    z, w = gauss_hermite_nodes(order)
    for k in range(2 * order):
        got = float(np.dot(w, z ** k))
        want = 0.0 if k % 2 else gamma((k + 1) / 2.0)
        # 1e-12 relative to the absolute moment, the scale of the summands
        scale = max(1.0, gamma((k + 1) / 2.0))
        assert got == pytest.approx(want, abs=1e-12 * scale)


def test_gh_order_cap():
    with pytest.raises(ValueError):
        gauss_hermite_nodes(201)
    with pytest.raises(ValueError):
        QuadSpec(gh_order=201)


def test_gh_tensor_weight_product():
    Z, W = _gh_tensor(6, 3)
    assert Z.shape == (216, 3)
    assert np.sum(W) == pytest.approx(math.pi ** 1.5, rel=1e-13)


# --- graded time mesh -------------------------------------------------------

def test_mesh_geometric_structure():
    panels = graded_time_mesh(1.0, 0.5, 2 ** -10)
    assert panels[0] == (0.5, 1.0)
    assert len(panels) == 10
    for (lo, hi), (lo2, hi2) in zip(panels[:-1], panels[1:]):
        assert hi2 == pytest.approx(lo, rel=1e-15)   # no gaps, descending
        assert lo2 == pytest.approx(0.5 * hi2, rel=1e-15)


@pytest.mark.parametrize("horizon,grading,a_min", [
    (1.0, 0.5, 0.2), (100.0, 0.25, 1e-6), (7.0, 0.7, 0.003),
])
def test_mesh_count_and_coverage(horizon, grading, a_min):
    panels = graded_time_mesh(horizon, grading, a_min)
    want = math.ceil(math.log(horizon / a_min) / math.log(1.0 / grading) - 1e-9)
    assert len(panels) == want
    assert panels[0][1] == horizon
    lo_edges = [lo for lo, hi in panels]
    assert min(lo_edges) <= a_min * (1 + 1e-9)
    union_hi = sorted(hi for lo, hi in panels)
    union_lo = sorted(lo for lo, hi in panels)
    for a, b in zip(union_hi[:-1], union_lo[1:]):
        assert a == pytest.approx(b, rel=1e-15)


@pytest.mark.parametrize("bad", [
    dict(horizon=1.0, grading=0.5, a_min=2.0),
    dict(horizon=1.0, grading=1.5, a_min=0.1),
    dict(horizon=1.0, grading=0.0, a_min=0.1),
    dict(horizon=-1.0, grading=0.5, a_min=0.1),
])
def test_mesh_degenerate_parameters(bad):
    with pytest.raises(ValueError):
        graded_time_mesh(**bad)


def test_split_panels_inserts_cuts():
    panels = [(1.0, 2.0), (2.0, 4.0)]
    out = split_panels(panels, [1.5, 3.0, 9.0])
    assert (1.0, 1.5) in out and (1.5, 2.0) in out
    assert (2.0, 3.0) in out and (3.0, 4.0) in out


# --- the difference integral ------------------------------------------------

def test_constant_function_is_annihilated(p_half, q_default):
    res = integrate_difference(constant(7.0, 1), (np.zeros(1), 0.0), p_half, q_default)
    assert abs(res.value) <= 1e-8
    assert not res.truncation_flag


def test_cos_symbol_value(p_half, q_horizon):
    u = spatial(lambda pts: np.cos(pts[:, 0]), dim=1, growth=GROWTH_BOUNDED)
    res = integrate_difference(u, (np.zeros(1), 0.0), p_half, q_horizon)
    assert res.value == pytest.approx(1.0, abs=1e-3)
    assert res.truncation_flag  # no support box was declared


def test_requires_horizon_without_support(p_half, q_default):
    u = spatial(lambda pts: np.cos(pts[:, 0]), dim=1, growth=GROWTH_BOUNDED)
    with pytest.raises(ValueError, match="horizon"):
        integrate_difference(u, (np.zeros(1), 0.0), p_half, q_default)


def test_compact_support_runs_untruncated(p_half, q_default):
    u = w_family(8, 1.0, 0.5)
    res = integrate_difference(u, (np.zeros(1), 0.0), p_half, q_default)
    assert not res.truncation_flag
    assert res.value == pytest.approx(-1.0, abs=1e-2)


def test_small_a_scaling_of_time_integrand(p_half):
    # panel contributions of a smooth function scale like a^{1-s} near 0
    u_eval = lambda pts, tt: np.exp(tt) * np.cos(pts[:, 0])
    s = 0.5
    p = kernel_constants(1, s)
    Z, W = _gh_tensor(20, 1)
    mids = np.array([4e-7, 2e-7, 1e-7])
    vals = []
    for a in mids:
        pts = 0.1 + 2.0 * math.sqrt(a) * Z
        G = math.sqrt(math.pi) * math.exp(0.0) * math.cos(0.1) \
            - float(np.dot(W, u_eval(pts, np.full(len(Z), -a))))
        # panel value over a width-a panel ~ a * a^{-1-s} * G(a)
        vals.append(a * a ** (-1.0 - s) * G)
    slopes = np.diff(np.log(np.abs(vals))) / np.diff(np.log(mids))
    assert np.all(np.abs(slopes - (1.0 - s)) < 0.1)


@pytest.mark.parametrize("a_min", [1e-9, 1e-10, 1e-12])
def test_pv_consistency_in_a_min(p_half, a_min):
    u = w_family(8, 1.0, 0.5)
    q = QuadSpec(a_min=a_min)
    res = integrate_difference(u, (np.array([1.0]), 0.5), p_half, q)
    ref = integrate_difference(u, (np.array([1.0]), 0.5), p_half, QuadSpec(a_min=1e-8))
    assert res.value == pytest.approx(ref.value, rel=1e-6)


def bundled_cases():
    w8 = w_family(8, 1.0, 0.5)
    gauss = from_callable(
        lambda pts, tt: np.exp(-pts[:, 0] ** 2 - tt ** 2)
        * (np.abs(pts[:, 0]) < 5) * (np.abs(tt) < 5),
        1, support=SupportBox(radius=5.0, t_lo=-5.0, t_hi=5.0))
    expcos = from_callable(lambda pts, tt: np.exp(tt) * np.cos(pts[:, 0]), 1,
                           growth=GROWTH_DECAYING)
    return [
        (w8, (np.zeros(1), 0.0), None),
        (gauss, (np.array([0.5]), 0.2), None),
        (expcos, (np.zeros(1), 0.0), 60.0),
    ]


@pytest.mark.parametrize("idx", [0, 1, 2])
def test_refinement_changes_within_error(p_half, idx):
    u, at, horizon = bundled_cases()[idx]
    q1 = QuadSpec(horizon=horizon)
    # halve the panel sizes and double the Gauss-Hermite order
    q2 = QuadSpec(horizon=horizon, grading=math.sqrt(0.5), gh_order=40)
    r1 = integrate_difference(u, at, p_half, q1)
    r2 = integrate_difference(u, at, p_half, q2)
    assert abs(r1.value - r2.value) < 4.0 * max(r1.err_estimate, 1e-14)


def test_slab_mass_closed_form(p_half):
    got = slab_mass(2.0, math.inf, p_half)
    want = p_half.constant * (4 * math.pi) ** 0.5 * 2.0 ** -0.5 / 0.5
    assert got == pytest.approx(want, rel=1e-14)
    split = slab_mass(2.0, 5.0, p_half) + slab_mass(5.0, math.inf, p_half)
    assert split == pytest.approx(got, rel=1e-14)


def test_window_integral_matches_mass_for_unit_function(p_half, q_default):
    # int_{a in (A,B)} int_R^n 1 * M dy da must equal the analytic slab mass
    one = constant(1.0, 1)
    got, err = window_uM_integral(one, (np.zeros(1), 0.0), p_half, q_default,
                                     2.0, 32.0, r_lo=0.0, r_hi=None)
    assert got == pytest.approx(slab_mass(2.0, 32.0, p_half), rel=1e-8)
    got_inf, err = window_uM_integral(one, (np.zeros(1), 0.0), p_half,
                                         q_default, 2.0, math.inf,
                                         r_lo=0.0, r_hi=None)
    assert got_inf == pytest.approx(slab_mass(2.0, math.inf, p_half), rel=1e-6)


def test_holder_marking_gets_honest_error(p_half, q_default):
    # Hölder-marked functions get no small-a extrapolation, only a bound;
    # the enlarged estimate must cover the difference from the smooth path
    from dataclasses import replace as _rep
    w = w_family(8, 1.0, 0.5)
    wh = _rep(w, smoothness="holder", holder_eps=0.2)
    at = (np.array([20.0]), 1.0)   # inside the support, u0 != 0
    smooth = integrate_difference(w, at, p_half, q_default)
    holder = integrate_difference(wh, at, p_half, q_default)
    assert holder.err_estimate > 5 * smooth.err_estimate
    assert abs(holder.value - smooth.value) <= holder.err_estimate


def test_quadspec_validation():
    with pytest.raises(ValueError):
        QuadSpec(grading=1.0)
    with pytest.raises(ValueError):
        QuadSpec(a_min=-1.0)
    with pytest.raises(ValueError):
        QuadSpec(horizon=1e-12)
    with pytest.raises(ValueError):
        QuadSpec(gh_order=0)


@pytest.mark.parametrize("bad", [
    dict(rel_tol=math.nan), dict(rel_tol=math.inf), dict(a_min=math.nan),
    dict(a_min=math.inf), dict(horizon=math.nan), dict(horizon=math.inf),
])
def test_quadspec_rejects_non_finite_floats(bad):
    with pytest.raises(ValueError, match="finite"):
        QuadSpec(**bad)


def _tallied(u):
    """u with an evaluator that adds up the points it is called on."""
    tally = [0]

    def evaluator(pts, tt):
        tally[0] += len(pts)
        return u.evaluator(pts, tt)

    return dataclasses.replace(u, evaluator=evaluator), tally


def _wave(n):
    return from_callable(lambda pts, tt: np.exp(0.5 * tt) * np.cos(pts @ np.ones(n)),
                         n, growth=GROWTH_BOUNDED)


AT1, AT2 = (np.full(1, 0.2), 0.1), (np.full(2, 0.2), 0.1)


@pytest.mark.parametrize("make, run, anchor", [
    (lambda: w_family(4, 1.0, 0.5), lambda u, p: master_op(u, AT1, p, QuadSpec()), 1),
    (lambda: w_family(4, 1.0, 0.5, n=2), lambda u, p: master_op(u, AT2, p, QuadSpec()), 1),
    (lambda: _wave(1), lambda u, p: master_op(u, AT1, p, QuadSpec(horizon=60.0)), 1),
    (lambda: phi_family(4, 1.0, 1.0),
     lambda u, p: fractional_laplacian(u, AT1[0], p, QuadSpec()), 1),
    (lambda: psi_family(4, 0.5, 1.0), lambda u, p: marchaud(u, 0.1, p, QuadSpec()), 1),
    (lambda: temporal(np.exp, growth=GROWTH_DECAYING),
     lambda u, p: marchaud(u, 0.1, p, QuadSpec()), 1),
    (lambda: w_family(4, 1.0, 0.5), lambda u, p: tail_functional(u, AT1, 6.0, p, QuadSpec()), 0),
], ids=["master-w4-n1", "master-w4-n2", "master-wave", "flap-phi4", "marchaud-psi4",
        "marchaud-exp", "tail-w4"])
def test_nodes_used_is_the_evaluator_point_count(make, run, anchor):
    # nodes_used counts every point u is evaluated at, without the anchor u(x, t)
    u, tally = _tallied(make())
    res = run(u, kernel_constants(u.dim, 0.5))
    assert 0 < res.nodes_used == tally[0] - anchor
