import dataclasses
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import Polynomial, legendre
from scipy.integrate import quad
from scipy.special import gamma, gammainc, gammaincc

from masterop import (
    QuadResult,
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
    NumericError,
    SupportBox,
    counted,
    shifted,
    spatial,
    temporal,
)
from masterop import quadrature
from masterop.quadrature import (
    _BISECT_DEPTH,
    _DEAD_ZONE,
    _G4,
    _GH_CAP,
    _GL_HI,
    _K9,
    _POINT_BUDGET,
    _ROUNDING_FLOOR,
    _SHELL_BLOCK,
    _auto_handoff,
    _difference_panels,
    _frozen_kernel,
    _funk_hecke,
    _gamma_table,
    _gh_orders,
    _gh_sums,
    _gh_tensor,
    _graded_panels,
    _on_axis,
    _piecewise,
    _product_weights,
    _rounding_floor,
    _shell_panels,
    _shell_values,
    adaptive_gl,
    gauss_hermite_nodes,
    gl_panel,
    graded_time_mesh,
    in_blocks,
    integrate_difference,
    radial_nodes,
    shell_rule,
    slab_mass,
    small_a_closure,
    spatial_average,
    split_panels,
    window_integral,
    window_uM_integral,
)


def _without_hole(u):
    """u with its declared hole stripped: master_op then takes the difference panels
    at a point inside it, the route these tests drive."""
    return dataclasses.replace(u, support=dataclasses.replace(u.support, inner=0.0))


# --- QuadResult: the arithmetic of every stage -------------------------------

def test_quad_result_arithmetic():
    a = QuadResult(0.1, 0.25, nodes_used=3)
    b = QuadResult(0.3, -0.5, truncation_flag=True, nodes_used=4)
    assert b.err_estimate == 0.5
    # a difference adds errors, ORs flags and adds counts; its value is the
    # floating-point a.value - b.value
    assert a - b == QuadResult(0.1 - 0.3, 0.75, True, 7)
    assert a + b == b + a == QuadResult(0.1 + 0.3, 0.75, True, 7)
    assert -2.0 * a == a * -2.0 == QuadResult(-0.2, 0.5, False, 3)
    # a plain number is an exact term
    assert a + 2.0 == 2.0 + a == QuadResult(2.1, 0.25, False, 3)
    assert a - 2.0 == QuadResult(0.1 - 2.0, 0.25, False, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.value = 1.0
    for make in (lambda: QuadResult(math.nan, 0.0), lambda: a + math.inf,
                 lambda: 1e300 * QuadResult(1e300, 0.0), lambda: QuadResult(1.0, math.inf),
                 lambda: QuadResult(1.0, math.nan), lambda: a + QuadResult(0.0, 1e308) * 1e10):
        with pytest.raises(NumericError, match="non-finite"):
            make()


def test_non_finite_panel_sum_names_its_panel():
    with pytest.raises(NumericError, match=r"panel \(2, 3\]"):
        adaptive_gl(lambda x: np.where(x > 2.0, np.inf, x), [(0.0, 1.0), (2.0, 3.0)])


def test_non_finite_check_value_names_its_panel():
    # sin, but inf at the first G4 node of the panel (1, 2): the G4 nodes are
    # K9's odd columns, so the value's finite check sees every evaluated node
    def f(x):
        out = np.sin(x)
        out[1, 1] = np.inf
        return out

    assert np.array_equal(gl_panel(1.0, 2.0, _K9)[0][1::2], gl_panel(1.0, 2.0, _G4)[0])
    with pytest.raises(NumericError, match=r"panel \(1, 2\]"):
        adaptive_gl(f, [(0.0, 1.0), (1.0, 2.0)])


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


@pytest.mark.parametrize("n, order", [(1, 1), (1, 7), (2, 5), (3, 4)])
def test_gh_tensor_matches_the_product_loop(n, order):
    z, w = gauss_hermite_nodes(order)
    Z, W = _gh_tensor(order, n)
    idx = list(itertools.product(range(order), repeat=n))
    assert np.array_equal(Z, np.array([[z[i] for i in k] for k in idx]))
    assert np.array_equal(W, np.array([math.prod(w[i] for i in k) for k in idx]))


def _full_tensor(order, n):
    """The unpruned order^n product rule."""
    z, w = gauss_hermite_nodes(order)
    Z = np.stack([g.ravel() for g in np.meshgrid(*([z] * n), indexing="ij")], axis=1)
    return Z, np.prod(np.meshgrid(*([w] * n), indexing="ij"), axis=0).ravel()


#: the rules pruning shortens, by (n, order): the escalation orders from 4
#: and the cap, and four orders a start of --gh-order can reach
_PRUNED_SIZES = {(1, 128): 64, (1, 200): 128, (2, 64): 2048, (2, 80): 2048, (3, 32): 16384,
                 (2, 23): 512, (2, 24): 512, (3, 21): 8192, (3, 22): 8192}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gh_tensor_prunes_only_its_table(n):
    # every order up to 20 (the full-space order among them) keeps its whole
    # rule, bit for bit, as do the unlisted escalation orders from 4
    orders = sorted({*range(1, 21), 32, 64, 128, 200, *(o for m, o in _PRUNED_SIZES if m == n)})
    for order in (o for o in orders if o <= _GH_CAP[n]):
        Z, W = _gh_tensor(order, n)
        Zf, Wf = _full_tensor(order, n)
        size = _PRUNED_SIZES.get((n, order), order ** n)
        assert len(W) == size, (n, order)
        if size == order ** n:
            assert np.array_equal(Z, Zf) and np.array_equal(W, Wf), (n, order)
        else:
            # the kept nodes are the heaviest, in the tensor order
            z = gauss_hermite_nodes(order)[0]
            rows = np.searchsorted(z, Z) @ order ** np.arange(n - 1, -1, -1)
            assert np.all(np.diff(rows) > 0) and np.array_equal(Z, Zf[rows])
            assert np.array_equal(W, Wf[rows])
            assert W.min() >= np.delete(Wf, rows).max()
            # a power of two, and the smallest whose dropped weight is small enough
            dropped = math.fsum(np.delete(Wf, rows))
            assert size & (size - 1) == 0 and dropped <= 1e-18 * math.fsum(Wf)
            assert math.fsum(np.sort(Wf)[:-(size // 2)]) > 1e-18 * math.fsum(Wf)


@pytest.mark.parametrize("n, order", [(2, 64), (2, 80), (3, 32)])
def test_pruned_rule_keeps_the_radial_moments(n, order):
    # sum W |Z|^{2k}, k <= 4, as on the full rule
    Z, W = _gh_tensor(order, n)
    Zf, Wf = _full_tensor(order, n)
    r2, rf2 = np.sum(Z * Z, axis=1), np.sum(Zf * Zf, axis=1)
    for k in range(5):
        assert math.fsum(W * r2 ** k) == pytest.approx(math.fsum(Wf * rf2 ** k), rel=1e-12)


def test_pruned_rule_is_symmetric_to_rounding_under_signed_permutations():
    # the 16,384-node rule splits its lightest kept orbit, so a signed
    # permutation of the wave's direction (and of x) moves the value; the
    # wave runs along an axis, so that u's own rounding does not move
    x, t, s = np.array([0.1, 0.2, 0.3]), 0.3, 0.25
    vals = []
    for perm in itertools.permutations(range(3)):
        for signs in ((1.0, 1.0, 1.0), (-1.0, 1.0, -1.0)):
            P = np.zeros((3, 3))
            P[range(3), perm] = signs
            xi = P @ np.array([3.0, 0.0, 0.0])
            u = from_callable(lambda pts, tt, xi=xi: np.exp(0.005 * tt) * np.cos(pts @ xi), 3,
                              growth=GROWTH_BOUNDED)
            vals.append(master_op(u, (P @ x, t), kernel_constants(3, s),
                                  QuadSpec(horizon=60.0)).value)
    assert np.ptp(vals) <= 1e-13 * abs(vals[0])


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
    u = _without_hole(w_family(8, 1.0, 0.5))
    q = QuadSpec(a_min=a_min)
    res = integrate_difference(u, (np.array([1.0]), 0.5), p_half, q)
    ref = integrate_difference(u, (np.array([1.0]), 0.5), p_half, QuadSpec(a_min=1e-8))
    assert res.value == pytest.approx(ref.value, rel=1e-6)


def bundled_cases():
    w8 = _without_hole(w_family(8, 1.0, 0.5))
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
    got = window_uM_integral(one, (np.zeros(1), 0.0), p_half, q_default,
                             2.0, 32.0, r_lo=0.0, r_hi=None)
    assert got.value == pytest.approx(slab_mass(2.0, 32.0, p_half), rel=1e-8)
    got_inf = window_uM_integral(one, (np.zeros(1), 0.0), p_half,
                                 q_default, 2.0, math.inf,
                                 r_lo=0.0, r_hi=None)
    assert got_inf.value == pytest.approx(slab_mass(2.0, math.inf, p_half), rel=1e-6)


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


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -0.2])
def test_holder_margin_must_be_finite_and_positive(eps):
    # inf and nan once gave err_estimate = nan, 0 was read as the default
    # 0.1, and a negative margin gave a bound from a negated formula
    with pytest.raises(ValueError, match="holder_eps"):
        dataclasses.replace(w_family(8, 1.0, 0.5), smoothness="holder", holder_eps=eps)


def test_holder_margin_defaults_to_one_tenth(p_half, q_default):
    w = dataclasses.replace(w_family(8, 1.0, 0.5), smoothness="holder")
    at = (np.array([20.0]), 1.0)
    assert (integrate_difference(w, at, p_half, q_default)
            == integrate_difference(dataclasses.replace(w, holder_eps=0.1), at, p_half, q_default))


def test_quadspec_validation():
    with pytest.raises(ValueError):
        QuadSpec(grading=1.0)
    with pytest.raises(ValueError):
        QuadSpec(a_min=-1.0)
    with pytest.raises(ValueError):
        QuadSpec(horizon=1e-12)
    with pytest.raises(ValueError):
        QuadSpec(gh_order=0)
    # a non-integer order would fail only later, inside numpy's rule builder
    for order in (4.5, 3.0):
        with pytest.raises(ValueError, match="integer"):
            QuadSpec(gh_order=order)


@pytest.mark.parametrize("bad", [
    dict(rel_tol=math.nan), dict(rel_tol=math.inf), dict(a_min=math.nan),
    dict(a_min=math.inf), dict(horizon=math.nan), dict(horizon=math.inf),
])
def test_quadspec_rejects_non_finite_floats(bad):
    with pytest.raises(ValueError, match="finite"):
        QuadSpec(**bad)


def _call_sizes(u):
    """u with an evaluator that records the number of points of each call."""
    sizes = []

    def evaluator(pts, tt):
        sizes.append(len(pts))
        return u.evaluator(pts, tt)

    return dataclasses.replace(u, evaluator=evaluator), sizes


def _wave(n):
    return from_callable(lambda pts, tt: np.exp(0.5 * tt) * np.cos(pts @ np.ones(n)),
                         n, growth=GROWTH_BOUNDED)


AT1, AT2 = (np.full(1, 0.2), 0.1), (np.full(2, 0.2), 0.1)


@pytest.mark.parametrize("make, run, anchor", [
    (lambda: _without_hole(w_family(4, 1.0, 0.5)),
     lambda u, p: master_op(u, AT1, p, QuadSpec()), 1),
    (lambda: _without_hole(w_family(4, 1.0, 0.5, n=2)),
     lambda u, p: master_op(u, AT2, p, QuadSpec()), 1),
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
    u, sizes = _call_sizes(make())
    res = run(u, kernel_constants(u.dim, 0.5))
    assert 0 < res.nodes_used == sum(sizes) - anchor


# --- the time panels' rule: K9 with its G4 check ------------------------------

def test_time_rule_is_the_kronrod_extension_of_g4():
    # the Stieltjes polynomial E5 = x^5 + c3 x^3 + c1 x is orthogonal to x and
    # x^3 against P4 on (-1, 1); its roots and G4's nodes are K9's nodes
    p4 = [Fraction(c) for c in legendre.leg2poly([0, 0, 0, 0, 1])]

    def moment(k):
        """int_{-1}^{1} P4(x) x^k dx, exactly."""
        return sum(c * Fraction(2, i + k + 1) for i, c in enumerate(p4) if (i + k) % 2 == 0)

    c3 = -moment(6) / moment(4)
    c1 = -(moment(8) + c3 * moment(6)) / moment(4)
    e5 = Polynomial([0, float(c1), 0, float(c3), 0, 1])
    roots = e5.roots()
    for _ in range(2):
        roots = roots - e5(roots) / e5.deriv()(roots)
    x, w = _K9
    g4_x, g4_w = legendre.leggauss(4)
    ulp = np.spacing(1.0)
    assert np.allclose(np.sort(np.concatenate([roots, g4_x])), x, rtol=2 * ulp, atol=0.0)
    assert np.array_equal(x[1::2], g4_x) and np.array_equal(_G4[0], g4_x)
    assert np.allclose(_G4[1], g4_w, rtol=8 * ulp, atol=0.0)
    assert np.all(w > 0.0) and np.all(_G4[1] > 0.0)
    for d in range(16):
        exact = 0.0 if d % 2 else 2.0 / (d + 1)
        error = abs(np.sum(w * x ** d) - exact)
        # exact to degree 13 (and 15, an odd degree), not 14
        assert (error <= 2 * ulp) == (d != 14), d
        if d <= 7:
            assert abs(np.sum(_G4[1] * _G4[0] ** d) - exact) <= 2 * ulp


def _gamma_between(alpha, sigma, A, B):
    """P(alpha, sigma/4A) - P(alpha, sigma/4B) for the regularised incomplete gamma P,
    from P where sigma/4A < alpha and from Q = 1 - P above, so that neither cancels."""
    lo, hi = sigma / (4.0 * B), sigma / (4.0 * A)
    if hi < alpha:
        return gammainc(alpha, hi) - gammainc(alpha, lo)
    return gammaincc(alpha, lo) - gammaincc(alpha, hi)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("window, kinks, tol", [
    ((1e-2, 36.0), (), math.inf), ((0.5, 40.0), (), math.inf), ((1e-3, 1.0), (), math.inf),
    ((0.01, 600.0), (3.0,), math.inf), ((1e-2, math.inf), (), math.inf),
    ((0.5, math.inf), (), math.inf), ((0.01, math.inf), (3.0,), math.inf),
    ((1e-2, 36.0), (3.0,), 1e-9), ((1.0, 1.5), (), math.inf),
], ids=["1e-2-36", "0.5-40", "1e-3-1", "0.01-600-kink", "1e-2-inf", "0.5-inf", "0.01-inf-kink",
        "1e-2-36-kink-tol", "1-1.5"])
def test_window_integral_is_within_its_err_estimate(n, s, window, kinks, tol):
    # int_A^B a^{-(1 + m)} a^g exp(-sigma / 4a) da, m = n/2 + s, alpha = m - g,
    #   = (4 / sigma)^alpha Gamma(alpha) [Q(alpha, sigma / 4B) - Q(alpha, sigma / 4A)]
    # with g = 0 and pw = m (a shell window), or g = n/2 and pw = s (a
    # full-space window, where Y grows like a^{n/2}).  A finite tol bisects
    # the panels in v, as Marchaud's window does; (1, 1.5) is one clipped
    # panel.  The frozen windows' kernel is this integral in closed form
    m, (A, B) = n / 2.0 + s, window
    variants = [(m, 0.0)] + ([(s, n / 2.0)] if math.isinf(B) else [])
    for sigma in (1e-2, 1.0, 1e2, 1e4):
        for pw, g in variants:
            res = window_integral(lambda a: a ** g * np.exp(-sigma / (4.0 * a)), A, B, 1.0 + m,
                                  kinks, pw, tol)
            alpha = m - g
            exact = (4.0 / sigma) ** alpha * gamma(alpha) * _gamma_between(alpha, sigma, A, B)
            assert abs(res.value - exact) <= res.err_estimate, (sigma, pw)
            closed = _frozen_kernel(alpha, np.array([sigma]), A, B)[0]
            assert closed == pytest.approx(exact, rel=1e-13, abs=0.0), (sigma, alpha)


def test_window_within_the_mesh_tolerance_of_its_end_takes_one_panel():
    # graded_time_mesh stops within 1e-12 of its end, so it has no panel for
    # (1, 1 + 1e-13); the window still takes one: int a^{-5/2} da over it
    h = (1.0 + 1e-13) - 1.0
    res = window_integral(np.ones_like, 1.0, 1.0 + h, 2.5, (), 1.5)
    assert res.value == pytest.approx(-math.expm1(-1.5 * math.log1p(h)) / 1.5, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("beta", [-0.95, -0.45, 0.0, 0.5, 1.45])
def test_product_weights_integrate_the_powers_of_their_degree(beta):
    # int_0^1 x^beta x^m dx = 1 / (beta + 1 + m): K9 for m <= 8, G4 for m <= 3
    x, w9, w4 = _product_weights(beta + 1.0)
    assert np.array_equal(x, 0.5 + 0.5 * _K9[0])
    for nodes, w, degree in ((x, w9, 8), (x[1::2], w4, 3)):
        for m in range(degree + 1):
            assert np.sum(w * nodes ** m) == pytest.approx(1.0 / (beta + 1.0 + m), rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("reach", [False, True], ids=["r-mesh", "reach"])
def test_infinite_window_meshes_down_to_a_far_kink(n, s, reach):
    # Y halves its value past the kink K, which lies beyond the reach sigma / 4
    # and beyond the r-mesh's 8 decades when pw > 4/3 (K = 1e6 A) or
    # pw > 0.8 (K = 1e10 A): the mesh runs on to 1/K, so that the closing
    # panel holds no kink.  A frozen far past no longer meshes out to the
    # kernel's reach: there the same integral is the closed-form kernel of
    # each side of the kink
    m, A = n / 2.0 + s, 1.0
    for K in (1e6, 1e10):
        for sigma in (1e-2, 1.0, 1e2):
            # (4/sigma)^m [gamma(m, sigma/4A) - gamma(m, sigma/4K) / 2]
            exact = (4.0 / sigma) ** m * gamma(m) * (_gamma_between(m, sigma, A, K)
                                                     + 0.5 * _gamma_between(m, sigma, K, math.inf))
            if reach:
                closed = (_frozen_kernel(m, np.array([sigma]), A, K)
                          + 0.5 * _frozen_kernel(m, np.array([sigma]), K, math.inf))[0]
                assert closed == pytest.approx(exact, rel=1e-13, abs=0.0), (K, sigma)
                continue
            res = window_integral(lambda a: np.where(a <= K, 1.0, 0.5) * np.exp(-sigma / (4.0 * a)),
                                  A, math.inf, 1.0 + m, (K,), m)
            assert abs(res.value - exact) <= res.err_estimate, (K, sigma)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frozen_far_window_takes_no_shell_call(n, monkeypatch):
    # w_16's far past is frozen: its time integral is the closed-form kernel,
    # so the shell values are never called; the moving mesh runs 8 decades
    # in r = v^pw, and the closing panel's 9 durations ride as one more row
    # in its one call of the shell values
    shapes = []

    def recording(u, x0, t0, avals, *rest):
        shapes.append(avals.shape)
        return _shell_values(u, x0, t0, avals, *rest)

    monkeypatch.setattr(quadrature, "_shell_values", recording)
    w = w_family(16, 1.0, 0.5, n=n)
    calls = []
    for u in (w, dataclasses.replace(w, frozen_until=None)):
        shapes.clear()
        window_uM_integral(u, (np.full(n, 0.3), 0.1), kernel_constants(n, 0.5), QuadSpec(),
                           36.1, math.inf)
        calls.append(list(shapes))
    # r halves 27 times
    assert calls == [[], [(27 + 1, len(_K9[0]))]]


def _phi_far_reference(n, s, j, A, rho):
    """int u(y) (4/sigma)^alpha gamma(alpha, sigma/4A) dy, sigma = |x0 - y|^2, alpha = n/2 + s,
    for u = phi_j (dim n, alpha 1, beta 1) and |x0| = rho, by nested 1-D quadrature."""
    alpha = n / 2.0 + s
    u = phi_family(j, 1.0, 1.0, dim=n)

    def g(sigma):
        return (4.0 / sigma) ** alpha * gamma(alpha) * gammainc(alpha, sigma / (4.0 * A))

    def u_at(r):
        return float(u.evaluator(np.array([[r] + [0.0] * (n - 1)]), np.zeros(1))[0])

    if n == 1:
        return sum(quad(lambda y: u_at(abs(y)) * g((rho - y) ** 2), lo, hi,
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for lo, hi in ((-3.0 * j, -2.0 * j), (2.0 * j, 3.0 * j)))
    # n = 3: the sphere at radius r, in sigma = (r - rho)^2 + 4 r rho v with
    # v = (1 - mu) / 2, is 4 pi r^2 times the integral of g over v in (0, 1);
    # the width 4 r rho taken as (r + rho)^2 - (r - rho)^2 would lose
    # log10(r / rho) digits
    return quad(lambda r: u_at(r) * 4.0 * math.pi * r * r * quad(
        lambda v: g((r - rho) ** 2 + 4.0 * r * rho * v), 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0],
        2.0 * j, 3.0 * j, epsabs=0.0, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("j", [4, 32, 256])
def test_far_window_of_phi_matches_the_incomplete_gamma_integral(n, s, j):
    # a u frozen in time: int_A^inf a^{-(1 + alpha)} exp(-sigma/4a) da is
    # (4/sigma)^alpha gamma(alpha, sigma/4A), so the far window is one
    # spatial integral
    p, A, rho = kernel_constants(n, s), 36.2, 0.3
    x0 = np.zeros(n)
    x0[0] = rho
    got = window_uM_integral(phi_family(j, 1.0, 1.0, dim=n), (x0, 0.2), p, QuadSpec(), A, math.inf)
    want = p.constant * _phi_far_reference(n, s, j, A, rho)
    assert got.value == pytest.approx(want, rel=1e-8)
    assert abs(got.value - want) <= got.err_estimate


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_frozen_far_window_estimate_is_close_to_its_error(s):
    # w_16's past beyond a = 400.1 at x = 0.2, t = 0.1: the closing panel of a
    # mesh in v = 1/a took G4 product weights, exact only to degree 3, as its
    # check, and overstated the error up to 1e9 times (1.6e-6 at s = 0.3);
    # the closed form leaves the radial K9 panels' own check
    p, A, x0 = kernel_constants(1, s), 400.1, 0.2
    u = w_family(16, 1.0, s, n=1)
    got = window_uM_integral(u, (np.array([x0]), 0.1), p, QuadSpec(), A, math.inf)
    alpha = 0.5 + s

    def integrand(y):
        sigma = (x0 - y) ** 2
        value = float(u.evaluator(np.array([[y]]), np.zeros(1))[0])
        return value * (4.0 / sigma) ** alpha * gamma(alpha) * gammainc(alpha, sigma / (4.0 * A))

    want = p.constant * sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                            for lo, hi in ((-48.0, -32.0), (32.0, 48.0)))
    assert abs(got.value - want) <= got.err_estimate <= 1e-8 * got.value


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("c", [200.0, 2000.0])
def test_frozen_narrow_ring_is_within_its_estimate(n, c):
    # exp(-c (|y| - 7)^2) is frozen, so both windows of the tail are radial
    # integrals whose K9 panels bisect to the ring; the shell rule of fixed
    # Gauss-Legendre panels erred by up to 1e5 times its estimate here.  The
    # reference is the same integral at a 1e6 times finer tolerance
    u = spatial(lambda pts: np.exp(-c * (np.linalg.norm(pts, axis=-1) - 7.0) ** 2), dim=n,
                support=SupportBox(radius=12.0), radial=True)
    p, at = kernel_constants(n, 0.5), (np.zeros(n), 0.2)
    got = tail_functional(u, at, 6.0, p, QuadSpec())
    ref = tail_functional(u, at, 6.0, p, QuadSpec(rel_tol=1e-12))
    assert got.value > 0.0 and abs(got.value - ref.value) <= got.err_estimate


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s", [0.01, 0.1, 0.5, 0.9, 0.99])
def test_gamma_table_matches_scipy_on_both_tails(n, s):
    # p = n/2 + s, p = 1 at n = 1, s = 0.5; the table holds the smaller tail
    # and the other is 1 minus it.  Where scipy's own value is off (its
    # prefactor exp(p log z - z - log Gamma(p)) carries z ulps, 4.6e-14 at
    # z = 494), the reference is mpmath at 30 digits
    mpmath = pytest.importorskip("mpmath")
    p, z = n / 2.0 + s, np.concatenate([[0.0], np.logspace(-12, 3)])
    y = z / (z + p)
    upper = y >= 0.5
    # e^z z^{-p} gamma(p, z) below y = 1/2, z e^z z^{-p} Gamma(p, z) above
    g = _piecewise(_gamma_table(p), y.copy()) * np.exp(-z)
    small = z ** p * np.divide(g, z, out=g, where=upper) / gamma(p)
    got = {"P": np.where(upper, 1.0 - small, small), "Q": np.where(upper, small, 1.0 - small)}
    with mpmath.workdps(30):
        exact = {"P": [float(mpmath.gammainc(p, 0, x, regularized=True)) for x in z],
                 "Q": [float(mpmath.gammainc(p, x, mpmath.inf, regularized=True)) for x in z]}
    for tail, scipy_tail in (("P", gammainc(p, z)), ("Q", gammaincc(p, z))):
        ref = np.where(np.abs(scipy_tail - exact[tail]) <= 1e-14 * np.abs(exact[tail]),
                       scipy_tail, exact[tail])
        assert np.all(np.abs(got[tail] - ref) <= 1e-14 * np.abs(ref)), tail
    assert (got["P"][0], got["Q"][0]) == (0.0, 1.0)


@pytest.mark.parametrize("sigma", [1e-2, 1.0, 1e2])
def test_infinite_window_error_covers_its_rounding(sigma):
    # int_36^inf a^{-2} exp(-sigma / 4a) da = (4 / sigma)(1 - e^{-sigma / 144}),
    # on the substitution pw = s = 0.5 of the full-space window at n = 1; at
    # sigma = 1e-2, |K9 - G4| alone (3.96e-18) was below the error (1.04e-17)
    res = window_integral(lambda a: np.exp(-sigma / (4.0 * a)), 36.0, math.inf, 2.0, (), 0.5)
    assert abs(res.value - (4.0 / sigma) * -math.expm1(-sigma / 144.0)) <= res.err_estimate


# --- adaptive_gl: one integrand call per bisection level ---------------------

def _per_panel_gl(f, panels, tol):
    """The per-panel loop: panels depth first, one call of f each.

    A panel splits on |K9 - G4| and reports it plus the rounding of its K9
    sum.  Returns (total, err, xs, fs, levels), levels being the deepest
    bisection reached plus one."""
    total = err = 0.0
    xs, fs_all, levels = [], [], 0
    stack = [(lo, hi, 0) for lo, hi in reversed(panels)]
    while stack:
        lo, hi, depth = stack.pop()
        levels = max(levels, depth + 1)
        x, w = gl_panel(lo, hi, _K9)
        fs = f(x)
        cur, cur_g4 = float(np.dot(w, fs)), float(np.dot(gl_panel(lo, hi, _G4)[1], fs[1::2]))
        if abs(cur - cur_g4) > tol and depth < _BISECT_DEPTH:
            mid = 0.5 * (lo + hi)
            stack += [(mid, hi, depth + 1), (lo, mid, depth + 1)]
            continue
        total += cur
        err += abs(cur - cur_g4) + _ROUNDING_FLOOR * np.finfo(float).eps * np.sum(np.abs(w * fs))
        xs.append(x)
        fs_all.append(fs)
    return total, err, np.concatenate(xs), np.concatenate(fs_all), levels


@pytest.mark.parametrize("f, panels, tol", [
    (lambda x: np.cos(40.0 * x) * np.exp(-x), [(0.0, 1.0), (1.0, 2.5), (2.5, 3.0)], 1e-10),
    (lambda x: np.cos(40.0 * x) * np.exp(-x), [(2.5, 3.0), (1.0, 2.5), (0.0, 1.0)], 1e-10),
    (np.sqrt, [(0.0, 0.5), (0.5, 1.0)], 1e-15),
    (lambda x: np.cos(40.0 * x) * np.exp(-x), [(0.0, 1.0), (1.0, 2.5), (2.5, 3.0)], math.inf),
], ids=["oscillatory", "oscillatory-descending", "sqrt-depth-cap", "tol-inf"])
def test_adaptive_gl_matches_the_per_panel_loop(f, panels, tol):
    calls = []

    def counted(x):
        calls.append(len(x))
        return f(x)

    res, xs, fs = adaptive_gl(counted, panels, tol)
    ref_total, ref_err, ref_xs, ref_fs, levels = _per_panel_gl(f, panels, tol)
    assert len(calls) == levels and (levels == 1) == math.isinf(tol)
    assert res.value == pytest.approx(ref_total, rel=1e-13)
    assert res.err_estimate == pytest.approx(ref_err, rel=1e-13)
    assert np.array_equal(xs, ref_xs) and np.array_equal(fs, ref_fs)


def test_adaptive_gl_stops_at_the_depth_cap():
    calls = []
    adaptive_gl(lambda x: calls.append(len(x)) or np.sqrt(x), [(0.0, 0.5), (0.5, 1.0)], 1e-15)
    assert len(calls) == _BISECT_DEPTH + 1


def test_in_blocks_keeps_the_shape_of_its_rows():
    # a (panels, nodes) matrix is handed to f in the flat blocks of its
    # ravel(), here 7 of 5 durations and one of 1, and comes back as a matrix
    rows = np.geomspace(1e-3, 10.0, 36).reshape(3, 12)
    blocks = {"rows": [], "flat": []}

    def f(key):
        def block(a):
            blocks[key].append(a.copy())
            return np.cos(a) * np.sqrt(a)
        return block

    got = in_blocks(f("rows"), rows, _POINT_BUDGET // 5)
    flat = in_blocks(f("flat"), rows.ravel(), _POINT_BUDGET // 5)
    assert got.shape == rows.shape and np.array_equal(got.ravel(), flat)
    assert [b.shape for b in blocks["rows"]] == [(5,)] * 7 + [(1,)]
    assert all(np.array_equal(a, b) for a, b in zip(blocks["rows"], blocks["flat"]))


# --- _shell_values: one rule per adaptive_gl panel ---------------------------

def _gauss_bump(n):
    return from_callable(lambda pts, tt: np.exp(-np.sum((pts - 0.2) ** 2, axis=-1) - 0.1 * tt),
                         n, growth=GROWTH_DECAYING)


def _one_rule_shell_values(u, x0, t0, avals, r_lo, r_hi, p):
    """The shell values of every duration on the one rule of the shortest duration."""
    n, a_ref, rho = p.n, float(np.min(avals)), float(np.linalg.norm(x0))
    if u.radial:
        rr, rw = radial_nodes(r_lo, r_hi, _shell_panels(r_hi - r_lo, a_ref))
        return ((_on_axis(u, rr, t0 - avals[:, None]) * _funk_hecke(n, rho, rr, avals[:, None]))
                @ (rw * rr ** (n - 1)))
    ang = 2 if n == 1 else int(np.clip(8 + 2.0 * r_hi * (rho + 1.0) / math.sqrt(a_ref), 12, 64))
    pts, ww = shell_rule(n, r_lo, r_hi, _shell_panels(r_hi - r_lo, a_ref), ang)
    kern = np.exp(-np.sum((pts - x0) ** 2, axis=-1) / (4.0 * avals[:, None]))
    return (u(np.broadcast_to(pts, (len(avals),) + pts.shape), t0 - avals[:, None]) * kern) @ ww


@pytest.mark.parametrize("n, make", [
    (1, _gauss_bump), (2, _gauss_bump),
    (2, lambda n: w_family(1, 1.0, 0.5, n=n)), (3, lambda n: w_family(1, 1.0, 0.5, n=n)),
], ids=["bump-n1", "bump-n2", "w1-n2-radial", "w1-n3-radial"])
def test_shell_values_keep_one_rule_per_panel(n, make):
    p = kernel_constants(n, 0.5)
    panels = [(1e-3, 1e-2), (1e-2, 0.1), (0.1, 4.0)]
    avals = np.array([gl_panel(lo, hi, _K9)[0] for lo, hi in panels])
    sizes = []
    base = make(n)

    def evaluator(pts, tt):
        sizes.append(len(pts))
        return base.evaluator(pts, tt)

    u = dataclasses.replace(base, evaluator=evaluator)
    x0 = np.full(n, 0.3)
    batched = _shell_values(u, x0, 0.1, avals, 0.5, 3.0, p)
    batched_peak = max(sizes)
    sizes.clear()
    single = np.concatenate([_shell_values(u, x0, 0.1, avals[i:i + 1], 0.5, 3.0, p)
                             for i in range(len(avals))])
    assert batched.shape == avals.shape and np.array_equal(batched, single)
    # panels grouped by rule share a call only up to the shell block cap
    assert batched_peak <= max(_SHELL_BLOCK, max(sizes))
    # one rule sized by the shortest duration of all panels gives other values
    one_rule = _one_rule_shell_values(u, x0, 0.1, avals.ravel(), 0.5, 3.0, p)
    assert one_rule == pytest.approx(batched.ravel(), rel=1e-2)
    assert not np.array_equal(one_rule, batched.ravel())
    # a (1, 1) row: one duration, on the rule of that duration
    end = np.full((1, 1), 12.5)
    assert np.array_equal(_shell_values(u, x0, 0.1, end, 0.5, 3.0, p),
                          _one_rule_shell_values(u, x0, 0.1, end[0], 0.5, 3.0, p)[None])


@pytest.mark.parametrize("n", [1, 2, 3], ids=["n1", "n2", "n3"])
def test_tail_functional_builds_each_shell_rule_once_per_level(n):
    # F(w_16, 6) is one window, the shell 32 < |y| <= 48 over every
    # duration: the ball |y| <= 6 lies in w_16's hole.  At t = 0.5 the
    # kernel reaches |y| = 32 from a = 31.5^2 / 200 = 4.96 on, in w_16's
    # frozen past, so u is evaluated once, on 96 radial K9 panels; declared
    # moving, once per shell rule and bisection level
    w = w_family(16, 1.0, 0.5, n=n)
    args = ((np.full(n, 0.3), 0.5), 6.0, kernel_constants(n, 0.5), QuadSpec())
    for u, calls, nodes in ((w, 1, 96 * len(_K9[0])),
                            (dataclasses.replace(w, frozen_until=None), 7, 48_384)):
        u, sizes = _call_sizes(u)
        res = tail_functional(u, *args)
        assert (len(sizes), res.nodes_used) == (calls, nodes)
        # blocks of whole panels stay under the cap, or are one panel of the
        # largest radial rule, 96 panels of _GL_HI nodes, at its 9 durations
        assert max(sizes) <= max(_SHELL_BLOCK, len(_K9[0]) * 96 * _GL_HI)


def _hole_undeclared(u):
    """u with ``SupportBox.inner`` 0: windows then run their shells through u's hole."""
    return dataclasses.replace(u, support=dataclasses.replace(u.support, inner=0.0))


def _kernel_tally(monkeypatch):
    """A one-entry list that tallies the elements of every ``_funk_hecke`` result."""
    tally, base = [0], quadrature._funk_hecke

    def counting(*args):
        out = base(*args)
        tally[0] += out.size
        return out

    monkeypatch.setattr(quadrature, "_funk_hecke", counting)
    return tally


@pytest.mark.parametrize("n, declared, undeclared", [
    (1, (963, 972, 1_836), (1_296, 2_466, 4_194)),
    (2, (1_026, 1_035, 1_899), (1_350, 2_520, 4_248)),
    (3, (1_053, 1_062, 1_926), (1_404, 2_574, 4_302))],
    ids=["n1", "n2", "n3"])
def test_shell_kernel_is_formed_only_where_u_is_nonzero(n, declared, undeclared, monkeypatch):
    # w_4 is phi_4 (zero off 8 <= |y| <= 12) in its frozen past: with its
    # hole declared the moving rows' shell starts at |y| = 8; undeclared it
    # starts at R = 6 and the kernel skips the columns of the hole.  Either
    # way u is evaluated at as many points as with the kernel formed
    # everywhere, every sum is that sum, and the frozen window forms no
    # Funk-Hecke kernel
    tally = _kernel_tally(monkeypatch)
    w = w_family(4, 1.0, 0.5, n=n)
    span = quadrature._nonzero_span
    for u, (formed, everywhere, nodes) in ((w, declared), (_hole_undeclared(w), undeclared)):
        args = (u, (np.full(n, 0.3), 0.5), 6.0, kernel_constants(n, 0.5), QuadSpec())
        tally[0] = 0
        monkeypatch.setattr(quadrature, "_nonzero_span", span)
        res = tail_functional(*args)
        assert (tally[0], res.nodes_used) == (formed, nodes)
        tally[0] = 0
        monkeypatch.setattr(quadrature, "_nonzero_span", lambda nonzero: slice(None))
        full = tail_functional(*args)
        assert (tally[0], full.nodes_used) == (everywhere, nodes)
        assert (res.value, res.err_estimate) == (full.value, full.err_estimate)


def test_tensor_shell_kernel_is_the_kernel_formed_everywhere(monkeypatch):
    # a shifted w_4 takes the tensor rule, where u's hole is not one run of
    # columns: the kernel is formed on the span of its nonzero columns
    u = shifted(w_family(4, 1.0, 0.5, n=2), np.array([1.5, 0.0]), 0.0)
    assert not u.radial
    args = (u, (np.full(2, 0.3), 0.1), 6.0, kernel_constants(2, 0.5), QuadSpec())
    res = tail_functional(*args)
    monkeypatch.setattr(quadrature, "_nonzero_span", lambda nonzero: slice(None))
    assert tail_functional(*args) == res


@pytest.mark.parametrize("n, everywhere", [(1, 10_098), (2, 10_107), (3, 10_107)],
                         ids=["1", "2", "3"])
def test_shell_inside_the_hole_of_u_forms_no_kernel(n, everywhere, monkeypatch):
    # |y| <= 30 lies wholly inside the hole |y| < 32 of w_16: declared, the
    # shell starts at 32 and u is not evaluated.  Undeclared, its frozen
    # window forms no closed-form kernel, and the same window declared
    # moving forms no Funk-Hecke kernel unless it is formed everywhere, on
    # the radii each rule's durations reach
    tally, frozen = _kernel_tally(monkeypatch), [0]
    base = quadrature._frozen_kernel
    monkeypatch.setattr(quadrature, "_frozen_kernel",
                        lambda p, sigma, A, B: frozen.__setitem__(0, frozen[0] + sigma.size)
                        or base(p, sigma, A, B))
    w = w_family(16, 1.0, 0.5, n=n)
    args = ((np.full(n, 0.3), 0.1), kernel_constants(n, 0.5), QuadSpec(), 1.0, 40.0)
    declared, sizes = _call_sizes(w)
    assert window_uM_integral(declared, *args, r_lo=0.0, r_hi=30.0) == QuadResult(0.0, 0.0)
    assert sizes == []
    w = _hole_undeclared(w)
    res = window_uM_integral(w, *args, r_lo=0.0, r_hi=30.0)
    assert (res.value, res.err_estimate, frozen[0], tally[0]) == (0.0, 0.0, 0, 0)
    moving = dataclasses.replace(w, frozen_until=None)
    assert window_uM_integral(moving, *args, r_lo=0.0, r_hi=30.0) == res and tally[0] == 0
    monkeypatch.setattr(quadrature, "_nonzero_span", lambda nonzero: slice(None))
    assert window_uM_integral(moving, *args, r_lo=0.0, r_hi=30.0) == res and tally[0] == everywhere


@pytest.mark.parametrize("radial", [True, False], ids=["radial", "tensor"])
def test_shell_rule_stops_where_the_kernel_is_dead(radial, monkeypatch):
    # at durations a <= 0.5 the kernel is below e^{-50} of its peak beyond
    # |y| = 0.3 + sqrt(_DEAD_ZONE a) = 10.3: a moving Gaussian is evaluated up
    # to there, and the rule run to r_hi = 40 gives the same value to rounding
    u, sizes = _call_sizes(from_callable(
        lambda pts, tt: np.exp(-0.05 * np.sum(pts ** 2, axis=-1) + 0.1 * tt), 2,
        growth=GROWTH_DECAYING, radial=radial))
    reached, base = [], u.evaluator
    u = dataclasses.replace(u, evaluator=lambda pts, tt: reached.append(
        np.linalg.norm(pts, axis=-1).max()) or base(pts, tt))
    args = (u, (np.array([0.3, 0.0]), 0.5), kernel_constants(2, 0.5), QuadSpec(), 0.2, 0.5, 0.5, 40.0)
    cut = window_uM_integral(*args)
    assert 10.0 < max(reached) <= 0.3 + math.sqrt(_DEAD_ZONE * 0.5)
    nodes = sum(sizes)
    monkeypatch.setattr(quadrature, "_DEAD_ZONE", math.inf)
    sizes.clear()
    whole = window_uM_integral(*args)
    assert cut.value == pytest.approx(whole.value, rel=1e-14, abs=0.0)
    assert sum(sizes) > 2 * nodes


@pytest.mark.parametrize("radial", [True, False], ids=["radial", "tensor"])
@pytest.mark.parametrize("n", [1, 2])
def test_infinite_past_shell_window_matches_the_per_panel_values(n, radial, monkeypatch):
    # the closing panel's row rides in the first call of the shell values;
    # the far past of w_j is frozen, so each call evaluates u at one time
    w = w_family(2, 1.0, 0.5, n=n)
    u = dataclasses.replace(w, radial=radial)
    lengths = []
    base = u.evaluator

    def evaluator(pts, tt):
        lengths.append(len(np.unique(tt)))
        return base(pts, tt)

    u = dataclasses.replace(u, evaluator=evaluator)
    args = (u, (np.full(n, 0.3), 0.1), kernel_constants(n, 0.5), QuadSpec(), 40.0, math.inf)
    grouped = window_uM_integral(*args)
    assert set(lengths) == {1}
    monkeypatch.setattr(quadrature, "_shell_values", lambda u, x0, t0, avals, *rest: np.concatenate(
        [_shell_values(u, x0, t0, avals[i:i + 1], *rest) for i in range(len(avals))]))
    assert window_uM_integral(*args) == grouped


# --- Gauss-Hermite start order ------------------------------------------------

def test_gh_start_order_default_is_4():
    assert QuadSpec().gh_order == 4


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_start_order_4_agrees_with_20(n, s):
    # e^{lambda t} cos(xi.x) with |xi| = 1.2, lambda = 0.6: away from the order cap
    xi = 1.2 * np.ones(n) / math.sqrt(n)
    u = from_callable(lambda pts, tt: np.exp(0.6 * tt) * np.cos(pts @ xi), n,
                      growth=GROWTH_BOUNDED)
    p = kernel_constants(n, s)
    at = (np.linspace(-0.3, 0.4, n), 0.2)
    r4 = master_op(u, at, p, QuadSpec(horizon=20.0))
    r20 = master_op(u, at, p, QuadSpec(horizon=20.0, gh_order=20))
    assert abs(r4.value - r20.value) <= r4.err_estimate + r20.err_estimate


def test_start_order_4_cuts_the_n3_node_count():
    # a non-radial input, so the difference panels take the order^3 tensor rule
    p = kernel_constants(3, 0.5)
    at = (np.array([0.4, 0.0, 0.0]), 0.1)
    u = _wave(3)
    r4 = master_op(u, at, p, QuadSpec(horizon=60.0))
    r20 = master_op(u, at, p, QuadSpec(horizon=60.0, gh_order=20))
    assert 3 * r4.nodes_used <= r20.nodes_used
    assert abs(r4.value - r20.value) <= r4.err_estimate + r20.err_estimate


@pytest.mark.parametrize("n, most", [(2, 120_576), (3, 77_434)])
def test_radial_body_cuts_the_w16_node_count(n, most):
    # the order^n tensor rule took 241,152 points at n = 2 and 774,336 at n = 3
    at = (np.array([0.4, 0.0, 0.0][:n]), 0.1)
    r = master_op(_without_hole(w_family(16, 1.0, 0.5, n=n)), at, kernel_constants(n, 0.5),
                  QuadSpec())
    assert r.nodes_used <= most
    assert abs(r.value + 1.0) < 0.01


def test_tensor_body_matches_the_broadcast_points():
    # the flat point layout of _gh_sums evaluates u at the same points, bit
    # for bit, and sums each duration's row on its own, whatever its block
    u, x0, t0 = _wave(3), np.array([0.2, -0.1, 0.3]), 0.1
    avals = np.geomspace(1e-6, 10.0, 40)
    Z, W = _gh_tensor(8, 3)
    pts = x0[None, None, :] + 2.0 * np.sqrt(avals)[:, None, None] * Z[None, :, :]
    ref = np.array([row @ W for row in u(pts, np.broadcast_to((t0 - avals)[:, None],
                                                                pts.shape[:2]))])
    assert np.array_equal(_gh_sums(u, x0, t0, avals, 8), ref)
    assert np.array_equal(np.concatenate([_gh_sums(u, x0, t0, avals[i:i + 9], 8)
                                          for i in range(0, 40, 9)]), ref)


# --- _difference_panels: escalation rounds under one point budget -------------

def _per_panel_difference(u, u0, x0, t0, p, q, horizon):
    """The per-panel loop the escalation rounds replaced: each time panel
    doubles its own Gauss-Hermite order until two successive orders agree
    to within the larger of the tolerance and the panel's rounding floor,
    or it reaches the cap, with one ``spatial_average`` call per panel and
    order."""
    n, s = p.n, p.s
    sqpi_n = math.pi ** (n / 2.0)
    start, gh_cap = _gh_orders(u, q)
    panels = _graded_panels(horizon, q.a_min, [t0 - k for k in u.time_kinks], q)
    total = err = 0.0
    inner_a, inner_dens = [], []
    for idx, (lo, hi) in enumerate(panels):
        floor = _rounding_floor(lo, hi, u0, p)
        a, w = gl_panel(lo, hi, _K9)
        order, prev = start, None
        while True:
            dens = a ** (-1.0 - s) * (sqpi_n * u0 - spatial_average(u, x0, t0, a, order))
            cur = float(np.sum(w * dens))
            if ((prev is not None and abs(cur - prev) <= max(q.panel_tol(u0), floor))
                    or order >= gh_cap):
                err += 0.0 if prev is None else abs(cur - prev)
                break
            prev, order = cur, min(2 * order, gh_cap)
        total += cur
        err += abs(cur - float(np.sum(gl_panel(lo, hi, _G4)[1] * dens[1::2])))
        if idx < 2:
            inner_a.append(a)
            inner_dens.append(dens)
    closure = small_a_closure(u, np.concatenate(inner_a),
                              np.concatenate(inner_dens), panels[0][0], s)
    pref = p.constant * 2.0 ** n
    return pref * (QuadResult(total, err) + closure)


def _order_log(u):
    """u with an evaluator that records, per time t0 - a, the most points a
    call evaluated there: the size of that duration's last rule, order^n for
    the tensor rule."""
    seen = {}

    def evaluator(pts, tt):
        for t, c in zip(*np.unique(tt, return_counts=True)):
            seen[float(t)] = max(seen.get(float(t), 0), int(c))
        return u.evaluator(pts, tt)

    return dataclasses.replace(u, evaluator=evaluator), seen


def _cap_wave(n):
    """e^{0.005 t} cos(3 x1): the Gauss-Hermite order reaches its cap at every n."""
    return from_callable(lambda pts, tt: np.exp(0.005 * tt) * np.cos(3.0 * pts[:, 0]), n,
                         growth=GROWTH_BOUNDED)


# These cases stop every panel at the same order under both loops.  The
# rounds hand the evaluator other blocks of durations than the per-panel
# loop, so the sum of W u can round differently, and at small a the
# difference pi^{n/2} u0 - sum W u cancels: a value can move by rounding
# (5e-9 relative was seen).  The rounding floor closes the innermost
# panels at large s (wave-n3-s07, wave-n2-s08) before rounding steers
# their orders; without it they ran to the cap on rounding noise and
# err_estimate moved by 1e-3 relative.  A step that straddles a panel's
# tolerance within rounding could still flip one stop decision, inside
# its err_estimate; no input here does.
@pytest.mark.parametrize("make, n, s, at, horizon, feature", [
    (lambda: _wave(1), 1, 0.5, ([0.2], 0.1), 60.0, None),
    (lambda: _wave(2), 2, 0.3, ([0.2, -0.1], 0.4), 60.0, None),
    (lambda: _wave(3), 3, 0.5, ([0.2, 0.0, 0.3], -0.2), 60.0, None),
    (lambda: _wave(3), 3, 0.7, ([0.2, 0.0, 0.3], -0.2), 60.0, None),
    (lambda: _wave(2), 2, 0.8, ([0.2, -0.1], 0.4), 60.0, None),
    (lambda: w_family(16, 1.0, 0.5), 1, 0.5, ([0.4], 0.1), None, "kink"),
    (lambda: w_family(16, 1.0, 0.5, n=2), 2, 0.5, ([0.4, 0.0], 0.1), None, "kink"),
    (lambda: w_family(16, 1.0, 0.5, n=3), 3, 0.5, ([0.4, 0.0, 0.0], 0.1), None, "kink"),
    (lambda: _cap_wave(1), 1, 0.25, ([0.1], 0.3), 60.0, "cap"),
    (lambda: _cap_wave(2), 2, 0.25, ([0.1, 0.2], 0.3), 60.0, "cap"),
], ids=["wave-n1", "wave-n2", "wave-n3", "wave-n3-s07", "wave-n2-s08", "w16-n1", "w16-n2",
        "w16-n3", "gh-cap-n1", "gh-cap-n2"])
def test_escalation_rounds_match_the_per_panel_loop(make, n, s, at, horizon, feature):
    p, q = kernel_constants(n, s), QuadSpec()
    x0, t0 = np.array(at[0], dtype=float), at[1]
    base = make()
    if horizon is None:
        horizon = _auto_handoff(base, t0)
    u0 = base.at(x0, t0)
    runs = []
    for engine in (_difference_panels, _per_panel_difference):
        logged, seen = _order_log(base)
        u, nodes = counted(logged)
        runs.append((engine(u, u0, x0, t0, p, q, horizon), nodes(), seen))
    (res, nodes, seen), (ref, ref_nodes, ref_seen) = runs
    # every duration ends at the same order, so every panel does
    assert seen == ref_seen and nodes == ref_nodes
    if feature == "cap":
        # the size of the pruned cap rule: 128 of order 200's nodes at
        # n = 1, 2048 of the 6400 of order 80 at n = 2
        assert max(seen.values()) == {1: 128, 2: 2048}[n]
    if feature == "kink":
        # the kink at duration t0 splits a panel of the plain mesh
        assert any(lo < t0 < hi for lo, hi in _graded_panels(horizon, q.a_min, [], q))
    assert res.value == pytest.approx(ref.value, rel=1e-8)
    assert res.err_estimate == pytest.approx(ref.err_estimate, rel=1e-8)


# --- _difference_panels: the rounding floor -----------------------------------

def test_rounding_floor_keeps_large_s_at_the_s_half_node_count():
    # without the floor, the panels below a = 1e-8 ran to the order cap on
    # rounding noise: 5.5M points at s = 0.7 and 6.9M at s = 0.8, against 3.2M
    xi = np.ones(3) / math.sqrt(3.0)
    u = from_callable(lambda pts, tt: np.exp(0.5 * tt) * np.cos(pts @ xi), 3,
                      growth=GROWTH_BOUNDED)
    x, t = np.array([0.2, 0.0, 0.3]), -0.2
    runs = {s: master_op(u, (x, t), kernel_constants(3, s), QuadSpec(horizon=60.0))
            for s in (0.5, 0.7, 0.8)}
    for s, r in runs.items():
        # the symbol (lambda + |xi|^2)^s u; the horizon tail e^{-90} is neglected
        symbol = 1.5 ** s * math.exp(0.5 * t) * math.cos(x @ xi)
        assert abs(r.value - symbol) <= r.err_estimate
    assert max(runs[0.7].nodes_used, runs[0.8].nodes_used) <= runs[0.5].nodes_used


@pytest.mark.parametrize("n, s, lam, xi", [
    (1, 0.99, 2.0, [0.0]),
    (2, 0.99, 0.05, [math.sqrt(2.0), math.sqrt(2.0)]),
    (1, 0.97, 2.0, [0.0]),
    (2, 0.97, 2.0, [0.0, 0.0]),
])
def test_difference_cancels_against_the_weight_sum_of_its_rule(n, s, lam, xi):
    # near s = 1 the a^{-(1+s)} weight multiplies the rounding of
    # pi^{n/2} u0 - sum W u at small a; the stored weights of a rule sum to
    # pi^{n/2} only to their own rounding, so the tensor sum is normalised by
    # its weight sum: cancelling against pi^{n/2}, these values missed their
    # estimates by up to 2x
    xi = np.array(xi)
    u = from_callable(lambda pts, tt: np.exp(lam * tt) * np.cos(pts @ xi), n,
                      growth=GROWTH_BOUNDED)
    x, t = np.linspace(0.1, 0.3, n), 0.2
    r = master_op(u, (x, t), kernel_constants(n, s), QuadSpec(horizon=60.0))
    # the symbol (lambda + |xi|^2)^s u; the horizon tail is below e^{-100}
    assert abs(r.value - (lam + xi @ xi) ** s * math.exp(lam * t) * math.cos(x @ xi)) \
        <= r.err_estimate


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rounding_floor_covers_the_rounding_of_small_a_panels(n):
    # on panels with hi <= 1e-7 every order from 8 on resolves the wave, so
    # successive orders differ by the rounding of pi^{n/2} u0 - sum W u only
    rng = np.random.default_rng(n)
    orders = [8]
    while orders[-1] < _GH_CAP[n]:
        orders.append(min(2 * orders[-1], _GH_CAP[n]))
    for _ in range(3):
        lam, s, t0 = rng.uniform(0.1, 2.0), rng.uniform(0.1, 0.95), rng.uniform(-1.0, 1.0)
        xi = rng.normal(size=n)
        xi *= rng.uniform(0.3, 3.0) / np.linalg.norm(xi)
        x0 = rng.uniform(-1.0, 1.0, n)
        u = from_callable(lambda pts, tt: np.exp(lam * tt) * np.cos(pts @ xi), n,
                          growth=GROWTH_BOUNDED)
        p, u0 = kernel_constants(n, s), u.at(x0, t0)
        for lo, hi in _graded_panels(60.0, 1e-10, [], QuadSpec()):
            if hi > 1e-7:
                continue
            a, w = gl_panel(lo, hi, _K9)
            vals = [w @ (a ** (-1.0 - s) * (math.pi ** (n / 2.0) * u0
                                             - _gh_sums(u, x0, t0, a, order)))
                    for order in orders]
            assert np.max(np.abs(np.diff(vals))) <= _rounding_floor(lo, hi, u0, p)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rounding_floor_stays_below_the_default_tolerance_from_1e_4(n):
    # so the floor never closes a panel whose orders still resolve u there;
    # the panel (1e-4, inf) has the largest floor of all with lo >= 1e-4
    q = QuadSpec()
    panels = [(lo, hi) for lo, hi in _graded_panels(1e4, 1e-4, [], q) if lo >= 1e-4]
    lo, hi = np.array(panels + [(1e-4, math.inf)]).T
    for s in (0.01, 0.25, 0.5, 0.75, 0.9, 0.99):
        for u0 in (0.0, 0.5, -3.0, 1e6):
            floor = _rounding_floor(lo, hi, u0, kernel_constants(n, s))
            assert np.all(floor < q.panel_tol(u0))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("make, q", [
    (_wave, QuadSpec(horizon=60.0)),
    (_cap_wave, QuadSpec(horizon=60.0)),
    (lambda n: _without_hole(w_family(16, 1.0, 0.5, n=n)), QuadSpec()),
], ids=["wave", "gh-cap", "w16"])
def test_no_evaluator_call_exceeds_the_point_budget(n, make, q):
    u, sizes = _call_sizes(make(n))
    master_op(u, (np.full(n, 0.2), 0.1), kernel_constants(n, 0.5), q)
    assert 0 < max(sizes) <= max(_POINT_BUDGET, _GH_CAP[n] ** n)


@pytest.mark.skipif(sys.platform != "linux", reason="minor page faults as Linux counts them")
def test_gh_cap_at_n3_reuses_its_memory():
    # a second order-cap evaluation at n = 3 builds its points in memory the
    # process already holds; with a new array per block, three such
    # evaluations made 54k minor page faults under one driver and none under
    # another, by the allocator's state
    import resource

    u, at = _cap_wave(3), (np.array([0.1, 0.2, 0.3]), 0.3)
    p, q = kernel_constants(3, 0.25), QuadSpec(horizon=60.0)
    master_op(u, at, p, q)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    master_op(u, at, p, q)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 2000


def _traced_peak_mb(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_n3_master_op_memory_is_bounded():
    # 22.4 MB when one evaluator call took all 12 durations of a panel
    u, p, q = _wave(3), kernel_constants(3, 0.5), QuadSpec(horizon=60.0)
    master_op(u, (np.full(3, 0.2), 0.1), p, q)   # fills the rule caches
    _, peak = _traced_peak_mb(lambda: master_op(u, (np.full(3, 0.2), 0.1), p, q))
    assert peak < 8.0


def test_tensor_shell_memory_is_bounded():
    # the full space minus the ball of radius 2: at a near 1e-3 the shell
    # rule has 0.97M points, and it took 663 MB when all 12 durations of a
    # panel were evaluated at once; the value is the one of the window's
    # panels in v = 1/a
    u = from_callable(lambda pts, tt: np.exp(0.1 * tt) * np.cos(pts[:, 0]), 3,
                      growth=GROWTH_BOUNDED)
    res, peak = _traced_peak_mb(lambda: window_uM_integral(
        u, (np.zeros(3), 0.1), kernel_constants(3, 0.5), QuadSpec(), 1e-3, 100.0, r_lo=2.0))
    assert peak < 150.0
    assert res.value == pytest.approx(0.03378420140615538, rel=1e-10)
    assert 0.0 < res.err_estimate < 1e-6
