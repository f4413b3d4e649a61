"""Public operator API: the fully fractional heat operator and friends.

``master_op`` evaluates (d_t - Lap)^s u(x, t) through the space-time
difference quadrature.  ``fractional_laplacian`` and ``marchaud`` are the
time- and space-independent reductions, each by a direct 1-D singular
quadrature; ``master_op`` at (x, 0) or (0, t) is the independent
cross-check of either.  ``difference_decomposition`` splits the
difference of two operator values into the interior, exterior-error and
tail terms at scale R.

Normalized mode uses the calibrated constants, under which all three
operators agree on their common domains; raw mode sets every operator
constant to 1 (the three raw operators are then *not* reductions of one
another).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import handles as hd
from .defect import tail_functional
from .handles import FunctionHandle
from .kernel import KernelParams, in_mode, kernel_constants
from .quadrature import (
    QuadResult,
    QuadSpec,
    angular_rule,
    checked_point,
    exterior_spatial_mass,
    in_blocks,
    integrate_difference,
    singular_integral,
    slab_mass,
    window_integral,
    window_uM_integral,
)
from .regions import check_scale


def master_op(u: FunctionHandle, at, p: KernelParams, q: QuadSpec) -> QuadResult:
    """(d_t - Lap)^s u at ``at = (x, t)``."""
    return integrate_difference(u, at, p, q)


# ---------------------------------------------------------------------------
# fractional Laplacian
# ---------------------------------------------------------------------------

def fractional_laplacian(u: FunctionHandle, x, p: KernelParams, q: QuadSpec) -> QuadResult:
    """(-Lap)^s of a time-independent function, at the spatial point x.

    C_{n,s}/2 * int r^{-1-2s} * 2 sum_angles (u(x) - u(x+r th)) dr: the 16-direction
    rule holds -th with th, so this is the symmetric second difference, O(r^2).
    The rule is exact for radial profiles; for globally oscillatory u in n >= 2
    the angular resolution, not the radial mesh, limits accuracy at large radii.
    Each bisection level of the radial mesh is evaluated ``in_blocks``.  In a declared
    hole (``SupportBox.inner``) of a finite-radius u frozen by t = 0 it is one window.
    """
    n, s = p.n, p.s
    C = in_mode(p.C_ns_lap, p.normalization)
    x0, _ = checked_point(u, (x, 0.0), p)
    if u.constant_value is not None:
        return QuadResult(value=0.0, err_estimate=0.0, nodes_used=1)
    u0 = u.at(x0, 0.0)
    u, nodes = hd.counted(u)
    dirs, aw = angular_rule(n, 16)
    omega = float(np.sum(aw))

    sup = u.support
    if (sup is not None and math.isfinite(sup.radius) and np.linalg.norm(x0) < sup.inner
            and u.frozen_until is not None and u.frozen_until >= 0.0):
        # -C int u |x-y|^{-2k}, k = n/2 + s: int_0^inf a^{-1-k} e^{-r^2/4a} da = Gamma(k) (4/r^2)^k
        k, res = n / 2.0 + s, window_uM_integral(u, (x0, 0.0), p, q, 0.0, math.inf)
        return replace(-C / (math.gamma(k) * 4.0 ** k * p.constant) * res, nodes_used=nodes())
    truncated = False
    if sup is not None and math.isfinite(sup.radius):
        r_cut = sup.radius + float(np.linalg.norm(x0)) + 1.0
    else:
        # oscillatory tails die like r^{-1-2s}; 1e4 puts them below 1e-8
        r_cut = max(1e4, math.sqrt(q.horizon)) if q.horizon is not None else 1e4
        truncated = True

    def diff(rr):
        pts = x0[None, None, :] + rr[:, None, None] * dirs[None, :, :]
        return u0 * omega - u(pts, np.zeros(pts.shape[:2])) @ aw

    def dens(rr):
        return rr ** (-1.0 - 2.0 * s) * 2.0 * in_blocks(diff, rr, len(aw))

    # over the symmetric rule the difference is O(r^2): close in a = r^2;
    # the 2 u(x) term has an analytic tail, while the u(x + r th) tail
    # vanishes beyond the support and is dropped (flagged) otherwise
    res = (singular_integral(dens, u, r_cut, math.sqrt(q.a_min), (), s, u0, q, power=2)
           + 2.0 * u0 * omega * r_cut ** (-2.0 * s) / (2.0 * s))
    return replace(0.5 * C * res, truncation_flag=truncated, nodes_used=nodes())


# ---------------------------------------------------------------------------
# Marchaud fractional time derivative
# ---------------------------------------------------------------------------

def marchaud(u: FunctionHandle, t: float, p: KernelParams, q: QuadSpec) -> QuadResult:
    """One-sided fractional time derivative of order s at time t.

    C_s int_0^inf (u(t) - u(t-a)) a^{-1-s} da with graded panels.
    """
    s = p.s
    C = in_mode(p.C_s, p.normalization)
    x0, t0 = checked_point(u, (np.zeros(u.dim), t), p)
    if u.constant_value is not None:
        return QuadResult(value=0.0, err_estimate=0.0, nodes_used=1)
    u0 = u.at(x0, t0)
    u, nodes = hd.counted(u)

    sup = u.support
    past_end = t0 - sup.t_lo if (sup is not None and sup.t_lo > -math.inf) else math.inf
    if math.isinf(past_end) and not u.past_integrable() and q.horizon is None:
        raise ValueError("possibly divergent past growth: declare a growth "
                         "envelope or support box, or pass an explicit horizon")

    if q.horizon is not None:
        T = float(q.horizon)
    elif math.isfinite(past_end):
        T = max(1.0, past_end)
    else:
        T = 1.0   # the past window machinery covers (T, inf)

    kinks = [t0 - k for k in u.time_kinks]

    def vals(aa):
        return u(np.zeros(np.shape(aa) + (u.dim,)), t0 - aa)

    def dens(aa):
        return aa ** (-1.0 - s) * (u0 - vals(aa))

    # u(t) mass beyond T is analytic; the past tail of u is windowed
    res = singular_integral(dens, u, T, q.a_min, kinks, s, u0, q) + u0 * T ** (-s) / s
    truncated = False
    if past_end > T:
        if math.isfinite(past_end) or u.past_integrable():
            # for the infinite past pw = s leaves u itself, f(v) = u(t - 1/v), in v = 1/a
            res = res - window_integral(vals, T, past_end, 1.0 + s, kinks=kinks,
                                        pw=s, tol=q.panel_tol(0.0))
        else:
            truncated = True
    return replace(C * res, truncation_flag=truncated, nodes_used=nodes())


# ---------------------------------------------------------------------------
# the I / E / F decomposition
# ---------------------------------------------------------------------------

@dataclass
class DecompositionResult:
    I: float
    E: float
    F: float
    R: float
    err_estimate: float
    nodes_used: int = 0
    #: diagnostic: exterior kernel mass at scale R (decays like R^{-2s})
    ext_mass: float = 0.0


def difference_decomposition(u: FunctionHandle, ui: FunctionHandle, at,
                             R: float, p: KernelParams,
                             q: QuadSpec) -> DecompositionResult:
    """Split master(u) - master(ui) at (x, t) into I + E + F at scale R.

    I integrates the difference of v = u - ui over the interior cylinder,
    E the exterior error term of u, F the exterior tail of ui; the three
    reproduce the full difference integral up to the error estimates.
    """
    check_scale(at, R)
    at = x0, t0 = checked_point(u, at, p)
    v = hd.combine([1.0, -1.0], [u, ui])
    v0 = v.at(x0, t0)
    T = t0 + R * R

    # the difference integral of v with its u(y) part cut at T: the v0
    # mass beyond T is then removed with the exterior mass below
    D = integrate_difference(v, at, p, replace(q, horizon=T))
    mass = exterior_spatial_mass(at, R, p, q)
    ext_mass = mass.value + slab_mass(T, math.inf, p)
    v, nodes = hd.counted(v)
    reg = window_uM_integral(v, at, p, q, 0.0, T, r_lo=R)
    I = D.value - v0 * ext_mass + reg.value

    F_u = tail_functional(u, at, R, p, q)
    F_ui = tail_functional(ui, at, R, p, q)
    E = v0 * ext_mass - F_u.value
    err = (D.err_estimate + reg.err_estimate + abs(v0) * mass.err_estimate
           + F_u.err_estimate + F_ui.err_estimate)
    return DecompositionResult(I=I, E=E, F=F_ui.value, R=R, err_estimate=err,
                               nodes_used=D.nodes_used + nodes() + F_u.nodes_used + F_ui.nodes_used,
                               ext_mass=ext_mass)


# ---------------------------------------------------------------------------
# classical heat limit
# ---------------------------------------------------------------------------

def classical_heat(u: FunctionHandle, at, step: float = 1e-4) -> float:
    """(d_t - Lap) u by second-order central differences."""
    x0 = np.atleast_1d(np.asarray(at[0], dtype=float))
    t0 = float(at[1])
    h = step
    pts = [x0]
    for i in range(u.dim):
        e = np.zeros(u.dim)
        e[i] = h
        pts.extend([x0 + e, x0 - e])
    pts = np.array(pts)
    tt = np.full(len(pts), t0)
    vals = u(pts, tt)
    lap = sum((vals[1 + 2 * i] - 2.0 * vals[0] + vals[2 + 2 * i]) / (h * h)
              for i in range(u.dim))
    ut = (u.at(x0, t0 + h) - u.at(x0, t0 - h)) / (2.0 * h)
    return ut - lap


def heat_limit_check(u: FunctionHandle, at, s_list, p: KernelParams,
                     q: QuadSpec):
    """Master values over s_list plus the classical (d_t - Lap) u value."""
    rows = []
    for s in s_list:
        ps = kernel_constants(p.n, float(s), p.normalization)
        rows.append((float(s), master_op(u, at, ps, q).value))
    return rows, classical_heat(u, at)
