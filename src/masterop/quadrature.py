"""Singularity-aware quadrature for space-time difference integrals.

The defining integral of the operator is evaluated through the Gaussian
substitution y = x + 2 sqrt(a) z, a = t - tau, which turns the spatial
integral at each past time into a Gauss-Hermite sum and leaves a graded
geometric mesh in a to absorb the a^{-(1+s)} singularity through the
difference structure:

    int_0^inf  const * 2^n * a^{-(1+s)} * GH_z[ u(x,t) - u(x + 2 sqrt(a) z, t - a) ] da.

Three refinements make this robust at desk scale:

* per-panel escalation of the Gauss-Hermite order: the rule resolves an
  oscillation exp(i w z) only while w <= sqrt(2 * order), so panels at
  large a double the order until the panel value stabilizes;
* the contribution of the u(x,t) term beyond any horizon is the exact
  kernel mass const * (4 pi)^{n/2} * T^{-s} / s and is always added
  analytically;
* below the innermost mesh point the integrand of a smooth u scales as
  a^{1-s}; its coefficient is fitted on the innermost panels and the
  remaining mass is added in closed form (essential as s -> 1).

The remaining piece, int_{a>T} of u against the kernel, is computed by
direct non-singular quadrature over the declared support (finite windows
in a, or the substitution r = a^{-(n/2+s)} for the infinite past), and is
dropped with ``truncation_flag`` set when no support box is declared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .handles import FunctionHandle, HOLDER, constant, counted
from .kernel import KernelParams

MAX_GH_ORDER = 200

#: escalation caps keep tensor rules at sane sizes per dimension
_GH_CAP = {1: MAX_GH_ORDER, 2: 80, 3: 32}


class NumericError(RuntimeError):
    """A non-finite intermediate appeared during quadrature."""


@dataclass(frozen=True)
class QuadSpec:
    """Knobs of the singular quadrature engine.

    ``grading`` controls the geometric time mesh of the singular
    difference integral; ``panels_per_decade`` the log-spaced meshes of
    the non-singular window and shell integrals.  ``horizon`` of None
    means Auto: the engine derives the hand-off point from the support
    box and computes the remainder exactly (functions without a support
    box then require an explicit horizon).
    """

    gh_order: int = 20
    panels_per_decade: int = 4
    grading: float = 0.5
    a_min: float = 1e-10
    horizon: float | None = None
    gl_order: int = 8
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.gh_order < 1:
            raise ValueError("gh_order must be at least 1")
        if self.gh_order > MAX_GH_ORDER:
            raise ValueError(f"gh_order > {MAX_GH_ORDER} unsupported")
        if not 0.0 < self.grading < 1.0:
            raise ValueError("grading must lie in (0, 1)")
        if not 0.0 < self.a_min < math.inf:
            raise ValueError("a_min must be positive and finite")
        if self.horizon is not None and not self.a_min < self.horizon < math.inf:
            raise ValueError("horizon must be finite and exceed a_min")
        if self.gl_order < 2:
            raise ValueError("gl_order must be at least 2")
        if self.panels_per_decade < 1:
            raise ValueError("panels_per_decade must be positive")
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be positive and finite")

    @property
    def gl_lo(self) -> int:
        """Order of the rule every gl_order panel sum is checked against."""
        return max(2, self.gl_order // 2)

    def panel_tol(self, scale: float) -> float:
        """Panel tolerance of the singular integrals of a function of size ``scale``."""
        return self.rel_tol * 1e-3 * max(1.0, abs(scale))


@dataclass
class QuadResult:
    """A value and its error bound.  ``nodes_used`` counts the points at which
    the quadrature evaluated u, without the anchor value u(x, t); it is 1 for
    a constant, which is not integrated."""

    value: float
    err_estimate: float
    truncation_flag: bool = False
    nodes_used: int = 0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise NumericError("non-finite quadrature value")
        self.err_estimate = abs(self.err_estimate)


@lru_cache(maxsize=64)
def gauss_hermite_nodes(order: int):
    """Nodes and weights for weight e^{-z^2} on R (physicists' convention)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > MAX_GH_ORDER:
        raise ValueError(f"order > {MAX_GH_ORDER} unsupported")
    z, w = np.polynomial.hermite.hermgauss(order)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


@lru_cache(maxsize=64)
def _gh_tensor(order: int, n: int):
    """Tensor-product Gauss-Hermite rule on R^n: points (order^n, n), weights."""
    z, w = gauss_hermite_nodes(order)
    if n == 1:
        return z[:, None].copy(), w.copy()
    grids = np.meshgrid(*([z] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    ww = np.ones(pts.shape[0])
    for axis in range(n):
        grid_w = np.meshgrid(*([w] * n), indexing="ij")[axis].ravel()
        ww *= grid_w
    return pts, ww


@lru_cache(maxsize=32)
def _leg_base(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gl_panel(lo: float, hi: float, order: int):
    """Gauss-Legendre nodes/weights mapped to (lo, hi)."""
    x, w = _leg_base(order)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def graded_time_mesh(horizon: float, grading: float, a_min: float):
    """Geometric panels [(g a_k, a_k)] with a_0 = horizon, down to a_min.

    The panel count is ceil(log(horizon/a_min) / log(1/grading)); the
    panels are disjoint, descending, and cover (a_last, horizon].
    """
    if not math.inf > horizon > a_min > 0.0:
        raise ValueError("need finite horizon > a_min > 0")
    if not 0.0 < grading < 1.0:
        raise ValueError("grading must lie in (0, 1)")
    panels = []
    a = float(horizon)
    while a > a_min * (1.0 + 1e-12):
        panels.append((a * grading, a))
        a *= grading
    return panels


def split_panels(panels, cuts):
    """Subdivide panels at every interior cut point."""
    cuts = sorted(set(float(c) for c in cuts))
    out = []
    for lo, hi in panels:
        inner = [c for c in cuts if lo < c < hi]
        edges = [lo] + inner + [hi]
        out.extend((edges[i], edges[i + 1]) for i in range(len(edges) - 1))
    return out


def adaptive_gl(f, panels, gl_hi: int, gl_lo: int, tol: float = math.inf,
                depth_max: int = 14):
    """Integrate a vectorized integrand over panels with local bisection.

    This is the one hi/lo panel sum of the package: each panel is measured
    by a gl_hi rule against a gl_lo rule in one call of ``f``, and the
    panel error is their difference.  Panels disagreeing by more than
    ``tol`` are split; the default never splits, so the mesh is exactly
    ``panels``.  Returns (total, err, xs, fs) where xs/fs hold the gl_hi
    nodes and values of every accepted panel so callers can post-process
    (e.g. small-argument fits).
    """
    total = 0.0
    err = 0.0
    xs_all = []
    fs_all = []
    stack = [(lo, hi, 0) for lo, hi in reversed(list(panels))]
    while stack:
        lo, hi, depth = stack.pop()
        x_h, w_h = gl_panel(lo, hi, gl_hi)
        x_l, w_l = gl_panel(lo, hi, gl_lo)
        fs = np.asarray(f(np.concatenate([x_h, x_l])), dtype=float)
        cur = float(np.dot(w_h, fs[:gl_hi]))
        cur_lo = float(np.dot(w_l, fs[gl_hi:]))
        if not math.isfinite(cur):
            raise NumericError(f"non-finite integrand in panel ({lo:g}, {hi:g}]")
        if abs(cur - cur_lo) > tol and depth < depth_max:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
            continue
        total += cur
        err += abs(cur - cur_lo)
        xs_all.append(x_h)
        fs_all.append(fs[:gl_hi])
    return total, err, np.concatenate(xs_all), np.concatenate(fs_all)


def slab_mass(a_lo: float, a_hi: float, p: KernelParams) -> float:
    """Exact kernel mass int_{a_lo}^{a_hi} int_{R^n} M dy da (a_hi may be inf)."""
    upper = 0.0 if math.isinf(a_hi) else a_hi ** (-p.s)
    return p.constant * (4.0 * math.pi) ** (p.n / 2.0) * (a_lo ** (-p.s) - upper) / p.s


def _log_mesh(a_lo: float, a_hi: float, per_decade: int):
    """Log-spaced panel edges covering (a_lo, a_hi]."""
    if a_hi <= a_lo:
        return []
    decades = math.log10(a_hi / a_lo)
    m = max(1, math.ceil(decades * per_decade))
    edges = np.geomspace(a_lo, a_hi, m + 1)
    return list(zip(edges[:-1], edges[1:]))


def window_integral(Y, a_lo: float, a_hi: float, pe: float, q: QuadSpec,
                    kinks=(), pw: float | None = None, tol: float = math.inf):
    """int_{a_lo}^{a_hi} a^{-pe} Y(a) da over log-spaced panels split at ``kinks``.

    ``Y`` maps an array of durations to values.  ``a_hi`` may be inf: the
    infinite past is then mapped to r in (0, a_lo^{-pw}] by r = a^{-pw},
    where a^{-pe} Y da = a^{pw-pe+1} Y dr / pw.  ``pw`` must make that
    r-integrand bounded; the piece (0, r_last] below the r-mesh is then at
    most its endpoint value times r_last and is added to the error.
    Returns (value, err).
    """
    if math.isfinite(a_hi):
        panels = split_panels(_log_mesh(a_lo, a_hi, q.panels_per_decade),
                              [k for k in kinks if a_lo < k < a_hi])
        total, err, _, _ = adaptive_gl(lambda a: a ** (-pe) * Y(a), panels,
                                       q.gl_order, q.gl_lo, tol)
        return total, err
    r0 = a_lo ** (-pw)
    panels = split_panels(graded_time_mesh(r0, 0.5, r0 * 1e-8),
                          [k ** (-pw) for k in kinks if k > a_lo])

    def dens(rr):
        a = rr ** (-1.0 / pw)
        return a ** (pw - pe + 1.0) * Y(a)

    total, err, _, _ = adaptive_gl(dens, panels, q.gl_order, q.gl_lo, tol)
    r_last = min(lo for lo, hi in panels)
    err += abs(float(dens(np.array([r_last]))[0])) * r_last
    return total / pw, err / pw


# ---------------------------------------------------------------------------
# the singular difference integral on (0, horizon]
# ---------------------------------------------------------------------------

def _graded_panels(T: float, lo: float, kinks, q: QuadSpec):
    """The graded mesh from T down to lo, split at the kinks inside, ascending."""
    panels = split_panels(graded_time_mesh(T, q.grading, lo), [k for k in kinks if lo < k < T])
    return sorted(panels, key=lambda pair: pair[0])


def singular_integral(dens, u: FunctionHandle, T: float, lo: float, kinks,
                      s: float, scale: float, q: QuadSpec, power: int = 1):
    """int_0^T dens(x) dx, singular at x = 0, for a difference of u; returns (value, err).

    ``adaptive_gl`` sums the graded panels from T down to lo, split at
    ``kinks``, at ``q.panel_tol(scale)``; ``small_a_closure`` closes (0, lo)
    from the two innermost panels in a = x^power, dx = da / (power x^(power-1)).
    """
    panels = _graded_panels(T, lo, kinks, q)
    total, err, xs, fs = adaptive_gl(dens, panels, q.gl_order, q.gl_lo,
                                     q.panel_tol(scale))
    m = xs <= panels[min(1, len(panels) - 1)][1]
    xs = xs[m]
    closure, closure_err = small_a_closure(u, xs ** power,
                                           fs[m] / (power * xs ** (power - 1)),
                                           panels[0][0] ** power, s)
    return total + closure, err + closure_err


def _difference_panels(u: FunctionHandle, u0: float, x0, t0, p: KernelParams,
                       q: QuadSpec, horizon: float):
    """GH-difference integral on (a_min, horizon] plus sub-a_min closure.

    Returns (value, err).  The value is
    const * 2^n * int a^{-(1+s)} GH[u0 - u] da extended to a = 0 by the
    fitted small-a model; the u0 mass beyond the horizon is NOT included.
    """
    n, s = p.n, p.s
    pref = p.constant * 2.0 ** n
    sqpi_n = math.pi ** (n / 2.0)
    gh_cap = max(q.gh_order, _GH_CAP[n])

    panels = _graded_panels(horizon, q.a_min, [t0 - k for k in u.time_kinks], q)
    gl_hi, gl_lo = q.gl_order, q.gl_lo

    total = 0.0
    err = 0.0
    inner_a: list[np.ndarray] = []
    inner_dens: list[np.ndarray] = []

    for idx, (lo, hi) in enumerate(panels):
        a_h, w_h = gl_panel(lo, hi, gl_hi)
        a_l, w_l = gl_panel(lo, hi, gl_lo)
        a_all = np.concatenate([a_h, a_l])
        order = q.gh_order
        prev = None
        while True:
            Z, W = _gh_tensor(order, n)
            root = 2.0 * np.sqrt(a_all)
            pts = x0[None, None, :] + root[:, None, None] * Z[None, :, :]
            tt = np.broadcast_to((t0 - a_all)[:, None], pts.shape[:2])
            vals = u(pts, tt)
            G = sqpi_n * u0 - vals @ W
            dens = a_all ** (-1.0 - s) * G
            cur = float(np.dot(w_h, dens[:gl_hi]))
            cur_lo = float(np.dot(w_l, dens[gl_hi:]))
            if not math.isfinite(cur):
                raise NumericError(f"non-finite integrand in time panel ({lo:g}, {hi:g}]")
            done = prev is not None and abs(cur - prev) <= q.panel_tol(u0)
            if done or order >= gh_cap:
                if prev is not None:
                    err += abs(cur - prev)
                break
            prev = cur
            order = min(2 * order, gh_cap)
        total += cur
        err += abs(cur - cur_lo)
        if idx < 2:
            inner_a.append(a_h)
            inner_dens.append(dens[:gl_hi])

    closure, closure_err = small_a_closure(u, np.concatenate(inner_a),
                                           np.concatenate(inner_dens),
                                           panels[0][0], s)
    return pref * (total + closure), pref * (err + closure_err)


def small_a_closure(u: FunctionHandle, aa, dens, a_last: float, s: float):
    """Close int_0^{a_last} dens(a) da from samples dens(aa) of the innermost panels.

    The integrand is written dens = a^{-(1+s)} G(a); returns (value, err).
    """
    GG = dens * aa ** (1.0 + s)
    if u.smoothness == HOLDER:
        # only a Hölder bound is claimed: G(a) <~ K a^{s + eps/2}
        eps = u.holder_eps if u.holder_eps else 0.1
        expo = s + 0.5 * eps
        K = float(np.max(np.abs(GG) / aa ** expo)) if len(aa) else 0.0
        bound = K * a_last ** (0.5 * eps) * 2.0 / eps
        return 0.0, bound
    # smooth path: the symmetric rules (even GH, +/- r) kill the sqrt(a)
    # term, so G = c1 a + c2 a^2
    A = np.stack([aa, aa * aa], axis=1)
    coef, *_ = np.linalg.lstsq(A, GG, rcond=None)
    resid = float(np.max(np.abs(GG - A @ coef))) if len(aa) else 0.0
    value = (coef[0] * a_last ** (1.0 - s) / (1.0 - s)
             + coef[1] * a_last ** (2.0 - s) / (2.0 - s))
    # propagate the residual as coefficient-level uncertainty on c1
    sigma1 = resid / float(np.max(aa)) if len(aa) else 0.0
    err = sigma1 * a_last ** (1.0 - s) / max(1.0 - s, 1e-2)
    return float(value), err


# ---------------------------------------------------------------------------
# non-singular shell/window quadratures for int u * M over exterior pieces
# ---------------------------------------------------------------------------

def angular_rule(n: int, count: int):
    """Directions and weights summing to the sphere surface |S^{n-1}|."""
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n == 2:
        th = 2.0 * math.pi * (np.arange(count) + 0.5) / count
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        return dirs, np.full(count, 2.0 * math.pi / count)
    mu, wmu = _leg_base(max(4, count // 2))
    phi = 2.0 * math.pi * (np.arange(count) + 0.5) / count
    st = np.sqrt(1.0 - mu ** 2)
    dirs = np.stack([
        np.outer(st, np.cos(phi)).ravel(),
        np.outer(st, np.sin(phi)).ravel(),
        np.repeat(mu, count),
    ], axis=1)
    ww = np.outer(wmu, np.full(count, 2.0 * math.pi / count)).ravel()
    return dirs, ww


def radial_nodes(r_lo: float, r_hi: float, h_target: float, gl: int):
    """Gauss-Legendre nodes/weights on (r_lo, r_hi] in equal panels of width <~ h_target.

    The panel count is clipped to 1..96; nodes of all panels are built at
    once, with the same arithmetic as ``gl_panel`` on each panel.
    """
    npan = int(np.clip(math.ceil((r_hi - r_lo) / max(h_target, 1e-300)), 1, 96))
    edges = np.linspace(r_lo, r_hi, npan + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    x, w = _leg_base(gl)
    return (mid + half * x).ravel(), (half * w).ravel()


def shell_rule(n: int, r_lo: float, r_hi: float, h_target: float, gl: int,
               ang_count: int):
    """Quadrature points/weights for int_{r_lo<|y|<=r_hi} f(y) dy."""
    rr, rw = radial_nodes(r_lo, r_hi, h_target, gl)
    dirs, aw = angular_rule(n, ang_count)
    pts = rr[:, None, None] * dirs[None, :, :]
    ww = (rw * rr ** (n - 1))[:, None] * aw[None, :]
    return pts.reshape(-1, n), ww.ravel()


#: i0e switches from np.i0 to its asymptotic series here; np.i0(k) overflows near 713
_I0E_SWITCH = 500.0
#: Hankel series I_0(k) ~ e^k / sqrt(2 pi k) * sum_m c_m k^{-m} with
#: c_m = ((2m-1)!!)^2 / (m! 8^m); ten terms reach double precision for k >= 500
_I0E_HANKEL = np.cumprod([1.0] + [(2 * m - 1) ** 2 / (8.0 * m) for m in range(1, 10)])


def i0e(k):
    """Exponentially scaled modified Bessel function e^{-k} I_0(k) for k >= 0."""
    k = np.asarray(k, dtype=float)
    small = k < _I0E_SWITCH
    out = np.empty_like(k)
    ks = k[small]
    out[small] = np.i0(ks) * np.exp(-ks)
    kb = k[~small]
    out[~small] = np.polyval(_I0E_HANKEL[::-1], 1.0 / kb) / np.sqrt(2.0 * math.pi * kb)
    return out


def sphere_average(n: int, k):
    """e^{-k} int_{S^{n-1}} exp(k theta.e) dtheta (Funk-Hecke), overflow-free for k >= 0."""
    if n == 1:
        return 1.0 + np.exp(-2.0 * k)
    if n == 2:
        return 2.0 * math.pi * i0e(k)
    x = 2.0 * np.asarray(k, dtype=float)
    return 4.0 * math.pi * np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x > 0)


def _shell_values(u, x0, t0, avals, r_lo, r_hi, p: KernelParams, gl: int):
    """Y(a) = int_{r_lo<|y|<=r_hi} u(y, t0 - a) exp(-|x0-y|^2/(4a)) dy per a.

    A radial u is integrated on the radial rule alone: with k = |x0| r/(2a)
    the angular integral of the Gaussian is exp(-(|x0|-r)^2/(4a)) times
    ``sphere_average(n, k)``, and u is evaluated at r * e_1.
    """
    n = p.n
    a_ref = float(np.min(avals))
    # spacing must resolve both the kernel (scale sqrt(a)) and u itself
    width = r_hi - r_lo
    h_target = max(min(math.sqrt(a_ref), width / 24.0), width / 96.0)
    tt = t0 - avals[:, None]
    if u.radial:
        rr, rw = radial_nodes(r_lo, r_hi, h_target, gl)
        rho = float(np.linalg.norm(x0))
        a4 = 4.0 * avals[:, None]
        kern = np.exp(-(rho - rr) ** 2 / a4) * sphere_average(n, 2.0 * rho * rr / a4)
        pts = np.zeros((len(rr), n))
        pts[:, 0] = rr
        vals = u(np.broadcast_to(pts, (len(avals),) + pts.shape), tt)
        return (vals * kern) @ (rw * rr ** (n - 1))
    if n == 1:
        ang = 2
    else:
        ang = int(np.clip(8 + 2.0 * r_hi * (np.linalg.norm(x0) + 1.0) / max(a_ref, 1e-12) ** 0.5,
                          12, 64))
    pts, ww = shell_rule(n, r_lo, r_hi, h_target, gl, ang)
    d2 = np.sum((pts[None, :, :] - x0[None, None, :]) ** 2, axis=-1)
    expo = -d2 / (4.0 * avals[:, None])
    kern = np.exp(np.maximum(expo, -745.0))
    kern[expo < -745.0] = 0.0
    vals = u(np.broadcast_to(pts[None, :, :], (len(avals),) + pts.shape), tt)
    return (vals * kern) @ ww


def _fullspace_values(u, x0, t0, avals, p: KernelParams, gh: int):
    """Y(a) = int_{R^n} u(y, t0-a) exp(-|x0-y|^2/(4a)) dy via Gauss-Hermite.

    A constant c gives the exact c (4 pi a)^{n/2} without evaluating u.
    """
    if u.constant_value is not None:
        return u.constant_value * (4.0 * math.pi * avals) ** (p.n / 2.0)
    Z, W = _gh_tensor(gh, p.n)
    root = 2.0 * np.sqrt(avals)
    pts = x0[None, None, :] + root[:, None, None] * Z[None, :, :]
    tt = np.broadcast_to((t0 - avals)[:, None], pts.shape[:2])
    vals = u(pts, tt)
    return root ** p.n * (vals @ W)


def window_uM_integral(u: FunctionHandle, at, p: KernelParams, q: QuadSpec,
                       a_lo: float, a_hi: float, r_lo: float = 0.0,
                       r_hi: float | None = None):
    """int over a in (a_lo, a_hi], shell r_lo < |y| <= r_hi, of u(y, t-a) M(x-y, a).

    ``a_hi`` may be inf (handled by the substitution r = a^{-(n/2+s)}).
    ``r_hi`` of None means the full space beyond r_lo.  When u declares a
    finite support radius that is the shell up to it, exactly; otherwise
    the exterior of a ball is formed as full-space minus inner ball, which
    requires a declared growth envelope on u.  Returns (value, err).
    """
    x0 = np.atleast_1d(np.asarray(at[0], dtype=float))
    t0 = float(at[1])
    n, s = p.n, p.s
    if r_hi is None and u.support is not None and math.isfinite(u.support.radius):
        r_hi = u.support.radius
    if a_hi <= a_lo or (r_hi is not None and r_hi <= r_lo):
        return 0.0, 0.0

    full_space = r_hi is None or math.isinf(r_hi)
    if full_space and not u.past_integrable():
        raise ValueError(
            "unbounded function without support box or growth envelope: "
            "the exterior integral may diverge")

    def Y(avals):
        if full_space:
            out = _fullspace_values(u, x0, t0, avals, p, q.gh_order)
            if r_lo > 0.0:
                out = out - _shell_values(u, x0, t0, avals, 0.0, r_lo, p, q.gl_order)
            return out
        return _shell_values(u, x0, t0, avals, r_lo, r_hi, p, q.gl_order)

    a_floor = a_lo
    if r_lo > 0.0:
        # the kernel cannot reach past r_lo before a ~ gap^2: skip the dead zone
        gap = max(r_lo - float(np.linalg.norm(x0)), 0.0)
        if gap > 0.0:
            a_floor = max(a_lo, gap * gap / 2500.0)
        if a_floor >= a_hi:
            return 0.0, 0.0
    if a_floor <= 0.0:
        raise ValueError("the window must start at a positive duration")

    # for the infinite past, pw = n/2+s makes the jacobian factor 1 (shell
    # case, Y bounded); pw = s leaves a^{-n/2} Y, bounded for the
    # full-space case where Y grows like a^{n/2}
    pw = s if full_space else n / 2.0 + s
    total, err = window_integral(Y, a_floor, a_hi, p.time_exponent, q,
                                 kinks=[t0 - k for k in u.time_kinks], pw=pw)
    if not math.isfinite(total):
        raise NumericError("non-finite exterior window integral")
    return p.constant * total, p.constant * err


def exterior_spatial_mass(at, R: float, p: KernelParams, q: QuadSpec):
    """int_0^{t+R^2} int_{|y|>R} M(x-y, a) dy da, for (x, t) in Q_{R/3}.

    The exterior window of the constant 1: exact full-space mass minus the
    ball.  Returns (value, err).
    """
    return window_uM_integral(constant(1.0, p.n), at, p, q, 0.0,
                              float(at[1]) + R * R, r_lo=R)


# ---------------------------------------------------------------------------
# the public difference integral
# ---------------------------------------------------------------------------

def _auto_handoff(u: FunctionHandle, t0: float) -> float:
    """Hand-off point between the GH difference route and direct windows."""
    T = 1.0
    sup = u.support
    if math.isfinite(sup.radius) and sup.radius > 0:
        T = max(T, (sup.radius / 10.0) ** 2)
    elif sup.t_lo > -math.inf:
        # purely temporal support: the GH route must span the window itself
        T = max(T, t0 - sup.t_lo)
    return T


def integrate_difference(u: FunctionHandle, at, p: KernelParams,
                         q: QuadSpec) -> QuadResult:
    """Evaluate int_{-inf}^t int_{R^n} (u(x,t) - u(y,tau)) M(x-y, t-tau) dy dtau.

    The u(x,t) mass beyond the horizon is always added in closed form.
    With an Auto horizon the support box must be declared and the
    exterior-in-time remainder of u is computed exactly; with an explicit
    horizon the remainder beyond it is dropped and ``truncation_flag``
    signals that.
    """
    if u.dim != p.n:
        raise ValueError(f"function dimension {u.dim} != kernel dimension {p.n}")
    x0 = np.atleast_1d(np.asarray(at[0], dtype=float))
    t0 = float(at[1])
    if not (np.all(np.isfinite(x0)) and math.isfinite(t0)):
        raise ValueError("evaluation point must be finite")
    if u.constant_value is not None:
        # the difference vanishes identically
        return QuadResult(value=0.0, err_estimate=0.0, nodes_used=1)

    sup = u.support
    if q.horizon is None and sup is None:
        raise ValueError(
            "horizon=Auto requires a declared support box; pass an explicit "
            "horizon for functions without one (the tool never silently truncates)")

    T_total = float(q.horizon) if q.horizon is not None else math.inf

    # with no support box to hand off to, the GH route spans the whole horizon
    hand = T_total if sup is None else min(_auto_handoff(u, t0), T_total)
    hand = max(hand, 16.0 * q.a_min)

    u0 = u.at(x0, t0)
    u, nodes = counted(u)
    value, err = _difference_panels(u, u0, x0, t0, p, q, hand)

    # exact mass of the u(x,t) term over (hand, inf)
    value += u0 * slab_mass(hand, math.inf, p)

    # remaining -int_{a>hand} int u M: direct over the support window
    u_gone_past = t0 - sup.t_lo if (sup is not None and sup.t_lo > -math.inf) else math.inf
    accounted = hand
    if sup is not None and math.isfinite(sup.radius):
        upper = max(min(T_total, u_gone_past), hand)
        if upper > hand:
            w, we = window_uM_integral(u, (x0, t0), p, q, hand, upper,
                                       r_lo=0.0, r_hi=sup.radius)
            value -= w
            err += we
        accounted = upper
    # everything beyond max(accounted, where u vanishes) is unknowable
    truncated = accounted < u_gone_past

    return QuadResult(value=value, err_estimate=err,
                      truncation_flag=truncated, nodes_used=nodes())
