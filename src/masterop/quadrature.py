"""Singularity-aware quadrature for space-time difference integrals.

The defining integral of the operator is evaluated through the Gaussian
substitution y = x + 2 sqrt(a) z, a = t - tau, which turns the spatial
integral at each past time into a Gauss-Hermite sum and leaves a graded
geometric mesh in a to absorb the a^{-(1+s)} singularity through the
difference structure:

    int_0^inf  const * 2^n * a^{-(1+s)} * GH_z[ u(x,t) - u(x + 2 sqrt(a) z, t - a) ] da.

The Gauss-Hermite sums come from ``spatial_average``: the tensor rule of
``_gh_tensor``, the heaviest 2^k of the order^n product nodes that leave
out at most 1e-18 of the weight (Jäckel 2005), or for a radial u at
n = 2, 3 a 1-D rule in r = |y| (the odd extension of r u(r) at n = 3,
Gauss-Legendre panels against the Funk-Hecke kernel ``_funk_hecke`` of the
radial shell integrals at n = 2), each normalised by its weight sum so
that a constant is exact.  ``gl_panel`` maps every panel
rule of this module.  Every time panel takes the 9-point Gauss-Kronrod
rule K9 for its value, checked against the 4-point Gauss rule G4 on its
odd nodes; ``_panel_sums`` is that one panel sum, shared by
``adaptive_gl`` and the difference panels.

Three refinements make this robust at desk scale:

* escalation of the Gauss-Hermite order in rounds: the rule resolves an
  oscillation exp(i w z) only while w <= sqrt(2 * order), so each round
  doubles the order of every panel whose value has not yet stabilized,
  that is, until two successive orders agree to within the larger of the
  tolerance and the rounding floor of the cancelling difference;
* the contribution of the u(x,t) term beyond any horizon is the exact
  kernel mass const * (4 pi)^{n/2} * T^{-s} / s and is always added
  analytically;
* below the innermost mesh point the integrand of a smooth u scales as
  a^{1-s}; its coefficient is fitted on the innermost panels and the
  remaining mass is added in closed form (essential as s -> 1).

The remaining piece, int_{a>T} of u against the kernel, is computed by
direct non-singular quadrature over the declared support: in u's frozen
past one radial integral against the kernel's time integral, an incomplete
gamma function (``_frozen_window``), elsewhere panels halving in v = 1/a
(``window_integral``), in r = v^{pw} on a moving infinite past closed at
v = 0 by a product-rule panel; dropped, with ``truncation_flag``, when no
support box is declared.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .handles import FunctionHandle, HOLDER, NumericError, SupportBox, constant, counted
from .kernel import KernelParams

MAX_GH_ORDER = 200

#: escalation caps keep tensor rules at sane sizes per dimension
_GH_CAP = {1: MAX_GH_ORDER, 2: 80, 3: 32}
#: the n = 2 radial average spans rho +- _RADIAL_REACH * 2 sqrt(a) in r,
#: where the Gaussian has fallen to e^{-81}
_RADIAL_REACH = 9.0

#: the Gauss-Legendre order of the spatial panels (radial and shell rules)
_GL_HI = 8
#: the time panels' rule on (-1, 1), (nodes ascending, weights): the Gauss-Kronrod
#: rule K9 (Kronrod 1965), exact to degree 13; its odd columns are the 4-point Gauss
#: rule G4.  Constants: computing them would load LAPACK (0.5 MB resident)
_K9 = tuple(np.concatenate([half, sign * half[-2::-1]]) for half, sign in (
    (np.array([-0.97656025073757311153, -0.86113631159405257522, -0.6402862174963099824,
               -0.3399810435848562648, 0.0]), -1.0),
    (np.array([0.062977373665473014765, 0.1700536053357227268, 0.26679834045228444803,
               0.32694918960145162956, 0.34644298189013636168]), 1.0)))
_G4 = (_K9[0][1::2], np.array([0.34785484513745385737, 0.65214515486254614263,
                               0.65214515486254614263, 0.34785484513745385737]))
#: a panel sum's rounding, in units of eps times a bound on its terms: for a
#: difference panel eps pi^{n/2} max(1, |u0|) int a^{-(1+s)} da over the panel,
#: where, on panels of pure cancellation (a <= 1e-7), successive orders of
#: random plane waves stepped by at most 6.6 such units; for an adaptive_gl
#: panel eps sum |w f| over its K9 terms
_ROUNDING_FLOOR = 16
#: adaptive_gl bisects a panel at most this many times
_BISECT_DEPTH = 14
#: fixed Gauss-Hermite order of the full-space window values
_FULLSPACE_GH = 20
#: the tensor Gauss-Hermite rules drop product nodes of at most this share
#: of the weight sum (``_gh_tensor``)
_GH_DROP = 1e-18
#: points of u one evaluator call is handed at most, unless one duration
#: alone needs more (``in_blocks``); two n=3 durations at the order cap 32,
#: whose pruned rule holds 2^14 nodes
_POINT_BUDGET = 2 ** 15
#: points of u one shell-window evaluator call is handed at most, in whole
#: adaptive_gl panels, unless one panel alone needs more; over two bench
#: `defect` passes, blocks of 2^15 points made 15x the minor page faults
#: and peaked 3 MB higher
_SHELL_BLOCK = 2 ** 13
#: the kernel's dead zone: at |x - y| >= g, a <= g^2 / _DEAD_ZONE holds under 1e-19 of
#: int_0^inf a^{-pe} exp(-|x - y|^2/(4a)) da (Gamma(n/2 + s, 50) / Gamma(n/2 + s), s < 1)
_DEAD_ZONE = 200.0


@dataclass(frozen=True)
class QuadSpec:
    """Knobs of the singular quadrature engine.

    ``gh_order`` (default 4) is the Gauss-Hermite order each time panel of
    the difference integral starts at (at least 2 for a radial u at n = 2,
    3); in each escalation round the order of every open panel doubles, up
    to the cap of ``_gh_orders``, and a panel closes once two successive
    orders agree to within the larger of the tolerance and the rounding
    floor.  ``grading`` controls the geometric time mesh of that integral.
    ``horizon`` of None means Auto: the engine derives the hand-off point
    from the support box and computes the remainder exactly (functions
    without a support box then require an explicit horizon).
    """

    gh_order: int = 4
    grading: float = 0.5
    a_min: float = 1e-10
    horizon: float | None = None
    rel_tol: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.gh_order, numbers.Integral) or self.gh_order < 1:
            raise ValueError(f"gh_order must be an integer of at least 1, got {self.gh_order!r}")
        if self.gh_order > MAX_GH_ORDER:
            raise ValueError(f"gh_order > {MAX_GH_ORDER} unsupported")
        if not 0.0 < self.grading < 1.0:
            raise ValueError("grading must lie in (0, 1)")
        if not 0.0 < self.a_min < math.inf:
            raise ValueError("a_min must be positive and finite")
        if self.horizon is not None and not self.a_min < self.horizon < math.inf:
            raise ValueError("horizon must be finite and exceed a_min")
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be positive and finite")

    def panel_tol(self, scale: float) -> float:
        """Panel tolerance of the singular integrals of a function of size ``scale``."""
        return self.rel_tol * 1e-3 * max(1.0, abs(scale))


@dataclass(frozen=True)
class QuadResult:
    """A value and its error bound, the result of every stage.  ``nodes_used``
    counts the points at which the quadrature evaluated u, without the anchor
    value u(x, t); it is 1 for a constant, which is not integrated.  ``a + b``
    adds values, errors and ``nodes_used`` and ORs ``truncation_flag``, and a
    number is an exact term (error 0); ``c * r`` scales the value by c and the
    error by |c|; ``a - b`` is ``a + -1.0 * b``, so errors add.  A non-finite
    value or error raises NumericError."""

    value: float
    err_estimate: float
    truncation_flag: bool = False
    nodes_used: int = 0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise NumericError("non-finite quadrature value")
        if not math.isfinite(self.err_estimate):
            raise NumericError("non-finite quadrature error estimate")
        object.__setattr__(self, "err_estimate", abs(self.err_estimate))

    def __add__(self, other):
        o = other if isinstance(other, QuadResult) else QuadResult(other, 0.0)
        return QuadResult(self.value + o.value, self.err_estimate + o.err_estimate,
                          self.truncation_flag or o.truncation_flag, self.nodes_used + o.nodes_used)

    def __mul__(self, c):
        return QuadResult(c * self.value, abs(c) * self.err_estimate,
                          self.truncation_flag, self.nodes_used)

    def __sub__(self, other):
        return self + -1.0 * other

    __radd__, __rmul__ = __add__, __mul__


def checked_point(u: FunctionHandle, at, p: KernelParams):
    """The evaluation point ``at = (x, t)`` as (x0 array, t0 float).

    Raises ValueError unless u, x and the kernel share one dimension and
    x and t are finite.
    """
    x0 = np.atleast_1d(np.asarray(at[0], dtype=float))
    t0 = float(at[1])
    if u.dim != p.n or x0.shape != (p.n,):
        raise ValueError(f"function dimension {u.dim}, point dimension {x0.size} "
                         f"and kernel dimension {p.n} differ")
    if not (np.all(np.isfinite(x0)) and math.isfinite(t0)):
        raise ValueError("evaluation point must be finite")
    return x0, t0


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


def _heaviest(W, k: int):
    """A mask of the k heaviest entries of W, of equal weights the first ones.

    A quickselect on masks, not a sort: numpy's sort kernels are code a
    process would otherwise never load (0.3-0.5 MB resident).
    """
    c, rest = W, k
    while True:
        pivot = c[len(c) // 2]
        above = c[c > pivot]
        if len(above) >= rest:
            c = above
            continue
        rest -= len(above)
        ties = int(np.count_nonzero(c == pivot))
        if rest <= ties:
            break
        rest -= ties
        c = c[c < pivot]
    keep = W > pivot
    keep[np.flatnonzero(W == pivot)[:rest]] = True
    return keep


@lru_cache(maxsize=64)
def _gh_tensor(order: int, n: int):
    """Pruned tensor-product Gauss-Hermite rule on R^n: points (m, n), weights (m,).

    Of the order^n product nodes it keeps, in their tensor order, the m
    heaviest, where m is the smallest power of two whose dropped weight is
    at most _GH_DROP of the weight sum, or order^n when no power of two
    below it qualifies (Jäckel 2005).  A power of two, so that the blocks of
    ``in_blocks`` stay full.  Every rule up to order 20 keeps all its
    nodes.  Of the escalation orders from 4, order 128 at n = 1 keeps 64
    and 200 keeps 128, 64 and 80 at n = 2 keep 2048, and 32 at n = 3 keeps
    16,384; orders 23 and 24 at n = 2 keep 512, and 21 and 22 at n = 3 keep
    8192.
    """
    z, w = gauss_hermite_nodes(order)
    pts = np.stack([g.ravel() for g in np.meshgrid(*([z] * n), indexing="ij")], axis=1)
    W = np.prod(np.meshgrid(*([w] * n), indexing="ij"), axis=0).ravel()
    # the dropped weight falls as m doubles: halve m from the largest power
    # of two below order^n while the drop stays small enough
    limit = _GH_DROP * W.sum()
    keep, m = None, 1 << max(0, (len(W) - 1).bit_length() - 1)
    while m >= 1:
        heavy = _heaviest(W, m)
        if W[~heavy].sum() > limit:
            break
        keep, m = heavy, m // 2
    return (pts, W) if keep is None else (pts[keep], W[keep])


@lru_cache(maxsize=64)
def _gh_scale(order: int, n: int):
    """pi^{n/2} over the weight sum of ``_gh_tensor(order, n)``."""
    return math.pi ** (n / 2.0) / _gh_tensor(order, n)[1].sum()


def in_blocks(f, rows, points_per_entry: int):
    """``f`` on consecutive blocks of the flat ``rows``, the results in the shape of ``rows``.

    A block holds max(1, _POINT_BUDGET // points_per_entry) entries, so that
    ``f`` evaluates u at no more than _POINT_BUDGET points unless one entry
    alone needs more.  Apart from a buffer it may reuse for every block,
    the arrays ``f`` builds for one block are freed when it returns, before
    the next block is built.
    """
    flat, step = np.ravel(rows), max(1, _POINT_BUDGET // points_per_entry)
    return np.concatenate([f(flat[i:i + step])
                           for i in range(0, len(flat), step)]).reshape(np.shape(rows))


def _row_dots(m, w):
    """``m @ w`` by one dot product per row: gemv sums a row by a kernel chosen by its
    place in ``m``, so a duration's value would depend on its block."""
    return np.matmul(m[:, None, :], w[:, None])[:, 0, 0]


def _gh_sums(u: FunctionHandle, x0, t0: float, avals, order: int):
    """sum_k W_k u(x0 + 2 sqrt(a) Z_k, t0 - a) per duration a, on the pruned rule of
    ``_gh_tensor``.

    The call allocates one buffer, sized for its first (largest) block:
    row 0 holds x0 at every node, and every block builds its points in the
    rows below, so u's evaluator must not keep them.  With new arrays per
    block the process page-faulted by the allocator's state: the bench's
    n = 3 ops made from under 500 to 54k minor faults per pass.
    """
    Z, W = _gh_tensor(order, len(x0))
    # flat products, not a broadcast over the short last axis of length n > 1;
    # at n = 1 x0 broadcasts as a scalar, faster than a row of short blocks
    flat = Z.ravel()
    buf = None

    def block(a):
        nonlocal buf
        if buf is None:
            buf = np.empty((len(a) + 1, flat.size))
            buf[0].reshape(Z.shape)[:] = x0
        pts = np.multiply(2.0 * np.sqrt(a)[:, None], flat, out=buf[1:len(a) + 1])
        pts += buf[0] if len(x0) > 1 else x0
        pts = pts.reshape((len(a),) + Z.shape)
        return _row_dots(u(pts, np.broadcast_to((t0 - a)[:, None], pts.shape[:2])), W)

    return in_blocks(block, avals, len(W))


def _on_axis(u: FunctionHandle, rr, tt):
    """A radial u at |r| e_1: radii ``rr`` in one row or a row per entry of the times ``tt``."""
    pts = np.zeros(np.shape(rr) + (u.dim,))
    pts[..., 0] = np.abs(rr)
    return u(np.broadcast_to(pts, (len(tt),) + pts.shape[-2:]), tt)


def _funk_hecke(n: int, rho, rr, a):
    """int_{S^{n-1}} exp(-|x0 - r theta|^2/(4a)) dtheta at |x0| = rho (Funk-Hecke); times
    rw r^{n-1}, the weight of u(r) in int u(y) exp(-|x0 - y|^2/(4a)) dy on a radial rule."""
    return np.exp(-(rho - rr) ** 2 / (4.0 * a)) * sphere_average(n, 2.0 * rho * rr / (4.0 * a))


def _radial_sums(u: FunctionHandle, x0, t0: float, avals, order: int):
    """The radial body of ``spatial_average`` at n = 2, 3: a 1-D rule in r = |y|.

    Each duration a, with c = 2 sqrt(a), rho = |x0| and beta = rho / c, gets
    radii r and weights v, and returns pi^{n/2} sum v u(r e_1) / sum v, so
    that a constant is exact at every order.  At n = 3 the odd extension of
    r u(r) turns the average into a 1-D Gauss-Hermite sum on
    ``gauss_hermite_nodes(order)`` (at least 2 nodes): shifted, r = rho + c z
    and v = w r, when beta > 1; centred, r = c z and
    v = w z^2 sinh(2 beta z) / (2 beta z), when beta <= 1, which is even in
    z: on the nodes z >= 0, weights doubled but at z = 0, and in blocks of
    its own.  At n = 2, r runs over the ``radial_nodes`` of
    max(1, order // 2) equal panels on
    (max(0, rho - 9c), rho + 9c) and v is r dr times the angular integral
    of the Gaussian, ``_funk_hecke``, as in the radial shell integrals.
    """
    n = len(x0)
    rho = float(np.linalg.norm(x0))
    if n == 3:
        z, w = gauss_hermite_nodes(max(order, 2))
        zc, wc = z[len(z) // 2:], (np.where(z > 0.0, 2.0, 1.0) * w)[len(z) // 2:]
    else:
        # the panels' nodes z and weights w on (0, 1)
        z, w = radial_nodes(0.0, 1.0, max(1, order // 2))

    def block(a, centred=False):
        c = 2.0 * np.sqrt(a)[:, None]
        if centred:
            k = 2.0 * (rho / c) * zc
            sinhc = np.divide(np.sinh(k), k, out=np.ones_like(k), where=k != 0)
            rr, v = c * zc, wc * (zc * zc * sinhc)
        elif n == 3:
            rr = rho + c * z
            v = w * rr
        else:
            lo = np.maximum(rho - _RADIAL_REACH * c, 0.0)
            width = rho + _RADIAL_REACH * c - lo
            rr = lo + width * z
            v = width * w * rr * _funk_hecke(n, rho, rr, a[:, None])
        vals = _on_axis(u, rr, (t0 - a)[:, None])
        return math.pi ** (n / 2.0) * np.sum(v * vals, axis=1) / np.sum(v, axis=1)

    if n == 2:
        return in_blocks(block, avals, len(z))
    out, far = np.empty(np.shape(avals)), rho / (2.0 * np.sqrt(avals)) > 1.0
    for rows, centred, size in ((far, False, len(z)), (~far, True, len(zc))):
        if rows.any():
            out[rows] = in_blocks(partial(block, centred=centred), avals[rows], size)
    return out


def spatial_average(u: FunctionHandle, x0, t0: float, avals, order: int):
    """sum_k W_k u(x0 + 2 sqrt(a) Z_k, t0 - a) per duration a: the Gauss-Hermite
    average of u(., t0 - a) against exp(-|z|^2) around x0, pi^{n/2} for u = 1.

    A radial u at n = 2, 3 takes the 1-D rule of ``_radial_sums``; any
    other u the tensor rule of ``_gh_sums``, whose sum is scaled by
    pi^{n/2} / sum W as the radial sums are: so the difference panels'
    pi^{n/2} u0 - sum W u cancels against the weight sum of the rule in
    use, not against pi^{n/2}, which the stored weights sum to only to
    their rounding.  Both are evaluated
    ``in_blocks``, under _POINT_BUDGET, and keep the shape of ``avals``,
    such as the (panels, 9) rows of the difference panels' K9 nodes.
    """
    if u.radial and len(x0) > 1:
        return _radial_sums(u, x0, t0, avals, order)
    return _gh_sums(u, x0, t0, avals, order) * _gh_scale(order, len(x0))


def _gh_orders(u: FunctionHandle, q: QuadSpec):
    """The start order and the cap of u's difference panels.

    The tensor rule runs from ``q.gh_order`` to _GH_CAP of u's dimension.
    A radial u at n = 2, 3 (a 1-D rule) runs to MAX_GH_ORDER from order 2
    at least: its orders 1 and 2 give one rule, and two equal rules would
    close a panel on the crudest one; from order 2 on, each doubling refines.
    """
    if u.radial and u.dim > 1:
        return max(q.gh_order, 2), MAX_GH_ORDER
    return q.gh_order, max(q.gh_order, _GH_CAP[u.dim])


@lru_cache(maxsize=32)
def _leg_base(order: int):
    return np.polynomial.legendre.leggauss(order)


def gl_panel(lo: float, hi: float, rule):
    """Nodes/weights of ``rule`` mapped to (lo, hi), for every panel rule of this module:
    ``rule`` is a Gauss-Legendre order or a rule (nodes, weights) on (-1, 1), such
    as _K9.  Column arrays map one panel per row."""
    x, w = _leg_base(rule) if isinstance(rule, numbers.Integral) else rule
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _panel_sums(fs, w, w4, edges):
    """Per panel, a row of ``fs`` at its K9 nodes: the K9 sum (weights ``w``) and its
    distance to the G4 sum on the odd columns (``w4``).  NumericError names a panel
    with a non-finite K9 sum, which a non-finite value at any node makes."""
    val = np.sum(w * fs, axis=1)
    if not np.all(np.isfinite(val)):
        a, b = edges[np.argmin(np.isfinite(val))]
        raise NumericError(f"non-finite integrand in panel ({a:g}, {b:g}]")
    return val, np.abs(val - np.sum(w4 * fs[:, 1::2], axis=1))


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


def adaptive_gl(f, panels, tol: float = math.inf):
    """Integrate a vectorized integrand over panels with local bisection.

    Each panel is measured by ``_panel_sums``: the K9 rule on the nodes of
    ``gl_panel``, and as its error the distance to the G4 rule on four of
    them.  Panels whose error exceeds ``tol`` are halved, at most
    _BISECT_DEPTH times; the default never splits, so the mesh is exactly
    ``panels``.  An accepted panel reports that distance plus the rounding
    of its K9 sum, _ROUNDING_FLOOR eps sum |w f|, which no split test reads.
    ``f`` is called once per bisection level, on the level's (panels, 9)
    matrix of nodes, one panel per row, and returns values of that shape.
    Returns (QuadResult, xs, fs) where xs/fs hold the 9 nodes and values of
    each accepted panel in the order of ``panels``, halves left to right,
    so callers can post-process (e.g. small-argument fits).
    """
    edges = np.array(panels, dtype=float).reshape(-1, 2)
    owner = np.arange(len(edges))
    done = []   # per level: owner, lo, panel value, panel error, nodes, values
    for depth in range(_BISECT_DEPTH + 1):
        lo, hi = edges[:, :1], edges[:, 1:]
        xs, w = gl_panel(lo, hi, _K9)
        fs = np.asarray(f(xs), dtype=float)
        cur, diff = _panel_sums(fs, w, gl_panel(lo, hi, _G4)[1], edges)
        split = (diff > tol) & (depth < _BISECT_DEPTH)
        # |K9 - G4| cannot see the rounding of the K9 sum: the error takes it, the
        # split test does not
        err = diff + _ROUNDING_FLOOR * np.finfo(float).eps * np.abs(w * fs).sum(axis=1)
        done.append((owner[~split], edges[~split, 0], cur[~split], err[~split],
                     xs[~split], fs[~split]))
        if not split.any():
            break
        mid = 0.5 * (hi + lo)
        edges = np.vstack([np.hstack([lo, mid])[split], np.hstack([mid, hi])[split]])
        owner = np.tile(owner[split], 2)
    owner, lo, cur, diff, xs, fs = (np.concatenate(parts) for parts in zip(*done))
    order = np.lexsort((lo, owner))
    return (QuadResult(float(np.sum(cur[order])), float(np.sum(diff[order]))),
            xs[order].ravel(), fs[order].ravel())


def slab_mass(a_lo: float, a_hi: float, p: KernelParams) -> float:
    """Exact kernel mass int_{a_lo}^{a_hi} int_{R^n} M dy da (a_hi may be inf)."""
    upper = 0.0 if math.isinf(a_hi) else a_hi ** (-p.s)
    return p.constant * (4.0 * math.pi) ** (p.n / 2.0) * (a_lo ** (-p.s) - upper) / p.s


@lru_cache(maxsize=16)
def _product_weights(pw: float):
    """The K9 nodes x of (0, 1), and the K9 and G4 (odd columns) weights for
    int_0^1 x^{pw-1} g(x) dx: interpolatory, so each rule takes the moments
    1/(pw + m) of its degree exactly.  Each is one dual Vandermonde solve by
    Bjorck-Pereyra, to rounding and without LAPACK (see ``_i0e_table``)."""
    x = 0.5 + 0.5 * _K9[0]
    rules = []
    for nodes in (x, x[1::2]):
        last, w = len(nodes) - 1, 1.0 / (pw + np.arange(len(nodes)))
        for k in range(last):
            w[k + 1:] -= nodes[k] * w[k:-1]
        for k in range(last - 1, -1, -1):
            w[k + 1:] /= nodes[k + 1:] - nodes[:last - k]
            w[k:-1] = w[k:-1] - w[k + 1:]
        rules.append(w)
    return x, rules[0], rules[1]


def window_integral(Y, a_lo: float, a_hi: float, pe: float, kinks, pw: float,
                    tol: float = math.inf):
    """int_{a_lo}^{a_hi} a^{-pe} Y(a) da, taken in v = 1/a as int v^{pe-2} Y(1/v) dv.

    ``Y`` maps a (panels, nodes) matrix of durations, one ``adaptive_gl``
    panel per row, to values of that shape.  The panels halve in z = v^p
    from a_lo^{-p} (``graded_time_mesh``) to z_end, the last one clipped,
    split at k^{-p} for every kink k: p = 1 and z_end = 1/a_hi if finite;
    for a_hi = inf, int_0^{1/a_lo} v^{pw-1} f(v) dv with f = v^{pe-1-pw} Y(1/v)
    bounded, p = pw over 8 decades of z (the rest holds 1e-8 of the weight's
    mass) and below every k^{-p}, and one panel closes (0, z_end^{1/p}] with
    the product weights of v^{pw-1} (``_product_weights``), K9 checked by G4,
    its row in the first level's call of ``Y``.  Returns a QuadResult.
    """
    # the halving panels in z = v^p, where v^{pw-1} f dv = v^{pw-p} f dz / p
    finite = math.isfinite(a_hi)
    p = 1.0 if finite else pw
    z0, cuts = a_lo ** -p, [k ** -p for k in kinks if a_lo < k < a_hi]
    z_end = a_hi ** -p if finite else min([z0 * 1e-8] + cuts)
    panels = [(max(lo, z_end), hi) for lo, hi in graded_time_mesh(z0, 0.5, z_end)
              ] if z_end < z0 else []
    if finite:
        # a window within graded_time_mesh's 1e-12 of its end takes one panel
        return adaptive_gl(lambda v: v ** (pe - 2.0) * Y(1.0 / v),
                           split_panels(panels or [(z_end, z0)], cuts), tol)[0]
    v_last = (z_end if panels else z0) ** (1.0 / p)
    x, w9, w4 = _product_weights(pw)
    v_close, closing = v_last * x, []

    def dens(z):
        v = z ** (1.0 / p)
        if closing:
            y = Y(1.0 / v)
        else:
            y = Y(1.0 / np.vstack([v, v_close]))
            closing.append(y[-1])
            y = y[:-1]
        return v ** (pe - 1.0 - p) * y

    res = adaptive_gl(dens, split_panels(panels, cuts), tol)[0]
    fc, scale = v_close ** (pe - 1.0 - pw) * closing[0], v_last ** pw
    val, diff = _panel_sums(fc[None], scale * w9, scale * w4, np.array([[0.0, v_last]]))
    rounding = _ROUNDING_FLOOR * np.finfo(float).eps * scale * np.abs(w9 * fc).sum()
    return res * (1.0 / p) + QuadResult(float(val[0]), float(diff[0] + rounding))


# ---------------------------------------------------------------------------
# the singular difference integral on (0, horizon]
# ---------------------------------------------------------------------------

def _graded_panels(T: float, lo: float, kinks, q: QuadSpec):
    """The graded mesh from T down to lo, split at the kinks inside, ascending."""
    panels = split_panels(graded_time_mesh(T, q.grading, lo), [k for k in kinks if lo < k < T])
    return sorted(panels, key=lambda pair: pair[0])


def singular_integral(dens, u: FunctionHandle, T: float, lo: float, kinks,
                      s: float, scale: float, q: QuadSpec, power: int = 1):
    """int_0^T dens(x) dx, singular at x = 0, for a difference of u, as a QuadResult.

    ``adaptive_gl`` sums the graded panels from T down to lo, split at
    ``kinks``, at ``q.panel_tol(scale)``; ``small_a_closure`` closes (0, lo)
    from the two innermost panels in a = x^power, dx = da / (power x^(power-1)).
    """
    panels = _graded_panels(T, lo, kinks, q)
    res, xs, fs = adaptive_gl(dens, panels, q.panel_tol(scale))
    m = xs <= panels[min(1, len(panels) - 1)][1]
    xs = xs[m]
    return res + small_a_closure(u, xs ** power, fs[m] / (power * xs ** (power - 1)),
                                 panels[0][0] ** power, s)


def _rounding_floor(lo, hi, u0: float, p: KernelParams):
    """The rounding floor of the difference panels (lo, hi], elementwise.

    It is _ROUNDING_FLOOR eps pi^{n/2} max(1, |u0|) int_lo^hi a^{-(1+s)} da:
    where the panel value a^{-(1+s)} (pi^{n/2} u0 - sum W u) is pure
    cancellation, two Gauss-Hermite orders differ by its rounding, which
    stays below this floor.
    """
    return (_ROUNDING_FLOOR * np.finfo(float).eps * math.pi ** (p.n / 2.0)
            * max(1.0, abs(u0)) * (lo ** -p.s - hi ** -p.s) / p.s)


def _difference_panels(u: FunctionHandle, u0: float, x0, t0, p: KernelParams,
                       q: QuadSpec, horizon: float):
    """GH-difference integral on (a_min, horizon] plus sub-a_min closure.

    Returns a QuadResult whose value is
    const * 2^n * int a^{-(1+s)} GH[u0 - u] da extended to a = 0 by the
    fitted small-a model; the u0 mass beyond the horizon is NOT included.

    Every time panel starts at the start order of ``_gh_orders``.  Each
    escalation round evaluates the 9 K9 durations of all open panels,
    which share one order, one panel per row, through ``spatial_average``,
    and sums them by ``_panel_sums``; a panel closes when two successive
    orders agree to within the larger of the tolerance and the rounding
    floor, or its order reached the cap, and the others double.  Its error
    is that last step plus the distance of K9 to G4.  ``small_a_closure``
    fits the 9 durations of each of the two innermost panels.
    """
    n, s = p.n, p.s
    pref = p.constant * 2.0 ** n
    sqpi_n = math.pi ** (n / 2.0)
    order, gh_cap = _gh_orders(u, q)

    edges = np.array(_graded_panels(horizon, q.a_min, [t0 - k for k in u.time_kinks], q))
    a_all, w = gl_panel(edges[:, :1], edges[:, 1:], _K9)
    w4 = gl_panel(edges[:, :1], edges[:, 1:], _G4)[1]
    tol = np.maximum(q.panel_tol(u0), _rounding_floor(edges[:, 0], edges[:, 1], u0, p))
    dens_all = np.empty_like(a_all)
    prev = np.full(len(edges), np.nan)
    total = QuadResult(0.0, 0.0)
    live = np.arange(len(edges))
    while live.size:
        aa = a_all[live]
        dens = aa ** (-1.0 - s) * (sqpi_n * u0 - spatial_average(u, x0, t0, aa, order))
        val, k_g = _panel_sums(dens, w[live], w4[live], edges[live])
        step = np.abs(val - prev[live])     # nan in a panel's first round
        shut = (step <= tol[live]) | (order >= gh_cap)
        total += QuadResult(float(np.sum(val[shut])),
                            float(np.nansum(step[shut]) + np.sum(k_g[shut])))
        dens_all[live[shut]] = dens[shut]
        prev[live] = val
        live = live[~shut]
        order = min(2 * order, gh_cap)

    return pref * (total + small_a_closure(u, a_all[:2].ravel(), dens_all[:2].ravel(),
                                           edges[0, 0], s))


def small_a_closure(u: FunctionHandle, aa, dens, a_last: float, s: float):
    """Close int_0^{a_last} dens(a) da from samples dens(aa) of the innermost panels.

    The integrand is written dens = a^{-(1+s)} G(a); returns a QuadResult.
    """
    GG = dens * aa ** (1.0 + s)
    if u.smoothness == HOLDER:
        # only a Hölder bound is claimed: G(a) <~ K a^{s + eps/2}
        eps = 0.1 if u.holder_eps is None else u.holder_eps
        K = float(np.max(np.abs(GG) / aa ** (s + 0.5 * eps)))
        return QuadResult(0.0, K * a_last ** (0.5 * eps) * 2.0 / eps)
    # smooth path: the symmetric rules (even GH, +/- r) kill the sqrt(a)
    # term, so G = c1 a + c2 a^2
    A = np.stack([aa, aa * aa], axis=1)
    coef, *_ = np.linalg.lstsq(A, GG, rcond=None)
    resid = float(np.max(np.abs(GG - A @ coef)))
    value = (coef[0] * a_last ** (1.0 - s) / (1.0 - s)
             + coef[1] * a_last ** (2.0 - s) / (2.0 - s))
    # propagate the residual as coefficient-level uncertainty on c1
    sigma1 = resid / float(np.max(aa))
    return QuadResult(float(value), sigma1 * a_last ** (1.0 - s) / max(1.0 - s, 1e-2))


# ---------------------------------------------------------------------------
# non-singular shell/window quadratures for int u * M over exterior pieces
# ---------------------------------------------------------------------------

def angular_rule(n: int, count: int):
    """Directions and weights summing to the sphere surface |S^{n-1}|; for even
    ``count`` the rule holds -th with the weight of th, so odd terms cancel."""
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


def _shell_panels(width: float, a_ref):
    """The radial panel count of a shell of ``width`` whose shortest duration is
    ``a_ref``, elementwise: the spacing max(min(sqrt(a_ref), width/24), width/96)
    resolves both the kernel (scale sqrt(a)) and u itself, so the count lies
    in 24..96."""
    h = np.maximum(np.minimum(np.sqrt(a_ref), width / 24.0), width / 96.0)
    return np.ceil(width / h).astype(int)


def radial_nodes(r_lo: float, r_hi: float, count: int):
    """Gauss-Legendre nodes/weights on (r_lo, r_hi]: ``count`` equal panels of _GL_HI
    nodes each, which ``gl_panel`` maps at once."""
    edges = np.linspace(r_lo, r_hi, count + 1)
    return tuple(g.ravel() for g in gl_panel(edges[:-1, None], edges[1:, None], _GL_HI))


def shell_rule(n: int, r_lo: float, r_hi: float, count: int, ang_count: int):
    """Quadrature points/weights for int_{r_lo<|y|<=r_hi} f(y) dy, on ``radial_nodes``."""
    rr, rw = radial_nodes(r_lo, r_hi, count)
    dirs, aw = angular_rule(n, ang_count)
    pts = rr[:, None, None] * dirs[None, :, :]
    ww = (rw * rr ** (n - 1))[:, None] * aw[None, :]
    return pts.reshape(-1, n), ww.ravel()


#: the direct formula of i0e, which its table is fitted to, switches from
#: np.i0 to the Hankel series here; np.i0(k) overflows near 713
_I0E_SWITCH = 500.0
#: Hankel series I_0(k) ~ e^k / sqrt(2 pi k) * sum_m c_m k^{-m} with
#: c_m = ((2m-1)!!)^2 / (m! 8^m); ten terms reach double precision for k >= 500
_I0E_HANKEL = np.cumprod([1.0] + [(2 * m - 1) ** 2 / (8.0 * m) for m in range(1, 10)])
#: i0e's and the incomplete gamma's tables: equal pieces of y in [0, 1], polynomials of a degree
_PIECES, _DEGREE = 128, 7


def _piecewise_fit(f, at_zero: float):
    """Read-only coefficients (degree + 1, pieces) of f(y), y in [0, 1], f(0) = ``at_zero``,
    at the Chebyshev points of t = _PIECES y - j in piece j: one Vandermonde solve by
    Bjorck-Pereyra, as accurate as np.linalg.solve, loading no LAPACK (0.5 MB resident)."""
    m = _DEGREE + 1
    t = 0.5 - 0.5 * np.cos(math.pi * (np.arange(m) + 0.5) / m)
    coef = f((np.arange(_PIECES)[:, None] + t) / _PIECES).T.copy()
    for d in range(1, m):
        coef[d:] = (coef[d:] - coef[d - 1:-1]) / (t[d:] - t[:-d])[:, None]
    for d in range(m - 2, -1, -1):
        coef[d:-1] -= t[d] * coef[d + 1:]
    coef[0, 0] = at_zero
    coef.flags.writeable = False
    return coef


def _piecewise(coef, t):
    """The table ``coef`` at y = ``t`` in [0, 1] by Horner's rule, overwriting ``t``."""
    t *= _PIECES
    j = t.astype(np.intp)
    np.minimum(j, _PIECES - 1, out=j)
    t -= j
    # j is in range: mode="clip" lets take write into ``out`` without a buffer
    out = coef[_DEGREE].take(j, out=np.empty_like(t), mode="clip")
    row = np.empty_like(t)
    for d in range(_DEGREE - 1, -1, -1):
        out *= t
        out += coef[d].take(j, out=row, mode="clip")
    return out


@lru_cache(maxsize=1)
def _i0e_table():
    """``_piecewise_fit`` of sqrt(k + 8) i0e(k) in y = k / (k + 8), 1 / sqrt(2 pi) at y = 1:
    np.i0(k) e^{-k} below _I0E_SWITCH, the Hankel series above, and i0e(0) = 1 exactly."""
    def f(y):
        k = 8.0 * y / (1.0 - y)
        small = k < _I0E_SWITCH
        out = np.empty_like(k)
        out[small] = np.i0(k[small]) * np.exp(-k[small])
        kb = k[~small]
        out[~small] = np.polyval(_I0E_HANKEL[::-1], 1.0 / kb) / np.sqrt(2.0 * math.pi * kb)
        return out * np.sqrt(k + 8.0)

    return _piecewise_fit(f, math.sqrt(8.0))


def i0e(k):
    """e^{-k} I_0(k) for k >= 0 in the shape of ``k``: ``_i0e_table`` over sqrt(k + 8),
    within 1e-15 relative of scipy's i0e on 0 <= k <= 1e300, 1 at 0 and 0 at inf."""
    k = np.asarray(k, dtype=float)
    q = np.add(k, 8.0, out=np.empty_like(k))
    # k / (k + 8) keeps the relative precision of small k; k = inf is y = 1
    out = _piecewise(_i0e_table(), np.divide(k, q, out=np.ones_like(k), where=k < math.inf))
    out /= np.sqrt(q, out=q)
    return out


@lru_cache(maxsize=64)
def _gamma_table(p: float):
    """``_piecewise_fit`` in y = z / (z + p) of the smaller incomplete gamma tail: e^z z^{-p}
    gamma(p, z) = sum_k z^k / (p)_{k+1} below z = p, z e^z z^{-p} Gamma(p, z) -> 1 above by
    Legendre's fraction z / (z + 1 - p - 1 (1 - p) / (z + 3 - ...)), 400 terms (Gautschi 1979)."""
    def f(y):
        z = p * y / (1.0 - y)
        out, lo = np.empty_like(z), y < 0.5
        acc = np.ones(np.count_nonzero(lo))
        for k in range(60, 0, -1):
            acc = 1.0 + z[lo] / (p + k) * acc
        out[lo] = acc / p
        d = zh = z[~lo]
        for k in range(400, 0, -1):
            d = zh + (2 * k - 1 - p) - k * (k - p) / d
        out[~lo] = zh / d
        return out

    return _piecewise_fit(f, 1.0 / p)


def _frozen_kernel(p: float, sigma, A: float, B: float):
    """int_A^B a^{-(p+1)} exp(-sigma/4a) da = (4/sigma)^p [gamma(p, sigma/4A) - gamma(p, sigma/4B)]
    per sigma (> 0 if A = 0; B may be inf): each end's lower tail is the smaller tail
    of ``_gamma_table`` at sigma/4a, or (4/sigma)^p Gamma(p) minus the upper one."""
    def tail(a):
        if 0.0 < a < math.inf:
            z = sigma * (0.25 / a)
            y = z / (z + p)
            upper = y >= 0.5
            g = _piecewise(_gamma_table(p), y) * np.exp(-z) * a ** -p
            return np.divide(g, -z, out=g, where=upper), upper
        # a = 0 (z = inf) has no upper tail, a = inf (z = 0) a vanishing lower one
        return 0.0, np.full(sigma.shape, a == 0.0)

    (ta, up_a), (tb, up_b) = tail(A), tail(B)
    full = np.divide(4.0, sigma, out=np.zeros_like(sigma), where=up_a & ~up_b)
    return math.gamma(p) * full ** p + (ta - tb)


def sphere_average(n: int, k):
    """e^{-k} int_{S^{n-1}} exp(k theta.e) dtheta (Funk-Hecke), overflow-free for k >= 0."""
    if n == 1:
        return 1.0 + np.exp(-2.0 * k)
    if n == 2:
        return 2.0 * math.pi * i0e(k)
    x = 2.0 * np.asarray(k, dtype=float)
    return 4.0 * math.pi * np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x > 0)


def _shell_angles(r_hi: float, rho: float, a_ref):
    """The angular count, 12..64, of a tensor shell rule to ``r_hi`` at durations >= a_ref."""
    return np.clip(8 + 2.0 * r_hi * (rho + 1.0) / np.sqrt(np.maximum(a_ref, 1e-12)),
                   12, 64).astype(int)


def _shell_values(u, x0, t0, avals, r_lo, r_hi, p: KernelParams):
    """Y(a) = int_{r_lo<|y|<=r_hi} u(y, t0 - a) exp(-|x0-y|^2/(4a)) dy per a.

    ``avals`` holds one adaptive_gl panel per row, and a panel takes the rule of its
    shortest duration (``_shell_panels``, and ``_shell_angles`` on the tensor rule), built
    once for all panels that share it, in blocks of whole rows of at most _SHELL_BLOCK
    points, and cut where the kernel of their longest duration dies (``_DEAD_ZONE``).  A
    radial u takes the radial rule, at r * e_1, against ``_funk_hecke``.  The kernel is
    formed from the first to the last column where u is nonzero in a block, 0 elsewhere,
    so each row's dot sums the same terms in the same order as with the kernel formed
    everywhere (dropping columns would move terms between the lanes of the BLAS sum); a
    non-finite u is not 0, and ``counted`` refuses it.  Returns values in the shape of
    ``avals``.
    """
    n, rho = p.n, float(np.linalg.norm(x0))
    a_ref = avals.min(axis=1)
    count = _shell_panels(r_hi - r_lo, a_ref)
    ang = np.full_like(count, 2) if u.radial or n == 1 else _shell_angles(r_hi, rho, a_ref)
    # panels by rule (a dict: np.unique would import numpy.ma, 0.8 MB resident)
    groups = {}
    for i, key in enumerate(zip(count.tolist(), ang.tolist())):
        groups.setdefault(key, []).append(i)

    def rule(i, reach):
        """Panel i's rule on |y| <= reach as (the nodes its kernel reads, u on its points
        at a column of times, its weights): radii on the radial, |y - x0|^2 on the tensor rule."""
        if u.radial:
            rr, rw = radial_nodes(r_lo, r_hi, count[i])
            rr, rw = rr[rr <= reach], rw[rr <= reach]
            return rr, lambda tt: _on_axis(u, rr, tt), rw * rr ** (n - 1)
        pts, ww = shell_rule(n, r_lo, r_hi, count[i], ang[i])
        keep = np.sum(pts * pts, axis=-1) <= reach * reach
        pts, ww = pts[keep], ww[keep]
        return (np.sum((pts - x0) ** 2, axis=-1),
                lambda tt: u(np.broadcast_to(pts, (len(tt),) + pts.shape), tt), ww)

    def kern(nodes, a, nonzero):
        """The kernel at the durations ``a``, one row per duration, formed on the
        columns from the first to the last True of ``nonzero`` and 0 elsewhere."""
        k = np.zeros((len(a), len(nodes)))
        span = _nonzero_span(nonzero)
        if u.radial:
            k[:, span] = _funk_hecke(n, rho, nodes[span], a[:, None])
        else:
            k[:, span] = np.exp(-nodes[span] / (4.0 * a[:, None]))
        return k

    out = np.empty_like(avals)
    for panels in groups.values():
        # beyond |y| = rho + sqrt(_DEAD_ZONE a) the kernel is dead at each duration a
        nodes, values, weight = rule(panels[0], rho + math.sqrt(_DEAD_ZONE * avals[panels].max()))
        if not len(weight):
            out[panels] = 0.0
            continue

        def block(a):
            vals = values(t0 - a[:, None])
            return _row_dots(vals * kern(nodes, a, vals.any(axis=0)), weight)

        per = max(1, _SHELL_BLOCK // (avals.shape[1] * len(weight)))
        for j in range(0, len(panels), per):
            rows = panels[j:j + per]
            out[rows] = in_blocks(block, avals[rows], len(weight))
    return out


def _nonzero_span(nonzero):
    """The slice from the first to the last True of ``nonzero``; empty if none is."""
    idx = np.flatnonzero(nonzero)
    return slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)


@lru_cache(maxsize=16)
def _angle_rule(n: int, m: int):
    """mu = cos theta at the nodes, and (nodes, 2) weights, int_{S^{n-1}} f(mu) = sum w f, of
    a rule and its check: at n = 2 the midpoint rule of 9 m nodes in theta on (0, pi) and
    the one of 3 m on every third node, at n = 3 m K9 panels in mu and G4."""
    if n == 2:
        th, k = math.pi * (np.arange(9 * m) + 0.5) / (9 * m), np.arange(9 * m) % 3
        w = np.full(9 * m, 2.0 * math.pi / (9 * m))
        return np.cos(th), np.stack([w, np.where(k == 1, 3.0 * w, 0.0)], axis=1)
    e = np.linspace(-1.0, 1.0, m + 1)[:, None]
    (c, w), w4 = gl_panel(e[:-1], e[1:], _K9), np.zeros((m, 9))
    w4[:, 1::2] = gl_panel(e[:-1], e[1:], _G4)[1]
    return c.ravel(), 2.0 * math.pi * np.stack([w.ravel(), w4.ravel()], axis=1)


def _frozen_window(u, x0, t_frozen: float, p: KernelParams, q: QuadSpec,
                   A: float, B: float, r_lo: float, r_hi: float):
    """int_A^B int_{r_lo<|y|<=r_hi} u(y, t_frozen) a^{-pe} exp(-|x0-y|^2/(4a)) dy da: with
    ``_frozen_kernel`` of |x0 - y|^2, one radial integral on ``adaptive_gl``'s K9 panels
    at ``q.panel_tol(0)`` from ``_shell_panels``' finest count, u evaluated once per
    level, the kernel formed where u is nonzero.  A radial u takes the kernel's sphere
    average, its check weighed by K9 in r added to the error: two points at n = 1,
    ``_angle_rule`` at n = 2, 3, tripled per radius until the check is within q.rel_tol.
    Any other u takes the tensor rule of a = 0 at every A: u's detail, not the kernel, sets it."""
    n, pk, rho = p.n, p.n / 2.0 + p.s, float(np.linalg.norm(x0))
    angular = [0.0]

    def sphere(rr):
        if n == 1:
            kern = _frozen_kernel(pk, np.subtract.outer([rho, -rho], rr) ** 2, A, B)
            return kern.sum(axis=0), 0.0
        out, check, todo, m = np.empty_like(rr), np.empty_like(rr), np.arange(len(rr)), 1
        while todo.size:
            mu, w = _angle_rule(n, m)
            r = rr[todo, None]
            val, g4 = (_frozen_kernel(pk, rho * rho + r * (r - 2.0 * rho * mu), A, B) @ w).T
            done = (np.abs(val - g4) <= q.rel_tol * val) | (m >= 81)
            out[todo[done]], check[todo[done]] = val[done], np.abs(val - g4)[done]
            todo, m = todo[~done], 3 * m
        return out, check

    if u.radial:
        def f(rr):
            vals = _on_axis(u, rr.ravel(), np.full((1, 1), t_frozen))[0].reshape(rr.shape)
            nz = vals != 0.0
            vals[nz] *= rr[nz] ** (n - 1)
            kern, check = sphere(rr[nz])
            # every row's angular checks against its K9 weights, split rows too
            weight = (rr[:, -1:] - rr[:, :1]) / (_K9[0][-1] - _K9[0][0]) * _K9[1]
            angular[0] += float(np.sum(np.abs(vals[nz] * weight[nz]) * check))
            vals[nz] *= kern
            return vals
    else:
        dirs, aw = angular_rule(n, 2 if n == 1 else int(_shell_angles(r_hi, rho, 0.0)))

        def f(rr):
            pts = rr.reshape(-1, 1, 1) * dirs
            vals = u(pts, np.full(pts.shape[:2], t_frozen))
            nz = vals != 0.0
            vals[nz] *= _frozen_kernel(pk, np.sum((pts[nz] - x0) ** 2, axis=-1), A, B)
            return (vals @ aw * rr.ravel() ** (n - 1)).reshape(rr.shape)

    edges = np.linspace(r_lo, r_hi, int(_shell_panels(r_hi - r_lo, 0.0)) + 1)
    res = adaptive_gl(f, np.stack([edges[:-1], edges[1:]], axis=1), q.panel_tol(0.0))[0]
    return res + QuadResult(0.0, angular[0])


def _fullspace_values(u, x0, t0, avals, p: KernelParams):
    """Y(a) = int_{R^n} u(y, t0-a) exp(-|x0-y|^2/(4a)) dy via Gauss-Hermite; a
    constant c gives the exact c (4 pi a)^{n/2} without evaluating u."""
    if u.constant_value is not None:
        return u.constant_value * (4.0 * math.pi * avals) ** (p.n / 2.0)
    return (2.0 * np.sqrt(avals)) ** p.n * _gh_sums(u, x0, t0, avals, _FULLSPACE_GH)


def window_uM_integral(u: FunctionHandle, at, p: KernelParams, q: QuadSpec,
                       a_lo: float, a_hi: float, r_lo: float = 0.0,
                       r_hi: float | None = None):
    """int over a in (a_lo, a_hi], shell r_lo < |y| <= r_hi, of u(y, t-a) M(x-y, a).

    Every shell starts at u's declared hole (``SupportBox.inner``), where u is 0.
    On a finite shell u's frozen past, a from max(a_lo, t - ``frozen_until``)
    to a_hi, is ``_frozen_window``, exact from a = 0 (a shell holding x is
    refused there); the rest ``window_integral``'s panels in v = 1/a.
    ``r_hi`` of None means the full space beyond r_lo: the shell up to u's
    finite support radius, or else full space minus the inner ball, which
    requires a declared growth envelope on u.  Returns a QuadResult.
    """
    x0, t0 = checked_point(u, at, p)
    sup = u.support or SupportBox()
    r_lo = max(r_lo, sup.inner)
    if r_hi is None and math.isfinite(sup.radius):
        r_hi = sup.radius
    if a_hi <= a_lo or (r_hi is not None and r_hi <= r_lo):
        return QuadResult(0.0, 0.0)

    full_space = r_hi is None or math.isinf(r_hi)
    if full_space and not u.past_integrable():
        raise ValueError(
            "unbounded function without support box or growth envelope: "
            "the exterior integral may diverge")

    rho = float(np.linalg.norm(x0))
    res = QuadResult(0.0, 0.0)
    if not full_space and u.frozen_until is not None and t0 - u.frozen_until < a_hi:
        a_f = max(a_lo, t0 - u.frozen_until)
        if a_f <= 0.0 and r_lo <= rho <= r_hi:
            raise ValueError("the window must start at a positive duration")
        res = p.constant * _frozen_window(u, x0, t0 - a_f, p, q, a_f, a_hi, r_lo, r_hi)
        a_hi = a_f

    def Y(avals):
        if not full_space:
            return _shell_values(u, x0, t0, avals, r_lo, r_hi, p)
        ball = _shell_values(u, x0, t0, avals, 0.0, r_lo, p) if r_lo > 0.0 else 0.0
        return _fullspace_values(u, x0, t0, avals, p) - ball

    # the kernel cannot reach past r_lo before a = gap^2 / _DEAD_ZONE: skip the dead zone
    a_floor = max(a_lo, max(r_lo - rho, 0.0) ** 2 / _DEAD_ZONE)
    if a_floor >= a_hi:
        return res
    if a_floor <= 0.0:
        raise ValueError("the window must start at a positive duration")

    # for the infinite past, pw = n/2+s makes f = Y (shell case, Y bounded);
    # pw = s makes f = a^{-n/2} Y, bounded for the full-space case where Y
    # grows like a^{n/2}
    pw = p.s if full_space else p.n / 2.0 + p.s
    return res + p.constant * window_integral(Y, a_floor, a_hi, p.time_exponent,
                                              kinks=[t0 - k for k in u.time_kinks], pw=pw)


def exterior_spatial_mass(at, R: float, p: KernelParams, q: QuadSpec):
    """int_0^{t+R^2} int_{|y|>R} M(x-y, a) dy da, for (x, t) in Q_{R/3}: the exterior
    window of the constant 1, exact full-space mass minus the ball, a QuadResult."""
    return window_uM_integral(constant(1.0, p.n), at, p, q, 0.0,
                              float(at[1]) + R * R, r_lo=R)


# ---------------------------------------------------------------------------
# the public difference integral
# ---------------------------------------------------------------------------

def _auto_handoff(u: FunctionHandle, t0: float) -> float:
    """Hand-off point between the GH difference route and direct windows: 1, or a purely
    temporal support's whole window.  A longer GH route lets the Gaussian reach a support
    far from x while the low orders' nodes lie in an undeclared hole of u, where zero sums
    agree; a declared one (``SupportBox.inner``) takes no GH route."""
    sup = u.support
    if math.isinf(sup.radius) and sup.t_lo > -math.inf:
        return max(1.0, t0 - sup.t_lo)
    return 1.0


def integrate_difference(u: FunctionHandle, at, p: KernelParams,
                         q: QuadSpec) -> QuadResult:
    """Evaluate int_{-inf}^t int_{R^n} (u(x,t) - u(y,tau)) M(x-y, t-tau) dy dtau.

    The u(x,t) mass beyond the horizon is always added in closed form.
    With an Auto horizon the support box must be declared and the
    exterior-in-time remainder of u is computed exactly; with an explicit
    horizon the remainder beyond it is dropped and ``truncation_flag``
    signals that.  In a hole declared around (x, t) (``SupportBox.inner`` or t > t_hi) of
    a finite-radius u, it is the window alone.
    """
    x0, t0 = checked_point(u, at, p)
    if u.constant_value is not None:
        # the difference vanishes identically
        return QuadResult(value=0.0, err_estimate=0.0, nodes_used=1)

    sup = u.support
    if q.horizon is None and sup is None:
        raise ValueError(
            "horizon=Auto requires a declared support box; pass an explicit "
            "horizon for functions without one (the tool never silently truncates)")

    T_total = float(q.horizon) if q.horizon is not None else math.inf
    u0 = u.at(x0, t0)
    u, nodes = counted(u)
    if (sup is not None and math.isfinite(sup.radius)
            and (np.linalg.norm(x0) < sup.inner or t0 > sup.t_hi)):
        # a declared hole: u vanishes near (x, t), so only the window -int int u M is left
        hand, res = max(0.0, t0 - sup.t_hi), QuadResult(0.0, 0.0)
    else:
        # with no support box to hand off to, the GH route spans the whole horizon
        hand = T_total if sup is None else min(_auto_handoff(u, t0), T_total)
        hand = max(hand, 16.0 * q.a_min)
        # plus the exact mass of the u(x,t) term over (hand, inf)
        res = _difference_panels(u, u0, x0, t0, p, q, hand) + u0 * slab_mass(hand, math.inf, p)

    # remaining -int_{a>hand} int u M: direct over the support window
    u_gone_past = t0 - sup.t_lo if (sup is not None and sup.t_lo > -math.inf) else math.inf
    accounted = hand
    if sup is not None and math.isfinite(sup.radius):
        upper = max(min(T_total, u_gone_past), hand)
        res = res - window_uM_integral(u, (x0, t0), p, q, hand, upper)
        accounted = upper
    # everything beyond max(accounted, where u vanishes) is unknowable
    return replace(res, truncation_flag=accounted < u_gone_past, nodes_used=nodes())
