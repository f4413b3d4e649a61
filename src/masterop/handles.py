"""Evaluable space-time functions u(x, t) with quadrature metadata.

A :class:`FunctionHandle` wraps a vectorized evaluator together with the
metadata the integration engines need: a support box (spatial ball radius
plus a time window), a growth envelope for the infinite past, a smoothness
marker, and the locations of isolated kinks in time.  Evaluators must be
pure and reentrant; all engines call them on large node batches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

SMOOTH = "smooth"
C1_TIME = "c1t"          # C^1 in t with isolated kinks, smooth in x
HOLDER = "holder"

GROWTH_DECAYING = "decaying"
GROWTH_BOUNDED = "bounded"
GROWTH_FORWARD_POLY = "forward-polynomial"   # bounded on every past cone


@dataclass(frozen=True)
class SupportBox:
    """u vanishes for |x| > radius or t outside (t_lo, t_hi)."""

    radius: float = math.inf
    t_lo: float = -math.inf
    t_hi: float = math.inf

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("support radius must be nonnegative")
        if self.t_lo > self.t_hi:
            raise ValueError("empty time window in support box")


@dataclass(frozen=True)
class FunctionHandle:
    """An evaluable u(x, t) on R^n x R.

    evaluator: maps (points, times) -> values, where ``points`` has shape
        (m, n) and ``times`` shape (m,).  Must accept arbitrary batches.
    dim: spatial dimension n.
    support: optional SupportBox; evaluator returns 0 outside it.
    growth: envelope of u on past cones, one of the GROWTH_* markers or None.
    smoothness: SMOOTH, C1_TIME or HOLDER.
    holder_eps: the Hölder margin when smoothness == HOLDER.
    time_kinks: times where u is only C^1 in t (panel split points).
    radial: u(x, t) depends on x only through |x|.  Like ``support``, this
        is a declared property, not a tuning option: the shell integrals
        then use the closed-form angular average (Funk-Hecke) and evaluate
        u only at points r * e_1, so a wrong declaration gives wrong values.
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dim: int
    support: SupportBox | None = None
    growth: str | None = None
    smoothness: str = SMOOTH
    holder_eps: float | None = None
    time_kinks: tuple[float, ...] = ()
    #: set when u is known to be identically this value (difference
    #: operators short-circuit to an exact 0)
    constant_value: float | None = None
    radial: bool = False

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError("spatial dimension must be 1, 2 or 3")
        if self.smoothness not in (SMOOTH, C1_TIME, HOLDER):
            raise ValueError(f"unknown smoothness marker {self.smoothness!r}")

    def __call__(self, points, times) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        tt = np.asarray(times, dtype=float)
        if pts.ndim == 1:
            # a flat array is a batch of 1-D points, or one n-D point
            pts = pts[:, None] if self.dim == 1 else pts[None, :]
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points have dimension {pts.shape[-1]}, expected {self.dim}")
        tt = np.broadcast_to(tt, pts.shape[:-1]).ravel()
        out = self.evaluator(pts.reshape(-1, self.dim), tt)
        return np.asarray(out, dtype=float).reshape(pts.shape[:-1])

    def at(self, x, t) -> float:
        """Evaluate at a single point."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(self(x[None, :], np.array([t]))[0])

    def past_integrable(self) -> bool:
        """Whether the infinite-past tail integrals converge by metadata."""
        if self.support is not None and self.support.t_lo > -math.inf:
            return True
        return self.growth in (GROWTH_DECAYING, GROWTH_BOUNDED, GROWTH_FORWARD_POLY)


def counted(u: FunctionHandle):
    """(u with an evaluator that tallies its points, a function reading the tally)."""
    total = [0]

    def evaluator(pts, tt):
        total[0] += len(pts)
        return u.evaluator(pts, tt)

    return replace(u, evaluator=evaluator), lambda: total[0]


def from_callable(f, dim: int, **meta) -> FunctionHandle:
    """Wrap ``f(points, times)`` (vectorized) as a handle."""
    return FunctionHandle(evaluator=f, dim=dim, **meta)


def constant(value: float, dim: int = 1) -> FunctionHandle:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"constant must be finite, got {v}")

    def evaluator(pts, tt):
        return np.full(pts.shape[0], v)

    return FunctionHandle(evaluator=evaluator, dim=dim, growth=GROWTH_BOUNDED,
                          constant_value=v, radial=True)


def zero(dim: int = 1) -> FunctionHandle:
    h = constant(0.0, dim)
    return replace(h, support=SupportBox(radius=0.0, t_lo=0.0, t_hi=0.0))


def combine(coeffs, handles) -> FunctionHandle:
    """Linear combination sum(c_k * u_k); metadata merged conservatively."""
    handles = list(handles)
    coeffs = [float(c) for c in coeffs]
    if len(coeffs) != len(handles) or not handles:
        raise ValueError("need matching, nonempty coefficient/handle lists")
    dim = handles[0].dim
    if any(h.dim != dim for h in handles):
        raise ValueError("mixed dimensions in combination")

    def evaluator(pts, tt):
        acc = coeffs[0] * handles[0](pts, tt)
        for c, h in zip(coeffs[1:], handles[1:]):
            acc = acc + c * h(pts, tt)
        return acc

    support = None
    if all(h.support is not None for h in handles):
        support = SupportBox(
            radius=max(h.support.radius for h in handles),
            t_lo=min(h.support.t_lo for h in handles),
            t_hi=max(h.support.t_hi for h in handles),
        )
    order = {SMOOTH: 0, C1_TIME: 1, HOLDER: 2}
    smoothness = max((h.smoothness for h in handles), key=order.get)
    eps = min((h.holder_eps for h in handles if h.holder_eps is not None), default=None)
    kinks = tuple(sorted({k for h in handles for k in h.time_kinks}))
    growth = None
    if all(h.past_integrable() for h in handles):
        growth = GROWTH_BOUNDED if support is None else None
    return FunctionHandle(
        evaluator=evaluator, dim=dim, support=support, growth=growth,
        smoothness=smoothness, holder_eps=eps, time_kinks=kinks,
        radial=all(h.radial for h in handles),
    )


def rescale(u: FunctionHandle, Mk: float, lambda_k: float, x_bar,
            t_bar: float) -> FunctionHandle:
    """v(x, t) = u(lambda x + x_bar, lambda^2 t + t_bar) / M, parabolic scaling.

    The support box transforms along: spatial radius divides by lambda
    (plus the offset reach), the time window maps affinely.  v stays radial
    only when u is and x_bar = 0; a constant u gives the constant u / M.
    """
    if Mk <= 0 or lambda_k <= 0:
        raise ValueError("need Mk > 0 and lambda_k > 0")
    x_bar = np.atleast_1d(np.asarray(x_bar, dtype=float))
    lam2 = lambda_k * lambda_k

    def evaluator(pts, tt):
        return u(lambda_k * pts + x_bar[None, :], lam2 * tt + float(t_bar)) / Mk

    support = None
    if u.support is not None:
        sup = u.support
        radius = sup.radius
        if math.isfinite(radius):
            radius = (radius + float(np.linalg.norm(x_bar))) / lambda_k
        t_lo = (sup.t_lo - t_bar) / lam2 if sup.t_lo > -math.inf else -math.inf
        t_hi = (sup.t_hi - t_bar) / lam2 if sup.t_hi < math.inf else math.inf
        support = SupportBox(radius=radius, t_lo=t_lo, t_hi=t_hi)
    kinks = tuple((k - t_bar) / lam2 for k in u.time_kinks)
    c = u.constant_value
    return replace(u, evaluator=evaluator, support=support, time_kinks=kinks,
                   constant_value=None if c is None else c / Mk,
                   radial=u.radial and not np.any(x_bar))


def shifted(u: FunctionHandle, x0, t0: float) -> FunctionHandle:
    """u(. - x0, . - t0), support box translated along; radial only if x0 = 0."""
    return rescale(u, 1.0, 1.0, -np.asarray(x0, dtype=float), -float(t0))


def spatial(f, dim: int = 1, **meta) -> FunctionHandle:
    """Handle for u(x) independent of t; f takes (m, n) points."""

    def evaluator(pts, tt):
        return np.asarray(f(pts), dtype=float)

    meta.setdefault("growth", GROWTH_BOUNDED)
    return FunctionHandle(evaluator=evaluator, dim=dim, **meta)


def temporal(f, dim: int = 1, **meta) -> FunctionHandle:
    """Handle for u(t) independent of x; f takes (m,) times."""

    def evaluator(pts, tt):
        return np.asarray(f(tt), dtype=float)

    return FunctionHandle(evaluator=evaluator, dim=dim, **meta)
