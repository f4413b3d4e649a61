"""Counterexample families: spatial bumps, temporal bumps, and the coupled
family whose operator values converge to -1 while the functions shrink to 0.

The profile is the standard smooth bump exp(-1/((r-2)(3-r))) on (2, 3).
All normalization constants derived from it (C0, C1) are computed by a
fixed 1-D Gauss-Legendre sum and exposed in both raw and normalized modes so
that family limits are mode-consistent end to end.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .handles import (
    C1_TIME,
    FunctionHandle,
    GROWTH_FORWARD_POLY,
    SupportBox,
    spatial,
    temporal,
)
from .kernel import NORMALIZED, in_mode, laplacian_constant, marchaud_constant


def standard_bump(r):
    """exp(-1/((r-2)(3-r))) on (2, 3), zero elsewhere; smooth, values in [0, 1)."""
    scalar = np.ndim(r) == 0
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.zeros_like(rr)
    m = (rr > 2.0) & (rr < 3.0)
    g = (rr[m] - 2.0) * (3.0 - rr[m])
    with np.errstate(over="ignore", divide="ignore"):
        out[m] = np.exp(-1.0 / g)
    return float(out[0]) if scalar else out


def psi_profile(t):
    """The reflected bump on (-3, -2)."""
    return standard_bump(-np.asarray(t, dtype=float))


def surface_measure(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2), with the 0-sphere counting 2."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _bump_moment(power: float) -> float:
    """int_2^3 bump(r) r^{-power} dr: 8 panels of 20-node Gauss-Legendre.

    The bump is flat to all orders at both ends, so the fixed rule is at
    double precision for every power used here (1 < power < 3).
    """
    x, w = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(2.0, 3.0, 9)
    half = 0.5 * (edges[1:] - edges[:-1])
    r = (0.5 * (edges[1:] + edges[:-1]) + half * x[:, None]).ravel()
    ww = (half * w[:, None]).ravel()
    return float(np.dot(ww, standard_bump(r) * r ** (-power)))


@lru_cache(maxsize=128)
def C0_constant(s: float, n: int = 1, normalization: str = NORMALIZED) -> float:
    """|S^{n-1}| * int_2^3 bump(r) r^{-(1+2s)} dr, times C_{n,s} when normalized.

    This is the limiting magnitude of the fractional Laplacian over the
    critically-scaled spatial bump family.
    """
    C = in_mode(laplacian_constant(n, s), normalization)
    return _bump_moment(1.0 + 2.0 * s) * surface_measure(n) * C


@lru_cache(maxsize=128)
def C1_constant(s: float, normalization: str = NORMALIZED) -> float:
    """Limiting magnitude of the one-sided derivative over the temporal family.

    Scaling out j gives C_s * int_2^3 bump(r) r^{-(1+s)} dr for the
    critical exponent choice; recorded numerically, no closed form claimed.
    """
    return _bump_moment(1.0 + s) * in_mode(marchaud_constant(s), normalization)


def phi_family(j: int, alpha: float, beta: float, dim: int = 1) -> FunctionHandle:
    """x -> j^alpha bump(j^{-beta} |x|), supported in 2 j^beta <= |x| <= 3 j^beta."""
    if j < 1 or not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
        raise ValueError(f"need j >= 1 and finite, positive alpha, beta; "
                         f"got alpha={alpha}, beta={beta}")
    amp = float(j) ** alpha
    scale = float(j) ** (-beta)

    def f(pts):
        return amp * standard_bump(scale * np.linalg.norm(pts, axis=-1))

    return spatial(f, dim=dim,
                   support=SupportBox(radius=3.0 * float(j) ** beta), radial=True)


def psi_family(j: int, alpha: float, beta: float, dim: int = 1) -> FunctionHandle:
    """t -> j^alpha psi(j^{-beta} t), supported in -3 j^beta <= t <= -2 j^beta."""
    if j < 1 or not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
        raise ValueError(f"need j >= 1 and finite, positive alpha, beta; "
                         f"got alpha={alpha}, beta={beta}")
    amp = float(j) ** alpha
    scale = float(j) ** (-beta)

    def f(tt):
        return amp * psi_profile(scale * np.asarray(tt, dtype=float))

    return temporal(f, dim=dim,
                    support=SupportBox(radius=math.inf,
                                       t_lo=-3.0 * float(j) ** beta,
                                       t_hi=-2.0 * float(j) ** beta))


def eta_profile(t):
    """(t_+)^2 + 1: the forward-quadratic time weight."""
    t = np.asarray(t, dtype=float)
    return np.maximum(t, 0.0) ** 2 + 1.0


def eta_marchaud_closed_form(t, s: float):
    """d_t^s of (t_+)^2 equals Gamma(3)/Gamma(3-s) (t_+)^{2-s} for t > 0."""
    t = np.asarray(t, dtype=float)
    return math.gamma(3.0) / math.gamma(3.0 - s) * np.maximum(t, 0.0) ** (2.0 - s)


def w_family(j: int, gamma: float, s: float, n: int = 1,
             normalization: str = NORMALIZED) -> FunctionHandle:
    """(x, t) -> phi_j(x) eta(j^{-gamma} t) / C0 with alpha = 2s, beta = 1.

    Requires gamma > s.  Nonnegative, equal to phi_j(x)/C0 for t <= 0,
    quadratically growing in forward time, spatially supported in the
    ball of radius 3 j.  The C0 used matches ``normalization``, so the
    master-operator values converge to -1 in the same mode.
    """
    if not s < gamma < math.inf:
        raise ValueError(f"need finite gamma > s, got gamma={gamma}, s={s}")
    if j < 1:
        raise ValueError("j must be a positive integer")
    C0 = C0_constant(s, n, normalization)
    amp = float(j) ** (2.0 * s) / C0
    jg = float(j) ** (-gamma)
    inv_j = 1.0 / float(j)

    def evaluator(pts, tt):
        r = np.linalg.norm(pts, axis=-1)
        return amp * standard_bump(inv_j * r) * eta_profile(jg * tt)

    return FunctionHandle(
        evaluator=evaluator, dim=n,
        support=SupportBox(radius=3.0 * float(j)),
        growth=GROWTH_FORWARD_POLY,
        smoothness=C1_TIME,
        time_kinks=(0.0,),
        radial=True,
    )
