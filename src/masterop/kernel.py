"""The fractional heat kernel, its constants, decay majorant and log ratios.

The kernel of the fully fractional heat operator of order s is

    M(x, t) = const * t^{-(n/2 + 1 + s)} * exp(-|x|^2 / (4 t)),   t > 0,

where ``const`` is 1 in raw mode and the normalization constant c_{n,s}
in normalized mode.  Normalized mode is calibrated so that the operator
acts as (lambda + |xi|^2)^s on e^{lambda t} cos(xi . x) and reduces, for
time- and space-independent inputs, to the fractional Laplacian with its
standard constant and to the one-sided fractional time derivative with
constant s / Gamma(1 - s).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RAW = "raw"
NORMALIZED = "normalized"

#: smallest exponent that exp() maps to a positive double
_LOG_TINY = math.log(np.finfo(float).tiny)


def master_constant(n: int, s: float) -> float:
    """c_{n,s} = ((4*pi)^{n/2} |Gamma(-s)|)^{-1}."""
    _check_order(n, s)
    return 1.0 / ((4.0 * math.pi) ** (n / 2.0) * abs(math.gamma(-s)))


def marchaud_constant(s: float) -> float:
    """C_s = s / Gamma(1 - s)."""
    _check_order(1, s)
    return s / math.gamma(1.0 - s)


def laplacian_constant(n: int, s: float) -> float:
    """C_{n,s} = 4^s Gamma(n/2 + s) / (pi^{n/2} |Gamma(-s)|)."""
    _check_order(n, s)
    return 4.0 ** s * math.gamma(n / 2.0 + s) / (math.pi ** (n / 2.0) * abs(math.gamma(-s)))


def _check_order(n: int, s: float) -> None:
    if n not in (1, 2, 3):
        raise ValueError(f"dimension n={n} unsupported (need 1, 2 or 3)")
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order s={s} outside (0, 1)")


@dataclass(frozen=True)
class KernelParams:
    """Dimension, order, normalization constants and fitted decay constant."""

    n: int
    s: float
    normalization: str = NORMALIZED
    c_ns: float = 0.0
    C_s: float = 0.0
    C_ns_lap: float = 0.0
    Lambda: float = 0.0

    def __post_init__(self):
        _check_order(self.n, self.s)
        if self.normalization not in (RAW, NORMALIZED):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        for name in ("c_ns", "C_s", "C_ns_lap", "Lambda"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if self.Lambda < self.constant:
            # forced by the x = 0 case of the decay bound
            raise ValueError("Lambda must be at least the kernel constant")

    @property
    def constant(self) -> float:
        """Effective kernel prefactor: 1 raw, c_{n,s} normalized."""
        return self.c_ns if self.normalization == NORMALIZED else 1.0

    @property
    def time_exponent(self) -> float:
        """n/2 + 1 + s, the power of t in the kernel denominator."""
        return self.n / 2.0 + 1.0 + self.s


def kernel_constants(n: int, s: float, normalization: str = NORMALIZED,
                     fit_grid: int = 100) -> KernelParams:
    """Populate KernelParams; Lambda is fitted on the standard decay grid."""
    _check_order(n, s)
    c_ns = master_constant(n, s)
    const = c_ns if normalization == NORMALIZED else 1.0
    return KernelParams(
        n=n, s=s, normalization=normalization,
        c_ns=c_ns,
        C_s=marchaud_constant(s),
        C_ns_lap=laplacian_constant(n, s),
        Lambda=fit_lambda(n, s, constant=const, grid=fit_grid),
    )


def _sqnorm(dx, n: int) -> np.ndarray:
    dx = np.asarray(dx, dtype=float)
    if dx.ndim == 0:
        if n != 1:
            raise ValueError("scalar offset only valid for n = 1")
        return dx * dx
    if dx.shape[-1] != n:
        raise ValueError(f"offset has dimension {dx.shape[-1]}, expected {n}")
    return np.sum(dx * dx, axis=-1)


def kernel_log_eval(dx, dt, p: KernelParams):
    """log M(dx, dt); never under- or overflows."""
    dt = np.asarray(dt, dtype=float)
    if np.any(dt <= 0.0):
        raise ValueError("kernel requires a positive duration")
    rho2 = _sqnorm(dx, p.n)
    return math.log(p.constant) - p.time_exponent * np.log(dt) - rho2 / (4.0 * dt)


def kernel_eval(dx, dt, p: KernelParams):
    """M(dx, dt); underflows to exact 0 when the exponential dominates."""
    logs = kernel_log_eval(dx, dt, p)
    return np.where(logs < _LOG_TINY, 0.0, np.exp(np.maximum(logs, _LOG_TINY)))


def kernel_log_ratio(dx1, dx2, dt, p: KernelParams):
    """log M(dx1, dt) - log M(dx2, dt) = (|dx2|^2 - |dx1|^2) / (4 dt).

    Computed without forming either kernel value, so it is exact (and
    exactly antisymmetric) even where both kernels underflow.
    """
    dt = np.asarray(dt, dtype=float)
    if np.any(dt <= 0.0):
        raise ValueError("kernel requires a positive duration")
    return (_sqnorm(dx2, p.n) - _sqnorm(dx1, p.n)) / (4.0 * dt)


def decay_majorant(dx, dt, p: KernelParams):
    """Lambda / (|dx|^{n+2+2s} + dt^{n/2+1+s})."""
    dt = np.asarray(dt, dtype=float)
    rho = np.sqrt(_sqnorm(dx, p.n))
    return p.Lambda / (rho ** (p.n + 2.0 + 2.0 * p.s) + dt ** p.time_exponent)


def kernel_decay_check(dx, dt, p: KernelParams):
    """Return (value, majorant, pass) for the pointwise decay bound."""
    value = kernel_eval(dx, dt, p)
    maj = decay_majorant(dx, dt, p)
    return value, maj, bool(np.all(value <= maj))


def decay_grid(lo: float = 1e-3, hi: float = 1e3, grid: int = 100):
    """The standard log-spaced (|dx|, dt) grid used to fit and test Lambda."""
    rho = np.logspace(math.log10(lo), math.log10(hi), grid)
    dt = np.logspace(math.log10(lo), math.log10(hi), grid)
    return np.meshgrid(rho, dt, indexing="ij")


def fit_lambda(n: int, s: float, constant: float | None = None,
               grid: int = 100, headroom: float = 0.01) -> float:
    """Fit the decay constant as the grid supremum of M * (|x|^{n+2+2s} + t^{n/2+1+s}).

    The product depends only on |x|^2 / t, so a log-spaced grid covers the
    supremum densely; 1% headroom makes the fitted bound strict.
    """
    _check_order(n, s)
    if constant is None:
        constant = master_constant(n, s)
    rho, dt = decay_grid(grid=grid)
    pe = n / 2.0 + 1.0 + s
    logm = math.log(constant) - pe * np.log(dt) - rho ** 2 / (4.0 * dt)
    vals = np.exp(np.maximum(logm, _LOG_TINY)) * (rho ** (n + 2.0 + 2.0 * s) + dt ** pe)
    sup = float(np.max(vals))
    return max(sup, constant) * (1.0 + headroom)
