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
from dataclasses import dataclass, field

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
    # (4 pi)^{n/2} |Gamma(-s)|, with |Gamma(-s)| = 1/s for tiny s, must be
    # finite, or Gamma(-s) overflows and c_{n,s}, C_{n,s} underflow to 0
    if math.isinf((4.0 * math.pi) ** (n / 2.0) * (1.0 / s)):
        raise ValueError(f"fractional order s={s} too small for double precision")


def in_mode(value: float, normalization: str) -> float:
    """An operator constant as used: ``value`` normalized, 1 raw."""
    if normalization == NORMALIZED:
        return value
    if normalization == RAW:
        return 1.0
    raise ValueError(f"unknown normalization {normalization!r}")


@dataclass(frozen=True)
class KernelParams:
    """Dimension, order and normalization, and the constants and Lambda they fix."""

    n: int
    s: float
    normalization: str = NORMALIZED
    c_ns: float = field(init=False)
    C_s: float = field(init=False)
    C_ns_lap: float = field(init=False)
    Lambda: float = field(init=False)

    def __post_init__(self):
        n, s = self.n, self.s
        object.__setattr__(self, "c_ns", master_constant(n, s))
        object.__setattr__(self, "C_s", marchaud_constant(s))
        object.__setattr__(self, "C_ns_lap", laplacian_constant(n, s))
        object.__setattr__(self, "Lambda", fit_lambda(n, s, self.constant))

    @property
    def constant(self) -> float:
        """Effective kernel prefactor: 1 raw, c_{n,s} normalized."""
        return in_mode(self.c_ns, self.normalization)

    @property
    def time_exponent(self) -> float:
        """n/2 + 1 + s, the power of t in the kernel denominator."""
        return self.n / 2.0 + 1.0 + self.s


def kernel_constants(n: int, s: float, normalization: str = NORMALIZED) -> KernelParams:
    """The KernelParams of (n, s) in the given normalization."""
    return KernelParams(n, s, normalization)


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
    """The standard log-spaced (|dx|, dt) grid on which Lambda is tested."""
    rho = np.logspace(math.log10(lo), math.log10(hi), grid)
    dt = np.logspace(math.log10(lo), math.log10(hi), grid)
    return np.meshgrid(rho, dt, indexing="ij")


def fit_lambda(n: int, s: float, constant: float, headroom: float = 0.01) -> float:
    """The decay constant: the supremum of M * (|x|^{n+2+2s} + t^{n/2+1+s}), with headroom.

    With z = |x|^2 / t and pe = n/2 + 1 + s the product is
    constant * e^{-z/4} (1 + z^pe), largest at the root of z = 4 pe - z^{1-pe};
    that map is a contraction from z = 4 pe.  The maximum is taken in logs,
    so a tiny constant is not clamped; 1% headroom makes the bound strict.
    """
    _check_order(n, s)
    pe = n / 2.0 + 1.0 + s
    z = 4.0 * pe
    for _ in range(30):
        z = 4.0 * pe - z ** (1.0 - pe)
    return math.exp(math.log(constant) - z / 4.0 + math.log1p(z ** pe)) * (1.0 + headroom)
