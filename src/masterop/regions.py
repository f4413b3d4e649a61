"""The parabolic geometry: Q_{R/3}, the exterior partitions, their samplers,
and sampled verification of the kernel-ratio bounds.

``check_scale`` is the one test that a point (x, t) lies in Q_{R/3}: the
tail functional, the defect estimator, ``difference_decomposition`` and
the ratio verifiers all call it.  Two partitions of the exterior
(R^n x (-inf, t)) \\ Q_R are implemented; they share the ball |y| <= R,
split into Interior and C at tau = -R^2.  Beyond the ball, the first
(labels A, B) splits by the slope delta = R^{-1/3} comparing |y - x|
against delta (t - tau); it controls the dependence of the tail
functional on the spatial point.  The second (labels D, E, F) splits by
the parabola (t - tau)^2 = R |y|^2 and the time shift t0 = R^{3/2}; it
controls the dependence on the time point.

Boundary ties are measure-zero and broken deterministically: the A side
of |y - x| = delta (t - tau), the |y| <= R side of the sphere, the D side
of (t - tau)^2 = R |y|^2, the E side of tau = -R^{3/2}.

The verify_* routines sample each region with a seeded generator,
evaluate the exact kernel log-ratios, and compare them against envelopes
carrying the explicit constants of the underlying algebraic chains; the
fitted constants are reported, never hidden.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import KernelParams, kernel_log_eval, kernel_log_ratio

DEFAULT_SEED = 0xA11CE


def delta_of(R: float) -> float:
    return R ** (-1.0 / 3.0)


def shift_of(R: float) -> float:
    return R ** 1.5


def _as_point(y, n):
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (n,):
        raise ValueError(f"point has shape {y.shape}, expected ({n},)")
    return y


def check_scale(at, R: float) -> None:
    """Raise unless (x, t) = ``at`` is finite and lies in Q_{R/3} for a finite R."""
    x0 = np.atleast_1d(np.asarray(at[0], dtype=float))
    t0 = float(at[1])
    if not (np.all(np.isfinite(x0)) and math.isfinite(t0)):
        raise ValueError(f"probe must be finite, got x = {x0.tolist()}, t = {t0:g}")
    bound = 3.0 * max(math.sqrt(abs(t0)), float(np.linalg.norm(x0)))
    if not bound < R < math.inf:
        raise ValueError(f"need finite R > 3*max(sqrt|t|, |x|) = {bound:g}, got R = {R:g}")


def scale_probes(n: int, R: float):
    """Five points (x, t) spread over Q_{R/3}, up to 0.9 of its reach in |x| and |t|."""
    h = R / 3.0
    return [(np.full(n, cx * h / math.sqrt(n)), ct * h * h)
            for cx, ct in [(0.0, 0.0), (0.9, 0.9), (-0.9, 0.4), (0.4, -0.9), (-0.5, -0.5)]]


def _ball_split(ys, taus, R: float):
    """ys, taus and |y| as arrays, the mask |y| > R, and the Interior and C labels."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    taus = np.asarray(taus, dtype=float)
    r = np.linalg.norm(ys, axis=1)
    inside_ball = r <= R
    labels = {"Interior": inside_ball & (taus >= -R * R), "C": inside_ball & (taus < -R * R)}
    return ys, taus, r, ~inside_ball, labels


def step1_predicates(ys, taus, x, t, R: float):
    """Tie-broken defining predicates of the Step-1 labels, vectorized."""
    ys, taus, _, outside, labels = _ball_split(ys, taus, R)
    sep = np.linalg.norm(ys - _as_point(x, ys.shape[1])[None, :], axis=1)
    reach = delta_of(R) * (t - taus)
    labels.update(A=outside & (sep >= reach), B=outside & (sep < reach))
    return labels


def step2_predicates(ys, taus, t, R: float):
    """Tie-broken defining predicates of the Step-2 labels, vectorized."""
    ys, taus, r, outside, labels = _ball_split(ys, taus, R)
    t0 = shift_of(R)
    parab = (t - taus) ** 2 >= R * r * r
    labels.update(D=outside & parab, E=outside & ~parab & (taus <= -t0),
                  F=outside & ~parab & (taus > -t0))
    return labels


def sample_past_points(rng, n: int, t: float, R: float, count: int):
    """Wide log-spread samples of the past half-space around Q_R scales."""
    r = R * 10.0 ** rng.uniform(-2.0, 1.0, count)
    ys = r[:, None] * _directions(rng, n, count)
    return ys, t - R * R * 10.0 ** rng.uniform(-4.0, 2.0, count)


# ---------------------------------------------------------------------------
# region samplers (rejection-free constructions)
# ---------------------------------------------------------------------------

def _directions(rng, n, count):
    d = rng.normal(size=(count, n))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def sample_region(rng, region: str, n: int, x, t: float, R: float, count: int):
    """Draw ``count`` points of a named exterior region (step-1 or step-2)."""
    if count < 1:
        raise ValueError(f"samples must be at least 1, got {count}")
    if region not in ("A", "B", "C", "D", "E", "F"):
        raise ValueError(f"unknown region {region!r}")
    x = np.zeros(n) if x is None else _as_point(x, n)
    u1 = rng.uniform(0.0, 1.0, count)
    u_r = rng.uniform(0.0, 1.0, count)
    # C fills the ball; the others take radii r0 (1 + 3U) outside it, E from an
    # r0 with sqrt(R) r0 > t + R^{3/2}, so that its window of t - tau is not empty
    r0 = R + 2.0 * max(t, 0.0) / math.sqrt(R) + 1e-9 if region == "E" else R
    r = R * u_r ** (1.0 / n) if region == "C" else r0 * (1.0 + 3.0 * u_r)
    ys = r[:, None] * _directions(rng, n, count)
    if region == "C":
        return ys, np.minimum(-R * R * 10.0 ** (2.0 * u1), np.nextafter(t, -np.inf))
    t0 = shift_of(R)
    if region in ("A", "B"):
        sep = np.linalg.norm(ys - x[None, :], axis=1)
        # t - tau below |y-x|/delta on A, above it on B
        a = (sep / delta_of(R)) * 10.0 ** (-3.0 * u1 if region == "A" else 2.0 * u1)
    elif region == "D":
        a = np.maximum(math.sqrt(R) * r, 1.05 * max(t, 0.0)) * 10.0 ** (2.0 * u1)
    elif region == "E":
        a_min = max(t + t0, 0.0) + 1e-9
        a = a_min * (math.sqrt(R) * r / a_min) ** u1
    else:   # F, with tau kept strictly above -R^{3/2}
        a = (t + t0) * (1.0 - 1e-12) * 10.0 ** (-6.0 * u1)
    return ys, t - a


# ---------------------------------------------------------------------------
# ratio verifiers
# ---------------------------------------------------------------------------

@dataclass
class RatioReport:
    region: str
    n_samples: int
    max_log_ratio: float
    envelope_log: float
    fitted_constant: float
    passed: bool


def verify_ratio_c1(x, t, R: float, samples: int, p: KernelParams,
                    seed: int = DEFAULT_SEED) -> RatioReport:
    """Shifted-kernel domination on region A.

    Ratio of M(x-y, t-tau) against the sum over coordinates of
    M(x + sign e_j / delta^2 - y, t - tau); the chain constant is
    c = (2/sqrt(n) - 1.5 delta)/4 and the envelope exp(-c/delta).
    """
    n = p.n
    x = _as_point(x, n)
    check_scale((x, t), R)
    rng = np.random.default_rng(seed)
    d = delta_of(R)
    ys, taus = sample_region(rng, "A", n, x, t, R, samples)
    a = t - taus
    num = kernel_log_eval(x[None, :] - ys, a, p)
    shift = 1.0 / (d * d)
    terms = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = shift
        sgn = np.where(ys[:, j] - x[j] >= 0.0, 1.0, -1.0)
        xs = x[None, :] + sgn[:, None] * e[None, :]
        terms.append(kernel_log_eval(xs - ys, a, p))
    terms = np.stack(terms, axis=0)
    top = np.max(terms, axis=0)
    den = top + np.log(np.sum(np.exp(terms - top), axis=0))
    log_ratio = num - den
    c_fit = (2.0 / math.sqrt(n) - 1.5 * d) / 4.0
    env = -c_fit / d
    mx = float(np.max(log_ratio))
    return RatioReport("A", samples, mx, env, c_fit, bool(mx <= env + 1e-9))


def verify_ratio_c2_c3(x, t, R: float, samples: int, p: KernelParams,
                       seed: int = DEFAULT_SEED):
    """Kernel-ratio closeness to 1 on regions B and C.

    |log(M(x-y,t-tau)/M(-y,t-tau))| is checked against
    delta (|x|/2 + 3|x|^2/4) on B and against (2R|x| + |x|^2)/(4(R^2+t))
    on C (reported through the fitted c of the c|x|/R shape).
    """
    n = p.n
    x = _as_point(x, n)
    check_scale((x, t), R)
    rng = np.random.default_rng(seed)
    xnorm = float(np.linalg.norm(x))
    out = []
    for region in ("B", "C"):
        ys, taus = sample_region(rng, region, n, x, t, R, samples)
        a = t - taus
        lr = kernel_log_ratio(x[None, :] - ys, -ys, a, p)
        mx = float(np.max(np.abs(lr)))
        if region == "B":
            env = delta_of(R) * (xnorm / 2.0 + 0.75 * xnorm ** 2)
            c_fit = env * R ** (1.0 / 3.0)
        else:
            env = (2.0 * R * xnorm + xnorm ** 2) / (4.0 * (R * R + t))
            c_fit = env * R / max(xnorm, 1e-300)
        out.append(RatioReport(region, samples, mx, env, c_fit, bool(mx <= env + 1e-12)))
    return out


def _step2_log_ratio(ys, taus, t_num: float, t_den: float, p: KernelParams):
    return kernel_log_eval(-ys, t_num - taus, p) - kernel_log_eval(-ys, t_den - taus, p)


def verify_ratio_step2(t, R: float, samples: int, p: KernelParams,
                       seed: int = DEFAULT_SEED):
    """Step-2 ratio checks on C/D (time shift to 0) and E/F (shift by R^{3/2}).

    On C and D the quantity is log(M(-y,-tau)/M(-y,t-tau)), with the
    uniform envelopes |t|(pe+1/4)/(R^2-|t|) and pe|t|/(R^{3/2}-|t|) +
    |t|(1+|t|/(R^{3/2}-|t|))/(4R) - the c/R^2 and c/R shapes.  On E and F
    it is M(-y,t-tau)/M(-y,t+R^{3/2}-tau), against the decaying envelopes
    obtained by maximizing the chain bound over the region (reported as
    fitted constants).
    """
    t = float(t)
    check_scale((0.0, t), R)
    if abs(t) > R ** 1.5 / 2.0:
        # the printed chains assume the shift is small against R^{3/2}
        raise ValueError("need |t| <= R^{3/2}/2 for the sampled verification")
    rng = np.random.default_rng(seed)
    pe = p.time_exponent
    t0 = shift_of(R)
    reports = []

    # C and D: |log| of the shift to time 0, against the c/R^2 and c/R shapes
    base = R ** 1.5 - abs(t)
    env_c = abs(t) * (pe + 0.25) / (R * R - abs(t))
    env_d = pe * abs(t) / base + abs(t) / (4.0 * R) * (1.0 + abs(t) / base)
    for region, env, c_fit in (("C", env_c, env_c * R * R), ("D", env_d, env_d * R)):
        ys, taus = sample_region(rng, region, p.n, None, t, R, samples)
        mx = float(np.max(np.abs(_step2_log_ratio(ys, taus, 0.0, t, p))))
        reports.append(RatioReport(region, samples, mx, env, c_fit, bool(mx <= env + 1e-12)))

    # E and F: straight ratios (not absolute), against the chain bound at
    # |y|^2 >= max(R^2, y2_factor (t - tau)^2), maximized over a grid of
    # t - tau and over the samples themselves
    for region, y2_factor, a_lo, a_hi in (
            ("E", 1.0 / R, max(t + t0, t0 * 1e-3) + 1e-9, t0 * 1e6),
            ("F", 0.0, (t + t0) * 1e-7, t + t0)):
        ys, taus = sample_region(rng, region, p.n, None, t, R, samples)
        mx = float(np.max(_step2_log_ratio(ys, taus, t, t + t0, p)))
        chain = [pe * np.log1p(t0 / A)
                 - np.maximum(R * R, y2_factor * A * A) * t0 / (4.0 * A * (A + t0))
                 for A in (np.geomspace(a_lo, a_hi, 4001), t - taus)]
        env = max(float(np.max(c)) for c in chain) + 1e-9
        c_fit = -env / math.sqrt(R) if region == "E" else math.exp(env) * math.sqrt(R)
        reports.append(RatioReport(region, samples, mx, env, c_fit, bool(mx <= env)))
    return reports
