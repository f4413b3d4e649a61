"""The exterior tail functional and the convergence-defect estimator.

For a nonnegative function u the tail functional

    F(x, t, R) = int_{(R^n x (-inf, t)) \\ Q_R} u(y, tau) M(x - y, t - tau) dy dtau

is nonnegative and non-increasing in R.  For a family u_j shrinking
locally to a limit u, the defect b is the double limit of F(u_j) - F(u)
over j (at fixed R) and then over R; it measures by how much the
operator values of the family fall short of the operator value of the
limit.
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .handles import FunctionHandle, counted
from .kernel import KernelParams
from .quadrature import QuadResult, QuadSpec, checked_point, window_uM_integral
from .regions import check_scale


def tail_functional(u: FunctionHandle, at, R: float, p: KernelParams,
                    q: QuadSpec) -> QuadResult:
    """Exterior integral of u against the kernel, beyond the cylinder Q_R.

    Split by radius: the shell |y| > R at every duration a = t - tau, plus
    the ball for a > t + R^2.  A window starts its shell at u's declared
    hole, so a support on one side of R takes one window.
    """
    check_scale(at, R)
    x0, t0 = checked_point(u, at, p)
    a_split = t0 + R * R
    a_end = math.inf if u.support is None else max(t0 - u.support.t_lo, a_split)
    u, nodes = counted(u)
    res = (window_uM_integral(u, (x0, t0), p, q, 0.0, a_end, r_lo=R)
           + window_uM_integral(u, (x0, t0), p, q, a_split, a_end, r_hi=R))
    if res.value < -res.err_estimate:
        warnings.warn("tail functional came out negative beyond its error "
                      "estimate; is u nonnegative?", stacklevel=2)
    return replace(res, nodes_used=nodes())


def pool_map(fn, items, jobs: int):
    """fn over items on ``jobs`` threads, results in input order; serial when jobs <= 1.

    Each item runs under the caller's numpy error state, which a worker
    thread would not inherit.
    """
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    state = np.geterr()

    def run(it):
        with np.errstate(**state):
            return fn(it)

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run, items))


@dataclass
class DefectReport:
    """Samples of F over the (j, R, probe) grid and the extrapolated defect."""

    samples: list = field(default_factory=list)   # (j, R, probe, F, err)
    b_estimate: float = math.nan
    b_spread: float = math.nan
    monotone_ok: bool = False
    liminf_bound_M: float = math.nan
    N_threshold: float = math.nan
    converged: bool = False
    per_probe: dict = field(default_factory=dict)  # probe -> b(probe)


def defect_estimate(family, limit_u: FunctionHandle, probes, R_schedule,
                    j_schedule, p: KernelParams, q: QuadSpec,
                    inner_tol: float = 2e-2, outer_tol: float = 2e-2,
                    jobs: int = 1) -> DefectReport:
    """Estimate the defect constant from F(probe, R) along the j schedule.

    ``family`` maps an index j to a FunctionHandle.  At each probe and R
    the defect is b(probe, R) = F(u_J, R) - F(limit_u, R) at the last
    index J, the tail part of the operator difference (as in
    ``difference_decomposition``, where E -> -F(limit_u, R)).  The limit
    order is fixed: j first at each R (the last two F must agree within
    ``inner_tol``), then R (F non-increasing in R, the last step of b
    below ``outer_tol``).  The estimator refuses to report b when either
    limit has not stabilized.  The (probe, R, j) grid, with the limit's
    cells, is embarrassingly parallel (``jobs`` threads); results are
    merged in deterministic index order regardless of completion order.
    """
    R_schedule = [float(R) for R in R_schedule]
    j_schedule = [int(j) for j in j_schedule]
    if sorted(set(R_schedule)) != R_schedule or sorted(set(j_schedule)) != j_schedule:
        raise ValueError("schedules must be strictly increasing")
    if len(j_schedule) < 2 or len(R_schedule) < 2:
        raise ValueError("need at least two entries per schedule")
    for probe in probes:
        for R in R_schedule:
            check_scale(probe, R)

    # the last slot of the j axis holds the limit
    us = [family(j) for j in j_schedule] + [limit_u]
    grid = [(probe, R, u) for probe in probes for R in R_schedule for u in us]
    results = pool_map(lambda c: tail_functional(c[2], c[0], c[1], p, q), grid, jobs)
    shape = (len(probes), len(R_schedule), len(us))
    F = np.array([res.value for res in results]).reshape(shape)
    err = np.array([res.err_estimate for res in results]).reshape(shape)
    F, F_limit, err = F[..., :-1], F[..., -1], err[..., :-1]
    keys = [_probe_key(probe) for probe in probes]
    report = DefectReport(samples=[
        (j_schedule[m], R_schedule[k], keys[i], float(F[i, k, m]), float(err[i, k, m]))
        for i, k, m in np.ndindex(F.shape)])

    report.monotone_ok = not np.any(F[:, 1:] > F[:, :-1] + err[:, :-1] + err[:, 1:] + 1e-12)
    f_last, f_prev = F[..., -1], F[..., -2]
    b = f_last - F_limit
    moving = np.abs(f_last - f_prev) > inner_tol * np.maximum(1.0, np.abs(f_last))
    drifting = np.abs(b[:, -1] - b[:, -2]) > outer_tol * np.maximum(1.0, np.abs(b[:, -1]))
    report.per_probe = {key: float(bk) for key, bk in zip(keys, b[:, -1])}
    report.converged = not (np.any(moving) or np.any(drifting))

    if report.converged:
        bs = b[:, -1]
        report.b_estimate = float(np.mean(bs))
        report.b_spread = float(np.max(bs) - np.min(bs))
        report.liminf_bound_M = float(max(np.max(bs), 0.0))
        # smallest R at which sup_probes F(R) sits below M + 1
        below = np.flatnonzero(np.max(f_last, axis=0) <= report.liminf_bound_M + 1.0)
        report.N_threshold = R_schedule[below[0]] if below.size else math.nan
    return report


def _probe_key(probe):
    x0 = np.atleast_1d(np.asarray(probe[0], dtype=float))
    return (tuple(round(float(c), 12) for c in x0), round(float(probe[1]), 12))
