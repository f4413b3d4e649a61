"""The exterior tail functional and the convergence-defect estimator.

For a nonnegative function u the tail functional

    F(x, t, R) = int_{(R^n x (-inf, t)) \\ Q_R} u(y, tau) M(x - y, t - tau) dy dtau

is nonnegative and non-increasing in R.  For a family u_j shrinking
locally to a limit u, the defect b is the double limit of F over j (at
fixed R) and then over R; it measures by how much the operator values of
the family fall short of the operator value of the limit.
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .handles import FunctionHandle
from .kernel import KernelParams
from .quadrature import QuadResult, QuadSpec, window_uM_integral


def check_scale(at, R: float) -> None:
    """Raise unless (x, t) = ``at`` lies in Q_{R/3}: R > 3 max(sqrt|t|, |x|)."""
    x0 = np.atleast_1d(np.asarray(at[0], dtype=float))
    t0 = float(at[1])
    bound = 3.0 * max(math.sqrt(abs(t0)), float(np.linalg.norm(x0)))
    if R <= bound:
        raise ValueError(f"need R > 3*max(sqrt|t|, |x|) = {bound:g}, got R = {R:g}")


def tail_functional(u: FunctionHandle, at, R: float, p: KernelParams,
                    q: QuadSpec) -> QuadResult:
    """Exterior integral of u against the kernel, beyond the cylinder Q_R.

    Split as (spatial tail for tau in (-R^2, t)) + (full space for
    tau < -R^2); both pieces exclude the kernel singularity so plain
    non-singular quadrature applies.
    """
    check_scale(at, R)
    x0 = np.atleast_1d(np.asarray(at[0], dtype=float))
    t0 = float(at[1])
    sup = u.support
    a_split = t0 + R * R
    v1, e1, n1 = window_uM_integral(u, (x0, t0), p, q, 0.0, a_split, r_lo=R)
    a_end = math.inf
    if sup is not None and sup.t_lo > -math.inf:
        a_end = max(t0 - sup.t_lo, a_split)
    v2, e2, n2 = window_uM_integral(u, (x0, t0), p, q, a_split, a_end)
    value = v1 + v2
    err = e1 + e2
    if value < -err:
        warnings.warn("tail functional came out negative beyond its error "
                      "estimate; is u nonnegative?", stacklevel=2)
    return QuadResult(value=value, err_estimate=err, truncation_flag=False,
                      nodes_used=n1 + n2)


def pool_map(fn, items, jobs: int):
    """fn over items on ``jobs`` threads, results in input order; serial when jobs <= 1."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


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
    limit_tail: dict = field(default_factory=dict)  # probe -> F(limit_u, R_max)


def defect_estimate(family, limit_u: FunctionHandle, probes, R_schedule,
                    j_schedule, p: KernelParams, q: QuadSpec,
                    inner_tol: float = 2e-2, outer_tol: float = 2e-2,
                    jobs: int = 1) -> DefectReport:
    """Estimate the defect constant from F(probe, R) along the j schedule.

    ``family`` maps an index j to a FunctionHandle.  The limit order is
    fixed: j first at each R (last two iterates must agree within
    ``inner_tol``), then R (the sequence must be non-increasing with a
    final step below ``outer_tol``).  The estimator refuses to report b
    when the inner limit has not stabilized.  The (probe, R, j) grid is
    embarrassingly parallel (``jobs`` threads); results are merged in
    deterministic index order regardless of completion order.
    """
    R_schedule = [float(R) for R in R_schedule]
    j_schedule = [int(j) for j in j_schedule]
    if sorted(R_schedule) != R_schedule or sorted(j_schedule) != j_schedule:
        raise ValueError("schedules must be strictly increasing")
    if len(set(R_schedule)) != len(R_schedule) or len(set(j_schedule)) != len(j_schedule):
        raise ValueError("schedules must be strictly increasing")
    if len(j_schedule) < 2 or len(R_schedule) < 2:
        raise ValueError("need at least two entries per schedule")
    for probe in probes:
        check_scale(probe, min(R_schedule))

    handles = {j: family(j) for j in j_schedule}
    report = DefectReport()
    grid = [(probe, R, j) for probe in probes for R in R_schedule
            for j in j_schedule]

    def one(cell):
        probe, R, j = cell
        return tail_functional(handles[j], probe, R, p, q)

    results = pool_map(one, grid, jobs)

    table: dict[tuple, dict[float, dict[int, tuple[float, float]]]] = {}
    for (probe, R, j), res in zip(grid, results):
        key = _probe_key(probe)
        table.setdefault(key, {}).setdefault(R, {})[j] = (res.value, res.err_estimate)
        report.samples.append((j, R, key, res.value, res.err_estimate))

    monotone = True
    for key in table:
        for j in j_schedule:
            for Ra, Rb in zip(R_schedule[:-1], R_schedule[1:]):
                fa, ea = table[key][Ra][j]
                fb, eb = table[key][Rb][j]
                if fb > fa + ea + eb + 1e-12:
                    monotone = False
    report.monotone_ok = monotone

    per_probe = {}
    all_inner_ok = True
    for key in table:
        FR = {}
        for R in R_schedule:
            f_last, _ = table[key][R][j_schedule[-1]]
            f_prev, _ = table[key][R][j_schedule[-2]]
            if abs(f_last - f_prev) > inner_tol * max(1.0, abs(f_last)):
                all_inner_ok = False
            FR[R] = f_last
        f_end = FR[R_schedule[-1]]
        f_penult = FR[R_schedule[-2]]
        if abs(f_end - f_penult) > outer_tol * max(1.0, abs(f_end)):
            all_inner_ok = False
        per_probe[key] = f_end
    report.per_probe = per_probe
    report.converged = all_inner_ok

    if all_inner_ok:
        bs = np.array(list(per_probe.values()))
        report.b_estimate = float(np.mean(bs))
        report.b_spread = float(np.max(bs) - np.min(bs))
        report.liminf_bound_M = float(max(np.max(bs), 0.0))
        # smallest R at which sup_probes F(R) sits below M + 1
        M1 = report.liminf_bound_M + 1.0
        report.N_threshold = math.nan
        for R in R_schedule:
            supF = max(table[k][R][j_schedule[-1]][0] for k in table)
            if supF <= M1:
                report.N_threshold = R
                break

    for probe in probes:
        res = tail_functional(limit_u, probe, R_schedule[-1], p, q)
        report.limit_tail[_probe_key(probe)] = res.value
    return report


def _probe_key(probe):
    x0 = np.atleast_1d(np.asarray(probe[0], dtype=float))
    return (tuple(round(float(c), 12) for c in x0), round(float(probe[1]), 12))
