"""Oracle table: the exact or limit value each kind of operation must match.

Tolerances follow the repository's acceptance tests: 1e-3 relative for
the symbol and the two reductions, 5e-2 absolute for ``w_j -> -1`` and
for ``b``, 2e-2 relative for ``-C0`` (also used for ``-C1``), 1e-3
absolute for ``(t_+)^2``.  A relative tolerance is taken against the
reference value, as in the acceptance tests; the workloads keep
``cos(xi . x)`` away from zero.

The symbol runs with an explicit horizon H and no support box, so the
program drops the part of the time integral beyond H and flags it.  Its
reference is the exact value of that truncated integral: the closed form
plus ``e^{lambda t} cos(xi . x) s/Gamma(1-s) int_H^inf e^{-ca} a^{-1-s} da``,
c = lambda + |xi|^2 (the dropped term enters the operator with a minus
sign).  It matters only for c below about 0.1, where it exceeds the 1e-3
tolerance.

``exact`` oracles are closed forms at the finite parameters; only they
count toward ``bound_miss_frac`` (``|value - exact| > err_estimate`` with
no flag set; the horizon flag of the symbol does not count, since its
reference already accounts for the truncation).  Limit oracles hold as
``j -> inf``.

An operation *misses* when it raises, returns a non-finite value, breaks a
condition, or its error exceeds the tolerance.  A miss is a *failure* (the
output is wrong) unless either the operation is exact-oracle and its own
``err_estimate`` covers the error, or it is a known program defect listed
in ``KNOWN_DEFECTS`` and its error stays within the cap listed there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Oracle:
    reference: str
    tol: float
    mode: str        # "rel" (to the reference), "abs", or "bound" (within err_estimate)
    exact: bool
    horizon: float | None = None   # the reference is truncated at this horizon


#: the explicit horizon of the symbol operations (no support box)
SYMBOL_HORIZON = 60.0

SYMBOL = Oracle("(lambda+|xi|^2)^s e^{lambda t} cos(xi.x), a-integral cut at H",
                1e-3, "rel", True, SYMBOL_HORIZON)
W_LIMIT = Oracle("-1", 5e-2, "abs", False)
PHI_LIMIT = Oracle("-C0(s, n)", 2e-2, "rel", False)
PSI_LIMIT = Oracle("-C1(s)", 2e-2, "rel", False)
DEFECT_B = Oracle("b = 1, converged and monotone", 5e-2, "abs", False)

ORACLES = {
    "symbol": SYMBOL,
    "gh_cap": SYMBOL,
    "flap_cos": Oracle("|xi|^{2s} cos(xi x1)", 1e-3, "rel", True),
    "marchaud_exp": Oracle("lambda^s e^{lambda t}", 1e-3, "rel", True),
    "tsq": Oracle("Gamma(3)/Gamma(3-s) t^{2-s}", 1e-3, "abs", True),
    "w_limit": W_LIMIT,
    "phi_limit": PHI_LIMIT,
    "psi_limit": PSI_LIMIT,
    # I + E + F against master(u) - master(ui), within max(err_estimate, 1e-7)
    "decomposition": Oracle("I+E+F = master(u) - master(ui)", 1e-7, "bound", False),
    "defect_b": DEFECT_B,
    "cli_eval": SYMBOL,
    "cli_phi": PHI_LIMIT,
    "cli_psi": PSI_LIMIT,
    "cli_w": W_LIMIT,
    "cli_defect": DEFECT_B,
    "cli_verify": Oracle("every check passes", 0.0, "abs", False),
}


@dataclass(frozen=True)
class Defect:
    why: str
    cap: float       # largest relative error still reported as a miss, not a failure


#: program defects known at the parent commit, by (kind, n): a miss within
#: the cap counts in fail_frac but not as a failure; beyond it, it fails
KNOWN_DEFECTS = {
    ("flap_cos", 2): Defect(
        "fractional_laplacian's fixed 16-direction angular rule is exact only "
        "for radial inputs: cos(xi x1) at n=2 is 6e-3..7e-3 off, err_estimate ~4e-8",
        2e-2),
    ("gh_cap", 1): Defect(
        "where the Gauss-Hermite order cap binds at n=1, err_estimate covers "
        "only about half of the 5e-3..8e-3 error",
        2e-2),
}


def horizon_tail(s, c, H):
    """s/Gamma(1-s) int_H^inf e^{-ca} a^{-1-s} da: the kernel mass of
    e^{-ca} beyond the horizon H, for the normalised kernel.

    With a = H e^y the integral is H^{-s} int_0^inf e^{-cH e^y - s y} dy,
    smooth and decaying in y; composite Simpson to ~1e-12 relative.
    """
    z = c * H
    y_end = 40.0 / s
    if z > 0.0:
        y_end = min(y_end, math.log(60.0 / z)) if z < 60.0 else 0.0
    if y_end <= 0.0:
        return 0.0
    m = 2 * max(200, int(y_end / 2e-3) // 2)
    y = np.linspace(0.0, y_end, m + 1)
    f = np.exp(-z * np.exp(y) - s * y)
    w = np.ones(m + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return s / math.gamma(1.0 - s) * H ** (-s) * float(w @ f) * (y_end / m) / 3.0


def reference(op, C0, C1):
    """The value the operation must reach.

    ``C0(s, n)`` and ``C1(s)`` supply the family constants.
    """
    kind = op["kind"]
    s = op.get("s")
    if kind in ("symbol", "gh_cap", "cli_eval"):
        c = op["lam"] + sum(v * v for v in op["xi"])
        phase = sum(a * b for a, b in zip(op["xi"], op["x"]))
        tail = horizon_tail(s, c, ORACLES[kind].horizon)
        return (c ** s + tail) * math.exp(op["lam"] * op["t"]) * math.cos(phase)
    if kind == "flap_cos":
        return abs(op["xi"]) ** (2.0 * s) * math.cos(op["xi"] * op["x"][0])
    if kind == "marchaud_exp":
        return op["lam"] ** s * math.exp(op["lam"] * op["t"])
    if kind == "tsq":
        return math.gamma(3.0) / math.gamma(3.0 - s) * op["t"] ** (2.0 - s)
    if kind in ("w_limit", "cli_w"):
        return -1.0
    if kind in ("phi_limit", "cli_phi"):
        return -C0(s, op["n"])
    if kind in ("psi_limit", "cli_psi"):
        return -C1(s)
    if kind in ("defect_b", "cli_defect"):
        return 1.0
    if kind in ("decomposition", "cli_verify"):
        return 0.0
    raise KeyError(f"no oracle for {kind!r}")


@dataclass
class Outcome:
    """What one operation returned."""

    value: float = math.nan
    err_estimate: float = math.nan
    flag: bool = False
    conditions_ok: bool = True   # converged/monotone, exit code, checks passing
    error: str | None = None     # exception or non-zero exit


@dataclass
class Verdict:
    reference: float
    abs_err: float
    allowed: float
    miss: bool
    failed: bool
    bound_miss: bool
    err_ratio: float


def judge(op, out: Outcome, C0, C1) -> Verdict:
    o = ORACLES[op["kind"]]
    defect = KNOWN_DEFECTS.get((op["kind"], op["n"]))
    ref = reference(op, C0, C1)
    if o.mode == "rel":
        allowed = o.tol * abs(ref)
    elif o.mode == "bound":
        allowed = max(out.err_estimate, o.tol)
    else:
        allowed = o.tol
    if out.error is not None or not math.isfinite(out.value):
        return Verdict(ref, math.nan, allowed, True, True, False, math.nan)
    abs_err = abs(out.value - ref)
    miss = abs_err > allowed or not out.conditions_ok
    covered = o.exact and out.conditions_ok and abs_err <= out.err_estimate
    known = (defect is not None and out.conditions_ok
             and abs_err <= defect.cap * abs(ref))
    flagged = out.flag and o.horizon is None
    bound_miss = o.exact and abs_err > out.err_estimate and not flagged
    ratio = abs_err / max(out.err_estimate, 1e-300) if o.exact else 0.0
    return Verdict(ref, abs_err, allowed, miss, miss and not (covered or known),
                   bound_miss, ratio)
