"""Command-line surface: evaluate operators, run the counterexample and
defect experiments, verify partitions and ratio estimates.

Commands: eval, counterexample, defect, verify.  Output is CSV (header
row, '.' decimal, 17 significant digits, booleans as true/false) or JSON
mirroring the same fields.  Exit codes: 0 success, 2 usage/parse/input
error, 3 numeric failure.  Every run option in ``OPTIONS`` is both a flag
(``--gh-order``) and a key of a line-oriented key=value config file
(``gh_order``), on each command that reads it; any other command refuses
it.  Flags beat the file, the file beats the MASTEROP_SEED environment
variable (read by verify, the one command that reads a seed), and that
beats the defaults (seed 0xA11CE).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import field, make_dataclass, replace

import numpy as np

from . import families
from .defect import defect_estimate, pool_map
from .funcdsl import FUNCTIONS, OPERATORS, parse, to_handle
from .handles import GROWTH_BOUNDED, GROWTH_DECAYING, spatial, temporal, zero
from .kernel import (
    KernelParams,
    NORMALIZED,
    RAW,
    decay_grid,
    kernel_constants,
    kernel_decay_check,
)
from .operators import fractional_laplacian, marchaud, master_op
from .quadrature import NumericError, QuadSpec
from .regions import (
    DEFAULT_SEED,
    sample_past_points,
    scale_probes,
    step1_predicates,
    step2_predicates,
    verify_ratio_c1,
    verify_ratio_c2_c3,
    verify_ratio_step2,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

#: the output columns of a probe's spatial coordinates, n = 1, 2, 3
PROBE_COLUMNS = ("px", "py", "pz")


def _one_of(*choices):
    def choice(text):
        if text not in choices:
            raise argparse.ArgumentTypeError(
                f"expected one of {', '.join(choices)}, got {text!r}")
        return text
    return choice


def _seed(text):
    return int(text, 0)


#: every run option: name -> (default, parser, help).  Each one is the flag
#: --name (with '-' for '_'), the config key ``name`` and a RunConfig field.
OPTIONS = {
    "n": (1, int, "spatial dimension (1-3)"),
    "s": (0.5, float, "fractional order in (0,1)"),
    "normalization": (NORMALIZED, _one_of(RAW, NORMALIZED),
                      "kernel constants: raw or normalized"),
    "tol": (QuadSpec.rel_tol, float, "relative tolerance"),
    "gh_order": (QuadSpec.gh_order, int, f"Gauss-Hermite order each difference time panel "
                 f"starts at (default {QuadSpec.gh_order}); each round doubles it for the "
                 "panels not yet settled, until two successive orders agree to within the "
                 "larger of the tolerance and the rounding floor, up to the cap 200, 80 or 32 "
                 "at n = 1, 2, 3, or 200 for a radial input; a radial input at n = 2, 3 starts "
                 "at 2 at least, and its order is that of a 1-D rule at n = 3 and means "
                 "order // 2 Gauss-Legendre panels of 8 nodes in r at n = 2"),
    "grading": (QuadSpec.grading, float, "ratio of the graded time mesh, in (0,1)"),
    "a_min": (QuadSpec.a_min, float, "shortest duration of the graded time mesh"),
    "horizon": (QuadSpec.horizon, float, "time horizon (omit for Auto via support boxes)"),
    "seed": (DEFAULT_SEED, _seed, "sampling seed (default 0xA11CE or MASTEROP_SEED)"),
    "jobs": (1, int, "worker pool size"),
    "format": ("csv", _one_of("csv", "json"), "output format: csv or json"),
    "out": (None, str, "output path (default stdout)"),
}


class _Run:
    def kernel(self) -> KernelParams:
        return kernel_constants(self.n, self.s, self.normalization)

    def quad(self) -> QuadSpec:
        return QuadSpec(gh_order=self.gh_order, grading=self.grading, a_min=self.a_min,
                        horizon=self.horizon, rel_tol=self.tol)


RunConfig = make_dataclass(
    "RunConfig", [(name, object, field(default=default))
                  for name, (default, _, _) in OPTIONS.items()], bases=(_Run,))


def fmt_float(v: float) -> str:
    """Round-trip-safe decimal rendering (17 significant digits)."""
    return format(float(v), ".17g")


def _cell(c) -> str:
    if c is None:
        return ""
    if isinstance(c, (bool, np.bool_)):
        return "true" if c else "false"
    return fmt_float(c) if isinstance(c, float) else str(c)


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(_cell(c) for c in row) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path, payload):
    _write(path, json.dumps(payload, indent=2, sort_keys=True,
                            default=_json_default) + "\n")


def _write(path, text):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def parse_point(text: str, dim: int):
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != dim + 1:
        raise ValueError(f"point needs {dim} spatial coordinates and a time")
    vals = [float(p) for p in parts]
    return np.array(vals[:dim]), vals[dim]


def _parse_list(text: str, kind, sep: str = ","):
    """``kind`` over the non-blank ``sep``-separated entries; an empty list is an error."""
    items = [kind(v) for v in text.split(sep) if v.strip()]
    if not items:
        raise ValueError(f"empty list {text!r}")
    return items


def _parse_schedule(text: str, kind, flag: str):
    """A schedule list, refused unless strictly increasing (as in ``defect_estimate``)."""
    items = _parse_list(text, kind)
    if sorted(set(items)) != items:
        raise ValueError(f"{flag} must be strictly increasing, got {text!r}")
    return items


def _parse_probes(text: str, dim: int):
    return _parse_list(text, lambda chunk: parse_point(chunk, dim), ";")


def load_config_file(path: str) -> dict:
    """line-oriented key=value; '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def build_config(args) -> RunConfig:
    """The run options of ``args.command``: flags, then config file, then
    MASTEROP_SEED, then defaults; an option the command does not read is refused."""
    values = {}
    env_seed = os.environ.get("MASTEROP_SEED")
    if env_seed is not None and "seed" in args.reads:
        values["seed"] = _seed(env_seed)
    if args.config:
        for key, raw in load_config_file(args.config).items():
            if key not in OPTIONS:
                raise ValueError(f"unknown config key {key!r}")
            if key not in args.reads:
                raise ValueError(f"config key {key!r} does not apply to {args.command}")
            values[key] = OPTIONS[key][1](raw)
    for key in OPTIONS:
        if key not in args.reads and getattr(args, key) is not None:
            raise ValueError(f"--{key.replace('_', '-')} does not apply to {args.command}")
    # explicit flags override file and environment
    values.update((k, v) for k in args.reads if (v := getattr(args, k)) is not None)
    cfg = RunConfig(**values)
    if cfg.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {cfg.jobs}")
    return cfg


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    cfg = build_config(args)
    expr = parse(args.expr)
    u = to_handle(expr, cfg.n, s=cfg.s, normalization=cfg.normalization)
    x, t = parse_point(args.point, cfg.n)
    p = cfg.kernel()
    q = cfg.quad()
    if args.op == "master":
        res = master_op(u, (x, t), p, q)
    elif args.op == "flap":
        res = fractional_laplacian(u, x, p, q)
    else:
        res = marchaud(u, t, p, q)
    payload = {"value": res.value, "err_estimate": res.err_estimate,
               "nodes_used": res.nodes_used,
               "truncation_flag": res.truncation_flag}
    if cfg.format == "json":
        write_json(cfg.out, payload)
    else:
        write_csv(cfg.out, list(payload), [list(payload.values())])
    return EXIT_OK


def cmd_counterexample(args) -> int:
    # an empty --probes= or --times= is given, and refused as an empty list below
    if args.probes is not None and args.which == 2:
        raise ValueError("--probes does not apply to --which 2; use --times")
    if args.times is not None and args.which != 2:
        raise ValueError(f"--times applies only to --which 2, not {args.which}")
    if not 0.0 <= args.target_tol < math.inf:
        raise ValueError(f"--target-tol must be finite and at least 0, got {args.target_tol}")
    cfg = build_config(args)
    p, q, n, s = cfg.kernel(), cfg.quad(), cfg.n, cfg.s
    js = _parse_schedule(args.j_schedule, int, "--j-schedule")
    origin = np.zeros(n)
    # each family: handle per j, operator at a point (x, t), points, limit
    if args.which == 1:
        alpha = args.alpha if args.alpha is not None else 2.0 * args.beta * s
        critical = math.isclose(alpha, 2.0 * args.beta * s, rel_tol=1e-9)
        target = -families.C0_constant(s, n, cfg.normalization) if critical else 0.0
        family = lambda j: families.phi_family(j, alpha, args.beta, dim=n)
        op = lambda u, x, t: fractional_laplacian(u, x, p, q)
        points = [(origin, 0.0)]
    elif args.which == 2:
        alpha = args.alpha if args.alpha is not None else args.beta * s
        target = -families.C1_constant(s, cfg.normalization)
        family = lambda j: families.psi_family(j, alpha, args.beta, dim=n)
        op = lambda u, x, t: marchaud(u, t, p, q)
        times = _parse_list(args.times, float) if args.times is not None else [0.0]
        points = [(origin, t) for t in times]
    else:
        target = -1.0
        family = lambda j: families.w_family(
            j, args.gamma, s, n=n, normalization=cfg.normalization)
        op = lambda u, x, t: master_op(u, (x, t), p, q)
        points = [(origin, 0.0), (np.ones(n), 1.0), (-np.ones(n), 0.5)]
    if args.probes is not None:
        points = _parse_probes(args.probes, n)

    cells = [(j, x, t) for j in js for x, t in points]
    vals = pool_map(lambda c: op(family(c[0]), c[1], c[2]).value, cells, cfg.jobs)
    errs = [abs(v - target) for v in vals]
    # a probe's verdict is its own cell at the largest index, one of the last
    # len(points); earlier rows carry none
    last = len(cells) - len(points)
    rows = [(j, *map(float, x), t, v, target, e, e <= args.target_tol if k >= last else None)
            for k, ((j, x, t), v, e) in enumerate(zip(cells, vals, errs))]
    header = ["j", *PROBE_COLUMNS[:n], "pt", "value", "target", "abs_err", "converged"]
    converged = all(r[-1] for r in rows[last:])
    if cfg.format == "json":
        write_json(cfg.out, {"rows": [dict(zip(header, r)) for r in rows],
                             "tolerance": args.target_tol, "converged": converged})
    else:
        write_csv(cfg.out, header, rows)
    return EXIT_OK if converged else EXIT_NUMERIC


def cmd_defect(args) -> int:
    cfg = build_config(args)
    p, q = cfg.kernel(), cfg.quad()
    js = _parse_schedule(args.j_schedule, int, "--j-schedule")
    Rs = _parse_schedule(args.r_schedule, float, "--r-schedule")
    if args.probes is not None:
        probes = _parse_probes(args.probes, cfg.n)
    else:
        # spread over the parabolic box the strictest (smallest) R allows
        probes = scale_probes(cfg.n, min(Rs))

    if args.family == "w":
        def family(j):
            return families.w_family(j, args.gamma, cfg.s, n=cfg.n,
                                     normalization=cfg.normalization)
    elif args.family == "zero":
        def family(j):
            return zero(cfg.n)
    else:
        expr = parse(args.family)

        def family(j):
            return to_handle(expr, cfg.n, s=cfg.s, normalization=cfg.normalization)

    limit = (to_handle(parse(args.limit), cfg.n, s=cfg.s,
                       normalization=cfg.normalization)
             if args.limit else zero(cfg.n))
    report = defect_estimate(family, limit, probes, Rs, js, p, q, jobs=cfg.jobs)

    header = ["j", "R", *PROBE_COLUMNS[:cfg.n], "pt", "F", "err"]
    rows = [(j, R, *x, t, F, err) for (j, R, (x, t), F, err) in report.samples]
    summary = {
        "b_estimate": report.b_estimate,
        "b_spread": report.b_spread,
        "monotone_ok": report.monotone_ok,
        "converged": report.converged,
        "liminf_bound_M": report.liminf_bound_M,
        "N_threshold": report.N_threshold,
    }
    # strict JSON has no NaN: the numbers of an estimate that did not converge are null
    summary = {k: v if math.isfinite(v) else None for k, v in summary.items()}
    if cfg.format == "json":
        write_json(cfg.out, {"summary": summary,
                             "rows": [dict(zip(header, r)) for r in rows]})
    else:
        write_csv(cfg.out, header, rows)
        # the summary goes to whichever stream the rows leave free
        (sys.stdout if cfg.out else sys.stderr).write(json.dumps(summary, sort_keys=True) + "\n")
    return EXIT_OK if report.converged else EXIT_NUMERIC


def _ratio_check(rep) -> dict:
    return {"pass": rep.passed, "max_violation": rep.max_log_ratio,
            "envelope": rep.envelope_log, "fitted_c": rep.fitted_constant}


def cmd_verify(args) -> int:
    cfg = build_config(args)
    p = cfg.kernel()
    q = cfg.quad()
    n, seed, samples = cfg.n, cfg.seed, args.samples
    if samples < 1:
        raise ValueError(f"--samples must be at least 1, got {samples}")
    Rs = _parse_schedule(args.R, float, "--R")
    # before any sampling: the partition checks sample with R unchecked
    if not all(0.0 < Rk < math.inf for Rk in Rs):
        raise ValueError(f"--R entries must be finite and positive, got {args.R!r}")
    R = Rs[-1]
    e1 = np.zeros(n)
    e1[0] = 1.0
    what = (_parse_list(args.what, str) if args.what != "all" else
            ["partition1", "partition2", "c1", "c2c3", "step2", "decay", "reductions"])
    rng = np.random.default_rng(seed)
    checks = {}

    for name in what:
        if name in ("partition1", "partition2"):
            ys, taus = sample_past_points(rng, n, 0.0, R, samples)
            preds = (step1_predicates(ys, taus, np.zeros(n), 0.0, R)
                     if name == "partition1" else step2_predicates(ys, taus, 0.0, R))
            counts = sum(np.asarray(v, dtype=int) for v in preds.values())
            bad = int(np.sum(counts != 1))
            checks[name] = {"pass": bad == 0, "max_violation": float(bad),
                            "envelope": 0.0}
        elif name == "c1":
            reps = [verify_ratio_c1(e1, 0.0, Rk, samples, p, seed=seed) for Rk in Rs]
            checks.update((f"c1@R={Rk:g}", _ratio_check(rep)) for Rk, rep in zip(Rs, reps))
            maxima = [rep.max_log_ratio for rep in reps]
            decreasing = all(b < a for a, b in zip(maxima[:-1], maxima[1:]))
            checks["c1-monotone"] = {"pass": decreasing or len(Rs) < 2,
                                     "max_violation": 0.0, "envelope": 0.0}
        elif name == "c2c3":
            checks.update((f"c2c3-{rep.region}", _ratio_check(rep))
                          for rep in verify_ratio_c2_c3(e1, 0.0, R, samples, p, seed=seed))
        elif name == "step2":
            checks.update((f"step2-{rep.region}", _ratio_check(rep))
                          for rep in verify_ratio_step2(math.sqrt(R), R, samples, p, seed=seed))
        elif name == "decay":
            rho, dt = decay_grid()
            dx = np.zeros(rho.shape + (n,))
            dx[..., 0] = rho
            value, maj, ok = kernel_decay_check(dx, dt, p)
            worst = float(np.max(value / maj))
            checks[name] = {"pass": ok, "max_violation": worst, "envelope": 1.0}
        elif name == "reductions":
            checks[name] = _check_reductions(n, p, q)
        else:
            raise ValueError(f"unknown verify target {name!r}")

    all_ok = all(c["pass"] for c in checks.values())
    write_json(cfg.out, {"checks": checks, "pass": all_ok})
    return EXIT_OK if all_ok else EXIT_NUMERIC


def _check_reductions(n: int, p: KernelParams, q: QuadSpec) -> dict:
    qh = replace(q, horizon=60.0)
    origin = np.zeros(n)
    if n == 1:
        sp = spatial(lambda pts: np.cos(pts[:, 0]), dim=1, growth=GROWTH_BOUNDED)
        q_sp = qh
    else:
        # radial compact profile: exact under the angular rule in n >= 2,
        # and Auto horizon so the support-window tail is computed exactly
        sp = families.phi_family(4, 1.0, 1.0, dim=n)
        q_sp = replace(q, horizon=None)
    d1 = abs(master_op(sp, (origin, 0.0), p, q_sp).value
             - fractional_laplacian(sp, origin, p, q_sp).value)
    expt = temporal(lambda tt: np.exp(tt), dim=n, growth=GROWTH_DECAYING)
    d2 = abs(master_op(expt, (origin, 0.0), p, qh).value
             - marchaud(expt, 0.0, p, qh).value)
    worst = max(d1, d2)
    return {"pass": worst <= 1e-4, "max_violation": worst, "envelope": 1e-4}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_options(sp, reads: str):
    """The run options the command reads, by name; the others parse, unlisted
    in --help, only so that build_config can refuse them in one line."""
    reads = reads.split()
    for name, (_, kind, text) in OPTIONS.items():
        sp.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                        type=kind if name in reads else str,
                        help=text if name in reads else argparse.SUPPRESS)
    sp.add_argument("--config", default=None, help="key=value config file")
    sp.set_defaults(reads=reads)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="masterop",
        description="Evaluate the fully fractional heat operator and reproduce "
                    "its convergence-defect structure at desk scale.",
        epilog=f"Expression grammar: {', '.join(OPERATORS)}, ^ (literal exponent), "
               f"-e (neg), {', '.join(f'{f}(e)' for f in FUNCTIONS if f != 'neg')}, "
               "variables x1..x3 and t, family atoms phi(j,alpha,beta), "
               "psi(j,alpha,beta), w(j,gamma).")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate an operator at a point")
    sp.add_argument("expr", help="expression for u(x, t)")
    sp.add_argument("--op", choices=["master", "flap", "marchaud"], default="master")
    sp.add_argument("--point", default="0,0", help="comma-separated x..., t")
    _add_options(sp, "n s normalization tol gh_order grading a_min horizon format out")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("counterexample", help="run a counterexample family")
    sp.add_argument("--which", type=int, choices=[1, 2, 3], required=True)
    sp.add_argument("--j-schedule", dest="j_schedule", default="2,4,8,16")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--probes", default=None, help="semicolon-separated points (which=1, 3)")
    sp.add_argument("--times", default=None, help="comma-separated times (which=2)")
    sp.add_argument("--target-tol", dest="target_tol", type=float, default=5e-2)
    _add_options(sp, "n s normalization tol gh_order grading a_min horizon jobs format out")
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("defect", help="estimate the convergence defect")
    sp.add_argument("--family", default="w", help="'w', 'zero', or an expression")
    sp.add_argument("--limit", default=None,
                    help="limit function expression; b = F(u_J) - F(limit) (default 0)")
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--j-schedule", dest="j_schedule", default="4,8,16,32")
    sp.add_argument("--r-schedule", dest="r_schedule", default="6,12,24")
    sp.add_argument("--probes", default=None, help="semicolon-separated points")
    _add_options(sp, "n s normalization jobs format out")
    sp.set_defaults(func=cmd_defect)

    sp = sub.add_parser("verify", help="verify partitions, envelopes, decay")
    sp.add_argument("--what", default="all",
                    help="comma list: partition1,partition2,c1,c2c3,step2,decay,reductions")
    sp.add_argument("--R", default="100,1000,10000")
    sp.add_argument("--samples", type=int, default=1000)
    _add_options(sp, "n s normalization tol gh_order grading a_min seed out")
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # the engines' own finiteness checks raise NumericError: no numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    # ParseError is a ValueError; a bad choice in a config file is an ArgumentTypeError
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
