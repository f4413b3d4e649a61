"""Command-line surface: evaluate operators, run the counterexample and
defect experiments, verify partitions and ratio estimates.

Commands: eval, counterexample, defect, verify.  Output is CSV (header
row, '.' decimal, 17 significant digits) or JSON mirroring the same
fields.  Exit codes: 0 success, 2 usage/parse error, 3 numeric failure.
The random seed defaults to 0xA11CE, can be set by MASTEROP_SEED, and a
--seed flag wins over the environment.  A line-oriented key=value config
file may supply defaults; command-line flags override it.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import families
from .defect import defect_estimate, pool_map
from .funcdsl import ParseError, parse, to_handle
from .handles import zero
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
    step1_predicates,
    step2_predicates,
    verify_ratio_c1,
    verify_ratio_c2_c3,
    verify_ratio_step2,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


@dataclass
class RunConfig:
    n: int = 1
    s: float = 0.5
    normalization: str = NORMALIZED
    tol: float = 1e-6
    gh_order: int = 20
    gl_order: int = 8
    panels_per_decade: int = 4
    grading: float = 0.5
    a_min: float = 1e-10
    horizon: float | None = None
    seed: int = DEFAULT_SEED
    jobs: int = 1
    fmt: str = "csv"
    out: str | None = None

    def kernel(self) -> KernelParams:
        return kernel_constants(self.n, self.s, self.normalization)

    def quad(self) -> QuadSpec:
        return QuadSpec(gh_order=self.gh_order, gl_order=self.gl_order,
                        panels_per_decade=self.panels_per_decade,
                        grading=self.grading, a_min=self.a_min,
                        horizon=self.horizon, rel_tol=self.tol)


def fmt_float(v: float) -> str:
    """Round-trip-safe decimal rendering (17 significant digits)."""
    return format(float(v), ".17g")


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_float(c) if isinstance(c, float) else str(c)
                              for c in row))
    text = "\n".join(lines) + "\n"
    _write(path, text)


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
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


_CONFIG_KEYS = {
    "n": int, "s": float, "normalization": str, "tol": float,
    "gh_order": int, "gl_order": int, "panels_per_decade": int,
    "grading": float, "a_min": float,
    "horizon": float, "seed": lambda v: int(v, 0), "jobs": int,
    "format": str, "out": str,
}


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    env_seed = os.environ.get("MASTEROP_SEED")
    if env_seed is not None:
        cfg.seed = int(env_seed, 0)
    if args.config:
        for key, raw in load_config_file(args.config).items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            value = _CONFIG_KEYS[key](raw)
            if key == "format":
                cfg.fmt = value
            else:
                setattr(cfg, key, value)
    # explicit flags override file and environment
    for attr, flag in (("n", "n"), ("s", "s"), ("normalization", "normalization"),
                       ("tol", "tol"), ("gh_order", "gh_order"),
                       ("gl_order", "gl_order"), ("horizon", "horizon"),
                       ("seed", "seed"), ("jobs", "jobs"), ("out", "out")):
        v = getattr(args, flag, None)
        if v is not None:
            setattr(cfg, attr, v)
    if getattr(args, "format", None) is not None:
        cfg.fmt = args.format
    if cfg.normalization not in (RAW, NORMALIZED):
        raise ValueError(f"normalization must be raw or normalized")
    if cfg.fmt not in ("csv", "json"):
        raise ValueError("format must be csv or json")
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
    if cfg.fmt == "json":
        write_json(cfg.out, payload)
    else:
        write_csv(cfg.out, ["value", "err_estimate", "nodes_used"],
                  [(res.value, res.err_estimate, res.nodes_used)])
    return EXIT_OK


def _parse_schedule(text: str):
    return [int(v) for v in text.split(",") if v.strip()]


def _parse_probes(text: str, dim: int):
    probes = []
    for chunk in text.split(";"):
        if chunk.strip():
            x, t = parse_point(chunk, dim)
            probes.append((x, t))
    return probes


def cmd_counterexample(args) -> int:
    cfg = build_config(args)
    p = cfg.kernel()
    q = cfg.quad()
    js = _parse_schedule(args.j_schedule)
    tol = args.target_tol
    rows = []
    header = ["j", "px", "pt", "value", "target", "abs_err"]

    if args.which == 1:
        alpha = args.alpha if args.alpha is not None else 2.0 * args.beta * cfg.s
        critical = math.isclose(alpha, 2.0 * args.beta * cfg.s, rel_tol=1e-9)
        target = -families.C0_constant(cfg.s, cfg.n, cfg.normalization) if critical else 0.0
        probes = _parse_probes(args.probes, cfg.n) if args.probes else [(np.zeros(cfg.n), 0.0)]

        def job(jp):
            j, (x, t) = jp
            u = families.phi_family(j, alpha, args.beta, dim=cfg.n)
            return fractional_laplacian(u, x, p, q).value

        vals = pool_map(job, [(j, pr) for j in js for pr in probes], cfg.jobs)
        for (j, (x, t)), v in zip([(j, pr) for j in js for pr in probes], vals):
            rows.append((j, float(x[0]), t, v, target, abs(v - target)))
    elif args.which == 2:
        alpha = args.alpha if args.alpha is not None else args.beta * cfg.s
        target = -families.C1_constant(cfg.s, cfg.normalization)
        times = [float(v) for v in args.times.split(",")] if args.times else [0.0]

        def job(jt):
            j, t = jt
            u = families.psi_family(j, alpha, args.beta, dim=cfg.n)
            return marchaud(u, t, p, q).value

        vals = pool_map(job, [(j, t) for j in js for t in times], cfg.jobs)
        for (j, t), v in zip([(j, t) for j in js for t in times], vals):
            rows.append((j, 0.0, t, v, target, abs(v - target)))
    else:
        target = -1.0
        probes = (_parse_probes(args.probes, cfg.n) if args.probes
                  else [(np.zeros(cfg.n), 0.0), (np.ones(cfg.n), 1.0),
                        (-np.ones(cfg.n), 0.5)])

        def job(jp):
            j, (x, t) = jp
            u = families.w_family(j, args.gamma, cfg.s, n=cfg.n,
                                  normalization=cfg.normalization)
            return master_op(u, (x, t), p, q).value

        pairs = [(j, pr) for j in js for pr in probes]
        vals = pool_map(job, pairs, cfg.jobs)
        for (j, (x, t)), v in zip(pairs, vals):
            rows.append((j, float(x[0]), t, v, target, abs(v - target)))

    # convergence verdict per probe at the largest index
    j_last = js[-1]
    verdicts = {}
    for row in rows:
        if row[0] == j_last:
            verdicts[(row[1], row[2])] = row[5] <= tol
    ok = all(verdicts.values())
    if cfg.fmt == "json":
        write_json(cfg.out, {"rows": [dict(zip(header, r)) for r in rows],
                             "tolerance": tol, "converged": ok})
    else:
        write_csv(cfg.out, header + ["converged"],
                  [r + (str(verdicts.get((r[1], r[2]), "")).lower()
                        if r[0] == j_last else "",) for r in rows])
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_defect(args) -> int:
    cfg = build_config(args)
    p = cfg.kernel()
    q = cfg.quad()
    js = _parse_schedule(args.j_schedule)
    Rs = [float(v) for v in args.r_schedule.split(",") if v.strip()]
    if args.probes:
        probes = _parse_probes(args.probes, cfg.n)
    else:
        # spread over the parabolic box the strictest (smallest) R allows
        R3 = min(Rs) / 3.0
        base = [(0.0, 0.0), (0.9, 0.9), (-0.9, 0.4), (0.4, -0.9), (-0.5, -0.5)]
        probes = [(np.full(cfg.n, cx * R3 / math.sqrt(cfg.n)), ct * R3 * R3)
                  for cx, ct in base]
    for x, t in probes:
        bound = 3.0 * max(math.sqrt(abs(t)), float(np.linalg.norm(x)))
        if min(Rs) <= bound:
            raise ValueError(
                f"probe ({x}, {t}) violates R > 3*max(sqrt|t|, |x|) at R={min(Rs)}")

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

    rows = [(j, R, key[0][0], key[1], F, err)
            for (j, R, key, F, err) in report.samples]
    summary = {
        "b_estimate": report.b_estimate,
        "b_spread": report.b_spread,
        "monotone_ok": report.monotone_ok,
        "converged": report.converged,
        "liminf_bound_M": report.liminf_bound_M,
        "N_threshold": report.N_threshold,
    }
    if cfg.fmt == "json":
        write_json(cfg.out, {"summary": summary,
                             "rows": [dict(zip(["j", "R", "px", "pt", "F", "err"], r))
                                      for r in rows]})
    else:
        write_csv(cfg.out, ["j", "R", "px", "pt", "F", "err"], rows)
        if cfg.out:
            sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return EXIT_OK if report.converged else EXIT_NUMERIC


def cmd_verify(args) -> int:
    cfg = build_config(args)
    p = cfg.kernel()
    q = cfg.quad()
    Rs = [float(v) for v in args.R.split(",") if v.strip()]
    samples = args.samples
    checks = {}
    what = args.what.split(",") if args.what != "all" else \
        ["partition1", "partition2", "c1", "c2c3", "step2", "decay", "reductions"]
    rng = np.random.default_rng(cfg.seed)

    for name in what:
        if name == "partition1":
            ys, taus = sample_past_points(rng, cfg.n, 0.0, Rs[-1], samples)
            preds = step1_predicates(ys, taus, np.zeros(cfg.n), 0.0, Rs[-1])
            counts = sum(np.asarray(v, dtype=int) for v in preds.values())
            bad = int(np.sum(counts != 1))
            checks[name] = {"pass": bad == 0, "max_violation": float(bad),
                            "envelope": 0.0}
        elif name == "partition2":
            ys, taus = sample_past_points(rng, cfg.n, 0.0, Rs[-1], samples)
            preds = step2_predicates(ys, taus, 0.0, Rs[-1])
            counts = sum(np.asarray(v, dtype=int) for v in preds.values())
            bad = int(np.sum(counts != 1))
            checks[name] = {"pass": bad == 0, "max_violation": float(bad),
                            "envelope": 0.0}
        elif name == "c1":
            x = np.zeros(cfg.n)
            x[0] = 1.0
            maxima = []
            for R in Rs:
                rep = verify_ratio_c1(x, 0.0, R, samples, p, seed=cfg.seed)
                maxima.append(rep.max_log_ratio)
                checks[f"c1@R={R:g}"] = {"pass": rep.passed,
                                         "max_violation": rep.max_log_ratio,
                                         "envelope": rep.envelope_log,
                                         "fitted_c": rep.fitted_constant}
            decreasing = all(b < a for a, b in zip(maxima[:-1], maxima[1:]))
            checks["c1-monotone"] = {"pass": decreasing or len(Rs) < 2,
                                     "max_violation": 0.0, "envelope": 0.0}
        elif name == "c2c3":
            x = np.zeros(cfg.n)
            x[0] = 1.0
            for rep in verify_ratio_c2_c3(x, 0.0, Rs[-1], samples, p, seed=cfg.seed):
                checks[f"c2c3-{rep.region}"] = {
                    "pass": rep.passed, "max_violation": rep.max_log_ratio,
                    "envelope": rep.envelope_log, "fitted_c": rep.fitted_constant}
        elif name == "step2":
            t = math.sqrt(Rs[-1])
            for rep in verify_ratio_step2(t, Rs[-1], samples, p, seed=cfg.seed):
                checks[f"step2-{rep.region}"] = {
                    "pass": rep.passed, "max_violation": rep.max_log_ratio,
                    "envelope": rep.envelope_log, "fitted_c": rep.fitted_constant}
        elif name == "decay":
            rho, dt = decay_grid()
            dx = np.zeros(rho.shape + (cfg.n,))
            dx[..., 0] = rho
            value, maj, ok = kernel_decay_check(dx, dt, p)
            worst = float(np.max(value / maj))
            checks[name] = {"pass": ok, "max_violation": worst, "envelope": 1.0}
        elif name == "reductions":
            checks[name] = _check_reductions(cfg, p, q)
        else:
            raise ValueError(f"unknown verify target {name!r}")

    all_ok = all(c["pass"] for c in checks.values())
    write_json(cfg.out, {"checks": checks, "pass": all_ok})
    return EXIT_OK if all_ok else EXIT_NUMERIC


def _check_reductions(cfg: RunConfig, p: KernelParams, q: QuadSpec) -> dict:
    from dataclasses import replace as _rep
    from . import families
    from .handles import GROWTH_BOUNDED, GROWTH_DECAYING, spatial, temporal
    qh = _rep(q, horizon=60.0)
    if cfg.n == 1:
        sp = spatial(lambda pts: np.cos(pts[:, 0]), dim=1, growth=GROWTH_BOUNDED)
        q_sp = qh
    else:
        # radial compact profile: exact under the angular rule in n >= 2,
        # and Auto horizon so the support-window tail is computed exactly
        sp = families.phi_family(4, 1.0, 1.0, dim=cfg.n)
        q_sp = _rep(q, horizon=None)
    d1 = abs(master_op(sp, (np.zeros(cfg.n), 0.0), p, q_sp).value
             - fractional_laplacian(sp, np.zeros(cfg.n), p, q_sp).value)
    expt = temporal(lambda tt: np.exp(tt), dim=cfg.n, growth=GROWTH_DECAYING)
    d2 = abs(master_op(expt, (np.zeros(cfg.n), 0.0), p, qh).value
             - marchaud(expt, 0.0, p, qh).value)
    worst = max(d1, d2)
    return {"pass": worst <= 1e-4, "max_violation": worst, "envelope": 1e-4}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--n", type=int, default=None, help="spatial dimension (1-3)")
    sp.add_argument("--s", type=float, default=None, help="fractional order in (0,1)")
    sp.add_argument("--normalization", choices=[RAW, NORMALIZED], default=None)
    sp.add_argument("--tol", type=float, default=None, help="relative tolerance")
    sp.add_argument("--gh-order", dest="gh_order", type=int, default=None)
    sp.add_argument("--gl-order", dest="gl_order", type=int, default=None)
    sp.add_argument("--horizon", type=float, default=None,
                    help="time horizon (omit for Auto via support boxes)")
    sp.add_argument("--seed", type=lambda v: int(v, 0), default=None)
    sp.add_argument("--jobs", type=int, default=None, help="worker pool size")
    sp.add_argument("--format", choices=["csv", "json"], default=None)
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--config", default=None, help="key=value config file")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="masterop",
        description="Evaluate the fully fractional heat operator and reproduce "
                    "its convergence-defect structure at desk scale.",
        epilog="Expression grammar: +, -, *, /, ^ (literal exponent), "
               "exp cos sin abs sqrt pos, variables x1..x3 and t, family atoms "
               "phi(j,alpha,beta), psi(j,alpha,beta), w(j,gamma), bump(e).")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate an operator at a point")
    sp.add_argument("expr", help="expression for u(x, t)")
    sp.add_argument("--op", choices=["master", "flap", "marchaud"], default="master")
    sp.add_argument("--point", default="0,0", help="comma-separated x..., t")
    _add_common(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("counterexample", help="run a counterexample family")
    sp.add_argument("--which", type=int, choices=[1, 2, 3], required=True)
    sp.add_argument("--j-schedule", dest="j_schedule", default="2,4,8,16")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--probes", default=None, help="semicolon-separated points")
    sp.add_argument("--times", default=None, help="comma-separated times (which=2)")
    sp.add_argument("--target-tol", dest="target_tol", type=float, default=5e-2)
    _add_common(sp)
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("defect", help="estimate the convergence defect")
    sp.add_argument("--family", default="w", help="'w', 'zero', or an expression")
    sp.add_argument("--limit", default=None, help="limit function expression")
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--j-schedule", dest="j_schedule", default="4,8,16,32")
    sp.add_argument("--r-schedule", dest="r_schedule", default="6,12,24")
    sp.add_argument("--probes", default=None, help="semicolon-separated points")
    _add_common(sp)
    sp.set_defaults(func=cmd_defect)

    sp = sub.add_parser("verify", help="verify partitions, envelopes, decay")
    sp.add_argument("--what", default="all",
                    help="comma list: partition1,partition2,c1,c2c3,step2,decay,reductions")
    sp.add_argument("--R", default="100,1000,10000")
    sp.add_argument("--samples", type=int, default=1000)
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
