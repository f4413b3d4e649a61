"""masterop benchmark: one workload, one seed, every metric by name.

    python3 bench/run.py --workload {symbol,family,defect,cli} --seed N \
        --seconds S --trace {0,1}

The run imports masterop from this checkout's ``src`` (and stops with exit
code 2 if it cannot), times the set-up in fresh interpreters, runs one
pass of the workload whose values are judged against the oracle table,
then repeats the pass until ``--seconds`` are used.  Every later pass must
reproduce the judged values bit for bit.

With ``--trace 0`` the metrics are the end-to-end ones, with tracing off;
a pass's time is the sum of every operation's median over the timed passes,
each operation's time scaled by a speed probe to the nominal machine (see
``Pass``).
With ``--trace 1`` untraced and traced passes alternate; the per-layer
metrics come from the traced passes (times: median pass), and
``trace.overhead_frac`` compares the two.  The last line of standard output
is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout
from checkout import ROOT, CheckoutError, environment, load_masterop

checkout.single_threaded_blas()   # before workloads imports numpy

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
#: fresh-interpreter set-ups per run; the median is reported
SETUP_REPEATS = 3
#: a run starts no pass that would end later than this after it began
RUN_CAP_S = 150.0
CHILD_TIMEOUT_S = 120.0



def metric_table(kind):
    """The ``end_to_end`` or ``per_layer`` metrics that BENCHMARK.json lists."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


#: loop count of the speed probe, a fixed pure-Python loop
PROBE_LOOPS = 300_000
#: the probe's time on the machine the bounds were set on (2-vCPU x86-64,
#: Python 3.11); reported times are in seconds of that machine
PROBE_NOMINAL_S = 0.030
#: a probe runs after the operation that ends this long after the last probe
PROBE_EVERY_S = 0.5


def probe():
    """Time the speed probe.  It does not touch masterop, so a change to the
    program cannot move it; a shared machine's slow and fast spells do."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


class Pass:
    """One pass over a workload's operations.

    Each operation's wall time is kept raw (``op_raw``) and scaled to the
    nominal machine speed (``op_times``).  The time between two probes is a
    segment; each operation's part of a segment is multiplied by
    ``PROBE_NOMINAL_S`` over the mean of the segment's two probes.  A probe
    runs at a ``tick`` once ``PROBE_EVERY_S`` have passed since the last:
    after each operation, and inside a long one from its evaluator calls.
    On a shared 2-vCPU machine this cut the spread of a 5-sample median
    from 0.22 to 0.07 (IQR/median).
    """

    _clock = staticmethod(time.perf_counter)

    def __init__(self):
        self.outcomes: list[oracles.Outcome] = []
        self.op_times: list[float] = []
        self.op_raw: list[float] = []
        self.agg: dict[str, float] = {}
        self._pending: list[tuple[int, float]] = []   # (operation, raw seconds)
        self._last_probe = probe()
        self._mark = self._probed_at = self._clock()

    def begin(self):
        """Start the next operation."""
        self.op_times.append(0.0)
        self.op_raw.append(0.0)
        self._mark = self._clock()

    def end(self, outcome):
        self._book(self._clock())
        self.outcomes.append(outcome)
        self.tick()

    def tick(self):
        now = self._clock()
        if now - self._probed_at >= PROBE_EVERY_S:
            self._book(now)
            self._probe()

    def close(self):
        """Scale what the last probe has not; call once at the end."""
        if self._pending:
            self._probe()

    def _book(self, now):
        i = len(self.op_raw) - 1
        if len(self.outcomes) <= i:   # inside operation i
            self.op_raw[i] += now - self._mark
            self._pending.append((i, now - self._mark))
        self._mark = now

    def _probe(self):
        p = probe()
        k = PROBE_NOMINAL_S / (0.5 * (self._last_probe + p))
        for i, raw in self._pending:
            self.op_times[i] += raw * k
        self._pending, self._last_probe = [], p
        self._mark = self._probed_at = self._clock()

    def ticking(self, h):
        """The same handle, ticking the pass at each evaluator call."""
        ev = h.evaluator

        def evaluator(pts, tt):
            self.tick()
            return ev(pts, tt)

        return dataclasses.replace(h, evaluator=evaluator)

    @property
    def wall(self):
        """Raw time of the pass without the probes."""
        return sum(self.op_raw)


def _add(acc, agg):
    for k, v in agg.items():
        acc[k] = acc.get(k, 0) + v


def run_inprocess_pass(mo, ops, kp, tracer=None):
    """One pass; untraced, the probe also runs inside long operations.
    Traced, it runs only between operations, outside every span."""
    res = Pass()
    wrap = tracer.wrap_handle if tracer is not None else res.ticking
    ctx = spans.traced(tracer) if tracer is not None else contextlib.nullcontext()
    with ctx:
        for op in ops:
            res.begin()
            try:
                out = workloads.run_op(mo, op, kp, wrap)
            except Exception as exc:   # recorded as a failed operation
                out = oracles.Outcome(error=f"{type(exc).__name__}: {exc}")
            res.end(out)
    res.close()
    if tracer is not None:
        res.agg = spans.aggregate(tracer.spans)
    return res


def run_cli_pass(ops, trace):
    res = Pass()
    for op in ops:
        args = workloads.cli_args(op)
        cmd = [sys.executable, str(CHILD), "cli", "1" if trace else "0", *args]
        res.begin()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out = oracles.Outcome(error="timed out")
            stderr = ""
        else:
            out = workloads.cli_outcome(op, proc.returncode, proc.stdout)
            stderr = proc.stderr
        res.end(out)
        if trace:
            lines = [ln for ln in stderr.splitlines() if ln.startswith("BENCH_TRACE ")]
            if lines:
                _add(res.agg, json.loads(lines[-1][len("BENCH_TRACE "):]))
    res.close()
    return res


def measure_setup(needs):
    """Median set-up and import time over fresh interpreters, scaled to the
    nominal speed by probes around each, and the raw median set-up time."""
    arg = json.dumps(needs)
    setups, imports, raw = [], [], []
    before = probe()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(CHILD), "setup", arg],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        got = json.loads(proc.stdout.splitlines()[-1])
        after = probe()
        k = PROBE_NOMINAL_S / (0.5 * (before + after))
        before = after
        setups.append(got["setup_s"] * k)
        imports.append(got["import_s"] * k)
        raw.append(got["setup_s"])
    return statistics.median(setups), statistics.median(imports), statistics.median(raw)


def _same(a: oracles.Outcome, b: oracles.Outcome):
    def eq(x, y):
        return x == y or (math.isnan(x) and math.isnan(y))
    return (eq(a.value, b.value) and eq(a.err_estimate, b.err_estimate)
            and a.flag == b.flag and a.conditions_ok == b.conditions_ok
            and a.error == b.error)


def _fmt(v):
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def judge_pass(ops, outcomes, mo):
    verdicts = []
    for op, out in zip(ops, outcomes):
        v = oracles.judge(op, out, mo.C0_constant, mo.C1_constant)
        verdicts.append(v)
        status = "FAIL" if v.failed else ("miss" if v.miss else "ok")
        if v.bound_miss:
            status += " bound-miss"
        params = {k: op[k] for k in ("s", "j", "lam", "xi", "x", "t") if k in op}
        print(f"op {op['kind']} n={op['n']} {json.dumps(params)} value={_fmt(out.value)} "
              f"reference={_fmt(v.reference)} abs_err={_fmt(v.abs_err)} "
              f"allowed={_fmt(v.allowed)} err_estimate={_fmt(out.err_estimate)} "
              f"flag={out.flag} conditions_ok={out.conditions_ok} {status}"
              + (f" error={out.error}" if out.error else ""))
    return verdicts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        mo = load_masterop()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    began = time.perf_counter()
    print("env " + json.dumps(environment(), sort_keys=True))
    checkout.pin_to_one_cpu()

    ops = workloads.generate(args.workload, args.seed)
    is_cli = args.workload == "cli"
    needs = workloads.setup_needs(ops)
    setup_s, import_s, raw_setup_s = measure_setup(needs)

    setup_tracer = spans.Tracer() if args.trace else None
    with (spans.traced(setup_tracer) if args.trace else contextlib.nullcontext()):
        kp = workloads.run_setup(mo, needs)

    def one_pass(trace):
        if is_cli:
            return run_cli_pass(ops, trace)
        return run_inprocess_pass(mo, ops, kp, spans.Tracer() if trace else None)

    window_end = time.perf_counter() + args.seconds
    check = one_pass(False)
    verdicts = judge_pass(ops, check.outcomes, mo)
    # in-process, the judged pass fills the program's caches and is not
    # timed; every CLI command starts a fresh interpreter, so it is timed
    untraced = [check] if is_cli else []
    traced_passes = []
    mismatched = set()
    while True:
        want_traced = bool(args.trace) and len(traced_passes) <= len(untraced) - is_cli
        done = traced_passes if want_traced else untraced
        if done:
            est = statistics.median(p.wall for p in done)
        else:
            est = check.wall * (1.3 if want_traced else 1.0)
        now = time.perf_counter()
        minimum = bool(untraced) and (bool(traced_passes) or not args.trace)
        if minimum and (args.trace or len(untraced) >= 2) and now + est > window_end:
            break
        if minimum and now + est - began > RUN_CAP_S:
            break
        p = one_pass(want_traced)
        done.append(p)
        for i, (a, b) in enumerate(zip(check.outcomes, p.outcomes)):
            if not _same(a, b):
                mismatched.add(i)

    attempted = len(ops)
    failed_idx = {i for i, v in enumerate(verdicts) if v.failed} | mismatched
    for i in sorted(mismatched):
        print(f"op {ops[i]['kind']} #{i}: a later pass did not reproduce the judged value")
    misses = {i for i, v in enumerate(verdicts) if v.miss} | mismatched
    exact = [v for op, v in zip(ops, verdicts) if oracles.ORACLES[op["kind"]].exact]
    fail_frac = len(misses) / attempted
    bound_miss_frac = (sum(v.bound_miss for v in exact) / len(exact)) if exact else 0.0

    # each operation's median over the timed passes, summed: a pass as it
    # runs when no slow spell of a shared machine hits it
    op_s = [statistics.median(p.op_times[i] for p in untraced) for i in range(attempted)]
    raw_s = [statistics.median(p.op_raw[i] for p in untraced) for i in range(attempted)]

    def part_s(n, times=op_s):
        return sum(t for op, t in zip(ops, times) if op["n"] == n)

    e2e = {
        "setup_s": setup_s,
        "wall_s": sum(op_s),
        "n1_wall_s": part_s(1),
        "n2_wall_s": part_s(2),
        "n3_wall_s": part_s(3),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - fail_frac,
        "fail_frac": fail_frac,
        "bound_miss_frac": bound_miss_frac,
    }
    print(f"summary workload={args.workload} seed={args.seed} ops={attempted} "
          f"misses={len(misses)} failed={len(failed_idx)} exact_ops={len(exact)} "
          f"untraced_passes={len(untraced)} traced_passes={len(traced_passes)} "
          + " ".join(f"{k}={v:.6g}" for k, v in e2e.items()))
    print(f"unscaled setup_s={raw_setup_s:.6g} wall_s={sum(raw_s):.6g} "
          + " ".join(f"n{n}_wall_s={part_s(n, raw_s):.6g}" for n in (1, 2, 3)))
    print("pass_walls untraced=" + json.dumps([round(p.wall, 4) for p in untraced])
          + " traced=" + json.dumps([round(p.wall, 4) for p in traced_passes]))

    if args.trace:
        commands = {}
        for op, t in zip(ops, op_s):
            if is_cli:
                name = workloads.cli_args(op)[0]
                commands[name] = commands.get(name, 0.0) + t
        values = layer_values(setup_tracer, traced_passes, untraced, import_s,
                              commands, exact, e2e)
        metrics = {row["name"]: {"value": values[row["name"]], "unit": row["unit"]}
                   for row in metric_table("per_layer")}
    else:
        metrics = {row["name"]: {"value": e2e[row["name"]], "unit": row["unit"]}
                   for row in metric_table("end_to_end")}
    print(json.dumps({"correct": not failed_idx, "attempted": attempted,
                      "failed": len(failed_idx), "metrics": metrics}))
    return 0


def layer_values(setup_tracer, traced_passes, untraced, import_s, commands, exact, e2e):
    """Every per-layer metric: the traced set-up plus the traced passes."""
    setup = spans.aggregate(setup_tracer.spans)
    aggs = [p.agg for p in traced_passes]
    med = statistics.median

    def get(key):
        if key.endswith(".self_s"):
            return setup.get(key, 0.0) + med(a.get(key, 0.0) for a in aggs)
        return setup.get(key, 0) + aggs[0].get(key, 0)

    out = {}
    for row in metric_table("per_layer"):
        name = row["name"]
        if name.startswith("cli.") and name.endswith(".wall_s"):
            out[name] = commands.get(name.split(".")[1], 0.0)
        elif name == "cli.import_s":
            out[name] = import_s
        elif name == "quadrature.rules.self_s":
            out[name] = get("quadrature.gl_panel.self_s") + get("quadrature.gauss_hermite_nodes.self_s")
        elif name == "quadrature.err_ratio_max":
            out[name] = max((v.err_ratio for v in exact if math.isfinite(v.abs_err)), default=0.0)
        elif name == "quadrature.abs_err_max":
            out[name] = max((v.abs_err for v in exact if math.isfinite(v.abs_err)), default=0.0)
        elif name in ("fail_frac", "bound_miss_frac", "n3_wall_s"):
            out[name] = e2e[name]
        elif name == "trace.overhead_frac":
            out[name] = (med(p.wall for p in traced_passes)
                         / med(p.wall for p in untraced) - 1.0)
        else:
            out[name] = get(name)
    return out


if __name__ == "__main__":
    sys.exit(main())
