"""Fresh-interpreter side of the benchmark.

    python3 bench/child.py setup '<needs JSON>'
        import masterop and compute the kernel constants and C0/C1 values
        listed in the JSON; print {"import_s", "setup_s"} measured from
        before the import.
    python3 bench/child.py cli <trace 0|1> <masterop arguments...>
        run one masterop command and exit with its code.  With trace 1 the
        calls into masterop are recorded and their aggregate is written to
        stderr as the last line, prefixed "BENCH_TRACE ".
"""
from __future__ import annotations

import json
import sys
import time

T0 = time.perf_counter()

from checkout import CheckoutError, load_masterop, single_threaded_blas  # noqa: E402

single_threaded_blas()

TRACE_PREFIX = "BENCH_TRACE "


def main(argv):
    try:
        mo = load_masterop()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0
    mode = argv[0]
    if mode == "setup":
        from workloads import run_setup
        needs = json.loads(argv[1])
        run_setup(mo, {"kernel": [tuple(v) for v in needs["kernel"]],
                       "C0": [tuple(v) for v in needs["C0"]], "C1": needs["C1"]})
        print(json.dumps({"import_s": import_s, "setup_s": time.perf_counter() - T0}))
        return 0
    if mode == "cli":
        from masterop import cli
        if argv[1] != "1":
            return cli.main(argv[2:])
        import spans
        tracer = spans.Tracer()
        hooks = {f"families.{f}": tracer.wrap_handle
                 for f in ("phi_family", "psi_family", "w_family")}
        hooks["funcdsl.to_handle"] = tracer.wrap_handle
        targets = dict(spans.TARGETS)
        targets["families"] = targets["families"] + ("phi_family", "psi_family", "w_family")
        with spans.traced(tracer, targets=targets, result_hooks=hooks):
            code = cli.main(argv[2:])
        agg = spans.aggregate(tracer.spans)
        agg["cli.import_s"] = import_s
        sys.stdout.flush()
        print(TRACE_PREFIX + json.dumps(agg), file=sys.stderr)
        return code
    print(f"error: unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
