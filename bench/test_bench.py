"""Tests of the benchmark itself: python3 -m pytest bench -q"""
import json
import math
import sys

import pytest

import oracles
import run
import spans
import workloads
from checkout import ROOT, load_masterop

mo = load_masterop()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic(workload):
    a = workloads.generate(workload, 7)
    assert a == workloads.generate(workload, 7)
    assert a != workloads.generate(workload, 8)
    assert json.loads(json.dumps(a)) == a


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_operation_has_an_oracle(workload):
    for op in workloads.generate(workload, 3):
        assert math.isfinite(oracles.reference(op, lambda s, n: 1.0, lambda s: 1.0))


def test_symbol_values_stay_away_from_zero():
    for seed in range(20):
        for op in workloads.generate("symbol", seed) + workloads.generate("cli", seed)[:2]:
            if "lam" in op and "xi" in op:
                assert abs(math.cos(sum(a * b for a, b in zip(op["xi"], op["x"])))) > 0.85


def test_cli_probes_satisfy_the_probe_condition():
    for seed in range(20):
        for op in workloads.generate("defect", seed) + workloads.generate("cli", seed):
            for x, t in op.get("probes", []):
                R = min(op.get("R", [6.0]))
                assert R > 3.0 * max(math.sqrt(abs(t)), math.sqrt(sum(c * c for c in x)))


SYM = {"kind": "symbol", "n": 1, "s": 0.5, "lam": 1.0, "xi": [0.0], "x": [0.0], "t": 0.0}


def test_judge_forgives_only_what_err_estimate_covers():
    covered = oracles.judge(SYM, oracles.Outcome(1.01, 0.02), None, None)
    assert covered.miss and not covered.failed and not covered.bound_miss
    # a flag does not excuse a value far from its oracle
    flagged = oracles.judge(SYM, oracles.Outcome(1.5, 1e-6, flag=True), None, None)
    assert flagged.miss and flagged.failed and flagged.bound_miss
    wrong = oracles.judge(SYM, oracles.Outcome(1.01, 1e-6), None, None)
    assert wrong.failed and wrong.bound_miss
    loose = oracles.judge(SYM, oracles.Outcome(1.0 + 1e-5, 1e-6), None, None)
    assert not loose.miss and loose.bound_miss
    limit = {"kind": "w_limit", "n": 1, "s": 0.5}
    assert oracles.judge(limit, oracles.Outcome(-1.1, 1.0), None, None).failed
    assert oracles.judge(limit, oracles.Outcome(error="boom"), None, None).failed


def test_known_defect_is_a_miss_within_its_cap_only():
    op = {"kind": "flap_cos", "n": 2, "s": 0.5, "xi": 1.0, "x": [0.0, 0.0]}
    cap = oracles.KNOWN_DEFECTS[("flap_cos", 2)].cap
    near = oracles.judge(op, oracles.Outcome(1.0 + cap / 2, 1e-8, flag=True), None, None)
    assert near.miss and not near.failed
    far = oracles.judge(op, oracles.Outcome(1.0 + 2 * cap, 1e-8, flag=True), None, None)
    assert far.failed
    # the same error at n=1, where no defect is known, fails
    op1 = dict(op, n=1, x=[0.0])
    assert oracles.judge(op1, oracles.Outcome(1.0 + cap / 2, 1e-8, flag=True), None, None).failed


def test_horizon_tail_closed_forms():
    # c = 0: s/Gamma(1-s) * H^{-s}/s
    for s in (0.2, 0.5, 0.8):
        want = 60.0 ** (-s) / math.gamma(1.0 - s)
        assert oracles.horizon_tail(s, 0.0, 60.0) == pytest.approx(want, rel=1e-10)
    # s = 1/2: int_H^inf e^{-ca} a^{-3/2} da = 2 e^{-cH}/sqrt(H) - 2 sqrt(pi c) erfc(sqrt(cH))
    c, H = 0.01, 60.0
    integral = 2 * math.exp(-c * H) / math.sqrt(H) - 2 * math.sqrt(math.pi * c) * math.erfc(math.sqrt(c * H))
    want = 0.5 / math.gamma(0.5) * integral
    assert oracles.horizon_tail(0.5, c, H) == pytest.approx(want, rel=1e-10)
    assert oracles.horizon_tail(0.5, 5.0, H) == 0.0


def _span(name, parent, start, end, points=0, nodes=None):
    return [name, parent, start, end, points, nodes]


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        _span("operators.master_op", -1, 0.0, 10.0, nodes=100),
        _span("quadrature.integrate_difference", 0, 1.0, 4.0, nodes=90),
        _span(spans.EVALUATOR, 1, 2.0, 3.0, points=7),
        _span(spans.EVALUATOR, 0, 5.0, 9.0, points=5),
        _span("defect.tail_functional", -1, 11.0, 12.0, nodes=3),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 1.0]
    agg = spans.aggregate(tree)
    assert agg["operators.master_op.self_s"] == 3.0
    assert agg[f"{spans.EVALUATOR}.calls"] == 2
    assert agg[f"{spans.EVALUATOR}.self_s"] == 5.0
    assert agg[f"{spans.EVALUATOR}.points"] == 12
    # nested results are counted by their outermost caller only
    assert agg["quadrature.nodes_used"] == 103


def test_self_time_counts_overlapping_children_once():
    tree = [_span("a", -1, 0.0, 10.0), _span("b", 0, 1.0, 4.0),
            _span("c", 0, 3.0, 6.0), _span("d", 0, 9.0, 12.0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def _bindings():
    return {(name, attr): val for name, m in list(sys.modules.items())
            if name == "masterop" or name.startswith("masterop.")
            for attr, val in vars(m).items()}


def test_tracing_restores_every_binding():
    before = _bindings()
    orig = mo.quadrature.window_uM_integral
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer()):
            # bound by name in quadrature, operators and defect: all replaced
            for mod in (mo.quadrature, mo.operators, mo.defect):
                assert mod.window_uM_integral is not orig
            assert mo.master_op is not before[("masterop", "master_op")]
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


SMALL_OPS = [
    {"kind": "symbol", "n": 1, "s": 0.4, "lam": 0.7, "xi": [1.3], "x": [0.2], "t": 0.3},
    {"kind": "symbol", "n": 2, "s": 0.6, "lam": 0.2, "xi": [0.9, -1.1], "x": [0.1, 0.4], "t": -0.2},
    {"kind": "w_limit", "n": 1, "s": 0.5, "j": 4, "x": [0.3], "t": 0.2},
    {"kind": "phi_limit", "n": 1, "s": 0.5, "j": 4, "x": [0.1]},
    {"kind": "tsq", "n": 1, "s": 0.5, "t": 1.0},
    {"kind": "defect_b", "n": 1, "s": 0.5, "probes": [[[0.2], 0.1]],
     "R": [6.0, 12.0], "j": [4, 8]},
]


def _traced_pass():
    needs = workloads.setup_needs(SMALL_OPS)
    kp = workloads.run_setup(mo, needs)
    return run.run_inprocess_pass(mo, SMALL_OPS, kp, spans.Tracer())


def test_two_traced_passes_repeat_exactly():
    a, b = _traced_pass(), _traced_pass()
    for key in ("handles.evaluator.calls", "handles.evaluator.points",
                "quadrature.gl_panel.calls", "quadrature.nodes_used"):
        assert a.agg[key] == b.agg[key] > 0
    for x, y in zip(a.outcomes, b.outcomes):
        assert x.error is None
        assert (x.value, x.err_estimate, x.flag) == (y.value, y.err_estimate, y.flag)


def test_tracing_does_not_change_values():
    needs = workloads.setup_needs(SMALL_OPS)
    kp = workloads.run_setup(mo, needs)
    plain = run.run_inprocess_pass(mo, SMALL_OPS, kp)
    traced = _traced_pass()
    assert [o.value for o in plain.outcomes] == [o.value for o in traced.outcomes]


def test_every_per_layer_metric_has_a_layer_mapping():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((ROOT / "bench" / "layers.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_operation_times_scale_by_the_probes_around_them(monkeypatch):
    probes = iter([0.02, 0.04, 0.06, 0.08])
    clock = iter([0.0, 10.0, 11.0, 11.0, 12.0, 12.0, 12.0, 15.0, 15.0, 15.0, 15.0])
    monkeypatch.setattr(run, "probe", lambda: next(probes))
    monkeypatch.setattr(run, "PROBE_EVERY_S", 0.5)
    monkeypatch.setattr(run.Pass, "_clock", staticmethod(lambda: next(clock)))
    p = run.Pass()                          # probe 0.02 at t=0
    p.begin()                               # operation 0 from t=10
    p.tick()                                # t=11: 1 s booked, probe 0.04
    p.end(oracles.Outcome(0.0))             # t=12: 1 s booked, probe 0.06
    p.begin()                               # operation 1 from t=15
    p.end(oracles.Outcome(0.0))             # t=15: 0 s booked, probe 0.08
    p.close()                               # nothing pending: no probe
    nominal = run.PROBE_NOMINAL_S
    assert p.op_raw == [2.0, 0.0] and p.wall == 2.0
    assert p.op_times == pytest.approx([nominal * (1.0 / 0.03 + 1.0 / 0.05), 0.0])
