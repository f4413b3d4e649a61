import json
import resource
import subprocess
import sys

import pytest

from masterop.cli import OPTIONS, build_config, fmt_float, main, make_parser, parse_point


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_fmt_float_round_trips():
    for v in (1.0 / 3.0, 1e-17, 123456.789, -0.1):
        assert float(fmt_float(v)) == v


def test_parse_point():
    x, t = parse_point("1.5,-2,0.25", 2)
    assert list(x) == [1.5, -2.0] and t == 0.25
    with pytest.raises(ValueError):
        parse_point("1,2", 2)


def test_eval_constant_is_zero(tmp_path):
    code, text = run_cli(["eval", "1", "--op", "master", "--point", "0,0",
                          "--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    assert payload["value"] == 0.0


def test_eval_flap_cos(tmp_path):
    code, text = run_cli(["eval", "cos(x1)", "--op", "flap", "--point", "0,0",
                          "--s", "0.5", "--format", "json"], tmp_path)
    assert code == 0
    assert json.loads(text)["value"] == pytest.approx(1.0, abs=1e-3)


def test_eval_parse_error_exit_2(tmp_path):
    code, _ = run_cli(["eval", "cos(x", "--op", "master"], tmp_path)
    assert code == 2


def test_unknown_flag_exit_2():
    assert main(["eval", "1", "--frobnicate"]) == 2


def test_counterexample_w_family(tmp_path):
    code, text = run_cli(["counterexample", "--which", "3",
                          "--j-schedule", "4,8,16"], tmp_path)
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0].startswith("j,px,pt,value,target,abs_err")
    last = [ln for ln in lines[1:] if ln.startswith("16,")]
    for ln in last:
        fields = ln.split(",")
        assert abs(float(fields[3]) + 1.0) <= 5e-2
        assert fields[6] == "true"


def test_counterexample_subcritical(tmp_path):
    code, text = run_cli(["counterexample", "--which", "1", "--alpha", "0.5",
                          "--target-tol", "1e-3", "--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    assert payload["converged"]
    final = [r for r in payload["rows"] if r["j"] == 16]
    assert all(abs(r["value"]) <= 1e-3 for r in final)


def test_counterexample_marchaud_family(tmp_path):
    code, text = run_cli(["counterexample", "--which", "2",
                          "--j-schedule", "2,4,8", "--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    assert payload["converged"]
    assert all(r["value"] < 0 for r in payload["rows"])
    assert all(r["target"] < 0 for r in payload["rows"])


def test_defect_summary(tmp_path):
    code, text = run_cli(["defect", "--j-schedule", "4,8,16,32",
                          "--r-schedule", "6,12,24", "--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    s = payload["summary"]
    assert abs(s["b_estimate"] - 1.0) <= 5e-2
    assert s["b_spread"] <= 5e-2
    assert s["monotone_ok"] and s["converged"]


def test_defect_probe_precondition_exit_2(tmp_path, capsys):
    code, _ = run_cli(["defect", "--probes", "30,0",
                       "--r-schedule", "6,12", "--j-schedule", "2,4"], tmp_path)
    assert code == 2
    # the error names the scale precondition
    assert "R > 3" in capsys.readouterr().err


def test_defect_jobs_deterministic(tmp_path):
    for n, probes in ((1, "0,0;1,1"), (2, "0,0,0;1,0.5,1")):
        base = ["defect", "--n", str(n), "--r-schedule", "6,12", "--j-schedule", "4,8",
                "--probes", probes]
        _, serial = run_cli(base + ["--jobs", "1"], tmp_path, f"s{n}.csv")
        _, parallel = run_cli(base + ["--jobs", "3"], tmp_path, f"p{n}.csv")
        assert serial == parallel and serial, n


def test_verify_all_passes(tmp_path):
    code, text = run_cli(["verify", "--samples", "500",
                          "--R", "100,1000,10000"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    assert payload["pass"]
    assert all(c["pass"] for c in payload["checks"].values())


def test_verify_n2_battery(tmp_path):
    code, text = run_cli(["verify", "--n", "2", "--samples", "300",
                          "--R", "100,1000"], tmp_path)
    assert code == 0
    assert json.loads(text)["pass"]


def test_csv_determinism(tmp_path):
    args = ["counterexample", "--which", "1", "--j-schedule", "2,4",
            "--seed", "7"]
    _, text1 = run_cli(args, tmp_path, "a.csv")
    _, text2 = run_cli(args, tmp_path, "b.csv")
    assert text1 == text2 and text1


def test_jobs_flag_output_order_stable(tmp_path):
    base = ["counterexample", "--which", "3", "--j-schedule", "2,4"]
    _, serial = run_cli(base + ["--jobs", "1"], tmp_path, "s.csv")
    _, parallel = run_cli(base + ["--jobs", "4"], tmp_path, "p.csv")
    assert serial == parallel


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = 0.25\nformat = json\n# comment\ngh_order = 16\n")
    code, text = run_cli(["eval", "cos(x1)", "--op", "flap", "--point", "0,0",
                          "--config", str(cfg)], tmp_path)
    assert code == 0
    assert json.loads(text)["value"] == pytest.approx(1.0, abs=1e-3)
    # an explicit flag beats the file
    code, text = run_cli(["eval", "cos(x1)", "--op", "flap", "--point", "0,0",
                          "--config", str(cfg), "--s", "0.5"], tmp_path)
    assert json.loads(text)["value"] == pytest.approx(1.0, abs=1e-3)


def test_env_seed_and_flag_priority(tmp_path, monkeypatch):
    monkeypatch.setenv("MASTEROP_SEED", "123")
    _, env_run = run_cli(["verify", "--what", "c1", "--R", "100",
                          "--samples", "50"], tmp_path, "env.json")
    monkeypatch.setenv("MASTEROP_SEED", "999")
    _, env_run2 = run_cli(["verify", "--what", "c1", "--R", "100",
                           "--samples", "50"], tmp_path, "env2.json")
    assert env_run != env_run2
    # the flag wins over the environment
    _, flag_run = run_cli(["verify", "--what", "c1", "--R", "100",
                           "--samples", "50", "--seed", "123"], tmp_path, "f.json")
    assert flag_run == env_run


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "masterop.cli", "eval", "1", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 0.0


def cap_address_space():
    """Make a runaway child fail with MemoryError instead of exhausting the host."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("args, message", [
    (["eval", "1", "--config", "{dir}"], "Is a directory"),
    (["eval", "1", "--out", "{dir}"], "Is a directory"),
    (["verify", "--R", ","], "empty list"),
    (["counterexample", "--which", "1", "--j-schedule", ","], "empty list"),
    (["defect", "--r-schedule", ","], "empty list"),
    (["verify", "--samples", "0"], "--samples must be at least 1"),
    (["verify", "--samples", "-5", "--what", "c1"], "--samples must be at least 1"),
    (["verify", "--samples", "0", "--what", "partition1"], "--samples must be at least 1"),
    (["counterexample", "--which", "2", "--probes", "1,1"], "--probes does not apply"),
    (["counterexample", "--which", "1", "--times", "1"], "--times applies only"),
    (["counterexample", "--which", "3", "--times", "1"], "--times applies only"),
    (["eval", "x1", "--horizon", "inf"], "horizon must be finite"),
    (["eval", "x1", "--tol", "nan"], "rel_tol must be positive and finite"),
    (["eval", "x1", "--tol", "inf"], "rel_tol must be positive and finite"),
    (["eval", "x1", "--a-min", "nan"], "a_min must be positive and finite"),
    (["defect", "--r-schedule", "6,inf"], "got R = inf"),
    (["defect", "--probes", "nan,0"], "probe must be finite, got x = [nan]"),
    (["eval", "sqrt(0-1)", "--horizon", "60"], "constant must be finite, got nan"),
    (["counterexample", "--which", "3", "--j-schedule", "16,2", "--probes", "0,0"],
     "--j-schedule must be strictly increasing"),
    (["verify", "--what", "c1", "--R", "10000,1000,100"], "--R must be strictly increasing"),
    (["eval", "cos(x1)", "--s", "1e-310", "--horizon", "60"], "s=1e-310 too small for double precision"),
    (["counterexample", "--which", "1", "--beta", "nan"], "finite, positive alpha, beta"),
    (["counterexample", "--which", "2", "--alpha", "inf"], "finite, positive alpha, beta"),
    (["counterexample", "--which", "3", "--gamma", "nan"], "need finite gamma > s"),
    (["defect", "--gamma", "nan"], "need finite gamma > s"),
    (["eval", "phi(4,1,1e400)"], "bad number '1e400'"),
    (["eval", "1e400*x1", "--horizon", "60"], "bad number '1e400'"),
    (["counterexample", "--which", "1", "--target-tol", "nan"], "--target-tol must be finite"),
    (["counterexample", "--which", "1", "--target-tol", "-1"], "--target-tol must be finite"),
], ids=["config-is-dir", "out-is-dir", "empty-R", "empty-j-schedule", "empty-r-schedule",
        "samples-0", "samples-negative-c1", "samples-0-partition1", "probes-which-2",
        "times-which-1", "times-which-3", "horizon-inf", "tol-nan", "tol-inf", "a-min-nan",
        "r-schedule-inf", "probe-nan", "constant-nan", "j-schedule-decreasing",
        "R-decreasing", "s-tiny", "beta-nan", "alpha-inf", "gamma-nan", "defect-gamma-nan",
        "literal-in-family", "literal-overflow", "target-tol-nan", "target-tol-negative"])
def test_bad_input_exit_2_without_traceback(args, message, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "masterop.cli",
         *[a.format(dir=tmp_path) for a in args]],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("expr", ["sqrt(x1)", "x1^0.5"])
def test_non_finite_integrand_is_one_line_exit_3(expr):
    proc = subprocess.run(
        [sys.executable, "-m", "masterop.cli", "eval", expr,
         "--horizon", "60", "--point", "1,0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure:")


def test_eval_csv_and_json_carry_the_same_fields(tmp_path):
    base = ["eval", "exp(t)", "--op", "marchaud", "--horizon", "60"]
    _, csv_text = run_cli(base, tmp_path, "e.csv")
    _, json_text = run_cli(base + ["--format", "json"], tmp_path, "e.json")
    header, row = csv_text.strip().split("\n")
    payload = json.loads(json_text)
    assert sorted(header.split(",")) == sorted(payload)
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["truncation_flag"] == "true" and payload["truncation_flag"] is True
    assert float(cells["value"]) == payload["value"]
    assert int(cells["nodes_used"]) == payload["nodes_used"]
    # the row commands at n = 2: every JSON row has the CSV header's keys
    probes = ["--n", "2", "--probes", "0,0.5,0;0,0,0"]
    for base in (["counterexample", "--which", "3", "--j-schedule", "2,4", *probes],
                 ["defect", "--r-schedule", "6,12", "--j-schedule", "4,8", *probes]):
        _, csv_text = run_cli(base, tmp_path, "r.csv")
        _, json_text = run_cli(base + ["--format", "json"], tmp_path, "r.json")
        header = csv_text.split("\n")[0].split(",")
        rows = json.loads(json_text)["rows"]
        assert rows and all(sorted(row) == sorted(header) for row in rows), base[0]


def _csv_rows(text):
    header, *lines = text.strip().split("\n")
    return [dict(zip(header.split(","), ln.split(","))) for ln in lines]


def test_counterexample_verdict_is_per_probe(tmp_path):
    # two probes sharing x1 and t: the failing one fails the run
    code, text = run_cli(["counterexample", "--which", "3", "--n", "2",
                          "--j-schedule", "2,4", "--probes", "0,3,0;0,0,0"], tmp_path)
    assert code == 3
    rows = _csv_rows(text)
    assert [(r["px"], r["py"], r["converged"]) for r in rows if r["j"] == "4"] == [
        ("0", "3", "false"), ("0", "0", "true")]
    assert all(r["converged"] == "" for r in rows if r["j"] == "2")


def test_defect_rows_carry_every_coordinate(tmp_path):
    _, text = run_cli(["defect", "--n", "2", "--probes", "0,0.5,0;0,0,0",
                          "--r-schedule", "6,12", "--j-schedule", "4,8"], tmp_path)
    assert {(r["px"], r["py"], r["pt"]) for r in _csv_rows(text)} == {
        ("0", "0.5", "0"), ("0", "0", "0")}


#: a non-default value per option
_SAMPLE_VALUES = {
    "n": "2", "s": "0.25", "normalization": "raw", "tol": "1e-5",
    "gh_order": "16", "gl_order": "6", "panels_per_decade": "5",
    "grading": "0.4", "a_min": "1e-9", "horizon": "60", "seed": "0x7b",
    "jobs": "2", "format": "json", "out": "run.json",
}


def test_every_option_is_a_flag_and_a_config_key(tmp_path, monkeypatch):
    monkeypatch.delenv("MASTEROP_SEED", raising=False)
    assert set(_SAMPLE_VALUES) == set(OPTIONS)
    ap = make_parser()
    for name, text in _SAMPLE_VALUES.items():
        default, kind, _ = OPTIONS[name]
        want = kind(text)
        assert want != default
        flag = "--" + name.replace("_", "-")
        cfg = build_config(ap.parse_args(["eval", "1", flag, text]))
        assert getattr(cfg, name) == want, flag
        path = tmp_path / f"{name}.cfg"
        path.write_text(f"{name} = {text}\n")
        cfg = build_config(ap.parse_args(["eval", "1", "--config", str(path)]))
        assert getattr(cfg, name) == want, name
    # every value reaches the quadrature spec
    flags = [a for name, text in _SAMPLE_VALUES.items()
             for a in ("--" + name.replace("_", "-"), text)]
    q = build_config(ap.parse_args(["eval", "1", *flags])).quad()
    assert (q.gh_order, q.gl_order, q.panels_per_decade, q.grading, q.a_min,
            q.horizon, q.rel_tol) == (16, 6, 5, 0.4, 1e-9, 60.0, 1e-5)
