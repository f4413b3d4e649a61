import json
import resource
import subprocess
import sys
from dataclasses import fields

import pytest

from masterop import QuadSpec, cli, regions
from masterop.cli import OPTIONS, build_config, fmt_float, main, make_parser, parse_point
from masterop.defect import DefectReport


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
    args = ["counterexample", "--which", "1", "--j-schedule", "2,4"]
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
    (["counterexample", "--which", "1", "--jobs", "-2"], "--jobs must be at least 1"),
    (["defect", "--jobs", "0"], "--jobs must be at least 1"),
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
    (["eval", "cos(x1)", "--op", "flap", "--point", "nan,0"], "evaluation point must be finite"),
    (["eval", "exp(t)", "--op", "marchaud", "--point", "0,inf", "--horizon", "60"],
     "evaluation point must be finite"),
    (["counterexample", "--which", "2", "--times", "nan"], "evaluation point must be finite"),
    (["eval", "1", "--config", "{dir}/gl.cfg"], "unknown config key 'gl_order'"),
    (["counterexample", "--which", "1", "--beta", "1e300"], "alpha=1e+300 overflows"),
    (["counterexample", "--which", "2", "--beta", "1e300"], "alpha=5e+299 overflows"),
    (["eval", "phi(4,1e300,1)"], "alpha=1e+300 overflows"),
    (["eval", "psi(4,1,1e300)"], "beta=1e+300 overflows"),
    (["verify", "--R=inf"], "--R entries must be finite and positive, got 'inf'"),
    (["verify", "--R=-1,100", "--what", "partition1"], "--R entries must be finite and positive"),
    (["counterexample", "--which", "1", "--probes="], "empty list ''"),
    (["counterexample", "--which", "2", "--times="], "empty list ''"),
    (["counterexample", "--which", "2", "--probes="], "--probes does not apply"),
    (["counterexample", "--which", "3", "--times="], "--times applies only"),
    (["defect", "--probes="], "empty list ''"),
    (["defect", "--j-schedule", "4,4"], "--j-schedule must be strictly increasing"),
    (["defect", "--r-schedule", "6,6"], "--r-schedule must be strictly increasing"),
], ids=["config-is-dir", "out-is-dir", "empty-R", "empty-j-schedule", "empty-r-schedule",
        "samples-0", "samples-negative-c1", "samples-0-partition1", "jobs-negative",
        "jobs-0-defect", "probes-which-2",
        "times-which-1", "times-which-3", "horizon-inf", "tol-nan", "tol-inf", "a-min-nan",
        "r-schedule-inf", "probe-nan", "constant-nan", "j-schedule-decreasing",
        "R-decreasing", "s-tiny", "beta-nan", "alpha-inf", "gamma-nan", "defect-gamma-nan",
        "literal-in-family", "literal-overflow", "target-tol-nan", "target-tol-negative",
        "flap-point-nan", "marchaud-point-inf", "times-nan", "config-gl-order",
        "beta-overflow-which-1", "beta-overflow-which-2", "phi-alpha-overflow",
        "psi-beta-overflow", "R-inf", "R-negative-partition1", "empty-probes",
        "empty-times", "empty-probes-which-2", "empty-times-which-3", "defect-empty-probes",
        "defect-j-schedule-repeated", "defect-r-schedule-repeated"])
def test_bad_input_exit_2_without_traceback(args, message, tmp_path):
    (tmp_path / "gl.cfg").write_text("gl_order = 6\n")
    proc = subprocess.run(
        [sys.executable, "-m", "masterop.cli",
         *[a.format(dir=tmp_path) for a in args]],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("args", [
    ["sqrt(x1)"], ["x1^0.5"], ["1e300*1e300*x1"],
    # overflow inside the engines, which numpy would report as warnings
    ["1e305*cos(x1)*exp(t)"],
    ["1e305*exp(t)", "--op", "marchaud"],
    ["1e305*cos(x1)", "--op", "flap"],
], ids=["sqrt(x1)", "x1^0.5", "1e300*1e300*x1", "overflow-master", "overflow-marchaud",
        "overflow-flap"])
def test_non_finite_integrand_is_one_line_exit_3(args):
    proc = subprocess.run(
        [sys.executable, "-m", "masterop.cli", "eval", *args,
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
    "gh_order": "16", "grading": "0.4", "a_min": "1e-9", "horizon": "60", "seed": "0x7b",
    "jobs": "2", "format": "json", "out": "run.json",
}


#: each command with the arguments it needs, and the run options it reads
_COMMANDS = {"eval": ["eval", "1"], "counterexample": ["counterexample", "--which", "1"],
             "defect": ["defect"], "verify": ["verify"]}
_READS = {
    "eval": "n s normalization tol gh_order grading a_min horizon format out",
    "counterexample": "n s normalization tol gh_order grading a_min horizon jobs format out",
    "defect": "n s normalization jobs format out",
    "verify": "n s normalization tol gh_order grading a_min seed out",
}
_REFUSED = [(command, name) for command, reads in _READS.items()
            for name in OPTIONS if name not in reads.split()]


def test_every_option_is_a_flag_and_a_config_key(tmp_path, monkeypatch):
    monkeypatch.delenv("MASTEROP_SEED", raising=False)
    assert set(_SAMPLE_VALUES) == set(OPTIONS)
    ap = make_parser()
    reads = {command: ap.parse_args(base).reads for command, base in _COMMANDS.items()}
    assert reads == {command: names.split() for command, names in _READS.items()}
    assert sum(map(len, reads.values())) == 36 and len(_REFUSED) == 12
    for name, text in _SAMPLE_VALUES.items():
        default, kind, _ = OPTIONS[name]
        want = kind(text)
        assert want != default
        # try each option on every command that reads it
        for command in (c for c in _COMMANDS if name in reads[c]):
            flag = "--" + name.replace("_", "-")
            cfg = build_config(ap.parse_args([*_COMMANDS[command], flag, text]))
            assert getattr(cfg, name) == want, (command, flag)
            path = tmp_path / f"{name}.cfg"
            path.write_text(f"{name} = {text}\n")
            cfg = build_config(ap.parse_args([*_COMMANDS[command], "--config", str(path)]))
            assert getattr(cfg, name) == want, (command, name)
    # only verify reads the seed from the environment
    monkeypatch.setenv("MASTEROP_SEED", "not-a-seed")
    for command in ("eval", "counterexample", "defect"):
        assert build_config(ap.parse_args(_COMMANDS[command])).seed == OPTIONS["seed"][0]
    with pytest.raises(ValueError):
        build_config(ap.parse_args(["verify"]))
    # every value reaches the quadrature spec
    flags = [a for name, text in _SAMPLE_VALUES.items() if name in reads["eval"]
             for a in ("--" + name.replace("_", "-"), text)]
    q = build_config(ap.parse_args(["eval", "1", *flags])).quad()
    assert (q.gh_order, q.grading, q.a_min, q.horizon, q.rel_tol) == (
        16, 0.4, 1e-9, 60.0, 1e-5)


def test_quadrature_options_are_the_quadspec_fields_with_their_defaults():
    assert [f.name for f in fields(QuadSpec)] == [
        "gh_order", "grading", "a_min", "horizon", "rel_tol"]
    assert len(OPTIONS) == 12
    q = build_config(make_parser().parse_args(["eval", "1"])).quad()
    assert q == QuadSpec()
    for f in fields(QuadSpec):
        option = "tol" if f.name == "rel_tol" else f.name
        assert OPTIONS[option][0] == f.default, option
    # the Gauss-Legendre order and the window mesh density are fixed
    assert main(["eval", "1", "--gl-order", "6"]) == 2
    assert main(["eval", "1", "--panels-per-decade", "5"]) == 2


@pytest.mark.parametrize("command, name", _REFUSED, ids=[f"{c}-{n}" for c, n in _REFUSED])
def test_option_the_command_does_not_read_is_refused(command, name, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(f"{name} = {_SAMPLE_VALUES[name]}\n")
    flag = "--" + name.replace("_", "-")
    for extra in ([flag, _SAMPLE_VALUES[name]], ["--config", str(path)]):
        assert main([*_COMMANDS[command], *extra]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"does not apply to {command}" in lines[0]


def test_defect_csv_on_stdout_puts_the_summary_on_stderr(tmp_path, capsys):
    args = ["defect", "--r-schedule", "6,12", "--j-schedule", "4,8", "--probes", "0,0"]
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out.startswith("j,R,px,pt,F,err\n") and len(out.splitlines()) == 5
    summary = err.splitlines()
    assert len(summary) == 1 and json.loads(summary[0])["converged"] is False
    # with --out the rows go to the file and the summary stays on stdout
    assert main(args + ["--out", str(tmp_path / "d.csv")]) == 3
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines() == summary


def _refuse_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def test_defect_summary_is_strict_json_when_not_converged(tmp_path, capsys):
    args = ["defect", "--r-schedule", "6,12", "--j-schedule", "4,8", "--probes", "0,0"]
    code, text = run_cli(args + ["--format", "json"], tmp_path)
    summary = json.loads(text, parse_constant=_refuse_constant)["summary"]
    assert code == 3 and summary["converged"] is False
    for key in ("b_estimate", "b_spread", "liminf_bound_M", "N_threshold"):
        assert summary[key] is None, key
    # the CSV path writes the same summary on stderr
    assert main(args) == 3
    assert json.loads(capsys.readouterr().err, parse_constant=_refuse_constant) == summary


@pytest.mark.parametrize("n", [1, 2, 3])
def test_default_defect_probes_lie_in_the_smallest_scale(n, monkeypatch):
    seen = []

    def fake_estimate(family, limit, probes, Rs, js, p, q, jobs=1):
        seen.extend(probes)
        return DefectReport()

    monkeypatch.setattr(cli, "defect_estimate", fake_estimate)
    assert main(["defect", "--n", str(n), "--r-schedule", "9,18", "--format", "json"]) == 3
    assert len(seen) == 5
    for at in seen:
        regions.check_scale(at, 9.0)
