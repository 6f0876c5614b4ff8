import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitclf import certify as cert_mod
from orbitclf import cli, simulator
from orbitclf.certify import Check, verdict
from orbitclf.clf import ClfConsistencyError

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
OUTPUT_DIGEST = ROOT / "tools" / "output_digest.py"

SQRT3 = np.sqrt(3.0)

# short-horizon overrides keep the CLI tests quick; the full-length defaults
# run once in the acceptance suite
FAST = ["--override", "integrator.horizon=8",
        "--override", "sweep.amplitude_grid=[0.0,0.01,0.02]"]


#: the warnings that ``run`` calls raised since ``_one_line_error`` last looked
_WARNINGS = []


@pytest.fixture(autouse=True)
def _fresh_warnings():
    _WARNINGS.clear()


def run(args):
    # in a process of its own every warning reaches stderr, where pytest's
    # own capture would hide it from capsys: keep them all to check
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(args)
    _WARNINGS.extend(caught)
    return code


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_synth_default_writes_closed_form(tmp_path, capsys):
    assert run(["synth", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "gamma" in out and "c1" in out and "c2" in out
    body = json.loads((tmp_path / "certificate.json").read_text())
    P = np.asarray(body["payload"]["P"])
    assert np.allclose(P, [[SQRT3, 1.0], [1.0, SQRT3]], atol=1e-10)
    assert body["payload"]["care_residual"] <= 1e-10
    assert body["payload"]["scaled_residual"] <= 1e-10
    assert "config_hash" in body and "content_hash" in body


def test_synth_p_eps_matches_m_p_m(tmp_path):
    assert run(["synth", "--out", str(tmp_path), "--override", "eps=0.1"]) == 0
    body = json.loads((tmp_path / "certificate.json").read_text())
    P = np.asarray(body["payload"]["P"])
    M = np.diag(body["payload"]["M"])
    P_eps = np.asarray(body["payload"]["P_eps"])
    assert np.allclose(P_eps, M @ P @ M, atol=1e-12)
    assert np.allclose(np.diag(M), [10.0, 1.0])


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"eps": 0.1,,}')
    assert run(["synth", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epz": 0.1}')
    assert run(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_bad_override_exits_2(tmp_path, capsys):
    assert run(["synth", "--out", str(tmp_path), "--override", "nope=1"]) == 2
    assert run(["synth", "--out", str(tmp_path), "--override", "eps=2.0"]) == 2


def test_simulate_zero_disturbance(tmp_path):
    assert run(["simulate", "--out", str(tmp_path),
                "--override", "disturbance.kind=zero",
                "--override", "integrator.horizon=12"]) == 0
    rows = [l for l in (tmp_path / "trajectory.csv").read_text().splitlines()
            if not l.startswith("#")]
    header = rows[0].split(",")
    assert header == ["t", "eta_0", "eta_1", "z_0", "z_1", "d_0",
                      "V_eps", "V_Z", "V_c", "dist"]
    assert len(rows) - 1 == int(12 / 0.001) + 1  # horizon/dt + 1 samples
    final_dist = float(rows[-1].split(",")[-1])
    assert final_dist <= 1e-6
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["payload"]["samples"] == int(12 / 0.001) + 1


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--seed", "7",
            "--override", "disturbance.kind=piecewise_constant_random",
            "--override", "disturbance.amplitude=0.05",
            "--override", "integrator.horizon=3"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_certify_passes_and_reports(tmp_path, capsys):
    assert run(["certify", "--out", str(tmp_path)] + FAST) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    body = json.loads((tmp_path / "report.json").read_text())
    rep = body["payload"]
    # bounds in the report equal the formulas recomputed from the certificate
    cert = json.loads((tmp_path / "report.json").read_text())["payload"]["extras"]
    gamma, c1, c2 = cert["gamma"], cert["c1"], cert["c2"]
    eps, eps_bar, d_inf = rep["eps"], rep["eps_bar"], rep["d_inf"]
    assert np.isclose(rep["eta_bound_min_norm"], 4 * c2 / (gamma * c1 * eps) * d_inf, rtol=1e-12)
    assert np.isclose(rep["eta_bound_damped"], 2 * eps_bar * c2 / (c1**2 * eps**2) * d_inf,
                      rtol=1e-12)
    assert rep["sigma_condition_ok"] and np.isclose(rep["sigma_margin"], 0.5)
    # the benchmark's gates read this report: every flag and scalar they need is there
    workloads = _workloads()
    op = workloads._certify_ops(0)[0]
    assert workloads._certify_intrinsic(op, tmp_path) == []
    assert set(workloads._certify_scalars(op, tmp_path)) == {
        "sigma", "eta_bound_min_norm", "eta_bound_damped", "eta_ultimate_measured",
        "ag_gain_estimate", "eta_gain_estimate"}
    # every verdict in the report, e_iss_rate_ok included, is a printed row
    rows = [line for line in out.splitlines() if line[35:42].strip() in ("PASS", "FAIL", "n/a")]
    assert rep["e_iss_rate_ok"] is True
    assert len(rows) == sum(key.endswith("_ok") for key in rep) == 11


def test_check_table_and_verdict(tmp_path, capsys):
    checks = [Check("zero stability (ZS)", "zs_ok", True, 2.5),
              Check("e-ISS decay rate > 0", "e_iss_rate_ok", False, -0.25)]
    cli.print_checks(checks, tmp_path / "report.json")
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split()[-2:] == ["FAIL", "-0.25"]
    assert lines[-1].startswith("overall: FAIL")
    assert not verdict(checks)
    # an n/a row neither passes nor fails
    checks = [checks[0], Check("ultimate bound, with damping", "damped_bound_ok", None)]
    cli.print_checks(checks, tmp_path / "report.json")
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split()[-1] == "n/a"
    assert lines[-1].startswith("overall: PASS")
    assert verdict(checks)


def test_certify_adversarial_sigma_fails(tmp_path, capsys):
    code = run(["certify", "--out", str(tmp_path), "--override", "sigma=5000.0",
                "--override", "initial.z=[1.0,0.0]"] + FAST)
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_certify_rejects_mech_plant(tmp_path, capsys):
    assert run(["certify", "--out", str(tmp_path),
                "--override", "plant.kind=mech", "--override", "k1=1"]) == 2


def test_sweep_outputs(tmp_path, capsys, monkeypatch):
    # grids given out of order: output must come back sorted by parameter;
    # the eps runs and the amplitude runs integrate in one call
    batches, integrate = [], cli.integrate

    def counting(loops, *args, **kwargs):
        batches.append(len(loops))
        return integrate(loops, *args, **kwargs)

    monkeypatch.setattr(cli, "integrate", counting)
    code = run(["sweep", "--out", str(tmp_path),
                "--override", "sweep.eps_grid=[0.2,0.5,0.1]",
                "--override", "sweep.amplitude_grid=[0.02,0.0,0.01]",
                "--override", "disturbance.amplitude=0.05",
                "--override", "controller=min_norm",
                "--override", "integrator.horizon=12"])
    assert code == 0
    eps_rows = [l.split(",") for l in (tmp_path / "sweep_eps.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
    eps_vals = [float(r[0]) for r in eps_rows]
    assert eps_vals == sorted(eps_vals)
    ults = [float(r[1]) for r in eps_rows]
    assert all(a < b for a, b in zip(ults, ults[1:]))  # monotone in eps
    amp_rows = [l.split(",") for l in (tmp_path / "sweep_amplitude.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
    assert float(amp_rows[0][0]) == 0.0
    assert float(amp_rows[0][1]) <= 1e-6  # zero-amplitude ultimate bound
    body = json.loads((tmp_path / "sweep_report.json").read_text())
    assert body["payload"]["monotone_in_eps_ok"]
    assert batches == [3 + 3]


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.2, "disturbance": {"amplitude": 0.01}}))
    assert run(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    body = json.loads((tmp_path / "certificate.json").read_text())
    assert body["config"]["eps"] == 0.2
    assert body["config"]["disturbance"]["amplitude"] == 0.01
    assert "out" not in body["config"]  # disposition flag, not provenance


def _one_line_error(capsys, text):
    err = capsys.readouterr().err
    assert text in err and len(err.strip().splitlines()) == 1, err
    warned = [f"{w.category.__name__}: {w.message}" for w in _WARNINGS]
    _WARNINGS.clear()
    assert not warned, warned  # each would be one more stderr line


def test_non_numeric_value_exits_2(tmp_path, capsys):
    assert run(["synth", "--out", str(tmp_path), "--override", "eps=abc"]) == 2
    _one_line_error(capsys, "eps must be a number")
    assert run(["synth", "--out", str(tmp_path), "--override", "integrator.dt=true"]) == 2
    _one_line_error(capsys, "integrator.dt must be a number")


def test_fractional_dims_exit_2(tmp_path, capsys):
    assert run(["synth", "--out", str(tmp_path), "--override", "k1=1.5"]) == 2
    _one_line_error(capsys, "k1 must be an integer")


def test_section_replaced_by_scalar_exits_2(tmp_path, capsys):
    assert run(["synth", "--out", str(tmp_path), "--override", "plant=3"]) == 2
    _one_line_error(capsys, "plant must be a JSON object")


def test_sweep_rejects_mech_plant(tmp_path, capsys):
    assert run(["sweep", "--out", str(tmp_path),
                "--override", "plant.kind=mech", "--override", "k1=1",
                "--override", "disturbance.kind=phase_error_driven"]) == 2
    _one_line_error(capsys, "sweep requires the hopf plant")



@pytest.mark.parametrize("command, override, message", [
    ("synth", "Q=[[1,0],[0,-1]]", "Q must be symmetric positive definite"),
    ("synth", 'Q=[[1,0],[0,"a"]]', 'Q must be "identity" or a 2x2 matrix of numbers'),
    ("synth", "Q=[[1,0,0],[0,1,0],[0,0,1]]", 'Q must be "identity" or a 2x2 matrix of numbers'),
    ("certify", 'sweep.amplitude_grid=["a"]', "sweep.amplitude_grid must be a list of numbers"),
    ("certify", "sweep.amplitude_grid=[0.01,0.02,0.04]",
     "certify needs a sweep.amplitude_grid of at least 3 amplitudes, one of them 0"),
    ("sweep", "sweep.eps_grid=[0.1,null]", "sweep.eps_grid must be a list of numbers"),
    ("sweep", "sweep.eps_grid=[2.0]", "eps must lie in (0, 1]"),
    ("simulate", "initial.eta=[0.1]", "initial.eta must be a list of 2 numbers"),
    ("simulate", "initial.z=[1,0,0]", "initial.z must be a list of 2 numbers"),
    ("simulate", "initial.x=[0,0]", "initial.x must be a list of 4 numbers"),
    ("simulate", "plant.alpha=[0,0.1]", "plant.alpha must be a list of 6 numbers"),
    ("simulate", "plant.coupling=[[0.2,0.2]]",
     "plant.coupling must be a number or a 2x2 matrix of numbers"),
])
def test_list_valued_field_errors_exit_2(tmp_path, capsys, command, override, message):
    assert run([command, "--out", str(tmp_path), "--override", override]) == 2
    _one_line_error(capsys, message)


@pytest.mark.parametrize("q", ["Q=[[1e300,0],[0,1e300]]", "Q=[[1e-300,0],[0,1e-300]]"])
def test_uncertifiable_q_exits_2(tmp_path, capsys, q):
    # both pass _validate (SPD, numeric); the CARE solve or the certificate fails
    assert run(["synth", "--out", str(tmp_path), "--override", q]) == 2
    _one_line_error(capsys, "no RES-CLF certificate for this Q")


def test_residual_failure_names_the_residual_and_its_scale(tmp_path, capsys):
    # an SPD Q whose eps-scaled CARE residual misses the absolute 1e-10 by a
    # hair: the message names the residual, its value, the tolerance, ||Q||, eps
    args = ["synth", "--out", str(tmp_path), "--override", "k1=0", "--override", "k2=1",
            "--override", "eps=0.05", "--override", "Q=[[59,0],[0,1]]"]
    assert run(args) == 2
    _one_line_error(capsys, "no RES-CLF certificate for this Q: eps-scaled CARE residual "
                            "1.16444e-10 exceeds the tolerance 1e-10 at ||Q|| = 59, eps = 0.05; "
                            "try rescaling Q to a smaller norm")


@pytest.mark.parametrize("args, message", [
    (["--config", "{tmp}"], "cannot read config {tmp}: Is a directory"),
    (["--config", "{tmp}/latin1.json"], "cannot read config {tmp}/latin1.json: not UTF-8 text"),
    (["--config", "{tmp}/missing.json"],
     "cannot read config {tmp}/missing.json: No such file or directory"),
    (["--out", "{tmp}/latin1.json"], "cannot make output directory {tmp}/latin1.json: File exists"),
    (["--out", "{tmp}/latin1.json/sub"],
     "cannot make output directory {tmp}/latin1.json/sub: Not a directory"),
], ids=["config is a directory", "config not UTF-8", "config missing", "out is a file",
        "out under a file"])
def test_unreadable_config_or_unusable_out_exits_2(tmp_path, capsys, args, message):
    (tmp_path / "latin1.json").write_bytes('{"eps": 0.1} # \xe9'.encode("latin-1"))
    args = [a.format(tmp=tmp_path) for a in args]
    if "--out" not in args:
        args += ["--out", str(tmp_path / "out")]
    assert run(["synth"] + args) == 2
    _one_line_error(capsys, message.format(tmp=tmp_path))


@pytest.mark.parametrize("overrides, message", [
    (["plant.kind=mech", "k1=1", "plant.q1_plus=0"], "plant: q1_plus must exceed q1_minus"),
    (["plant.lambda_h=-1"], "plant: lambda_h must be positive"),
    (["plant.r0=0"], "plant: r0 must be positive"),
    (["disturbance.kind=piecewise_constant_random", "disturbance.dwell=0"],
     "disturbance: dwell time must be positive"),
    (["plant.annulus_fraction=1.5"], "plant.annulus_fraction must lie in (0, 1)"),
    (["plant.y1_rate=0"], "plant: y1_rate must be positive"),
], ids=["q1_plus", "lambda_h", "r0", "dwell", "annulus_fraction", "y1_rate"])
def test_bad_plant_or_disturbance_exits_2(tmp_path, capsys, overrides, message):
    # the plant and signal constructors' own checks, which pass _validate,
    # and the annulus of the converse constants, which _validate checks
    args = ["simulate", "--out", str(tmp_path), "--override", "integrator.horizon=0.01"]
    assert run(args + [a for o in overrides for a in ("--override", o)]) == 2
    _one_line_error(capsys, f"config error: {message}")


@pytest.mark.parametrize("command", ["simulate", "certify", "sweep"])
@pytest.mark.parametrize("dt", ["1e-9", "1e-310"])  # billions of steps, and an infinite T/dt
def test_step_ceiling_exits_2(tmp_path, capsys, command, dt):
    assert run([command, "--out", str(tmp_path), "--override", f"integrator.dt={dt}"]) == 2
    _one_line_error(capsys, f"integrator.horizon / integrator.dt exceeds the "
                            f"{simulator.MAX_STEPS} step ceiling")


def test_object_override_merges_into_section(tmp_path):
    assert run(["synth", "--out", str(tmp_path), "--override", 'initial={"eta":[0.1,0.1]}']) == 0
    initial = json.loads((tmp_path / "certificate.json").read_text())["config"]["initial"]
    assert initial["eta"] == [0.1, 0.1]
    assert initial["z"] == cli.DEFAULT_CONFIG["initial"]["z"]
    assert initial["x"] == cli.DEFAULT_CONFIG["initial"]["x"]


def test_object_override_unknown_sub_key_exits_2(tmp_path, capsys):
    assert run(["synth", "--out", str(tmp_path), "--override", 'initial={"foo":1}']) == 2
    _one_line_error(capsys, "unknown config key: initial.foo")


def _strict_json(path):
    """The file parsed as standard JSON: NaN and Infinity tokens are refused."""
    def refuse(token):
        raise ValueError(f"{path.name}: non-standard JSON token {token}")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


def test_mech_simulate_in_domain(tmp_path):
    assert run(["simulate", "--out", str(tmp_path), "--override", "k1=1",
                "--override", "plant.kind=mech", "--override", "plant.q1_plus=4",
                "--override", "disturbance.kind=phase_error_driven",
                "--override", "integrator.horizon=0.5"]) == 0
    rows = [l for l in (tmp_path / "trajectory.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) - 1 == int(0.5 / 0.001) + 1
    body = _strict_json(tmp_path / "summary.json")
    summary = body["payload"]
    assert summary["samples"] == int(0.5 / 0.001) + 1
    assert summary["final_orbit_distance"] is None  # the mech plant has no orbit trace
    assert body["content_hash"] == hashlib.sha256(cli.canonical_json(summary).encode()).hexdigest()


MECH = ["--override", "k1=1", "--override", "plant.kind=mech",
        "--override", "disturbance.kind=phase_error_driven"]
MECH_K1_0 = ["k1=0", "plant.kind=mech", "disturbance.kind=phase_error_driven",
             "plant.q1_plus=4", "integrator.horizon=0.5"]


def test_mech_k1_0_drops_the_velocity_output(tmp_path):
    # k1 alone picks the mech velocity output: the k1 = 0 run needs no
    # plant.v_d and writes the data rows and summary payload (their content
    # hashes) that the spelling "k1=0 plant.v_d=null" wrote before k1 did,
    # but for V_eps, whose sums no longer go through BLAS (its column and
    # max_v_eps moved in the last bit; eta, z and d did not)
    assert run(["simulate", "--out", str(tmp_path)]
               + [a for o in MECH_K1_0 for a in ("--override", o)]) == 0
    csv = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert csv[3] == "t,eta_0,eta_1,z_0,z_1,d_0,V_eps,V_Z,V_c,dist"
    assert csv[2] == ("# content_hash="
                      "a0d02f80c22e2c0232baeec1ac07343284876dbda7cbd5a31aa9ac87321e96db")
    summary = _strict_json(tmp_path / "summary.json")
    assert summary["content_hash"] == (
        "7812a31b6c058f04b042632bcde8ddafc1af1d0172905a7155550ed5753d4c49")


@pytest.mark.parametrize("override, message", [
    ("plant.v_d=null", "config error: plant.v_d must be a number, got None"),
    ("k2=2", "config error: plant: the mech plant has k1 = 0 or 1 and k2 = 1, not (k1=0, k2=2)"),
    ("k1=2", "config error: plant: the mech plant has k1 = 0 or 1 and k2 = 1, not (k1=2, k2=1)"),
], ids=["v_d null", "k2=2", "k1=2"])
def test_mech_dims_or_null_v_d_exit_2(tmp_path, capsys, override, message):
    overrides = MECH_K1_0 + [override]
    assert run(["simulate", "--out", str(tmp_path)]
               + [a for o in overrides for a in ("--override", o)]) == 2
    _one_line_error(capsys, message)


@pytest.mark.parametrize("overrides, message", [
    # the README's default run: the phase estimate leaves [0, 1] first
    ([], r"^phase 1\.00012 outside \[0, 1\]$"),
    # the true phase leaves first, within the last step; recording used to
    # raise only after every step had been taken
    (["plant.q1_plus=1.7", "integrator.horizon=1.531"], r"^true phase 1\.00029 outside \[0, 1\]$"),
], ids=["estimate", "true phase"])
def test_mech_run_stops_in_the_step_that_leaves_the_phase_domain(tmp_path, monkeypatch,
                                                                 overrides, message):
    def recording(*args):
        raise AssertionError("a run out of the phase domain reached its recording")

    monkeypatch.setattr(simulator, "_record_mech", recording)
    args = MECH + [a for o in overrides for a in ("--override", o)]
    with pytest.raises(ValueError, match=message):
        run(["simulate", "--out", str(tmp_path)] + args)


def test_non_finite_figures_are_written_as_null(tmp_path):
    # with eta started at 0, ||eta|| never reaches the rejection threshold, so
    # the composite check has no sample and its worst V_c rate is -inf
    assert run(["certify", "--out", str(tmp_path), "--override", "initial.eta=[0,0]",
                "--override", "initial.z=[1.2,0]", "--override", "integrator.horizon=8"]) == 0
    rep = _strict_json(tmp_path / "report.json")["payload"]
    assert rep["extras"]["vc_details"]["region_samples"] == 0
    assert rep["extras"]["vc_details"]["worst_vdot_c"] is None
    for name in ("certify_main.csv", "certify_zero.csv"):
        assert (tmp_path / name).exists()


@pytest.mark.parametrize("override, message", [
    ("eps=NaN", "eps must be a number, got nan"),
    ("plant.omega=Infinity", "plant.omega must be a number, got inf"),
    ("Q=[[1,0],[0,-Infinity]]", 'Q must be "identity" or a 2x2 matrix of numbers'),
])
def test_non_finite_config_number_exits_2(tmp_path, capsys, override, message):
    # json.loads reads NaN and Infinity, but no standard JSON output could embed them
    assert run(["synth", "--out", str(tmp_path), "--override", override]) == 2
    _one_line_error(capsys, message)


def test_csv_body_formats_as_format_17g(tmp_path):
    # the writer's "%.17g" rows are byte for byte the per-value format(v, ".17g")
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308,
               1e300, -1.0 / 3.0, 0.1, 12345678901234567890.0, 1.0]
    rows = np.array(special).reshape(3, 4)
    path = tmp_path / "t.csv"
    cli._write_csv(path, {}, ["a", "b", "c", "d"], rows)
    body = path.read_text(encoding="utf-8").splitlines()[-3:]
    assert body == [",".join(format(v, ".17g") for v in row) for row in rows]
    cli._write_csv(path, {}, ["a", "b"], [[1, -0.0], [2.5, float("nan")]])  # plain lists
    assert path.read_text(encoding="utf-8").splitlines()[-2:] == ["1,-0", "2.5,nan"]


@pytest.mark.parametrize("rows", [2 * simulator.CHUNK + 37, simulator.CHUNK, 5, 0])
def test_csv_blocks_equal_the_per_row_writer(tmp_path, rows):
    # the writer formats CHUNK rows with one "%"; the bytes are those of one
    # "%" per row, for NaN, infinities, signed zeros and subnormals, a last
    # block shorter than CHUNK included
    rng = np.random.default_rng(17)
    table = rng.normal(size=(rows, 6)) * np.exp(rng.uniform(-700, 700, size=(rows, 6)))
    special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e308, 0.1]
    table.ravel()[::7] = np.resize(special, table.ravel()[::7].shape)
    path = tmp_path / "t.csv"
    cli._write_csv(path, {"seed": 1}, list("abcdef"), table)
    fmt = ",".join(["%.17g"] * 6)
    want = "\n".join(fmt % tuple(row.tolist()) for row in table)
    text = path.read_text(encoding="utf-8")
    head, _, body = text.partition("a,b,c,d,e,f\n")
    assert body == (want + "\n" if rows else "")
    assert f"# content_hash={hashlib.sha256(want.encode()).hexdigest()}\n" in head
    if rows > 100:
        assert {"nan", "-inf", "-0", "4.9406564584124654e-324"} <= set(body.replace("\n", ",").split(","))


def test_on_orbit_start_is_rejected_before_integrating(tmp_path, capsys, monkeypatch):
    # the d = 0 run would start on the orbit, with nothing to decay: exit 2
    # with one line, before any integration and with no report written
    def no_integration(*args, **kwargs):
        raise AssertionError("certify integrated an on-orbit start")

    monkeypatch.setattr(cli, "integrate", no_integration)
    assert run(["certify", "--out", str(tmp_path), "--override", "initial.eta=[0,0]",
                "--override", "initial.z=[1,0]", "--override", "integrator.horizon=2"]) == 2
    _one_line_error(capsys, "certify needs a start off the orbit")
    assert not (tmp_path / "report.json").exists()


class _Integrated(Exception):
    """Raised in place of an integration, to show that a run got that far."""


@pytest.mark.parametrize("horizon, samples", [("0.006", 7), ("0.007", 8)])
def test_short_certify_is_rejected_before_integrating(tmp_path, capsys, monkeypatch,
                                                       horizon, samples):
    # the zero-stability check needs ZS_MIN_SAMPLES samples: fewer exit 2 with
    # one line, before any integration and with no file written
    def integrated(*args, **kwargs):
        raise _Integrated

    monkeypatch.setattr(cli, "integrate", integrated)
    args = ["certify", "--out", str(tmp_path), "--override", f"integrator.horizon={horizon}"]
    if samples < cert_mod.ZS_MIN_SAMPLES:
        assert run(args) == 2
        _one_line_error(capsys, f"config error: certify needs at least {cert_mod.ZS_MIN_SAMPLES} "
                                f"samples to assess zero stability; integrator.horizon = "
                                f"{horizon} at integrator.dt = 0.001 gives {samples}")
        assert list(tmp_path.iterdir()) == []
    else:
        with pytest.raises(_Integrated):
            run(args)


_EPS_GRID = "sweep needs a sweep.eps_grid of at least 2 values"
_AMPLITUDE_GRID = "sweep needs a sweep.amplitude_grid with 0 and an amplitude above 0"


@pytest.mark.parametrize("overrides, message", [
    (["sweep.eps_grid=[0.1]"], _EPS_GRID),
    (["sweep.eps_grid=[]"], _EPS_GRID),
    (["sweep.amplitude_grid=[0.01,0.02]"], _AMPLITUDE_GRID),
    (["sweep.amplitude_grid=[0.0]"], _AMPLITUDE_GRID),
    (["sweep.amplitude_grid=[]"], _AMPLITUDE_GRID),
    # the repro that printed three PASS rows and exited 0
    (["sweep.eps_grid=[0.1]", "sweep.amplitude_grid=[0.01]", "integrator.horizon=4"],
     _EPS_GRID),
], ids=["one eps", "no eps", "no zero amplitude", "only zero amplitude", "no amplitude",
        "one eps and no zero amplitude"])
def test_sweep_rejects_a_grid_its_checks_cannot_test(tmp_path, capsys, monkeypatch, overrides,
                                                     message):
    # a check row over no data would print PASS: such a grid exits 2 with one
    # line, before any integration and with no file written
    def integrated(*args, **kwargs):
        raise _Integrated

    monkeypatch.setattr(cli, "integrate", integrated)
    args = ["sweep", "--out", str(tmp_path)]
    for pair in overrides:
        args += ["--override", pair]
    assert run(args) == 2
    _one_line_error(capsys, f"config error: {message}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("overrides", [
    ["sweep.eps_grid=[0.2,0.1]", "sweep.amplitude_grid=[0.0,0.01]"],
    ["sweep.eps_grid=[0.1,0.2]", "sweep.amplitude_grid=[0.02,0.0]"],
])
def test_sweep_takes_the_smallest_testable_grids(tmp_path, monkeypatch, overrides):
    # two eps values and an amplitude grid with 0 and one amplitude above it
    # reach the integration, in any order
    def integrated(*args, **kwargs):
        raise _Integrated

    monkeypatch.setattr(cli, "integrate", integrated)
    args = ["sweep", "--out", str(tmp_path)]
    for pair in overrides:
        args += ["--override", pair]
    with pytest.raises(_Integrated):
        run(args)


@pytest.mark.parametrize("sigma", ["0", "-1"])
def test_non_positive_sigma_exits_2(tmp_path, capsys, sigma):
    # min(sigma c4, c1) would be 0 or negative: the sandwich certifies nothing
    args = ["--override", "k1=1", "--override", "k2=2", "--override", "integrator.horizon=8"]
    assert run(["certify", "--out", str(tmp_path), "--override", f"sigma={sigma}"] + args) == 2
    _one_line_error(capsys, f"config error: sigma must be a positive number, got {sigma}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "certify"])
def test_overflowed_start_is_not_reported_as_a_broken_certificate(tmp_path, capsys, command):
    # eta = (1e170, 0) overflows psi0 and ||psi1||^2 to inf in the first RHS,
    # which marks the row flat: the run aborts (exit 3) saying so
    assert run([command, "--out", str(tmp_path), "--override", "initial.eta=[1e170,0]"]) == 3
    _one_line_error(capsys, "run aborted: row 0: the state overflowed: "
                            "psi0 = inf, ||psi1||^2 = inf")


def test_overflowed_start_prints_one_line_in_its_own_process(tmp_path):
    # in a process of its own numpy's warnings reach stderr: the on-orbit
    # guard's overflowed distance must print none ahead of the abort line
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "default"}
    proc = subprocess.run([sys.executable, "-m", "orbitclf.cli", "certify", "--out", str(tmp_path),
                           "--override", "initial.eta=[1e170,0]"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("run aborted: row 0: the state overflowed"), proc.stderr


@pytest.mark.parametrize("dims, message", [
    (["k1=1"], "run aborted: the state overflowed: phase nan"),
    (["k1=0"], "run aborted: non-finite state in run 0 at t = 0.001: "),
], ids=["k1=1", "k1=0"])
def test_mech_overflow_within_a_step_aborts(tmp_path, capsys, dims, message):
    # dq2 = 1e308 overflows in the first step: at k1 = 1 the first stage's mu
    # is NaN (inf/inf), so the next stage's phase is NaN before any state is
    # stored; that is an overflow, exit 3 with one line, as at k1 = 0, not a
    # phase-domain exit
    overrides = dims + ["plant.kind=mech", "disturbance.kind=phase_error_driven",
                        "plant.q1_plus=4", "initial.x=[0.4,0,1,1e308]"]
    assert run(["simulate", "--out", str(tmp_path)]
               + [arg for o in overrides for arg in ("--override", o)]) == 3
    _one_line_error(capsys, message)
    assert not (tmp_path / "trajectory.csv").exists()


def test_run_abort_exits_3(tmp_path, capsys, monkeypatch):
    # dt = 0.5 is outside RK4's stability region at eps = 0.01: the state
    # overflows and the run aborts with one line, no traceback, exit 3
    assert run(["simulate", "--out", str(tmp_path), "--override", "integrator.dt=0.5",
                "--override", "eps=0.01"]) == 3
    _one_line_error(capsys, "run aborted: non-finite state in run 0 at t = ")
    assert not (tmp_path / "trajectory.csv").exists()

    def broken(*args, **kwargs):
        raise ClfConsistencyError("row 1: psi1 ~ 0 with psi0 = 1 > 0; "
                                  "certificate invariants are broken")

    monkeypatch.setattr(cli, "integrate", broken)
    assert run(["simulate", "--out", str(tmp_path)]) == 3
    _one_line_error(capsys, "run aborted: row 1: psi1 ~ 0")


# ---------------------------------------------------------------------------
# the JSON renderer: one pass gives the hashed compact text and the written
# indented text; json.dumps is the oracle for both


def _nulled(data):
    """data as json.dumps should see it: NaN and infinities become None, tuples lists."""
    if isinstance(data, float):
        return data if np.isfinite(data) else None
    if isinstance(data, dict):
        return {key: _nulled(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [_nulled(value) for value in data]
    return data


SPECIAL_FLOATS = [-0.0, 5e-324, 1e16, 1e308, float("nan"), float("inf"), float("-inf")]
_floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
_leaves = (st.none() | st.booleans() | st.integers() | _floats | _floats.map(np.float64)
           | st.text() | st.lists(_floats) | st.lists(_floats.map(np.float64)).map(tuple))
_json_values = st.recursive(
    _leaves, lambda children: (st.lists(children) | st.lists(children).map(tuple)
                               | st.dictionaries(st.text(), children)), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example({"q": 'say "hi"\\', "c": "\x00\x1f\n\t\x7f", "u": "\u00e9\u2603\U0001f600"})
@example([True, 1, False, 0, None, 1.0, [], {}, (), [[]], {"": {}}])
@example({"a": [1.0, float("nan"), -float("inf"), 2.5], "b": [1e308, 1e308]})
@example((np.float64(-0.0), np.float64("nan"), 5e-324))
def test_render_matches_json_dumps(data):
    compact, indented = cli._render(data, "")
    want = _nulled(data)
    assert compact == json.dumps(want, sort_keys=True, separators=(",", ":"))
    assert indented == json.dumps(want, sort_keys=True, indent=2)
    assert compact == cli.canonical_json(want)


@pytest.mark.parametrize("data", [np.bool_(True), [1.0, np.bool_(False)], {"a": np.int64(3)},
                                  [np.float32(1.5)], {"a": {1, 2}}])
def test_render_refuses_what_json_dumps_refuses(data):
    with pytest.raises(TypeError):
        json.dumps(data)
    with pytest.raises(TypeError):
        cli._render(data, "")


@pytest.mark.parametrize("data", [{1: 2.0}, {"a": {None: 1}}, {"a": 1, 2: 3}])
def test_render_refuses_a_key_that_is_not_a_str(data):
    # json.dumps would write such a key as a string; no payload or config has one
    with pytest.raises(TypeError):
        cli._render(data, "")


def test_csv_provenance_header_is_the_compact_config(tmp_path):
    config = {"a": [0.1, float(2**60)], "b": {"c": None, "d": "x\"y"}, "e": True, "seed": 3,
              "out": "elsewhere"}
    path = tmp_path / "t.csv"
    cli._write_csv(path, config, ["a"], [[1.0]])
    head = path.read_text(encoding="utf-8").splitlines()[:3]
    assert head[0] == f"# config={cli.canonical_json(cli.embeddable(config))}"
    assert head[1] == f"# config_hash={cli.config_hash(config)}"


def test_largest_certificate_is_json_dumps_bytes(tmp_path):
    # tools/output_digest.py's synth_n30 case: n = 30, the largest certificate.json
    spec = importlib.util.spec_from_file_location("output_digest", OUTPUT_DIGEST)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    assert run([*digest.CASES["synth_n30"], "--out", str(tmp_path)]) == 0
    text = (tmp_path / "certificate.json").read_text(encoding="utf-8")
    body = json.loads(text)
    assert len(body["payload"]["P"]) == 30
    assert text == json.dumps(body, sort_keys=True, indent=2) + "\n"
    payload_text = cli.canonical_json(body["payload"])
    assert body["content_hash"] == hashlib.sha256(payload_text.encode()).hexdigest()
    assert body["config_hash"] == cli.config_hash(body["config"])


# ---------------------------------------------------------------------------
# the parser: one for every command, options before or after the command name

OPTIONS = ["--config", "{tmp}/cfg.json", "--seed", "7",
           "--override", "eps=0.2", "--override", "disturbance.amplitude=0.01",
           "--override", "eps=0.3"]


def _resolved(argv):
    args = cli.make_parser().parse_args(argv)
    return args.command, args.override, cli.load_config(args.config, args.override, args.seed,
                                                        args.out)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_options_before_or_after_the_command_resolve_alike(tmp_path, command):
    (tmp_path / "cfg.json").write_text('{"eps_bar": 0.2}')
    options = [a.format(tmp=tmp_path) for a in OPTIONS] + ["--out", str(tmp_path / "o")]
    after = _resolved([command] + options)
    assert _resolved(options + [command]) == after
    assert _resolved(options[:4] + [command] + options[4:]) == after
    name, overrides, config = after
    assert name == command
    assert overrides == ["eps=0.2", "disturbance.amplitude=0.01", "eps=0.3"]  # in the given order
    assert (config["eps"], config["eps_bar"], config["seed"]) == (0.3, 0.2, 7)
    assert config["disturbance"]["amplitude"] == 0.01
    assert config["out"] == str(tmp_path / "o")


def test_benchmark_resolves_every_workload():
    # perfbench/workloads.resolve reads config, override, seed and out of the parsed args
    workloads = _workloads()
    for name, workload in workloads.WORKLOADS.items():
        ops = workload.build_ops(workloads.instance_of(workload, 3))
        configs = workloads.resolve(name, 3)
        assert len(configs) == len(ops) > 0, name
        for op, config in zip(ops, configs):
            assert op.argv[0] in cli.COMMANDS
            assert config["out"] == cli.DEFAULT_CONFIG["out"]
    dims = [(c["k1"], c["k2"]) for c in workloads.resolve("synth_care", 3)]
    assert dims == workloads.SYNTH_DIMS


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["--out", "{tmp}"], "the following arguments are required: command"),
    (["synth", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["synth", "--bogus"], "unrecognized arguments: --bogus"),
], ids=["nothing", "unknown command", "no command", "non-integer seed", "unknown option"])
def test_usage_errors_exit_2(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(tmp=tmp_path) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: orbitclf ") and "Traceback" not in err, err
    assert err.splitlines()[-1].startswith(f"orbitclf: error: {message}"), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_help_lists_the_options(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: orbitclf ")
    for option in ("--config CONFIG", "--out OUT", "--seed SEED", "--override KEY=VALUE"):
        assert option in out, option
