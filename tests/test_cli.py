import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from orbitclf import cli, simulator
from orbitclf.certify import Check, verdict
from orbitclf.clf import ClfConsistencyError

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

SQRT3 = np.sqrt(3.0)

# short-horizon overrides keep the CLI tests quick; the full-length defaults
# run once in the acceptance suite
FAST = ["--override", "integrator.horizon=8",
        "--override", "sweep.amplitude_grid=[0.0,0.01,0.02]"]


def run(args):
    return cli.main(args)


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


def test_sweep_outputs(tmp_path, capsys):
    # grids given out of order: output must come back sorted by parameter
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


@pytest.mark.parametrize("command", ["simulate", "certify"])
def test_overflowed_start_is_not_reported_as_a_broken_certificate(tmp_path, capsys, command):
    # eta = (1e170, 0) overflows psi0 and ||psi1||^2 to inf in the first RHS,
    # which marks the row flat: the run aborts (exit 3) saying so
    assert run([command, "--out", str(tmp_path), "--override", "initial.eta=[1e170,0]"]) == 3
    _one_line_error(capsys, "run aborted: row 0: the state overflowed: "
                            "psi0 = inf, ||psi1||^2 = inf")


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
