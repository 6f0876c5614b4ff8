import json

import numpy as np

from orbitclf import cli

SQRT3 = np.sqrt(3.0)

# short-horizon overrides keep the CLI tests quick; the full-length defaults
# run once in the acceptance suite
FAST = ["--override", "integrator.horizon=8",
        "--override", "sweep.amplitude_grid=[0.0,0.01,0.02]"]


def run(args):
    return cli.main(args)


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

