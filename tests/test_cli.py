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
from hypothesis import HealthCheck, example, given, settings
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


def _trace(out, name, index):
    """A .npy trace and its column names, after checking its entry in the JSON file index."""
    entry = _strict_json(out / index)["payload"]["traces"][name]
    assert entry["sha256"] == hashlib.sha256((out / name).read_bytes()).hexdigest()
    table = np.load(out / name)
    assert entry["shape"] == list(table.shape) == [table.shape[0], len(entry["columns"])]
    return table, entry["columns"]


def test_simulate_zero_disturbance(tmp_path):
    assert run(["simulate", "--out", str(tmp_path),
                "--override", "disturbance.kind=zero",
                "--override", "integrator.horizon=12"]) == 0
    table, header = _trace(tmp_path, "trajectory.npy", "summary.json")
    assert header == ["t", "eta_0", "eta_1", "z_0", "z_1", "d_0",
                      "V_eps", "V_Z", "V_c", "dist"]
    assert len(table) == int(12 / 0.001) + 1  # horizon/dt + 1 samples
    final_dist = table[-1, -1]
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
    assert (a / "trajectory.npy").read_bytes() == (b / "trajectory.npy").read_bytes()
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
    ("sweep", "sweep.eps_grid=[2.0]", "sweep.eps_grid must be a list of numbers in [1e-9, 1]"),
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
    (["plant.kind=mech", "k1=1", "plant.q1_plus=0"],
     "plant.q1_plus must be above plant.q1_minus = 0.0, got 0"),
    (["plant.lambda_h=-1"], "plant.lambda_h must be a number in (0, inf), got -1"),
    (["plant.r0=0"], "plant.r0 must be a number in (0, 1e50], got 0"),
    (["disturbance.kind=piecewise_constant_random", "disturbance.dwell=0"],
     "disturbance.dwell must be a number in (0, inf), got 0"),
    (["plant.annulus_fraction=1.5"], "plant.annulus_fraction must be a number in (0, 1), got 1.5"),
    (["plant.y1_rate=0"], "plant.y1_rate must be a number in (0, inf), got 0"),
    # sup_norm's closed form read a negative frequency's |d|inf as about 0
    (["disturbance.frequency=-0.5"],
     "disturbance.frequency must be a number in [0, inf), got -0.5"),
], ids=["q1_plus", "lambda_h", "r0", "dwell", "annulus_fraction", "y1_rate", "frequency"])
def test_bad_plant_or_disturbance_exits_2(tmp_path, capsys, overrides, message):
    # the plant and signal constructors raise on each of these too, for library
    # callers; the config table refuses them before anything is built
    args = ["simulate", "--out", str(tmp_path), "--override", "integrator.horizon=0.01"]
    assert run(args + [a for o in overrides for a in ("--override", o)]) == 2
    _one_line_error(capsys, f"config error: {message}")


@pytest.mark.parametrize("command", ["simulate", "certify", "sweep"])
@pytest.mark.parametrize("override, message", [
    ("eps=1e-300", "eps must be a number in [1e-9, 1], got 1e-300"),
    ("sweep.eps_grid=[0.1,1e-300]",
     "sweep.eps_grid must be a list of numbers in [1e-9, 1], got [0.1, 1e-300]"),
    ("plant.r0=1e300", "plant.r0 must be a number in (0, 1e50], got 1e+300"),
    ("k1=1e300", f"k1 must be an integer in [0, {cli.MAX_N_ETA}], got 1e+300"),
    ("k2=1e300", f"k2 must be an integer in [0, {cli.MAX_N_ETA // 2}], got 1e+300"),
    ("k2=31", f"k2 must be an integer in [0, {cli.MAX_N_ETA // 2}], got 31"),  # n_eta = 62
    ("k1=59", f"k1 + 2*k2 must be in [1, {cli.MAX_N_ETA}], got 61"),
    ("k2=0", f"k1 + 2*k2 must be in [1, {cli.MAX_N_ETA}], got 0"),
    ("plant.coupling=1e300", "plant.coupling must be a number or a 2x2 matrix of numbers "
                             "in [-1e50, 1e50], got 1e+300"),
    ("plant.coupling=[[0.2,0.2],[0.2,-1e51]]", "plant.coupling must be a number or a 2x2 matrix"),
    ("disturbance.dwell=1e-300", f"integrator.horizon / disturbance.dwell must be at most "
                                 f"{simulator.MAX_STEPS}, got 5e+298"),
    ("plant.omega=" + "9" * 400, "plant.omega must be a number, got 999"),  # float() overflows
], ids=["eps", "eps_grid", "r0", "k1", "k2", "k2 above the ceiling", "n_eta above the ceiling",
        "no outputs", "coupling", "coupling entry", "dwell", "integer past the floats"])
def test_magnitude_outside_its_domain_exits_2(tmp_path, capsys, command, override, message):
    # each ended in a traceback (non-finite coefficients, an OverflowError, numpy refusing
    # an n_eta x n_eta array or a table of horizon / dwell blocks) or in overflow warnings
    # before its row in the config table gave the key a domain
    out = tmp_path / "out"
    assert run([command, "--out", str(out), "--override", "integrator.horizon=0.05",
                "--override", override]) == 2
    _one_line_error(capsys, f"config error: {message}")
    assert not out.exists()  # refused before the output directory is made


def test_domain_bounds_are_inside_their_domains(tmp_path):
    # each closed finite end of a domain passes _validate; n_eta = 60 synthesizes
    for key in cli.CONFIG_KEYS:
        if key.domain is None:
            continue
        ends = [float(end) for end in key.domain[1:-1].split(",")]
        for end, closed in zip(ends, (key.domain[0] == "[", key.domain[-1] == "]")):
            if closed and np.isfinite(end):
                value = int(end) if int in key.kinds else end
                value = [value] * len(key.default) if isinstance(key.default, list) else value
                # n_eta = k1 + 2 k2 stays in [1, 60]
                others = {("k1", 60): ["k2=0"], ("k2", 0): ["k1=1"]}.get((key.path, end), [])
                cli.load_config(None, others + [f"{key.path}={json.dumps(value)}"], None, None)
    assert run(["synth", "--out", str(tmp_path), "--override", "k2=30"]) == 0


@pytest.mark.parametrize("command", ["simulate", "certify", "sweep"])
@pytest.mark.parametrize("dt", ["1e-9", "1e-310"])  # billions of steps, and an infinite T/dt
def test_step_ceiling_exits_2(tmp_path, capsys, command, dt):
    assert run([command, "--out", str(tmp_path), "--override", f"integrator.dt={dt}"]) == 2
    _one_line_error(capsys, f"integrator.horizon / integrator.dt must be at most "
                            f"{simulator.MAX_STEPS}, got ")


#: DEFAULT_CONFIG as it was written out before the config table built it: every config
#: hash and output byte depends on it
DEFAULT_LITERAL = {
    "k1": 0, "k2": 1, "Q": "identity", "eps": 0.1, "eps_bar": 0.1,
    "controller": "min_norm_plus_us", "sigma": None,
    "plant": {"kind": "hopf", "omega": 1.0, "lambda_h": 1.0, "r0": 1.0, "coupling": 0.2,
              "y1_rate": 1.0, "annulus_fraction": 0.5, "q1_minus": 0.0, "q1_plus": 1.0,
              "alpha": [0.0, 0.1, 0.3, 0.3, 0.1, 0.0], "v_d": 1.0},
    "disturbance": {"kind": "sinusoid", "amplitude": 0.002, "frequency": 0.5, "dwell": 0.5,
                    "seed": None},
    "integrator": {"dt": 0.001, "horizon": 20.0},
    "initial": {"eta": None, "z": None, "x": None},
    "sweep": {"eps_grid": [0.5, 0.2, 0.1, 0.05], "amplitude_grid": [0.0, 0.01, 0.02, 0.04]},
    "settle_fraction": 0.5, "seed": 0, "out": "runs",
}


def test_default_config_is_the_literal_it_replaced():
    assert cli.DEFAULT_CONFIG == DEFAULT_LITERAL
    assert cli.canonical_json(cli.DEFAULT_CONFIG) == cli.canonical_json(DEFAULT_LITERAL)
    assert [key.path for key in cli.CONFIG_KEYS[:2]] == ["k1", "k2"]  # n_eta is read first


def test_readme_config_block_states_the_table():
    # the README's jsonc block, its // comments stripped, is DEFAULT_CONFIG, and each key's
    # line states its domain and its enum's values
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = readme.split("```jsonc\n", 1)[1].split("```", 1)[0].splitlines()
    assert json.loads("\n".join(line.split("//")[0] for line in lines)) == cli.DEFAULT_CONFIG
    for key in cli.CONFIG_KEYS:
        section, _, name = key.path.rpartition(".")
        opens = [i for i, line in enumerate(lines) if f'"{section}": {{' in line]  # its section
        line = next(line for line in lines[opens[0] if section else 0:] if f'"{name}":' in line)
        for text in [key.domain] * bool(key.domain) + [k for k in key.kinds if isinstance(k, str)]:
            assert text in line, (key.path, text, line)


@pytest.mark.parametrize("out", ["5", "[1]", "null", "{}"])
def test_non_text_out_exits_2(tmp_path, capsys, monkeypatch, out):
    # with no --out flag, out=5 reached pathlib and ended in a TypeError traceback
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--override", f"out={out}"]) == 2
    _one_line_error(capsys, "config error: out must be a string, got ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("coupling", ["1e50", "-1e50"])
def test_coupling_at_its_bound_warns_nothing(tmp_path, capsys, coupling):
    # with r0 at its own bound and the most rows of eta, L_q and the chosen sigma stay
    # finite and positive; 1e300 overflowed L_q with warnings on stderr, and exits 2 now
    config = cli.load_config(None, [f"plant.coupling={coupling}", "plant.r0=1e50", "k2=30"],
                             None, None)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        loop, _, plant, _ = cli.build_closed_loop(config)
    assert np.isfinite(plant.lipschitz_q) and 0.0 < loop.sigma < np.inf
    # the run itself overflows in its first step: exit 3, in one line
    assert run(["simulate", "--out", str(tmp_path), "--override", f"plant.coupling={coupling}",
                "--override", "integrator.horizon=0.05"]) == 3
    _one_line_error(capsys, "run aborted: non-finite state in run 0")


@pytest.mark.parametrize("command", ["simulate", "certify", "sweep", "synth"])
def test_phase_error_on_the_hopf_plant_exits_2_at_amplitude_0(tmp_path, capsys, monkeypatch,
                                                               command):
    # at amplitude 0 the main run has no signal, but certify's and sweep's amplitude grids
    # built phase_error_driven signals on the Hopf loop and ended in a traceback; the
    # config's validation refuses it, so synth does too, before any output directory
    monkeypatch.chdir(tmp_path)
    assert run([command, "--override", "disturbance.amplitude=0",
                "--override", "disturbance.kind=phase_error_driven"]) == 2
    _one_line_error(capsys, "config error: phase_error_driven disturbances require the mech plant")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "certify", "sweep", "synth"])
def test_mech_plant_with_an_input_disturbance_exits_2(tmp_path, capsys, monkeypatch, command):
    # simulate refused the default sinusoid on the mech plant only after it had made the
    # output directory, and synth accepted it; at amplitude 0 the run has no signal
    monkeypatch.chdir(tmp_path)
    assert run([command, "--override", "plant.kind=mech", "--override", "k1=1"]) == 2
    _one_line_error(capsys, "config error: the mech plant takes zero or phase_error_driven "
                            "disturbances")
    assert list(tmp_path.iterdir()) == []
    assert run(["synth", "--override", "plant.kind=mech", "--override", "k1=1",
                "--override", "disturbance.amplitude=0"]) == 0


def test_run_aborted_is_one_line_at_any_state_size(tmp_path, capsys):
    # numpy wraps a printed array at 75 characters: the 62 entries of this state spread the
    # abort over 11 stderr lines, every value inside its key's domain
    assert run(["simulate", "--out", str(tmp_path), "--override", "plant.coupling=1e50",
                "--override", "plant.r0=1e50", "--override", "k2=30",
                "--override", "integrator.horizon=0.05"]) == 3
    _one_line_error(capsys, "run aborted: non-finite state in run 0 at t = ")


_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
#: one strategy per JSON type: null, bool, integral and fractional number, non-finite number,
#: string, array, object
_JSON_TYPES = {
    None: st.none(), bool: st.booleans(), int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()),
    "non-finite": st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    str: st.text(max_size=8), list: st.lists(_leaves, max_size=3),
    dict: st.dictionaries(st.text(max_size=3), _leaves, max_size=2),
}


def _wrong_type(key):
    """Values of no JSON type that a row's kinds take (see cli.Key)."""
    taken = set()
    for kind in key.kinds:
        if kind is None or isinstance(kind, list):
            taken.add(None if kind is None else list)
        else:  # a string, an enum's value, or a number
            taken |= {str} if kind is str or isinstance(kind, str) else {int, kind}
    return st.one_of([strategy for name, strategy in _JSON_TYPES.items() if name not in taken])


def _outside(key):
    """Values of a row's own JSON type outside its domain, or None where it has none."""
    texts = [kind for kind in key.kinds if isinstance(kind, str)]
    if texts:  # an enum, or Q's "identity"
        return st.text(max_size=20).filter(lambda text: text not in texts)
    if key.domain is None:  # a list of a fixed length: one of another length
        sizes = [2 if kind[0] == "n" else kind[0] for kind in key.kinds if isinstance(kind, list)]
        if not sizes or sizes[0] is None:
            return None
        return st.lists(st.floats(-1.0, 1.0), max_size=8).filter(lambda v: len(v) != sizes[0])
    lo, hi = (float(end) for end in key.domain[1:-1].split(","))
    closed = (key.domain[0] == "[", key.domain[-1] == "]")
    if int in key.kinds:  # dims only just above the ceiling: nothing is allocated
        sides = [st.integers(max_value=int(lo) - closed[0]),
                 st.integers(min_value=int(hi) + closed[1], max_value=int(hi) + 8)]
    else:
        # a closed end's next float outward: never -0.0 below a closed 0
        below = float(np.nextafter(lo, -np.inf)) if closed[0] else lo
        sides = [st.floats(max_value=below, allow_infinity=False)]
        if hi < np.inf:
            above = float(np.nextafter(hi, np.inf)) if closed[1] else hi
            sides.append(st.floats(min_value=above, allow_infinity=False))
    numbers = st.one_of(sides)
    return numbers if float in key.kinds or int in key.kinds else numbers.map(lambda x: [0.1, x])


@settings(max_examples=8, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_row_refuses_a_value_outside_it(tmp_path, capsys, monkeypatch, data):
    # for each row of the table, a value outside its domain and a value of the wrong type:
    # each command exits 2 with one line naming the key, makes no output directory and
    # neither synthesizes nor integrates anything
    def refused(*args, **kwargs):
        raise AssertionError("a refused config reached a synthesis or an integration")

    monkeypatch.chdir(tmp_path)  # no --out: the out row is drawn too
    monkeypatch.setattr(cli, "build_certificate", refused)
    monkeypatch.setattr(cli, "integrate", refused)
    for key in cli.CONFIG_KEYS:
        outside = _outside(key)
        values = [data.draw(_wrong_type(key), label=f"{key.path} of a wrong type")]
        if outside is not None:
            values.append(data.draw(outside, label=f"{key.path} outside its domain"))
        for value in values:
            for command in sorted(cli.COMMANDS):
                assert run([command, "--override", f"{key.path}={json.dumps(value)}"]) == 2
                _one_line_error(capsys, f"config error: {key.path} must be ")
                assert list(tmp_path.iterdir()) == []


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
    table, _ = _trace(tmp_path, "trajectory.npy", "summary.json")
    assert len(table) == int(0.5 / 0.001) + 1
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
    # plant.v_d and writes the samples and summary figures that the spelling
    # "k1=0 plant.v_d=null" wrote before k1 did, but for V_eps, whose sums no
    # longer go through BLAS (its column and max_v_eps moved in the last bit;
    # eta, z and d did not); the trace holds bit for bit the floats of the
    # CSV rows whose hash was pinned here before (a0d02f80...), and the
    # summary payload is the one pinned before (7812a31b...) plus "traces"
    assert run(["simulate", "--out", str(tmp_path)]
               + [a for o in MECH_K1_0 for a in ("--override", o)]) == 0
    _, header = _trace(tmp_path, "trajectory.npy", "summary.json")
    assert header == ["t", "eta_0", "eta_1", "z_0", "z_1", "d_0", "V_eps", "V_Z", "V_c", "dist"]
    assert hashlib.sha256((tmp_path / "trajectory.npy").read_bytes()).hexdigest() == (
        "3125c5adfba48981a4aee13b94589123096537a141b1ed3b48fddbc5f21ea6ab")
    summary = _strict_json(tmp_path / "summary.json")
    assert summary["content_hash"] == (
        "98c5ada1ac1c1b06b6eddbe37073d382bc903087ab93109462148217e47cdb48")


@pytest.mark.parametrize("args, index", [
    (["simulate"] + [a for o in MECH_K1_0 for a in ("--override", o)], "summary.json"),
    (["certify"] + FAST, "report.json"),
], ids=["simulate mech", "certify hopf"])
def test_traces_are_the_record_columns_bitwise(tmp_path, monkeypatch, args, index):
    # each .npy trace is the pinned format 1.0 header, then the record's columns as
    # row-major little-endian float64 bytes, NaN columns included; its entry in the
    # JSON file gives the column names, the shape and the file's sha256
    records = {}
    write = cli._write_record_csv

    def keep(path, config, record):
        records[path.name] = record
        return write(path, config, record)

    monkeypatch.setattr(cli, "_write_record_csv", keep)
    assert run(args + ["--out", str(tmp_path)]) == 0
    traces = _strict_json(tmp_path / index)["payload"]["traces"]
    assert sorted(traces) == sorted(records) == sorted(p.name for p in tmp_path.glob("*.npy"))
    for name, rec in records.items():
        want = np.column_stack([rec.t, rec.eta, rec.z, rec.d, rec.v_eps, rec.v_z, rec.v_c,
                                rec.dist])
        assert np.load(tmp_path / name).tobytes() == want.tobytes()
        data = (tmp_path / name).read_bytes()
        header = b"{'descr': '<f8', 'fortran_order': False, 'shape': (%d, %d), }" % want.shape
        assert data[:128] == (b"\x93NUMPY\x01\x00v\x00" + header).ljust(127) + b"\n"
        assert data[128:] == want.astype("<f8").tobytes()
        n = rec.eta.shape[1]
        assert traces[name] == {
            "columns": ["t", *[f"eta_{i}" for i in range(n)], "z_0", "z_1",
                        *[f"d_{i}" for i in range(rec.d.shape[1])], "V_eps", "V_Z", "V_c", "dist"],
            "shape": list(want.shape), "sha256": hashlib.sha256(data).hexdigest()}
    if index == "summary.json":  # the mech plant has no orbit: V_Z, V_c and dist are NaN
        assert np.isnan(want[:, -3:]).all() and not np.isnan(want[:, :-3]).any()


@pytest.mark.parametrize("override, message", [
    ("plant.v_d=null", "config error: plant.v_d must be a number, got None"),
    ("k2=2", "config error: (k1, k2) must be (0, 1) or (1, 1) for the mech plant, got (0, 2)"),
    ("k1=2", "config error: (k1, k2) must be (0, 1) or (1, 1) for the mech plant, got (2, 1)"),
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
    for name in ("certify_main.npy", "certify_zero.npy"):
        assert len(_trace(tmp_path, name, "report.json")[0]) == int(8 / 0.001) + 1


@pytest.mark.parametrize("override, message", [
    ("eps=NaN", "eps must be a number in [1e-9, 1], got nan"),
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
    _one_line_error(capsys, "config error: sigma must be null or a number in (0, inf), "
                            f"got {sigma}")
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
    assert list(tmp_path.iterdir()) == []  # no trace, no summary


def test_run_abort_exits_3(tmp_path, capsys, monkeypatch):
    # dt = 0.5 is outside RK4's stability region at eps = 0.01: the state
    # overflows and the run aborts with one line, no traceback, exit 3
    assert run(["simulate", "--out", str(tmp_path), "--override", "integrator.dt=0.5",
                "--override", "eps=0.01"]) == 3
    _one_line_error(capsys, "run aborted: non-finite state in run 0 at t = ")
    assert list(tmp_path.iterdir()) == []  # no trace, no summary

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
