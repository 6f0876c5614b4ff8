"""Command-line front end: config parsing, run orchestration, file output.

Commands (``COMMANDS``):

    synth     solve the Riccati synthesis and write the certificate JSON
    simulate  integrate one closed-loop run; trajectory .npy + summary JSON
    certify   run the full stability check battery; two trace .npy, report JSON + table
    sweep     epsilon and amplitude sweeps; plot-ready CSVs

Every command takes the same options, ``--config``, ``--out``, ``--seed``
and a repeatable ``--override KEY=VALUE``, so one parser reads them all,
before or after the command name (``orbitclf --help`` lists them).

Every JSON and CSV file embeds the fully resolved configuration and a
content hash, and contains no timestamps, so identical config + seed
reproduces identical bytes; a .npy trace's column names, shape and sha256
are listed under "traces" in its run's JSON file.  Exit codes: 0 all
checks pass, 1 a check in the printed table failed, 2 usage or
configuration error, 3 a run aborted (a state left the finite range, or
the certificate's invariants broke).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import certify as cert_mod
from .certify import Check, report_payload, verdict
from .clf import ClfConsistencyError
from .disturbance import KINDS, DisturbanceSignal, sup_norm
from .output_dynamics import OutputDims, build_fg
from .plants import (
    CONTROLLER_MODES,
    PLANT_KINDS,
    DisturbedClosedLoop,
    HopfPlant,
    MechClosedLoop,
    MechPlant,
    converse_constants,
    orbit_distance,
)
from .riccati import CareSolveError, certificate
from .simulator import MAX_STEPS, SimulationError, integrate, ultimate_bound

DEFAULT_ALPHA = [0.0, 0.1, 0.3, 0.3, 0.1, 0.0]

DEFAULT_CONFIG = {
    "k1": 0,
    "k2": 1,
    "Q": "identity",
    "eps": 0.1,
    "eps_bar": 0.1,
    "controller": "min_norm_plus_us",
    "sigma": None,  # None -> choose_sigma from the certificate and plant constants
    "plant": {
        "kind": "hopf",
        "omega": 1.0,
        "lambda_h": 1.0,
        "r0": 1.0,
        "coupling": 0.2,
        "y1_rate": 1.0,
        "annulus_fraction": 0.5,
        # mech-only fields
        "q1_minus": 0.0,
        "q1_plus": 1.0,
        "alpha": DEFAULT_ALPHA,
        "v_d": 1.0,
    },
    "disturbance": {
        "kind": "sinusoid",
        "amplitude": 0.002,
        "frequency": 0.5,
        "dwell": 0.5,
        "seed": None,  # None -> the top-level seed
    },
    "integrator": {"dt": 0.001, "horizon": 20.0},
    "initial": {"eta": None, "z": None, "x": None},  # None -> dims-aware defaults
    "sweep": {
        "eps_grid": [0.5, 0.2, 0.1, 0.05],
        "amplitude_grid": [0.0, 0.01, 0.02, 0.04],
    },
    "settle_fraction": 0.5,
    "seed": 0,
    "out": "runs",
}


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


# ---------------------------------------------------------------------------
# config handling


def _merge_validate(defaults: dict, given: dict, path: str = "") -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in given.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict) and isinstance(value, dict):
            merged[key] = _merge_validate(defaults[key], value, where)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def load_config(path: str | None, overrides: list[str], seed: int | None,
                out: str | None) -> dict:
    """Resolve defaults <- file <- overrides <- flags into a validated config."""
    given: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
            raise ConfigError(f"cannot read config {path}: {reason}") from exc
        try:
            given = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"malformed config JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(given, dict):
            raise ConfigError("config root must be a JSON object")
    config = _merge_validate(DEFAULT_CONFIG, given)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config key: {key}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config key: {key}")
        if isinstance(value, dict) and isinstance(node[parts[-1]], dict):
            value = _merge_validate(node[parts[-1]], value, key)
        node[parts[-1]] = value
    if seed is not None:
        config["seed"] = seed
    if out is not None:
        config["out"] = out
    _validate(config)
    return config


#: dotted config paths whose value must be a JSON number (None where allowed)
_NUMBERS = ("eps", "eps_bar", "settle_fraction", "plant.omega", "plant.lambda_h",
            "plant.r0", "plant.y1_rate", "plant.annulus_fraction", "plant.q1_minus",
            "plant.q1_plus", "plant.v_d", "disturbance.amplitude", "disturbance.frequency",
            "disturbance.dwell", "integrator.dt", "integrator.horizon")
_OPTIONAL_NUMBERS = ("sigma",)
_INTEGERS = ("k1", "k2", "seed")
_OPTIONAL_INTEGERS = ("disturbance.seed",)
EPS_MIN = 1e-9  # the eps-scaled CARE's terms grow as 1/eps^3: none certifies below 1e-6
R0_MAX = 1e50  # V_Z and the converse constants grow as r0^4, past float range at 1.3e77
MAX_N_ETA = 60  # desk scale: a synthesis at n_eta = 60 takes about 10 ms


def _lookup(config: dict, path: str):
    node = config
    for part in path.split("."):
        if not isinstance(node, dict):
            raise ConfigError(f"{path.rpartition('.')[0]} must be a JSON object")
        node = node[part]
    return node


def _is_number(value) -> bool:
    # a non-finite float has no standard JSON form, so no output could embed it
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def _is_array(value, shape: tuple) -> bool:
    """value is nested lists of numbers of this shape; None in shape is any length."""
    return (isinstance(value, list) and shape[0] in (None, len(value))
            and (all(map(_is_number, value)) if len(shape) == 1  # a row in one pass
                 else all(_is_array(row, shape[1:]) for row in value)))


def _array_text(shape: tuple) -> str:
    if len(shape) == 2:
        return f"a {shape[0]}x{shape[1]} matrix of numbers"
    return "a list of numbers" if shape[0] is None else f"a list of {shape[0]} numbers"


def _validate(config: dict) -> None:
    for path in _NUMBERS + _OPTIONAL_NUMBERS:
        value = _lookup(config, path)
        if not (_is_number(value) or (value is None and path in _OPTIONAL_NUMBERS)):
            raise ConfigError(f"{path} must be a number, got {value!r}")
    if config["sigma"] is not None and not config["sigma"] > 0:
        raise ConfigError(f"sigma must be a positive number, got {config['sigma']!r}")
    for path in _INTEGERS + _OPTIONAL_INTEGERS:
        value = _lookup(config, path)
        if value is None and path in _OPTIONAL_INTEGERS:
            continue
        if not (_is_number(value) and float(value).is_integer()):
            raise ConfigError(f"{path} must be an integer, got {value!r}")
    try:
        n = OutputDims(k1=int(config["k1"]), k2=int(config["k2"])).n_eta
    except ValueError as exc:
        raise ConfigError(f"bad dims: {exc}") from exc
    if n > MAX_N_ETA:  # before any array of n rows is checked or made
        raise ConfigError(f"k1 + 2*k2 must be at most {MAX_N_ETA}")
    arrays = {"sweep.eps_grid": (None,), "sweep.amplitude_grid": (None,),
              "plant.alpha": (6,), "initial.eta": (n,), "initial.z": (2,), "initial.x": (4,)}
    for path, shape in arrays.items():
        value = _lookup(config, path)
        if not (_is_array(value, shape) or (value is None and path.startswith("initial."))):
            raise ConfigError(f"{path} must be {_array_text(shape)}, got {value!r}")
    if config["Q"] != "identity" and not _is_array(config["Q"], (n, n)):
        raise ConfigError(f'Q must be "identity" or {_array_text((n, n))}')
    coupling = config["plant"]["coupling"]
    if not (_is_number(coupling) or _is_array(coupling, (2, n))):
        raise ConfigError(f"plant.coupling must be a number or {_array_text((2, n))}")
    for path in ("eps", "eps_bar"):
        if not 0.0 < float(config[path]) <= 1.0:
            raise ConfigError(f"{path} must lie in (0, 1]")
    for eps in [config["eps"], *config["sweep"]["eps_grid"]]:
        if 0.0 < eps < EPS_MIN:  # a grid value outside (0, 1] is the certificate's to refuse
            raise ConfigError(f"eps must be at least {EPS_MIN:g}, got {eps!r}")
    if not float(config["plant"]["r0"]) <= R0_MAX:
        raise ConfigError(f"plant.r0 must be at most {R0_MAX:g}")
    if config["controller"] not in CONTROLLER_MODES:
        raise ConfigError(f'unknown controller {config["controller"]!r}')
    if config["plant"]["kind"] not in PLANT_KINDS:
        raise ConfigError(f'unknown plant kind {config["plant"]["kind"]!r}')
    if config["disturbance"]["kind"] not in KINDS:
        raise ConfigError(f'unknown disturbance kind {config["disturbance"]["kind"]!r}')
    integ = config["integrator"]
    if float(integ["dt"]) <= 0.0 or float(integ["horizon"]) < float(integ["dt"]):
        raise ConfigError("integrator needs dt > 0 and horizon >= dt")
    if not float(integ["horizon"]) / float(integ["dt"]) <= MAX_STEPS:
        raise ConfigError(f"integrator.horizon / integrator.dt exceeds the {MAX_STEPS} "
                          "step ceiling")
    for path in ("settle_fraction", "plant.annulus_fraction"):
        if not 0.0 < float(_lookup(config, path)) < 1.0:
            raise ConfigError(f"{path} must lie in (0, 1)")


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def embeddable(config: dict) -> dict:
    # the output directory is a disposition flag, not run semantics; keeping it
    # out of the provenance block makes identical runs byte-identical
    return {k: v for k, v in config.items() if k != "out"}


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(embeddable(config)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# run assembly


def q_matrix(config: dict, n: int) -> np.ndarray:
    if config["Q"] == "identity":
        return np.eye(n)
    Q = np.asarray(config["Q"], dtype=float)
    return 0.5 * (Q + Q.T)


def build_certificate(config: dict):
    dims = OutputDims(k1=int(config["k1"]), k2=int(config["k2"]))
    dyn = build_fg(dims)
    Q = q_matrix(config, dims.n_eta)
    try:
        return dyn, certificate(dyn, Q, float(config["eps"]))
    except ValueError as exc:  # a Q that is not positive definite, or an eps outside (0, 1]
        raise ConfigError(str(exc)) from exc
    except CareSolveError as exc:  # an SPD Q too extreme to certify in double precision
        raise ConfigError(f"no RES-CLF certificate for this Q: {exc}") from exc


def build_plant(config: dict, dims: OutputDims):
    p = config["plant"]
    try:  # the constructors reject a non-positive lambda_h, r0 or y1_rate, or q1_plus <= q1_minus
        if p["kind"] == "hopf":
            coupling = np.full((2, dims.n_eta), p["coupling"], dtype=float)  # a number or rows
            return HopfPlant(dims=dims, omega=float(p["omega"]), lambda_h=float(p["lambda_h"]),
                             r0=float(p["r0"]), coupling=coupling, y1_rate=float(p["y1_rate"]))
        if dims.k1 > 1 or dims.k2 != 1:
            raise ValueError(f"the mech plant has k1 = 0 or 1 and k2 = 1, "
                             f"not (k1={dims.k1}, k2={dims.k2})")
        return MechPlant(alpha=np.asarray(p["alpha"], dtype=float),
                         q1_minus=float(p["q1_minus"]), q1_plus=float(p["q1_plus"]),
                         v_d=float(p["v_d"]) if dims.k1 else None)
    except ValueError as exc:
        raise ConfigError(f"plant: {exc}") from exc


def build_signal(config: dict, dims: OutputDims, amplitude: float | None = None) -> DisturbanceSignal:
    d = config["disturbance"]
    amp = float(d["amplitude"]) if amplitude is None else float(amplitude)
    kind = d["kind"] if amp != 0.0 else "zero"
    seed = config["seed"] if d["seed"] is None else d["seed"]
    try:  # the constructor rejects a non-positive dwell of the piecewise-random kind
        return DisturbanceSignal(kind=kind, dim=dims.n_mu, amplitude=amp,
                                 frequency=float(d["frequency"]), dwell=float(d["dwell"]),
                                 seed=int(seed))
    except ValueError as exc:
        raise ConfigError(f"disturbance: {exc}") from exc


def resolve_sigma(config: dict, cert, plant) -> float:
    if config["sigma"] is not None:
        return float(config["sigma"])
    if isinstance(plant, HopfPlant):
        consts = converse_constants(plant, float(config["plant"]["annulus_fraction"]))
        return cert_mod.choose_sigma(cert, consts, plant.lipschitz_q)
    return 1.0


def initial_state(config: dict, plant, dims: OutputDims) -> np.ndarray:
    init = config["initial"]
    if isinstance(plant, HopfPlant):
        eta0 = init["eta"]
        if eta0 is None:
            eta0 = np.full(dims.n_eta, 0.5 / np.sqrt(dims.n_eta))
        z0 = init["z"]
        if z0 is None:
            z0 = [1.2 * plant.r0, 0.0]
        return np.concatenate([np.asarray(eta0, dtype=float), np.asarray(z0, dtype=float)])
    x0 = init["x"]
    if x0 is None:
        tau0 = 0.1
        q1 = plant.q1_minus + tau0 * plant.delta
        x0 = [q1, plant.y2d(tau0) + 0.05, plant.v_d if plant.v_d is not None else 1.0, 0.0]
    return np.asarray(x0, dtype=float)


def build_closed_loop(config: dict, eps: float | None = None):
    """(closed_loop, cert, plant, x0) assembled from the config."""
    cfg = copy.deepcopy(config)
    if eps is not None:
        cfg["eps"] = float(eps)
    dyn, cert = build_certificate(cfg)
    dims = dyn.dims
    plant = build_plant(cfg, dims)
    signal = build_signal(cfg, dims)
    if isinstance(plant, HopfPlant):
        if signal.kind == "phase_error_driven":
            raise ConfigError("phase_error_driven disturbances require the mech plant")
        sigma = resolve_sigma(cfg, cert, plant)
        loop = DisturbedClosedLoop(plant=plant, cert=cert, controller=cfg["controller"],
                                   signal=None if signal.kind == "zero" else signal,
                                   eps_bar=float(cfg["eps_bar"]), sigma=sigma)
    else:
        if signal.kind not in ("zero", "phase_error_driven"):
            raise ConfigError("the mech plant takes zero or phase_error_driven disturbances")
        loop = MechClosedLoop(plant=plant, cert=cert,
                              signal=None if signal.kind == "zero" else signal)
    return loop, cert, plant, initial_state(cfg, plant, dims)


def with_amplitudes(config: dict, loop: DisturbedClosedLoop,
                    amplitudes) -> list[DisturbedClosedLoop]:
    """Copies of a Hopf loop whose signals are the config's at each amplitude."""
    loops = []
    for amp in amplitudes:
        signal = build_signal(config, loop.cert.dims, amp)
        loops.append(dataclasses.replace(loop, signal=None if signal.kind == "zero" else signal))
    return loops


def _require_hopf(config: dict, command: str) -> None:
    if config["plant"]["kind"] != PLANT_KINDS[0]:
        raise ConfigError(f"{command} requires the hopf plant (the mech plant has no "
                          "closed-form orbit); use simulate for mech runs")


# ---------------------------------------------------------------------------
# output helpers


def _render(data, indent: str) -> tuple[str, str]:
    """data's compact JSON text and its text indented from this indent, as json.dumps(...,
    sort_keys=True) writes them but with null for a NaN or an infinity; each leaf is
    formatted once.  A type json.dumps refuses, or a key that is not a str, raises TypeError."""
    if isinstance(data, float):
        text = float.__repr__(data) if math.isfinite(data) else "null"
    elif isinstance(data, str):
        text = encode_basestring_ascii(data)
    elif data is None or isinstance(data, bool):
        text = "null" if data is None else "true" if data else "false"
    elif isinstance(data, (list, tuple)):
        try:  # a list of floats: one map formats them, a NaN or an infinity as "nan" or "[-]inf"
            compact = indented = list(map(float.__repr__, data))
            if "nan" in compact or "inf" in compact or "-inf" in compact:
                compact = indented = ["null" if t in ("nan", "inf", "-inf") else t for t in compact]
        except TypeError:  # data is not empty here
            compact, indented = zip(*[_render(v, indent + "  ") for v in data])
        return _join("[", compact, indented, "]", indent)
    elif isinstance(data, dict):
        items = [(encode_basestring_ascii(k), *_render(data[k], indent + "  "))
                 for k in sorted(data)]
        return _join("{", [f"{n}:{c}" for n, c, _ in items], [f"{n}: {t}" for n, _, t in items],
                     "}", indent)
    else:  # an int: int.__repr__ raises TypeError for any type that json.dumps refuses
        text = int.__repr__(data)
    return text, text


def _join(start: str, compact, indented, end: str, indent: str) -> tuple[str, str]:
    """A container's two texts from its items' two texts; an empty one is "[]" or "{}"."""
    inner = "\n" + indent + "  " if compact else ""
    return (start + ",".join(compact) + end,
            start + inner + ("," + inner).join(indented) + inner[:-2] + end)  # at indent


def _provenance(config: dict, body: str) -> tuple[str, str, str, str]:
    """The config's compact and indented texts, rendered once, their hash and the body's."""
    compact, indented = _render(embeddable(config), "  ")
    return (compact, indented, hashlib.sha256(compact.encode()).hexdigest(),
            hashlib.sha256(body.encode()).hexdigest())


def _write_json(path: Path, config: dict, payload: dict) -> None:
    """Standard JSON (RFC 8259), a non-finite figure written as null.  The payload's compact
    text is hashed and its indented text written: json.dumps(..., sort_keys=True, indent=2)."""
    compact, indented = _render(payload, "  ")
    _, config_text, config_digest, content_digest = _provenance(config, compact)
    path.write_text(f'{{\n  "config": {config_text},\n  "config_hash": "{config_digest}",\n'
                    f'  "content_hash": "{content_digest}",\n  "payload": {indented}\n}}\n',
                    encoding="utf-8")


def _write_csv(path: Path, config: dict, headers: list[str], rows) -> None:
    """'# key=value' provenance lines (the config's compact text), the header, one line per row."""
    # one "%" formats the body; "%.17g" writes a float as format(v, ".17g") does
    rows = np.asarray(rows, dtype=float)
    body = "\n".join([",".join(["%.17g"] * len(headers))] * len(rows)) % tuple(rows.ravel().tolist())
    config_text, _, config_digest, content_digest = _provenance(config, body)
    path.write_text(f"# config={config_text}\n# config_hash={config_digest}\n"
                    f"# content_hash={content_digest}\n{','.join(headers)}\n"
                    + (body + "\n" if len(rows) else ""), encoding="utf-8")


# named for the CSV it wrote, as the benchmark's tracer wraps it, until ROADMAP item 3
def _write_record_csv(path: Path, config: dict, record) -> tuple[str, dict]:
    """A trajectory as a .npy table, columns t, eta_*, z_*, d_*, V_eps, V_Z, V_c, dist; returns
    its file name and its entry (column names, shape, the file's sha256) for the run's JSON
    file, which carries the config.  The header is pinned: format 1.0, '<f8', C order."""
    blocks = {"eta": record.eta, "z": record.z, "d": record.d}
    columns = ["t", *[f"{k}_{i}" for k, v in blocks.items() for i in range(v.shape[1])],
               "V_eps", "V_Z", "V_c", "dist"]
    parts = [record.t, *blocks.values(), record.v_eps, record.v_z, record.v_c, record.dist]
    table = np.empty((len(record), len(columns)), dtype="<f8")  # C order, whatever the parts'
    np.concatenate([part.reshape(len(record), -1) for part in parts], axis=1, out=table)
    text = f"{{'descr': '<f8', 'fortran_order': False, 'shape': {table.shape}, }}"
    text += " " * (-(len(text) + 11) % 64) + "\n"  # padded to 64 bytes, as numpy pads it
    header = b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text.encode("ascii")
    digest = hashlib.sha256(header)
    digest.update(table)  # the table's own buffer, as the file gets it: nothing is copied
    with path.open("wb") as fh:
        fh.writelines([header, table])
    return path.name, {"columns": columns, "shape": list(table.shape), "sha256": digest.hexdigest()}


_rows_csv = _write_csv  # a table of plain rows, such as a sweep's, under its traced name


def _summary(record, settle: float) -> dict:
    return {
        "samples": len(record),
        "dt": record.dt,
        "horizon": float(record.t[-1]),
        "eta_ultimate": ultimate_bound(record, settle),
        "final_orbit_distance": float(record.dist[-1]),
        "max_v_eps": float(np.max(record.v_eps)),
        "max_mu_norm": float(np.max(np.linalg.norm(record.mu, axis=1))),
        "max_us_norm": float(np.max(np.linalg.norm(record.u_s, axis=1))),
        "meta": record.meta,
    }


# ---------------------------------------------------------------------------
# commands


def cmd_synth(config: dict, out_dir: Path) -> int:
    dyn, cert = build_certificate(config)
    _write_json(out_dir / "certificate.json", config, cert.to_dict())
    print(f"gamma = {cert.gamma:.12g}")
    print(f"c1    = {cert.c1:.12g}")
    print(f"c2    = {cert.c2:.12g}")
    print(f"CARE residual        = {cert.care_residual:.3e}")
    print(f"scaled CARE residual = {cert.scaled_residual:.3e}")
    print(f"wrote {out_dir / 'certificate.json'}")
    return 0


def cmd_simulate(config: dict, out_dir: Path) -> int:
    loop, cert, plant, x0 = build_closed_loop(config)
    record = integrate(loop, x0, T=float(config["integrator"]["horizon"]),
                       dt=float(config["integrator"]["dt"]))
    traces = dict([_write_record_csv(out_dir / "trajectory.npy", config, record)])
    _write_json(out_dir / "summary.json", config,
                {**_summary(record, float(config["settle_fraction"])), "traces": traces})
    print(f"simulated {len(record)} samples over {record.t[-1]:g} s")
    print(f"ultimate ||eta|| = {ultimate_bound(record, float(config['settle_fraction'])):.6g}")
    print(f"wrote {out_dir / 'trajectory.npy'} and {out_dir / 'summary.json'}")
    return 0


def run_certify(config: dict, out_dir: Path) -> tuple[dict, list[Check]]:
    """Execute the full check battery and write its files; returns (figures, checks)."""
    _require_hopf(config, "certify")
    amp_grid = sorted(float(a) for a in config["sweep"]["amplitude_grid"])
    if len(amp_grid) < 3 or 0.0 not in amp_grid:
        raise ConfigError("certify needs a sweep.amplitude_grid of at least 3 amplitudes, "
                          "one of them 0")
    settle = float(config["settle_fraction"])
    dt = float(config["integrator"]["dt"])
    horizon = float(config["integrator"]["horizon"])
    samples = round(horizon / dt) + 1  # as integrate records them
    if samples < cert_mod.ZS_MIN_SAMPLES:
        raise ConfigError(f"certify needs at least {cert_mod.ZS_MIN_SAMPLES} samples to assess "
                          f"zero stability; integrator.horizon = {horizon:g} at "
                          f"integrator.dt = {dt:g} gives {samples}")

    loop, cert, plant, x0 = build_closed_loop(config)
    n = cert.dims.n_eta
    with np.errstate(over="ignore", invalid="ignore"):  # inf is off the orbit: integrate aborts
        dist0 = float(orbit_distance(x0[:n], x0[n:], plant))
    if dist0 <= cert_mod.ON_ORBIT_ATOL:
        raise ConfigError(f"certify needs a start off the orbit: x0 lies at orbit distance "
                          f"{dist0:g} <= {cert_mod.ON_ORBIT_ATOL:g}, so the d = 0 run has "
                          "nothing to decay")
    consts = converse_constants(plant, float(config["plant"]["annulus_fraction"]))
    sigma = loop.sigma
    L_q = plant.lipschitz_q
    sigma_ok, sigma_margin = cert_mod.sigma_condition(cert, consts, L_q, sigma)

    main_sig = build_signal(config, cert.dims)
    d_inf = sup_norm(main_sig, horizon)

    # one batch: the main run, the d = 0 run (also amplitude 0 of the grid)
    # and the grid's other amplitudes
    grid_amps = [amp for amp in amp_grid if amp != 0.0]
    loops = [loop] + with_amplitudes(config, loop, [0.0] + grid_amps)
    main_rec, zero_rec, *grid_recs = integrate(loops, np.tile(x0, (len(loops), 1)),
                                               T=horizon, dt=dt)
    eta_ult = ultimate_bound(main_rec, settle)
    l3 = cert_mod.min_norm_ultimate_bound(cert, d_inf)
    with_us = config["controller"] == "min_norm_plus_us"
    l4 = cert_mod.damped_ultimate_bound(cert, loop.eps_bar, d_inf) if with_us else None
    vc_ok, eiss_form_ok, vc_details = cert_mod.check_iss_lyapunov(main_rec, loop, d_inf)
    sandwich_ok = cert_mod.check_composite_sandwich(main_rec, cert, sigma, consts, plant)

    zs_ok, zs_rate = cert_mod.check_zero_stability(zero_rec)
    delta1, delta2 = cert_mod.fit_eiss_envelope(zero_rec)

    rec_of = {0.0: zero_rec, **dict(zip(grid_amps, grid_recs))}
    dist_ults, eta_ults = [], []
    for amp in amp_grid:
        rec = rec_of[amp]
        start = int(np.ceil(settle * (len(rec) - 1)))
        dist_ults.append(float(np.max(rec.dist[start:])))
        eta_ults.append(ultimate_bound(rec, settle))
    ag_gain, ag_intercept, ag_ok = cert_mod.check_asymptotic_gain(
        np.array(amp_grid), np.array(dist_ults))
    eta_gain, _, _ = cert_mod.check_asymptotic_gain(np.array(amp_grid), np.array(eta_ults))

    traces = dict(_write_record_csv(out_dir / f"certify_{name}.npy", config, rec)
                  for name, rec in (("main", main_rec), ("zero", zero_rec)))
    figures = {
        "traces": traces, "eps": cert.eps, "eps_bar": loop.eps_bar, "d_inf": d_inf,
        "eta_ultimate_measured": eta_ult, "eta_bound_min_norm": l3, "eta_bound_damped": l4,
        "sigma": sigma, "sigma_margin": sigma_margin, "zs_rate": zs_rate,
        "ag_gain_estimate": ag_gain, "ag_intercept": ag_intercept,
        "eta_gain_estimate": eta_gain, "e_iss_rate_measured": delta2,
        "extras": {
            "gamma": cert.gamma, "c1": cert.c1, "c2": cert.c2,
            "care_residual": cert.care_residual, "scaled_residual": cert.scaled_residual,
            "converse_constants": {"c4": consts.c4, "c5": consts.c5,
                                   "c6": consts.c6, "c7": consts.c7, "r": consts.r},
            "L_q": L_q,
            "eiss_delta1": delta1,
            "composite_bounds": list(cert_mod.composite_bounds(cert, sigma, consts)),
            "vc_details": vc_details,
            "amplitude_grid": amp_grid,
            "dist_ultimates": dist_ults,
            "eta_ultimates": eta_ults,
        },
    }
    checks = [
        Check("zero stability (ZS)", "zs_ok", zs_ok, zs_rate),
        Check("asymptotic gain (AG)", "ag_ok", ag_ok, ag_gain),
        Check("ISS = ZS and AG", "iss_ok", zs_ok and ag_ok),
        Check("ultimate bound, min-norm", "min_norm_bound_ok",
              eta_ult <= l3 if d_inf > 0.0 else True, l3),
        Check("ultimate bound, with damping", "damped_bound_ok",
              (eta_ult <= l4 if d_inf > 0.0 else True) if with_us else None, l4),
        Check("eta gain <= bound coefficient", "eta_gain_ok",
              eta_gain <= 4.0 * cert.c2 / (cert.gamma * cert.c1 * cert.eps), eta_gain),
        Check("sigma rule margin 0.5", "sigma_condition_ok", sigma_ok, sigma_margin),
        Check("composite V_c decrease", "vc_decrease_ok", vc_ok),
        Check("strict e-ISS inequality", "eiss_form_ok", eiss_form_ok),
        Check("e-ISS decay rate > 0", "e_iss_rate_ok", delta2 > 0.0, delta2),
        Check("composite sandwich", "sandwich_ok", sandwich_ok),
    ]
    _write_json(out_dir / "report.json", config, report_payload(figures, checks))
    return figures, checks


def print_checks(checks: list[Check], report: Path) -> None:
    """The check table, one line per row, and the overall verdict."""
    print(f"{'check':34s} {'status':7s} value")
    for c in checks:
        status = "n/a" if c.ok is None else ("PASS" if c.ok else "FAIL")
        value = "" if c.value is None else f"{c.value:.6g}"
        print(f"{c.label:34s} {status:7s} {value}")
    print(f"overall: {'PASS' if verdict(checks) else 'FAIL'}  (report at {report})")


def cmd_certify(config: dict, out_dir: Path) -> int:
    figures, checks = run_certify(config, out_dir)
    print(f"eps = {figures['eps']:g}   eps_bar = {figures['eps_bar']:g}   "
          f"|d|inf = {figures['d_inf']:g}   sigma = {figures['sigma']:.6g}")
    print(f"measured ultimate ||eta|| = {figures['eta_ultimate_measured']:.6g}   "
          f"e-ISS rate = {figures['e_iss_rate_measured']:.4g}")
    print_checks(checks, out_dir / "report.json")
    return 0 if verdict(checks) else 1


def cmd_sweep(config: dict, out_dir: Path) -> int:
    _require_hopf(config, "sweep")
    settle = float(config["settle_fraction"])
    dt = float(config["integrator"]["dt"])
    horizon = float(config["integrator"]["horizon"])

    # every loop is built, and so every grid value checked, before the grids' sizes
    eps_grid = sorted(float(e) for e in config["sweep"]["eps_grid"])
    eps_loops = [build_closed_loop(config, eps=eps) for eps in eps_grid]
    amps = sorted(float(a) for a in config["sweep"]["amplitude_grid"])
    loop, cert, _, x0 = build_closed_loop(config)
    loops = with_amplitudes(config, loop, amps)
    # a check over no data would pass: each needs a grid that can fail it
    if len(eps_grid) < 2:
        raise ConfigError("sweep needs a sweep.eps_grid of at least 2 values")
    if 0.0 not in amps or amps[-1] <= 0.0:
        raise ConfigError("sweep needs a sweep.amplitude_grid with 0 and an amplitude above 0")

    # one batch: the eps runs, each under its own certificate, then the amplitude runs
    batch = [eps_loop for eps_loop, *_ in eps_loops] + loops
    x0s = [eps_x0 for *_, eps_x0 in eps_loops] + [x0] * len(loops)
    recs = integrate(batch, np.array(x0s), T=horizon, dt=dt)
    d_inf = sup_norm(build_signal(config, cert.dims), horizon)  # the eps runs' one signal
    eps_rows = [[eps, ultimate_bound(rec, settle), cert_mod.min_norm_ultimate_bound(c, d_inf)]
                for eps, (_, c, _, _), rec in zip(eps_grid, eps_loops, recs)]
    amp_rows = [[amp, ultimate_bound(rec, settle), cert_mod.min_norm_ultimate_bound(cert, amp)]
                for amp, rec in zip(amps, recs[len(eps_grid):])]

    _rows_csv(out_dir / "sweep_eps.csv", config,
              ["eps", "eta_ultimate", "theory_bound"], eps_rows)
    _rows_csv(out_dir / "sweep_amplitude.csv", config,
              ["amplitude", "eta_ultimate", "theory_bound"], amp_rows)

    ults = [row[1] for row in eps_rows]
    checks = [
        Check("ultimate increasing in eps", "monotone_in_eps_ok",
              all(a < b for a, b in zip(ults, ults[1:]))),
        Check("ultimate <= 1e-6 at amplitude 0", "zero_amplitude_ok",
              all(row[1] <= 1e-6 for row in amp_rows if row[0] == 0.0)),
        Check("ultimate bound at every amplitude", "bounds_all_ok",
              all(row[1] <= row[2] for row in amp_rows if row[0] > 0.0)),
    ]
    payload = {"eps_rows": eps_rows, "amplitude_rows": amp_rows}
    _write_json(out_dir / "sweep_report.json", config, report_payload(payload, checks))
    for row in eps_rows:
        print(f"eps={row[0]:<6g} ultimate={row[1]:.6g} bound={row[2]:.6g}")
    for row in amp_rows:
        print(f"amp={row[0]:<6g} ultimate={row[1]:.6g} bound={row[2]:.6g}")
    print_checks(checks, out_dir / "sweep_report.json")
    return 0 if verdict(checks) else 1


# ---------------------------------------------------------------------------


#: command name -> its function; the parser's choices and main's dispatch
COMMANDS = {"synth": cmd_synth, "simulate": cmd_simulate, "certify": cmd_certify,
            "sweep": cmd_sweep}


def make_parser() -> argparse.ArgumentParser:
    """One parser for every command: they all take the same four options."""
    parser = argparse.ArgumentParser(
        prog="orbitclf",
        description="RES-CLF synthesis and phase-to-state stability certification")
    parser.add_argument("command", choices=COMMANDS, help="what to run")
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override (u64)")
    parser.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="dotted-path config override, may repeat")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.override, args.seed, args.out)
        out_dir = Path(config["out"])
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {out_dir}: {exc.strerror}") from exc
        return COMMANDS[args.command](config, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, ClfConsistencyError) as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
