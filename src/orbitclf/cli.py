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
from typing import NamedTuple

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

MAX_N_ETA = 60  # desk scale: a synthesis at n_eta = 60 takes about 10 ms


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


class Key(NamedTuple):
    """One config key: dotted path, default, the kinds of value it takes and their domain.  A kind
    is float (a finite number), int (an integral one), str (a string), None (null), a str (that
    string) or a list (nested lists of numbers of that shape: "n" is n_eta, None any length).
    A domain "[lo, hi]", "(" or ")" marking an open end, bounds every number of the value."""

    path: str
    default: object
    kinds: tuple
    domain: str | None = None


#: one row per key: DEFAULT_CONFIG, _validate and the README's config block follow it
CONFIG_KEYS = (
    Key("k1", 0, (int,), f"[0, {MAX_N_ETA}]"),  # k1 and k2 lead the table: see _validate
    Key("k2", 1, (int,), f"[0, {MAX_N_ETA // 2}]"),
    Key("Q", "identity", ("identity", ["n", "n"])),
    Key("eps", 0.1, (float,), "[1e-9, 1]"),  # the CARE's terms grow as 1/eps^3
    Key("eps_bar", 0.1, (float,), "(0, 1]"),
    Key("controller", "min_norm_plus_us", CONTROLLER_MODES),
    Key("sigma", None, (None, float), "(0, inf)"),  # null: choose_sigma's rule
    Key("plant.kind", "hopf", PLANT_KINDS),
    Key("plant.omega", 1.0, (float,)),
    Key("plant.lambda_h", 1.0, (float,), "(0, inf)"),
    Key("plant.r0", 1.0, (float,), "(0, 1e50]"),  # V_Z grows as r0^4, to inf past 1.3e77
    Key("plant.coupling", 0.2, (float, [2, "n"]), "[-1e50, 1e50]"),  # keeps L_q, sigma finite
    Key("plant.y1_rate", 1.0, (float,), "(0, inf)"),
    Key("plant.annulus_fraction", 0.5, (float,), "(0, 1)"),
    # the mech stage writes q1_plus - q1_minus and alpha's differences in: each stays finite
    Key("plant.q1_minus", 0.0, (float,), "[-1e300, 1e300)"),  # below q1_plus: open above
    Key("plant.q1_plus", 1.0, (float,), "(-1e300, 1e300]"),
    Key("plant.alpha", [0.0, 0.1, 0.3, 0.3, 0.1, 0.0], ([6],), "[-1e300, 1e300]"),
    Key("plant.v_d", 1.0, (float,)),
    Key("disturbance.kind", "sinusoid", KINDS),
    Key("disturbance.amplitude", 0.002, (float,)),
    Key("disturbance.frequency", 0.5, (float,), "[0, inf)"),  # as sup_norm's closed form takes it
    Key("disturbance.dwell", 0.5, (float,), "(0, inf)"),
    Key("disturbance.seed", None, (int, None)),  # null: the top-level seed
    Key("integrator.dt", 0.001, (float,), "(0, inf)"),
    Key("integrator.horizon", 20.0, (float,), "(0, inf)"),
    Key("initial.eta", None, (["n"], None)),  # null: dims-aware defaults
    Key("initial.z", None, ([2], None)),
    Key("initial.x", None, ([4], None)),
    Key("sweep.eps_grid", [0.5, 0.2, 0.1, 0.05], ([None],), "[1e-9, 1]"),
    Key("sweep.amplitude_grid", [0.0, 0.01, 0.02, 0.04], ([None],)),
    Key("settle_fraction", 0.5, (float,), "(0, 1)"),
    Key("seed", 0, (int,)),
    Key("out", "runs", (str,)),
)

DEFAULT_CONFIG: dict = {}
for _key in CONFIG_KEYS:  # a path lies at most one section deep
    _section, _, _name = _key.path.rpartition(".")
    (DEFAULT_CONFIG.setdefault(_section, {}) if _section else DEFAULT_CONFIG)[_name] = _key.default


def _merge(config: dict, given: dict, path: str = "") -> None:
    """given merged into config in place: an unknown key or a section not an object is an error."""
    for key, value in given.items():
        where = f"{path}.{key}" if path else key
        if key not in config:
            raise ConfigError(f"unknown config key: {where}")
        if not isinstance(config[key], dict):
            config[key] = value
        elif isinstance(value, dict):
            _merge(config[key], value, where)
        else:
            raise ConfigError(f"{where} must be a JSON object")


def load_config(path: str | None, overrides: list[str], seed: int | None,
                out: str | None) -> dict:
    """Resolve defaults <- file <- overrides <- flags into a validated config."""
    given: dict = {}
    if path is not None:
        try:
            given = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
            raise ConfigError(f"cannot read config {path}: {reason}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config JSON at line {exc.lineno} column {exc.colno}: "
                              f"{exc.msg}") from exc
        if not isinstance(given, dict):
            raise ConfigError("config root must be a JSON object")
    config = copy.deepcopy(DEFAULT_CONFIG)
    _merge(config, given)
    for item in overrides:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        section, _, name = key.rpartition(".")
        node = config.get(section) if section else config
        if not isinstance(node, dict):
            raise ConfigError(f"unknown config key: {key}")
        _merge(node, {name: value}, section)
    if seed is not None:
        config["seed"] = seed
    if out is not None:
        config["out"] = out
    _validate(config)
    return config


def _is_number(value, n=None) -> bool:  # n: a row's test takes n_eta too
    # NaN, an infinity or an integer past the floats is no number: no standard JSON output
    # could embed it, and no float computation could take it; nor is a bool
    if isinstance(value, float):
        return math.isfinite(value)
    return type(value) is int and abs(value) <= sys.float_info.max


def _is_array(value, shape: list, n: int, number) -> bool:
    """value is nested lists of this shape ("n" is n, None any length) of entries passing number."""
    return (isinstance(value, list) and (n if shape[0] == "n" else shape[0]) in (None, len(value))
            and (all(map(number, value)) if len(shape) == 1
                 else all(_is_array(row, shape[1:], n, number) for row in value)))


def _row(key: Key) -> tuple:
    """A row's test (value, n_eta) -> bool, built once, and what the row takes, as its error
    message says it: "a number in (0, 1]" and the like, "{n}" standing for n_eta."""
    number = _is_number
    if key.domain is not None:  # an open end as its next float inward, exact for integers too
        lo, hi = map(float, key.domain[1:-1].split(","))
        lo = lo if key.domain[0] == "[" else math.nextafter(lo, math.inf)
        hi = hi if key.domain[-1] == "]" else math.nextafter(hi, -math.inf)
        number = lambda v, n=None: _is_number(v) and lo <= v <= hi  # at ends 0, 1 and inf

    values = [kind for kind in key.kinds if kind is None or type(kind) is str]  # null, texts
    tests, texts = [lambda v, n: v in values] if values else [], []
    for kind in key.kinds:
        if kind is None or type(kind) is str:
            texts.append(json.dumps(kind))
        elif type(kind) is list:
            tests.append(lambda v, n, shape=kind: _is_array(v, shape, n, number))
            size = ["{n}" if d == "n" else d for d in kind]
            texts.append(f"a {size[0]}x{size[1]} matrix of numbers" if len(kind) == 2 else
                         "a list of numbers" if kind[0] is None else f"a list of {size[0]} numbers")
        else:
            tests.append({float: number, str: lambda v, n: type(v) is str,
                          int: lambda v, n: number(v) and (type(v) is int or v.is_integer())}[kind])
            texts.append({float: "a number", int: "an integer", str: "a string"}[kind])
    text = ", ".join(texts[:-1]) + " or " * (len(texts) > 1) + texts[-1]
    test = tests[0]
    for other in tests[1:]:  # either kind
        test = lambda v, n, first=test, other=other: first(v, n) or other(v, n)
    return test, text + f" in {key.domain}" * bool(key.domain)


_ROWS = [(*key.path.rpartition("."), *_row(key), key.path) for key in CONFIG_KEYS]


def _validate(config: dict) -> None:
    """Every row of CONFIG_KEYS, then the rules that tie keys together."""
    n = 0
    for section, _, name, test, text, path in _ROWS:
        value = (config[section] if section else config)[name]
        if not test(value, n):
            raise ConfigError(f"{path} must be {text.format(n=n)}, got {value!r}")
        if path == "k2":  # k1 and k2 lead the table: n_eta is bounded before any shape in n
            n = int(config["k1"]) + 2 * int(value)
            if not 1 <= n <= MAX_N_ETA:
                raise ConfigError(f"k1 + 2*k2 must be in [1, {MAX_N_ETA}], got {n}")
    plant, integ, dist = config["plant"], config["integrator"], config["disturbance"]
    if plant["kind"] == "mech" and not (config["k1"] <= 1 and config["k2"] == 1):
        raise ConfigError("(k1, k2) must be (0, 1) or (1, 1) for the mech plant, "
                          f"got ({config['k1']}, {config['k2']})")
    if not plant["q1_plus"] > plant["q1_minus"]:
        raise ConfigError(f"plant.q1_plus must be above plant.q1_minus = {plant['q1_minus']!r}, "
                          f"got {plant['q1_plus']!r}")
    if not integ["horizon"] >= integ["dt"]:
        raise ConfigError(f"integrator.horizon must be at least integrator.dt = {integ['dt']!r}, "
                          f"got {integ['horizon']!r}")
    # RK4 takes horizon / dt steps; a piecewise-random signal tables horizon / dwell blocks
    for path, step in ("integrator.dt", integ["dt"]), ("disturbance.dwell", dist["dwell"]):
        if not integ["horizon"] / step <= MAX_STEPS:  # an infinite ratio too
            raise ConfigError(f"integrator.horizon / {path} must be at most {MAX_STEPS}, "
                              f"got {integ['horizon'] / step:g}")
    if plant["kind"] == "hopf" and dist["kind"] == "phase_error_driven":  # at amplitude 0 too
        raise ConfigError("phase_error_driven disturbances require the mech plant")
    if (plant["kind"] == "mech" and dist["kind"] not in ("zero", "phase_error_driven")
            and dist["amplitude"] != 0):
        raise ConfigError("the mech plant takes zero or phase_error_driven disturbances")


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
    except ValueError as exc:  # a Q that is not positive definite
        raise ConfigError(str(exc)) from exc
    except CareSolveError as exc:  # an SPD Q too extreme to certify in double precision
        raise ConfigError(f"no RES-CLF certificate for this Q: {exc}") from exc


def build_plant(config: dict, dims: OutputDims):
    p = config["plant"]
    if p["kind"] == "hopf":
        coupling = np.full((2, dims.n_eta), p["coupling"], dtype=float)  # a number or rows
        return HopfPlant(dims=dims, omega=float(p["omega"]), lambda_h=float(p["lambda_h"]),
                         r0=float(p["r0"]), coupling=coupling, y1_rate=float(p["y1_rate"]))
    return MechPlant(alpha=np.asarray(p["alpha"], dtype=float),
                     q1_minus=float(p["q1_minus"]), q1_plus=float(p["q1_plus"]),
                     v_d=float(p["v_d"]) if dims.k1 else None)


def build_signal(config: dict, dims: OutputDims, amplitude: float | None = None) -> DisturbanceSignal:
    d = config["disturbance"]
    amp = float(d["amplitude"]) if amplitude is None else float(amplitude)
    kind = d["kind"] if amp != 0.0 else "zero"
    seed = config["seed"] if d["seed"] is None else d["seed"]
    return DisturbanceSignal(kind=kind, dim=dims.n_mu, amplitude=amp,
                             frequency=float(d["frequency"]), dwell=float(d["dwell"]),
                             seed=int(seed))


def resolve_sigma(config: dict, cert, plant: HopfPlant) -> float:
    if config["sigma"] is not None:
        return float(config["sigma"])
    consts = converse_constants(plant, float(config["plant"]["annulus_fraction"]))
    return cert_mod.choose_sigma(cert, consts, plant.lipschitz_q)


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
        sigma = resolve_sigma(cfg, cert, plant)
        loop = DisturbedClosedLoop(plant=plant, cert=cert, controller=cfg["controller"],
                                   signal=signal, eps_bar=float(cfg["eps_bar"]), sigma=sigma)
    else:
        loop = MechClosedLoop(plant=plant, cert=cert, signal=signal)
    return loop, cert, plant, initial_state(cfg, plant, dims)


def with_amplitudes(config: dict, loop: DisturbedClosedLoop,
                    amplitudes) -> list[DisturbedClosedLoop]:
    """Copies of a Hopf loop whose signals are the config's at each amplitude."""
    return [dataclasses.replace(loop, signal=build_signal(config, loop.cert.dims, amp))
            for amp in amplitudes]


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
              eta_gain <= cert_mod.min_norm_ultimate_bound(cert, 1.0), eta_gain),
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
