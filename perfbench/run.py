"""orbitclf benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload certify_hopf --seed 0 --seconds 20 --trace 0

Runs the workload's passes in this process through ``orbitclf.cli.main``,
imported from the ``src/`` tree beside this directory, for ``--seconds``:
a pass starts while the previous one's duration still fits, and at least
two run.  Every output is gated: exit codes and error messages, the
mandatory certify checks, both Riccati residuals, key scalars against
reference.json, and byte-identical artifacts across passes.  Human-readable lines come first; the last line
of stdout is the JSON result.  ``--trace 0`` reports the end-to-end
metrics, with times corrected for the host's speed (hostspeed.py);
``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics.  README.md beside this file explains the workloads
and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"
#: BENCHMARK.json declares every metric's name and unit; the run checks
#: that it reports exactly the declared set
DECLARED = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 11
#: the host-speed kernel that an import slows down like (hostspeed.py)
SETUP_KERNEL = "python"
MIN_PASSES = 2

#: the set-up child samples its own host speed before and after the work it
#: times, and reports the samples and what they cost
SETUP_CODE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import hostspeed; "
              "t = time.perf_counter(); k0 = hostspeed.kernel_time(sys.argv[5], 10); "
              "cost = time.perf_counter() - t; import orbitclf.cli, workloads; "
              "workloads.resolve(sys.argv[3], int(sys.argv[4])); "
              "t = time.perf_counter(); k1 = hostspeed.kernel_time(sys.argv[5], 10); "
              "cost += time.perf_counter() - t; print('ready', k0, k1, cost, flush=True)")


def import_cli():
    """orbitclf.cli from this checkout's src/; exits non-zero when that is absent."""
    if not (SRC / "orbitclf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no orbitclf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from orbitclf import cli

    if Path(cli.__file__).resolve().parent != SRC / "orbitclf":
        sys.exit(f"perfbench: imported orbitclf from {cli.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# one pass


def run_op(cli, op: workloads.Op, out: Path) -> dict:
    """Run one CLI operation; ``exit`` is None when it raised."""
    out.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(op.argv) + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an operation that raises is a measured outcome
        code = None
        print(f"{type(exc).__name__}: {exc}", file=stderr)
    return {"exit": code, "message": stderr.getvalue().strip(),
            "latency_s": time.perf_counter() - start}


def run_pass(cli, workload: workloads.Workload, ops: list, out: Path,
             reference: dict | None, tracer: tracing.Tracer | None = None,
             speed: hostspeed.HostSpeed | None = None) -> dict:
    """Run every operation once and gate its outputs; ``wall_s`` covers both.

    With ``speed``, ``corrected_s`` and each outcome's ``corrected_latency_s``
    are the same times corrected for the host's speed, and ``wall_s`` leaves
    out the calibration.
    """
    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    if speed is not None:
        speed.start_pass()

    cpu0 = time.process_time()
    start = time.perf_counter()
    outcomes, hashes = [], {}
    with span("pass"):
        for op in ops:
            if speed is not None:
                speed.recalibrate()  # a short operation gets a sample of its own
                op_start = speed.read()[1]
            with span(f"op:{op.label}"):
                outcome = run_op(cli, op, out / op.label)
            if speed is not None:
                outcome["corrected_latency_s"] = speed.read()[1] - op_start
            with span("gate"):
                try:
                    outcome["failures"] = workloads.gate(
                        workload, op, outcome, out / op.label, reference)
                except (OSError, KeyError, TypeError, ValueError) as exc:
                    outcome["failures"] = [f"unreadable output: {type(exc).__name__}: {exc}"]
                hashes.update({f"{op.label}/{name}": digest for name, digest
                               in workloads.hash_outputs(out / op.label).items()})
            outcomes.append(outcome)
    result = {"wall_s": time.perf_counter() - start, "cpu_s": time.process_time() - cpu0,
              "outcomes": outcomes, "hashes": hashes, "traced": tracer is not None}
    if speed is not None:
        result["wall_s"], result["corrected_s"] = speed.read()
    return result


# ---------------------------------------------------------------------------
# measurement


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh-interpreter time to import orbitclf and resolve the workload's config.

    Timed from spawn to the child's "ready" line, read from a pipe, so that
    neither interpreter teardown nor a polling wait enters the figure.
    Returns the raw samples and the same corrected for the host's speed,
    which the child samples itself, since it need not run on this process's
    CPU; the samples' own time is left out of both.
    """
    samples, corrected = [], []
    reference_s = hostspeed.KERNELS[SETUP_KERNEL][1]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR),
                               name, str(seed), SETUP_KERNEL],
                              stdout=subprocess.PIPE, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.close()
            child.wait(timeout=60)
        words = line.split()
        if child.returncode != 0 or len(words) != 4 or words[0] != b"ready":
            sys.exit(f"perfbench: set-up child exited {child.returncode} after {line!r}")
        before, after, cost = map(float, words[1:])
        samples.append(elapsed - cost)
        corrected.append(samples[-1] * 2 * reference_s / (before + after))
    return samples, corrected


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def blas_threads():
    """OpenBLAS's own thread count, or None when its library is not found."""
    import numpy as np

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def layer_metrics(tracer: tracing.Tracer) -> dict:
    """The per-layer figures of one traced pass; times are totals in seconds."""
    calls, total = tracer.calls, tracer.total_s
    steps, step_s = calls["simulator.rk4_step"], total["simulator.rk4_step"]
    mu_calls, rhs_calls = calls["clf.min_norm_mu"], calls["plants.rhs"]
    metrics = {"output_dynamics.build_fg.calls": calls["output_dynamics.build_fg"],
               "riccati.certificate.s": total["riccati.certificate"]}
    for name in ("riccati.solve_care", "riccati.solve_lyapunov", "riccati.sym_eig",
                 "clf.min_norm_mu", "disturbance.sample", "simulator.integrate"):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = total[name]
    metrics.update({
        "clf.min_norm_mu.active_ratio": tracer.mu_nonzero / mu_calls if mu_calls else 0.0,
        "clf.evaluate_clf.calls": calls["clf.evaluate_clf"],
        "clf.u_s_damping.calls": calls["clf.u_s_damping"],
        "plants.rhs.calls": rhs_calls,
        "plants.rhs.us": 1e6 * total["plants.rhs"] / rhs_calls if rhs_calls else 0.0,
        "plants.mech_feedback_linearize.calls": calls["plants.mech_feedback_linearize"],
        "plants.derive_phase_disturbance.s": total["plants.derive_phase_disturbance"],
        "disturbance.sup_norm.s": total["disturbance.sup_norm"],
        "simulator.rk4_steps": steps,
        "simulator.steps_per_s": steps / step_s if step_s else 0.0,
        "simulator.step.s": step_s,
        "simulator.record.s": total["simulator.integrate"] - step_s,
        "cli.build_closed_loop.calls": calls["cli.build_closed_loop"],
        "cli.write.s": total["cli.write"],
        "cli.bytes_written": tracer.bytes_written,
    })
    for name in ("check_zero_stability", "check_asymptotic_gain", "check_iss_lyapunov",
                 "check_composite_sandwich", "fit_eiss_envelope"):
        metrics[f"certify.{name}.s"] = total[f"certify.{name}"]
    return metrics


def trace_report(plain: list[dict], traced: list[dict], tracers: list) -> dict:
    """Per-layer metric values; prints the self-time table.

    Layer figures are medians over the traced passes; ``cli.cpu_s`` is the
    CPU time of the fastest untraced pass, and ``trace.overhead_s`` compares
    the fastest traced pass with it.
    """
    per_pass = [layer_metrics(t) for t in tracers]
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    fastest = min(plain, key=lambda p: p["wall_s"])
    plain_wall = fastest["wall_s"]
    traced_wall = min(p["wall_s"] for p in traced)
    values["cli.cpu_s"] = fastest["cpu_s"]
    values["trace.overhead_s"] = traced_wall - plain_wall

    last = tracers[-1]
    print(f"{'traced name':34s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
    for name in sorted(last.calls, key=lambda n: -last.self_s[n]):
        print(f"{name:34s} {last.calls[name]:9d} {last.total_s[name]:10.4f} "
              f"{last.self_s[name]:10.4f}")
    layers: dict[str, float] = {}
    for name, self_s in last.self_s.items():
        # the benchmark's own spans (pass, op:<label>, gate) have no dot
        layer = name.split(".")[0] if "." in name else "perfbench"
        layers[layer] = layers.get(layer, 0.0) + self_s
    print("self time by layer: " + ", ".join(
        f"{k} {v:.4f} s" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    print(f"blocking path: self times sum to {sum(layers.values()):.4f} s = traced wall "
          f"{traced[-1]['wall_s']:.4f} s; fastest untraced pass {plain_wall:.4f} s, "
          f"fastest traced pass {traced_wall:.4f} s, "
          f"trace.overhead_s {values['trace.overhead_s']:.4f} s")
    return values


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    if not REFERENCE.is_file():
        sys.exit(f"perfbench: missing {REFERENCE}")
    declared = json.loads(DECLARED.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in
             declared["per_layer" if args.trace else "end_to_end"]}
    workload = workloads.WORKLOADS[args.workload]
    instance = workloads.instance_of(workload, args.seed)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name].get(str(instance))
    ops = workload.build_ops(instance)
    out_root = OUT / workload.name
    shutil.rmtree(out_root, ignore_errors=True)

    setup_raw, setup = ([], []) if args.trace else measure_setup(workload.name, args.seed)
    passes, tracers = [], []
    speed = None if args.trace else hostspeed.HostSpeed(workload.speed_kernel)
    ticking = [] if args.trace else tracing.install_ticks(speed.tick)
    start = time.perf_counter()
    # stop before a pass that would likely end after --seconds
    while len(passes) < MIN_PASSES or (time.perf_counter() - start
                                       + passes[-1]["wall_s"] <= args.seconds):
        out = out_root / f"pass{len(passes):02d}"
        # a traced run alternates untraced and traced passes, untraced first
        if args.trace and len(passes) % 2 == 1:
            tracer = tracing.Tracer()
            installed = tracing.instrument(tracer)
            try:
                result = run_pass(cli, workload, ops, out, reference, tracer)
            finally:
                not_restored = tracing.restore(installed)
            result["outcomes"][-1]["failures"] += [f"tracing left {a} wrapped"
                                                   for a in not_restored]
            tracers.append(tracer)
        else:
            result = run_pass(cli, workload, ops, out, reference, speed=speed)
        passes.append(result)
    not_restored = tracing.restore(ticking)

    failures = [f"pass {i} {op.label}: {f}" for i, p in enumerate(passes)
                for op, o in zip(ops, p["outcomes"]) for f in o["failures"]]
    failures += [f"ticks left {a} wrapped" for a in not_restored]
    first = passes[0]["hashes"]
    if not first:
        failures.append("no artifacts written")
    for i, p in enumerate(passes[1:], start=1):
        differing = sorted(k for k in first.keys() | p["hashes"].keys()
                           if first.get(k) != p["hashes"].get(k))
        if differing:
            failures.append(f"pass {i} artifacts differ from pass 0: {', '.join(differing)}")
    outcomes = [o for p in passes for o in p["outcomes"]]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o["failures"])
    errors = [o for o in outcomes if o["exit"] != 0]
    correct = not failures

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    env = environment()
    print(f"workload {workload.name} ({workload.why}): seed {args.seed} -> instance "
          f"{instance} of {workload.instances}; closed loop, 1 caller; {len(ops)} ops per "
          f"pass; {len(plain)} untraced and {len(traced)} traced passes")
    print("env " + json.dumps(env, sort_keys=True))
    messages = sorted({o["message"] for o in errors})
    print(f"error_rate     {len(errors) / attempted:.4g}  ({len(errors)} of {attempted} ops "
          f"exited non-zero or raised{': ' + '; '.join(messages) if messages else ''})")

    if args.trace:
        values = trace_report(plain, traced, tracers)
        spans = [{"pass": i, **s} for i, t in enumerate(tracers) for s in t.spans]
        (out_root / "trace_spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    else:
        # Medians over the run's passes of times corrected for the host's
        # speed (hostspeed.py); the raw medians are printed beside them.
        walls = [p["corrected_s"] for p in plain]

        def op_p50(key: str) -> float:
            """Median over the ops of each op's median over the passes, in ms."""
            return statistics.median(statistics.median(1e3 * p["outcomes"][i][key] for p in plain)
                                     for i in range(len(ops)))

        latencies_ms = [1e3 * o["latency_s"] for o in outcomes]
        values = {
            "wall_s": statistics.median(walls),
            "op_p50_ms": op_p50("corrected_latency_s"),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        kernel = sorted(speed.samples)
        print(f"host speed: {len(kernel)} kernel samples, quartiles "
              + " / ".join(f"{1e6 * q:.1f}" for q in statistics.quantiles(kernel, n=4))
              + f" us for the {speed.kernel} kernel, reference {1e6 * speed.reference_s:g} us")
        print(f"wall_s: median of {len(walls)} passes, corrected; raw median "
              f"{statistics.median(p['wall_s'] for p in plain):.6g} s")
        print(f"op_p50_ms: median over {len(ops)} ops of each op's median over {len(plain)} "
              f"passes, corrected; raw {op_p50('latency_s'):.6g} ms")
        if len(latencies_ms) >= 20:
            print(f"op latency p90: {nearest_rank(latencies_ms, 0.9):.6g} ms "
                  f"(nearest rank of {attempted} ops)")
        print(f"setup_s: median of {len(setup)} fresh interpreters, corrected; raw median "
              f"{statistics.median(setup_raw):.6g} s; "
              f"peak_rss_mib: this process")
    if set(values) != set(units):
        failures.append(f"reported metrics {sorted(values)} differ from {DECLARED.name}")
        correct = False
    metrics = {name: {"value": value, "unit": units.get(name, "")}
               for name, value in values.items()}
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")

    for f in failures:
        print(f"GATE FAIL {f}")
    print(f"gates: {'PASS' if correct else 'FAIL'} ({len(failures)} failures; "
          f"{len(first)} artifacts per pass compared across {len(passes)} passes)")
    (out_root / "result.json").write_text(
        json.dumps({"env": env, "metrics": metrics, "failures": failures}, indent=2) + "\n",
        encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
