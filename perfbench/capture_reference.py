"""Capture reference.json: each operation's exit code, error message and key scalars.

    python3 perfbench/capture_reference.py [--workload NAME ...]

Runs one pass of every instance of the named workloads (all by default)
with the code in this checkout and rewrites their entries in
reference.json, leaving the other workloads' entries as they are.  It
refuses to record an operation whose success or failure is not the one
its workload declares, or that exits 0 but fails a check that needs no
reference (a mandatory certify check, a residual ceiling, the eigenvalue
oracle).  Re-capture only in a change that is allowed to alter
the program's outputs, and say so where that change is described.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    cli = run.import_cli()
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8")) if run.REFERENCE.is_file() else {}
    out_root = run.OUT / "capture"
    for name in args.workload or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        entries = {}
        for instance in range(workload.instances):
            entry = {}
            for op in workload.build_ops(instance):
                out = out_root / name / str(instance) / op.label
                shutil.rmtree(out, ignore_errors=True)
                outcome = run.run_op(cli, op, out)
                if (outcome["exit"] == 0) != op.expect_ok:
                    sys.exit(f"{name} instance {instance} {op.label}: exit {outcome['exit']!r} "
                             f"{outcome['message']}, expected {'success' if op.expect_ok else 'failure'}")
                scalars = {}
                if outcome["exit"] == 0:
                    problems = workload.intrinsic(op, out)
                    if problems:
                        sys.exit(f"{name} instance {instance} {op.label}: {'; '.join(problems)}")
                    scalars = workload.scalars(op, out)
                entry[op.label] = {"exit": outcome["exit"], "message": outcome["message"],
                                   "scalars": scalars}
                print(f"{name} {instance} {op.label}: exit {outcome['exit']!r} "
                      f"{outcome['latency_s']:.3f} s {outcome['message']}", flush=True)
            entries[str(instance)] = entry
        reference[name] = entries
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    shutil.rmtree(out_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
