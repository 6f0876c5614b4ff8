"""Tracing from outside the program.

``instrument`` replaces orbitclf's public functions with timing wrappers
at every module attribute through which callers look them up (for example
``orbitclf.plants.min_norm_mu``, which is where the closed loops find the
min-norm law), and ``restore`` puts the original objects back and checks
that they are back.

Coarse boundaries (an operation, a certificate, an integration, a check, a
writer call) are kept as spans with name, start, end and parent.  The
per-step and per-RHS calls are too many to keep one by one (about a
million in one certify), so every wrapped name is also folded into
counters at the same boundary: calls, total time and self time, where self
time is the duration minus the time covered by wrapped children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (counter name, defining module, attribute, keep spans)
FUNCTIONS = (
    ("output_dynamics.build_fg", "orbitclf.output_dynamics", "build_fg", False),
    ("riccati.certificate", "orbitclf.riccati", "certificate", True),
    ("riccati.solve_care", "orbitclf.riccati", "solve_care", False),
    ("riccati.solve_lyapunov", "orbitclf.riccati", "solve_lyapunov", False),
    ("riccati.sym_eig", "orbitclf.riccati", "sym_eig", False),
    ("clf.min_norm_mu", "orbitclf.clf", "min_norm_mu", False),
    ("clf.evaluate_clf", "orbitclf.clf", "evaluate_clf", False),
    ("clf.u_s_damping", "orbitclf.clf", "u_s_damping", False),
    ("plants.mech_feedback_linearize", "orbitclf.plants", "mech_feedback_linearize", False),
    ("plants.derive_phase_disturbance", "orbitclf.plants", "derive_phase_disturbance", False),
    ("disturbance.sample", "orbitclf.disturbance", "sample", False),
    ("disturbance.sup_norm", "orbitclf.disturbance", "sup_norm", False),
    ("simulator.integrate", "orbitclf.simulator", "integrate", True),
    ("simulator.rk4_step", "orbitclf.simulator", "rk4_step", False),
    ("certify.check_zero_stability", "orbitclf.certify", "check_zero_stability", True),
    ("certify.check_asymptotic_gain", "orbitclf.certify", "check_asymptotic_gain", True),
    ("certify.check_iss_lyapunov", "orbitclf.certify", "check_iss_lyapunov", True),
    ("certify.check_composite_sandwich", "orbitclf.certify", "check_composite_sandwich", True),
    ("certify.fit_eiss_envelope", "orbitclf.certify", "fit_eiss_envelope", True),
    ("cli.build_closed_loop", "orbitclf.cli", "build_closed_loop", False),
    ("cli.write", "orbitclf.cli", "_write_json", True),
    ("cli.write", "orbitclf.cli", "_write_record_csv", True),
    ("cli.write", "orbitclf.cli", "_rows_csv", True),
)

# (counter name, defining module, class, method): the closed-loop vector fields
METHODS = (
    ("plants.rhs", "orbitclf.plants", "DisturbedClosedLoop", "field"),
    ("plants.rhs", "orbitclf.plants", "MechClosedLoop", "field"),
)


class Tracer:
    """Spans and per-name counters for one traced pass."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self.mu_nonzero = 0
        self.bytes_written = 0
        # open frames: [name, start, time covered by children, span index or None]
        self._stack: list[list] = []

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def _enter(self, name: str, span: bool) -> list:
        index = None
        if span:
            index = len(self.spans)
            self.spans.append({"name": name, "parent": self._parent_span()})
        frame = [name, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, children, index = frame
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        if index is not None:
            self.spans[index].update(start=start, end=end)

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name: str, fn, span: bool):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper


def _count_active(tracer: Tracer, args, result) -> None:
    if result.any():
        tracer.mu_nonzero += 1


def _count_bytes(tracer: Tracer, args, result) -> None:
    tracer.bytes_written += os.path.getsize(args[0])


_AFTER = {"clf.min_norm_mu": _count_active, "cli.write": _count_bytes}


def _orbitclf_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "orbitclf" or name.startswith("orbitclf."))]


def instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Install wrappers; returns (holder, attribute, original) for ``restore``."""
    installed = []
    modules = _orbitclf_modules()
    for name, module, attr, span in FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        wrapper = tracer.wrap(name, original, span)
        for holder in modules:
            if getattr(holder, attr, None) is original:
                installed.append((holder, attr, original))
                setattr(holder, attr, wrapper)
    for name, module, cls_name, attr in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        original = cls.__dict__[attr]
        installed.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(name, original, False))
    return installed


#: (defining module, attribute): the calls on whose entry an untraced pass
#: may sample the host's speed (hostspeed.py); every workload makes them often
TICKS = (
    ("orbitclf.clf", "min_norm_mu"),
    ("orbitclf.riccati", "solve_lyapunov"),
    ("orbitclf.riccati", "sym_eig"),
)


def _ticking(fn, mark):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        mark()
        return fn(*args, **kwargs)

    return wrapper


def install_ticks(mark) -> list[tuple[object, str, object]]:
    """Make each TICKS function call ``mark()`` on entry; returns what ``restore`` takes.

    A name that this version of orbitclf lacks is skipped: the host's speed
    is then sampled more sparsely, and nothing breaks.
    """
    installed = []
    modules = _orbitclf_modules()
    for module, attr in TICKS:
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            continue
        wrapper = _ticking(original, mark)
        for holder in modules:
            if getattr(holder, attr, None) is original:
                installed.append((holder, attr, original))
                setattr(holder, attr, wrapper)
    return installed


def restore(installed: list[tuple[object, str, object]]) -> list[str]:
    """Put every original back; returns the attributes that are not the original."""
    for holder, attr, original in reversed(installed):
        setattr(holder, attr, original)
    return [f"{getattr(holder, '__name__', holder)}.{attr}"
            for holder, attr, original in installed
            if vars(holder)[attr] is not original]
