"""The benchmark's tracer and host-speed sampler find orbitclf's functions by
(module, attribute).  A refactor that renames or deletes one of them makes
``perfbench/run.py --trace 1`` crash and the sampler lose its call points,
so every name they list must still resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing()
    missing = []
    for _, module, attr, _ in tracing.FUNCTIONS:
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(f"{module}.{attr}")
    for _, module, cls_name, attr in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        if cls is None or not callable(vars(cls).get(attr)):
            missing.append(f"{module}.{cls_name}.{attr}")
    for module, attr in tracing.TICKS:
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(f"{module}.{attr}")
    assert not missing, f"names the benchmark wraps are gone: {missing}"
