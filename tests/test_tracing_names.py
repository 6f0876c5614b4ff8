"""The benchmark's tracer and host-speed sampler find orbitclf's functions by
(module, attribute).  A refactor that renames or deletes one of them makes
``perfbench/run.py --trace 1`` crash and the sampler lose its call points,
so every name they list must still resolve, and the law they tick on and
count must still be called once per Hopf RHS."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import orbitclf as oc
from orbitclf import plants
from orbitclf.clf import SCALAR_ROWS

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


def test_hopf_field_calls_the_law_once_and_gets_an_ndarray(monkeypatch):
    # the benchmark ticks the host-speed sampler on every min_norm_mu call,
    # finds it at plants.min_norm_mu, and counts a call as active when
    # result.any(): one field call must make exactly one law call through
    # that attribute, whose ndarray is nonzero exactly where mu is
    dims = oc.OutputDims(1, 2)
    plant = oc.HopfPlant(dims=dims)
    cert = oc.certificate(plant.dyn, np.eye(dims.n_eta), 0.1)
    loop = oc.DisturbedClosedLoop(plant=plant, cert=cert)
    results, law = [], plants.min_norm_mu

    def counting(*args):
        results.append(law(*args))
        return results[-1]

    monkeypatch.setattr(plants, "min_norm_mu", counting)
    rng = np.random.default_rng(3)
    for X in (rng.normal(size=(5, 7)), rng.normal(size=7), rng.normal(size=(SCALAR_ROWS + 1, 7)),
              np.zeros((2, 7))):
        results.clear()
        loop.field(0.0, X, 0.0)
        (gains,) = results
        # one gain per row; a lone state is a batch of one
        assert isinstance(gains, np.ndarray) and gains.shape == (len(np.atleast_2d(X)),)
        mu = oc.min_norm_mu(cert, X[..., :5], oc.matvec(oc.clf_operator(cert, plant.dyn),
                                                        X[..., :5]))
        assert bool(gains.any()) == bool(mu.any())
