import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitclf as oc
from orbitclf.disturbance import DisturbanceSignal, sample, sup_norm


def test_zero_kind():
    sig = DisturbanceSignal(kind="zero", dim=2)
    for t in (0.0, 1.0, 97.3):
        assert np.array_equal(sample(sig, t), [0.0, 0.0])
    assert sup_norm(sig, 10.0) == 0.0


def test_constant_kind():
    sig = DisturbanceSignal(kind="constant", dim=1, amplitude=-0.3)
    assert np.allclose(sample(sig, 5.0), [-0.3])
    assert sup_norm(sig, 10.0) == 0.3


def test_sinusoid_bounds():
    sig = DisturbanceSignal(kind="sinusoid", dim=1, amplitude=0.3, frequency=2.0)
    ts = np.linspace(0.0, 3.0, 4001)
    vals = np.array([sample(sig, t)[0] for t in ts])
    assert np.max(np.abs(vals)) <= 0.3 + 1e-15
    assert sup_norm(sig, 3.0) == 0.3


@pytest.mark.parametrize("frequency", [0.5, -0.5])
@pytest.mark.parametrize("horizon", [20.0, 0.3], ids=["long", "short"])
def test_sinusoid_sup_norm_is_the_dense_grid_maximum(frequency, horizon):
    # a negative frequency is the sinusoid's mirror image, -d(t) at |f|: the same sup,
    # |A| on a horizon past a quarter period and |A sin(2 pi |f| T)| on a shorter one
    sig = DisturbanceSignal(kind="sinusoid", dim=1, amplitude=-0.3, frequency=frequency)
    dense = np.max(np.abs(sig.closed_form(np.linspace(0.0, horizon, 200_001))))
    assert dense <= sup_norm(sig, horizon) and np.isclose(dense, sup_norm(sig, horizon),
                                                           rtol=1e-9, atol=0.0)


def test_piecewise_deterministic_and_exact_norm():
    a = DisturbanceSignal(kind="piecewise_constant_random", dim=3, amplitude=0.2,
                          dwell=0.25, seed=123)
    b = DisturbanceSignal(kind="piecewise_constant_random", dim=3, amplitude=0.2,
                          dwell=0.25, seed=123)
    ts = np.linspace(0.0, 5.0, 777)
    for t in ts:
        va, vb = sample(a, t), sample(b, t)
        assert np.array_equal(va, vb)  # same seed, identical signal
        assert np.isclose(np.linalg.norm(va), 0.2, atol=1e-14)
    c = DisturbanceSignal(kind="piecewise_constant_random", dim=3, amplitude=0.2,
                          dwell=0.25, seed=124)
    assert not np.array_equal(sample(a, 0.1), sample(c, 0.1))
    assert sup_norm(a, 5.0) == 0.2


def test_piecewise_blocks_change():
    sig = DisturbanceSignal(kind="piecewise_constant_random", dim=2, amplitude=1.0,
                            dwell=0.5, seed=9)
    assert np.array_equal(sample(sig, 0.1), sample(sig, 0.49))
    assert not np.array_equal(sample(sig, 0.49), sample(sig, 0.51))


@settings(max_examples=50, derandomize=True)
@given(st.floats(1e-6, 1e3), st.sampled_from(["constant", "sinusoid", "piecewise_constant_random"]))
def test_sup_norm_scales_exactly(lam, kind):
    base = DisturbanceSignal(kind=kind, dim=2, amplitude=0.07, frequency=1.0, dwell=0.3, seed=1)
    scaled = DisturbanceSignal(kind=kind, dim=2, amplitude=0.07 * lam, frequency=1.0,
                               dwell=0.3, seed=1)
    assert np.isclose(sup_norm(scaled, 8.0), lam * sup_norm(base, 8.0), rtol=1e-12)


def test_phase_error_kind_requires_evaluator():
    # the phase error e samples as the sinusoid does, in entry 0; the input
    # disturbance that it induces depends on the state, so it has no sup norm
    sig = DisturbanceSignal(kind="phase_error_driven", dim=2, amplitude=0.02)
    e = sample(sig, 0.25)
    assert e.tobytes() == np.array([0.02 * np.sin(2.0 * np.pi * 1.0 * 0.25), 0.0]).tobytes()
    assert np.isclose(e[0], 0.02)
    with pytest.raises(ValueError):
        sup_norm(sig, 1.0)


def test_validation():
    with pytest.raises(ValueError):
        DisturbanceSignal(kind="nope", dim=1)
    with pytest.raises(ValueError):
        DisturbanceSignal(kind="zero", dim=0)
    with pytest.raises(ValueError):
        DisturbanceSignal(kind="piecewise_constant_random", dim=1, dwell=0.0)
    sig = DisturbanceSignal(kind="zero", dim=1)
    with pytest.raises(ValueError):
        sample(sig, -1.0)
    with pytest.raises(ValueError):
        sup_norm(sig, 0.0)


_MASK64 = (1 << 64) - 1


def _splitmix64_reference(x: int) -> int:
    # the scalar counter-based mixer on Python ints, kept as the reference
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _block_vector_reference(sig: DisturbanceSignal, block: int) -> np.ndarray:
    def unit01(lane):
        x = _splitmix64_reference((sig.seed & _MASK64) ^ _splitmix64_reference(block + 1)
                                  ^ _splitmix64_reference((lane + 1) << 20))
        return (x >> 11) / float(1 << 53)

    raw = np.array([2.0 * unit01(j) - 1.0 for j in range(sig.dim)])
    # |raw|^2 summed left to right from the first square, in Python floats: the
    # table's operations, which no BLAS kernel changes
    squares = [v * v for v in raw.tolist()]
    total = squares[0]
    for sq in squares[1:]:
        total += sq
    nrm = math.sqrt(total)
    if nrm < 1e-12:
        return sig.amplitude * np.eye(sig.dim)[0]
    return (sig.amplitude / nrm) * raw


def _boundary_times(dwell: float, horizon: float, dt: float) -> np.ndarray:
    edges = np.arange(1, int(horizon / dwell) + 1) * dwell
    stage = []
    t = 0.0
    for _ in range(int(round(horizon / dt))):  # the stepping loop's accumulated times
        stage += [t, t + 0.5 * dt, t + dt]
        t += dt
    return np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                           np.arange(int(round(horizon / dt)) + 1) * dt, stage])


@pytest.mark.parametrize("dim,dwell,seed", [(1, 0.25, 0), (3, 0.3, 7), (2, 0.1, -3),
                                            (3, 0.5, 2**63 + 5)])
def test_block_table_matches_splitmix_reference(dim, dwell, seed):
    # table lookups and sample() equal the scalar splitmix path bit for bit,
    # on, just below and just above every dwell boundary
    sig = DisturbanceSignal(kind="piecewise_constant_random", dim=dim, amplitude=0.05,
                            dwell=dwell, seed=seed)
    horizon, dt = 3.0, 1e-2
    ts = _boundary_times(dwell, horizon, dt)
    ref = np.array([_block_vector_reference(sig, int(t / dwell)) for t in ts])
    table = oc.DisturbanceTable([None, sig], dim, horizon)
    grid = table(ts)
    assert grid.shape == (len(ts), 2, dim)
    assert not grid[:, 0].any()
    assert np.array_equal(grid[:, 1], ref)
    assert np.array_equal([table(float(t))[1] for t in ts[::5]], ref[::5])
    assert np.array_equal([sample(sig, float(t)) for t in ts[::5]], ref[::5])


def test_table_closed_forms_match_sample():
    # every kind in one batch, two runs of a kind with different parameters:
    # each row is its own signal's, bit for bit.  The phase_error_driven row's
    # entry 0 is e = amplitude * sin(2 pi frequency t) at the node and
    # half-stage times that the integrator tables
    sigs = [DisturbanceSignal(kind="sinusoid", dim=2, amplitude=0.3, frequency=1.7),
            DisturbanceSignal(kind="constant", dim=2, amplitude=-0.2),
            DisturbanceSignal(kind="zero", dim=2),
            DisturbanceSignal(kind="piecewise_constant_random", dim=2, amplitude=0.05,
                              dwell=0.3, seed=4),
            DisturbanceSignal(kind="sinusoid", dim=2, amplitude=-0.1, frequency=0.45),
            None,
            DisturbanceSignal(kind="piecewise_constant_random", dim=2, amplitude=0.08,
                              dwell=0.5, seed=9),
            DisturbanceSignal(kind="phase_error_driven", dim=2, amplitude=-0.03, frequency=2.3)]
    table = oc.DisturbanceTable(sigs, 2, 4.0)
    ts = np.linspace(0.0, 4.0, 1001)
    grid = table(ts)
    for b, sig in enumerate(sigs):
        ref = np.array([np.zeros(2) if sig is None else sample(sig, float(t)) for t in ts])
        assert np.array_equal(grid[:, b], ref)
        assert np.array_equal(np.signbit(grid[:, b]), np.signbit(ref))  # signed zeros too
    dt = 4.0 / 1000
    nodes = np.add.accumulate(np.concatenate([[0.0], np.full(1000, dt)]))
    for t in (nodes, nodes[:-1] + 0.5 * dt):
        e = sigs[-1].amplitude * np.sin(2.0 * np.pi * sigs[-1].frequency * t)
        assert table(t)[:, -1, 0].tobytes() == e.tobytes()
    with pytest.raises(ValueError):
        oc.DisturbanceTable(sigs, 3, 1.0)
    with pytest.raises(ValueError):  # a zero run's dimension is checked too
        oc.DisturbanceTable([None, DisturbanceSignal(kind="zero", dim=2)], 3, 1.0)
