import numpy as np
import pytest

import orbitclf as oc

ALL_DIMS = [oc.OutputDims(k1, k2) for k1 in range(4) for k2 in range(4) if k1 + k2 >= 1]


def test_dims_validation():
    with pytest.raises(ValueError):
        oc.OutputDims(0, 0)
    with pytest.raises(ValueError):
        oc.OutputDims(-1, 1)
    d = oc.OutputDims(2, 3)
    assert d.n_eta == 8
    assert d.n_mu == 5


def test_build_fg_k1_1_k2_1():
    dyn = oc.build_fg(oc.OutputDims(1, 1))
    assert np.array_equal(dyn.F, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    assert np.array_equal(dyn.G, [[1, 0], [0, 0], [0, 1]])


def test_build_fg_k1_0_k2_1():
    dyn = oc.build_fg(oc.OutputDims(0, 1))
    assert np.array_equal(dyn.F, [[0, 1], [0, 0]])
    assert np.array_equal(dyn.G, [[0], [1]])


def test_build_fg_k1_2_k2_0():
    dyn = oc.build_fg(oc.OutputDims(2, 0))
    assert np.array_equal(dyn.F, np.zeros((2, 2)))
    assert np.array_equal(dyn.G, np.eye(2))


@pytest.mark.parametrize("dims", ALL_DIMS, ids=lambda d: f"k1={d.k1},k2={d.k2}")
def test_controllability_and_structure(dims):
    dyn = oc.build_fg(dims)
    F, G = dyn.F, dyn.G
    ctrb = np.hstack([G, F @ G, F @ F @ G])
    assert np.linalg.matrix_rank(ctrb) == dims.n_eta
    # F nilpotent of index <= 2
    assert np.allclose(F @ F, 0.0)
    # F G only touches the y2 rows
    fg = F @ G
    mask = np.zeros(dims.n_eta, dtype=bool)
    mask[dims.k1:dims.k1 + dims.k2] = True
    assert np.all(fg[~mask] == 0.0)


def test_embedded_orbit_point_lies_on_orbit():
    # a zero-dynamics orbit point embedded with eta = 0 has zero orbit distance
    dims = oc.OutputDims(0, 1)
    plant = oc.HopfPlant(dims=dims)
    eta, z = np.zeros(2), np.array([plant.r0, 0.0])
    assert oc.orbit_distance(eta, z, plant) == 0.0
