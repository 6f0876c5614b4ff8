import numpy as np
import pytest

import orbitclf as oc


def rk4_written_out(f, t, y, dt, inputs=None):
    """Classical RK4 on arrays with Python-float stage multipliers: the oracle of rk4_step.

    With inputs = (u(t), u(t + dt/2), u(t + dt)) the field is called as
    f(t, y, u), without as f(t, y).
    """
    u0, uh, u1 = ((),) * 3 if inputs is None else [(u,) for u in inputs]
    k1 = f(t, y, *u0)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1, *uh)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2, *uh)
    k4 = f(t + dt, y + dt * k3, *u1)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.fixture(scope="session")
def dims01():
    return oc.OutputDims(k1=0, k2=1)


@pytest.fixture(scope="session")
def dyn01(dims01):
    return oc.build_fg(dims01)


@pytest.fixture(scope="session")
def cert01_e1(dyn01):
    return oc.certificate(dyn01, np.eye(2), 1.0)


@pytest.fixture(scope="session")
def cert01_e01(dyn01):
    return oc.certificate(dyn01, np.eye(2), 0.1)


@pytest.fixture(scope="session")
def hopf01(dims01):
    return oc.HopfPlant(dims=dims01)


@pytest.fixture(scope="session")
def mech_plant():
    return oc.MechPlant(alpha=np.array([0.0, 0.1, 0.3, 0.3, 0.1, 0.0]))


@pytest.fixture(scope="session")
def mech_cert(mech_plant):
    dyn = oc.build_fg(mech_plant.dims)
    return oc.certificate(dyn, np.eye(3), 0.2)


@pytest.fixture(scope="session")
def zero_record_eps05(dims01, dyn01, hopf01):
    """d = 0 run at eps = 0.5, min-norm only, z started on the orbit."""
    cert = oc.certificate(dyn01, np.eye(2), 0.5)
    loop = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm", sigma=1.0)
    rec = oc.integrate(loop, np.array([0.5, 0.0, 1.0, 0.0]), T=45.0, dt=1e-3)
    return cert, loop, rec
