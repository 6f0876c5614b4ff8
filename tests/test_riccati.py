import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitclf as oc
from orbitclf import riccati
from orbitclf.riccati import newton_kleinman_iterates

SQRT3 = np.sqrt(3.0)

ALL_DIMS = [oc.OutputDims(k1, k2) for k1 in range(4) for k2 in range(4) if k1 + k2 >= 1]


def random_spd(rng, n):
    R = rng.normal(size=(n, n)) / np.sqrt(n)
    return R.T @ R + 0.1 * np.eye(n)


def random_hurwitz(rng, n):
    A = rng.normal(size=(n, n)) / np.sqrt(n)
    return A - (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)


def spd_with_spectrum(rng, eigenvalues):
    R, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))
    Q = (R * eigenvalues) @ R.T
    return 0.5 * (Q + Q.T)


def assert_care_matches_scipy(dims, Q):
    dyn = oc.build_fg(dims)
    cert = oc.certificate(dyn, Q, 0.05)
    assert cert.care_residual <= 1e-10
    assert cert.scaled_residual <= 1e-10
    P_ref = scipy.linalg.solve_continuous_are(dyn.F, dyn.G, Q, np.eye(dims.n_mu))
    assert np.allclose(cert.P, P_ref, rtol=0.0, atol=1e-8)


# --- sym_eig -----------------------------------------------------------------

def test_sym_eig_identity():
    w, V = oc.sym_eig(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(V @ V.T, np.eye(2))


def test_sym_eig_closed_form():
    A = np.array([[SQRT3, 1.0], [1.0, SQRT3]])
    w, V = oc.sym_eig(A)
    assert np.allclose(w, [SQRT3 - 1.0, SQRT3 + 1.0], atol=1e-12)
    for i in range(2):
        assert np.linalg.norm(A @ V[:, i] - w[i] * V[:, i]) <= 1e-10 * np.linalg.norm(A)


def test_sym_eig_diagonal():
    w, _ = oc.sym_eig(np.diag([4.0, 9.0]))
    assert np.allclose(w, [4.0, 9.0])


def test_sym_eig_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        oc.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eig_random_against_lapack():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5, 8):
        for _ in range(10):
            A = rng.normal(size=(n, n))
            A = 0.5 * (A + A.T)
            w, V = oc.sym_eig(A)
            # residual contract
            for i in range(n):
                assert np.linalg.norm(A @ V[:, i] - w[i] * V[:, i]) <= 1e-10 * max(1.0, np.linalg.norm(A))
            # independent oracle: LAPACK symmetric eigenvalues
            assert np.allclose(w, np.linalg.eigvalsh(A), atol=1e-10)
            assert np.allclose(V.T @ V, np.eye(n), atol=1e-10)


# --- solve_care --------------------------------------------------------------

def test_care_closed_form_double_integrator():
    dyn = oc.build_fg(oc.OutputDims(0, 1))
    P = oc.solve_care(dyn, np.eye(2))
    assert np.allclose(P, [[SQRT3, 1.0], [1.0, SQRT3]], atol=1e-12)


def test_care_closed_form_scalar():
    dyn = oc.build_fg(oc.OutputDims(1, 0))
    P = oc.solve_care(dyn, np.eye(1))
    assert np.allclose(P, [[1.0]], atol=1e-12)


def test_care_closed_form_mixed():
    dyn = oc.build_fg(oc.OutputDims(1, 1))
    P = oc.solve_care(dyn, np.eye(3))
    expect = np.array([[1.0, 0.0, 0.0], [0.0, SQRT3, 1.0], [0.0, 1.0, SQRT3]])
    assert np.allclose(P, expect, atol=1e-12)


def test_care_rejects_bad_q():
    dyn = oc.build_fg(oc.OutputDims(0, 1))
    with pytest.raises(ValueError):
        oc.solve_care(dyn, -np.eye(2))
    with pytest.raises(ValueError):
        oc.solve_care(dyn, np.eye(3))


def test_care_random_grid_against_scipy():
    rng = np.random.default_rng(42)
    for dims in ALL_DIMS:
        dyn = oc.build_fg(dims)
        for _ in range(4):
            Q = random_spd(rng, dims.n_eta)
            P = oc.solve_care(dyn, Q)
            assert oc.care_residual(dyn, P, Q) <= 1e-10
            # independent oracle: scipy's Schur-based solver
            P_ref = scipy.linalg.solve_continuous_are(
                dyn.F, dyn.G, Q, np.eye(dims.n_mu))
            assert np.allclose(P, P_ref, atol=1e-8)
            assert np.max(np.linalg.eigvals(dyn.F - dyn.G @ dyn.G.T @ P).real) < 0.0


def test_newton_kleinman_trace_monotone():
    rng = np.random.default_rng(5)
    dyn = oc.build_fg(oc.OutputDims(1, 2))
    Q = random_spd(rng, dyn.dims.n_eta)
    traces = []
    for P in itertools.islice(newton_kleinman_iterates(dyn, Q), 30):
        traces.append(np.trace(P))
        if oc.care_residual(dyn, P, Q) <= 1e-12:
            break
    assert len(traces) >= 3
    for a, b in zip(traces, traces[1:]):
        assert b <= a + 1e-9 * max(1.0, abs(a))


def test_lyapunov_solver():
    rng = np.random.default_rng(9)
    A = -np.eye(4) + 0.3 * rng.normal(size=(4, 4))
    C = random_spd(rng, 4)
    X = oc.solve_lyapunov(A, C)
    assert np.allclose(A.T @ X + X @ A, -C, atol=1e-11)


def lyapunov_reference(A, C):
    # scipy solves a X + X a^H = q; with a = A' this is A'X + XA = -C
    return scipy.linalg.solve_continuous_lyapunov(A.T, -C)


@pytest.mark.parametrize("n", [1, 4, 30])
def test_lyapunov_against_scipy(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(5):
        A = random_hurwitz(rng, n)
        C = random_spd(rng, n)
        X, X_ref = oc.solve_lyapunov(A, C), lyapunov_reference(A, C)
        assert np.linalg.norm(X - X_ref) <= 1e-10 * np.linalg.norm(X_ref)
        assert np.array_equal(X, X.T)


def test_lyapunov_jordan_block_against_scipy():
    rng = np.random.default_rng(8)
    A = scipy.linalg.block_diag([[-1.0, 1.0], [0.0, -1.0]], random_hurwitz(rng, 4))
    C = random_spd(rng, 6)
    X, X_ref = oc.solve_lyapunov(A, C), lyapunov_reference(A, C)
    assert np.linalg.norm(X - X_ref) <= 1e-10 * np.linalg.norm(X_ref)


@pytest.mark.parametrize("A", [
    [[1.0, 0.0], [0.0, -1.0]],   # one unstable mode
    [[0.5, 1.0], [-1.0, 0.5]],   # an unstable complex pair
    [[0.0, 1.0], [-1.0, 0.0]],   # eigenvalues on the imaginary axis
])
def test_lyapunov_rejects_non_hurwitz(A):
    with pytest.raises(ValueError):
        oc.solve_lyapunov(np.array(A), np.eye(2))


# --- certificate robustness --------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 3), st.floats(1.0, 1e4), st.integers(0, 2**32 - 1))
def test_certificate_robust_against_scipy(k1, k2, cond, seed):
    if k1 + k2 == 0:
        k2 = 1
    dims = oc.OutputDims(k1, k2)
    rng = np.random.default_rng(seed)
    # largest eigenvalue 1: the scaled residual's own rounding floor grows like
    # ||Q|| / eps^3 and passes 1e-10 at eps = 0.05 once ||Q|| is about 50
    Q = spd_with_spectrum(rng, np.geomspace(1.0 / cond, 1.0, dims.n_eta))
    assert_care_matches_scipy(dims, Q)


@pytest.mark.parametrize("q", [[1.0, 2.0], [1e4, 2e2]])
def test_certificate_critically_damped(q):
    # q2 = 2 sqrt(q1) puts a double pole, a Jordan block, in the closed loop
    dims = oc.OutputDims(0, 1)
    dyn = oc.build_fg(dims)
    P = oc.solve_care(dyn, np.diag(q))
    assert np.allclose(np.linalg.eigvals(dyn.F - dyn.G @ dyn.G.T @ P), -q[0] ** 0.25, atol=1e-6)
    assert_care_matches_scipy(dims, np.diag(q))


@pytest.mark.parametrize("k1, k2", [(0, 30), (2, 59)])
def test_certificate_large_n_against_scipy(k1, k2):
    dims = oc.OutputDims(k1, k2)
    rng = np.random.default_rng(k1 + 2 * k2)
    assert_care_matches_scipy(dims, spd_with_spectrum(rng, np.geomspace(0.5, 2.0, dims.n_eta)))


# --- scale_epsilon -----------------------------------------------------------

def test_scale_identity_at_eps_one():
    dims = oc.OutputDims(0, 1)
    P = np.array([[SQRT3, 1.0], [1.0, SQRT3]])
    M, P_eps, Q_eps = oc.scale_epsilon(P, np.eye(2), dims, 1.0)
    assert np.array_equal(M, np.eye(2))
    assert np.array_equal(P_eps, P)
    assert np.array_equal(Q_eps, np.eye(2))


def test_scale_closed_form_eps_01():
    dims = oc.OutputDims(0, 1)
    dyn = oc.build_fg(dims)
    P = oc.solve_care(dyn, np.eye(2))
    M, P_eps, Q_eps = oc.scale_epsilon(P, np.eye(2), dims, 0.1)
    assert np.allclose(np.diag(M), [10.0, 1.0])
    assert np.allclose(P_eps, [[100.0 * SQRT3, 10.0], [10.0, SQRT3]], atol=1e-10)
    assert oc.scaled_care_residual(dyn, P_eps, Q_eps, 0.1) <= 1e-10


def test_scale_residual_mixed_dims():
    dims = oc.OutputDims(1, 1)
    dyn = oc.build_fg(dims)
    P = oc.solve_care(dyn, np.eye(3))
    _, P_eps, Q_eps = oc.scale_epsilon(P, np.eye(3), dims, 0.5)
    assert oc.scaled_care_residual(dyn, P_eps, Q_eps, 0.5) <= 1e-10


def test_scale_rejects_bad_eps():
    dims = oc.OutputDims(0, 1)
    with pytest.raises(ValueError):
        oc.scale_epsilon(np.eye(2), np.eye(2), dims, 0.0)
    with pytest.raises(ValueError):
        oc.scale_epsilon(np.eye(2), np.eye(2), dims, 1.5)


# --- certificate -------------------------------------------------------------

def test_certificate_constants_double_integrator(cert01_e1):
    assert np.isclose(cert01_e1.gamma, 1.0 / (SQRT3 + 1.0), atol=1e-12)
    assert np.isclose(cert01_e1.c1, SQRT3 - 1.0, atol=1e-12)
    assert np.isclose(cert01_e1.c2, SQRT3 + 1.0, atol=1e-12)


def test_certificate_constants_scalar():
    dyn = oc.build_fg(oc.OutputDims(1, 0))
    cert = oc.certificate(dyn, np.eye(1), 1.0)
    assert np.isclose(cert.gamma, 1.0)
    assert np.isclose(cert.c1, 1.0)
    assert np.isclose(cert.c2, 1.0)


def test_certificate_gamma_p_below_q():
    rng = np.random.default_rng(77)
    for dims in (oc.OutputDims(0, 2), oc.OutputDims(2, 1)):
        dyn = oc.build_fg(dims)
        for _ in range(5):
            Q = random_spd(rng, dims.n_eta)
            cert = oc.certificate(dyn, Q, 0.3)
            w, _ = oc.sym_eig(Q - cert.gamma * cert.P)
            assert w[0] >= -1e-12


def test_certificate_quadratic_sandwich():
    rng = np.random.default_rng(13)
    dims = oc.OutputDims(1, 1)
    dyn = oc.build_fg(dims)
    Q = random_spd(rng, dims.n_eta)
    for eps in (0.05, 0.1, 0.5, 1.0):
        cert = oc.certificate(dyn, Q, eps)
        for _ in range(250):
            eta = rng.normal(size=dims.n_eta)
            v = eta @ cert.P_eps @ eta
            n2 = eta @ eta
            assert cert.c1 * n2 - 1e-9 <= v <= cert.c2 / eps**2 * n2 + 1e-9


def test_certificate_takes_each_eigendecomposition_and_residual_once(monkeypatch):
    # the solve's sym_eig of Q and of the returned P, and its CARE residual of
    # that P, are the certificate's: Q and P are decomposed once each, beside
    # the gamma P <= Q check's Q - gamma P, and P's residual is taken once.
    # The solve runs once, looked up by its module name as callers see it
    dyn = oc.build_fg(oc.OutputDims(1, 2))
    Q = random_spd(np.random.default_rng(5), 5)
    decomposed, residuals, solves = [], [], []
    sym_eig, care_residual, solve_care = riccati.sym_eig, riccati.care_residual, riccati.solve_care
    monkeypatch.setattr(riccati, "solve_care", lambda *a: solves.append(a) or solve_care(*a))
    monkeypatch.setattr(riccati, "sym_eig", lambda A: decomposed.append(A) or sym_eig(A))
    monkeypatch.setattr(riccati, "care_residual",
                        lambda d, P, Q: residuals.append(P) or care_residual(d, P, Q))
    cert = oc.certificate(dyn, Q, 0.2)
    assert [A.tobytes() for A in decomposed] == [
        Q.tobytes(), cert.P.tobytes(), (Q - cert.gamma * cert.P).tobytes()]
    assert sum(np.array_equal(P, cert.P) for P in residuals) == 1 and len(solves) == 1
    assert cert.care_residual == care_residual(dyn, cert.P, Q)
    assert (cert.c1, cert.c2) == tuple(sym_eig(cert.P)[0][[0, -1]])
    assert cert.gamma == sym_eig(Q)[0][0] / cert.c2


def test_certificate_roundtrip_serialization(cert01_e01):
    data = cert01_e01.to_dict()
    back = oc.ResClfCertificate.from_dict(data)
    assert np.array_equal(back.P, cert01_e01.P)
    assert np.array_equal(back.P_eps, cert01_e01.P_eps)
    assert back.gamma == cert01_e01.gamma
    assert "c3" not in data
    # files written while the certificate still carried c3 = gamma load as before
    older = oc.ResClfCertificate.from_dict({**data, "c3": data["gamma"]})
    assert older.gamma == cert01_e01.gamma
