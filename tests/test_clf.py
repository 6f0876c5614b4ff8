import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitclf as oc
from orbitclf import clf

SQRT3 = np.sqrt(3.0)


def _rows(cert, dyn, eta):
    return oc.matvec(oc.clf_operator(cert, dyn), np.asarray(eta, dtype=float))


def _law(eta, rows):
    """mu = k psi1 at eta from rows = matvec(W, eta) = (F, P_eps, psi1, M) eta, as the mech loop."""
    n = eta.shape[-1]
    psi1 = rows[..., 2 * n:-n]
    return oc.min_norm_mu(clf.vecdot(eta, rows[..., -n:]), clf.vecdot(psi1, psi1))[..., None] * psi1


def _mu(cert, dyn, eta):
    """The min-norm law at eta, from one matvec of the law's operator."""
    eta = np.asarray(eta, dtype=float)
    return _law(eta, _rows(cert, dyn, eta))


def _us(cert, dyn, eta, eps_bar):
    return oc.u_s_damping(cert, _rows(cert, dyn, eta), eps_bar)


def test_evaluate_at_zero(cert01_e1, dyn01):
    ev = oc.evaluate_clf(cert01_e1, dyn01, np.zeros(2))
    assert ev.V == 0.0 and ev.LF_V == 0.0
    assert np.array_equal(ev.LG_V, [0.0])


def test_evaluate_hand_values(cert01_e1, dyn01):
    ev = oc.evaluate_clf(cert01_e1, dyn01, np.array([1.0, 0.0]))
    assert np.isclose(ev.V, SQRT3, atol=1e-12)
    assert np.isclose(ev.LF_V, 0.0, atol=1e-12)
    assert np.allclose(ev.LG_V, [2.0], atol=1e-12)


def test_evaluate_quadratic_scaling(cert01_e01, dyn01):
    rng = np.random.default_rng(0)
    for _ in range(20):
        eta = rng.normal(size=2)
        v1 = oc.evaluate_clf(cert01_e01, dyn01, eta).V
        v2 = oc.evaluate_clf(cert01_e01, dyn01, 2.0 * eta).V
        assert np.isclose(v2, 4.0 * v1, rtol=1e-12)


def test_evaluate_dimension_mismatch(cert01_e1, dyn01):
    with pytest.raises(ValueError):
        oc.evaluate_clf(cert01_e1, dyn01, np.zeros(3))


def test_min_norm_at_zero(cert01_e1, dyn01):
    assert np.array_equal(_mu(cert01_e1, dyn01, np.zeros(2)), [0.0])


def test_min_norm_hand_value(cert01_e1, dyn01):
    eta = np.array([1.0, 0.0])
    gamma = cert01_e1.gamma
    mu = _mu(cert01_e1, dyn01, eta)
    # psi0 = gamma*sqrt(3), psi1 = (2): mu = -psi0/2
    assert np.isclose(mu[0], -gamma * SQRT3 / 2.0, atol=1e-12)
    assert np.isclose(mu[0], -0.31698729810778065, atol=1e-10)


def test_min_norm_substitution_oracle(cert01_e01, dyn01):
    # direct substitution: the returned mu satisfies the set inequality
    rng = np.random.default_rng(1)
    for _ in range(1000):
        eta = rng.normal(size=2)
        mu = _mu(cert01_e01, dyn01, eta)
        ev = oc.evaluate_clf(cert01_e01, dyn01, eta)
        slack = ev.LF_V + float(ev.LG_V @ mu) + cert01_e01.rate * ev.V
        assert slack <= 1e-12
    # at extreme scales the tolerance follows the term magnitudes
    for scale in (1e-3, 1e4):
        for _ in range(100):
            eta = scale * rng.normal(size=2)
            mu = _mu(cert01_e01, dyn01, eta)
            ev = oc.evaluate_clf(cert01_e01, dyn01, eta)
            slack = ev.LF_V + float(ev.LG_V @ mu) + cert01_e01.rate * ev.V
            assert slack <= 1e-12 * max(1.0, cert01_e01.rate * ev.V)


def test_min_norm_feasibility_on_kernel(cert01_e01, dyn01):
    # on ker(G'P_eps), psi0 = -(1/eps) eta'(Q_eps - gamma P_eps) eta <= 0
    cert = cert01_e01
    w = (cert.P_eps @ dyn01.G).reshape(-1)
    kernel = np.array([-w[1], w[0]])
    kernel /= np.linalg.norm(kernel)
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        eta = rng.normal() * kernel
        ev = oc.evaluate_clf(cert, dyn01, eta)
        psi0 = ev.LF_V + cert.rate * ev.V
        assert psi0 <= 1e-10 * max(1.0, ev.V)
        assert np.allclose(ev.LG_V, 0.0, atol=1e-10 * max(1.0, np.linalg.norm(eta)))


@settings(max_examples=80, derandomize=True)
@given(st.floats(1e-3, 1e3), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_min_norm_positive_homogeneity(lam, e1, e2):
    dims = oc.OutputDims(0, 1)
    dyn = oc.build_fg(dims)
    cert = oc.certificate(dyn, np.eye(2), 0.5)
    eta = np.array([e1, e2])
    mu1 = _mu(cert, dyn, eta)
    mu2 = _mu(cert, dyn, lam * eta)
    assert np.allclose(mu2, lam * mu1, rtol=1e-9, atol=1e-12)


def test_min_norm_lipschitz_off_switching_surface(cert01_e01, dyn01):
    # finite-difference slope bound on the unit sphere, excluding a 1e-6
    # neighborhood of psi0 = 0; envelope frozen at ~10x the observed max
    cert = cert01_e01
    rng = np.random.default_rng(3)
    h = 1e-7
    worst = 0.0
    for _ in range(2000):
        th = rng.uniform(0.0, 2.0 * np.pi)
        eta = np.array([np.cos(th), np.sin(th)])
        ev = oc.evaluate_clf(cert, dyn01, eta)
        psi0 = ev.LF_V + cert.rate * ev.V
        if abs(psi0) < 1e-6:
            continue
        step = rng.normal(size=2)
        step = h * step / np.linalg.norm(step)
        ev2 = oc.evaluate_clf(cert, dyn01, eta + step)
        psi0b = ev2.LF_V + cert.rate * ev2.V
        if abs(psi0b) < 1e-6 or np.sign(psi0b) != np.sign(psi0):
            continue
        d = np.linalg.norm(_mu(cert, dyn01, eta + step)
                           - _mu(cert, dyn01, eta))
        worst = max(worst, d / h)
    assert worst < 500.0


def test_membership_of_min_norm(cert01_e01, dyn01):
    rng = np.random.default_rng(4)
    for _ in range(100):
        eta = rng.normal(size=2)
        mu = _mu(cert01_e01, dyn01, eta)
        member, slack = oc.membership(cert01_e01, dyn01, eta, mu)
        assert member
        assert slack <= 1e-12


def test_membership_negative_case(cert01_e1, dyn01):
    eta = np.array([1.0, 0.0])  # psi0 > 0 here
    ev = oc.evaluate_clf(cert01_e1, dyn01, eta)
    member, slack = oc.membership(cert01_e1, dyn01, eta, ev.LG_V.copy())
    assert not member and slack > 0.0


def test_membership_at_zero(cert01_e1, dyn01):
    member, slack = oc.membership(cert01_e1, dyn01, np.zeros(2), np.array([5.0]))
    assert member and slack == 0.0


def test_membership_es_mode(cert01_e1, dyn01):
    eta = np.array([0.3, -0.2])
    mu = _mu(cert01_e1, dyn01, eta)
    member, _ = oc.membership(cert01_e1, dyn01, eta, mu, rate=cert01_e1.gamma)
    assert member  # es rate gamma <= res rate gamma/eps at eps = 1


def test_u_s_zero(cert01_e1, dyn01):
    assert np.array_equal(_us(cert01_e1, dyn01, np.zeros(2), 0.5), [0.0])


def test_u_s_hand_value(cert01_e1, dyn01):
    us = _us(cert01_e1, dyn01, np.array([1.0, 0.0]), 0.5)
    assert np.allclose(us, [-1.0], atol=1e-12)


def test_u_s_inverse_in_eps_bar(cert01_e01, dyn01):
    eta = np.array([0.4, -0.7])
    a = _us(cert01_e01, dyn01, eta, 0.2)
    b = _us(cert01_e01, dyn01, eta, 0.4)
    assert np.allclose(a, 2.0 * b, rtol=1e-12)
    with pytest.raises(ValueError):
        _us(cert01_e01, dyn01, eta, 0.0)


def test_u_s_vdot_contribution(cert01_e01, dyn01):
    # L_G V * u_s = -(1/eps_bar) ||G'P_eps eta||^2 by construction
    rng = np.random.default_rng(5)
    for _ in range(50):
        eta = rng.normal(size=2)
        eps_bar = rng.uniform(0.05, 1.0)
        ev = oc.evaluate_clf(cert01_e01, dyn01, eta)
        us = _us(cert01_e01, dyn01, eta, eps_bar)
        w = dyn01.G.T @ (cert01_e01.P_eps @ eta)
        assert np.isclose(float(ev.LG_V @ us), -float(w @ w) / eps_bar, rtol=1e-12)


# --- time-based controller surface ------------------------------------------

def test_time_based_same_slack_at_zero_phase_error(cert01_e01, dyn01):
    # eta_t = eta gives the identical membership slack
    rng = np.random.default_rng(6)
    for _ in range(20):
        eta = rng.normal(size=2)
        mu = _mu(cert01_e01, dyn01, eta)
        _, s_state = oc.membership(cert01_e01, dyn01, eta, mu)
        _, s_time = oc.membership(cert01_e01, dyn01, eta.copy(), mu)
        assert s_state == s_time


def test_time_based_member_along_mech_trajectory(mech_plant, mech_cert):
    loop = oc.MechClosedLoop(plant=mech_plant, cert=mech_cert, signal=None)
    x0 = np.array([0.05, mech_plant.y2d(0.05) + 0.04, 1.0, -0.05])
    rec = oc.integrate(loop, x0, T=0.7, dt=1e-3)
    dyn = oc.build_fg(mech_plant.dims)
    for i in range(0, len(rec), 25):
        mu = rec.mu[i]
        member, slack = oc.membership(mech_cert, dyn, rec.eta[i], mu)
        assert member, f"slack {slack} at sample {i}"


def test_time_based_v_decrease_along_trajectory(mech_plant, mech_cert):
    # dV/dt <= -(gamma/eps) V within integrator tolerance along the loop
    loop = oc.MechClosedLoop(plant=mech_plant, cert=mech_cert, signal=None)
    x0 = np.array([0.05, mech_plant.y2d(0.05) + 0.04, 1.0, -0.05])
    rec = oc.integrate(loop, x0, T=0.7, dt=1e-3)
    bound = rec.v_eps[0] * np.exp(-mech_cert.rate * rec.t)
    assert np.all(rec.v_eps <= bound * (1.0 + 1e-3) + 1e-15)


def _batch_cases(cert01_e01, dyn01):
    dims = oc.OutputDims(k1=1, k2=2)
    dyn = oc.build_fg(dims)
    cert = oc.certificate(dyn, np.eye(dims.n_eta), 0.1)
    return ((cert01_e01, dyn01), (cert, dyn))


def test_min_norm_batch_matches_rows(cert01_e01, dyn01):
    # the batched law equals the lone point's law row by row, byte for byte
    # (a lone point takes the scalar path, so -0.0 against +0.0 counts), on
    # both branches, at zero and on wildly scaled rows
    rng = np.random.default_rng(11)
    for cert, dyn in _batch_cases(cert01_e01, dyn01):
        n = cert.dims.n_eta
        E = rng.normal(size=(64, n)) * np.exp(rng.uniform(-20, 20, size=(64, 1)))
        E[5] = 0.0
        mu = _mu(cert, dyn, E)
        assert mu.shape == (64, cert.dims.n_mu)
        assert np.count_nonzero(np.any(mu != 0.0, axis=1)) not in (0, 64)  # both branches
        assert mu.tobytes() == np.array([_mu(cert, dyn, e) for e in E]).tobytes()
        us = _us(cert, dyn, E, 0.1)
        assert us.tobytes() == np.array([_us(cert, dyn, e, 0.1) for e in E]).tobytes()


@pytest.mark.parametrize("psi0_shape, denom_shape", [
    ((), (1,)), ((1,), ()),  # a lone point
    ((5,), (3,)), ((3,), (1,)),  # up to SCALAR_ROWS rows, where zip would truncate
    ((clf.SCALAR_ROWS + 1,), (1,)), ((clf.SCALAR_ROWS + 1,), (clf.SCALAR_ROWS,)),  # whole arrays
])
def test_min_norm_rejects_forms_of_other_shapes(psi0_shape, denom_shape):
    # psi0 and ||psi1||^2 of one point or batch have one shape; neither a
    # shorter denominator nor a broadcast one is a law
    psi0, denom = np.ones(psi0_shape), np.ones(denom_shape)
    with pytest.raises(ValueError, match=re.escape(f"shapes {psi0_shape} and {denom_shape}")):
        oc.min_norm_mu(psi0, denom)


#: law inputs the drawn floats mix in: signed zeros, subnormals, the smallest
#: normal, the flat-psi1 threshold's scale, huge values, infinities and NaNs
_LAW_ODD = [0.0, -0.0, 5e-324, -5e-324, 1e-310, np.finfo(float).tiny, 1e-14, 1.0, -1.0,
            1e300, -1e300, math.inf, -math.inf, math.nan, -math.nan]


def _law_or_error(psi0, denom):
    try:
        return oc.min_norm_mu(psi0, denom)
    except oc.ClfConsistencyError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(st.floats(), st.sampled_from(_LAW_ODD)),
       st.one_of(st.floats(), st.sampled_from(_LAW_ODD)))
def test_min_norm_on_two_floats_equals_the_0d_call(psi0, denom):
    # a lone point given as two Python floats goes straight to the float law:
    # a 0-d ndarray bit for bit the 0-d array call's, NaN signs included, or
    # the same ClfConsistencyError text, with no row index
    got, want = _law_or_error(psi0, denom), _law_or_error(np.array(psi0), np.array(denom))
    if isinstance(want, str):
        assert got == want and not got.startswith("row")
        return
    assert type(got) is np.ndarray and got.shape == () and got.dtype == float
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("psi0, denom", [(0.5, np.ones(1)), (np.ones(1), 0.5)])
def test_min_norm_rejects_a_float_with_an_array(psi0, denom):
    # a Python float is one point, of shape (): a (1,) array beside it is no law
    shapes = f"shapes {np.shape(psi0)} and {np.shape(denom)}"
    with pytest.raises(ValueError, match=re.escape(shapes)):
        oc.min_norm_mu(psi0, denom)


def test_min_norm_batch_consistency_error(cert01_e01, dyn01):
    # a certificate whose rate is inflated violates gamma P_eps <= Q_eps, so
    # psi0 > 0 on ker(G'P_eps): the one bad row must raise, named by index
    broken = dataclasses.replace(cert01_e01, gamma=100.0 * cert01_e01.gamma)
    w = (broken.P_eps @ dyn01.G).reshape(-1)
    kernel = np.array([-w[1], w[0]])
    E = np.array([[0.3, -0.1], kernel, [0.0, 0.0]])
    _mu(broken, dyn01, E[[0, 2]])  # the other rows are fine
    with pytest.raises(oc.ClfConsistencyError, match="row 1") as batch:
        _mu(broken, dyn01, E)
    # the lone point says the same, without a row
    with pytest.raises(oc.ClfConsistencyError) as lone:
        _mu(broken, dyn01, kernel)
    assert str(batch.value) == "row 1: " + str(lone.value)
    assert re.fullmatch(r"psi1 ~ 0 with psi0 = \S+ > 0; certificate invariants are broken",
                        str(lone.value))


def _vecdot_from_first_product(a, b):
    """x @ y row by row, summed from the first product on.

    np.vecdot starts its sum at +0.0, so it never returns -0.0; this
    stand-in returns -0.0 when every product is -0.0.
    """
    p = a * b
    out = p[..., 0]
    for j in range(1, p.shape[-1]):
        out = out + p[..., j]
    return out


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("dot", [clf.vecdot, _vecdot_from_first_product])
def test_min_norm_lone_matches_batch_on_signed_zeros_nan_and_inf(monkeypatch, dot,
                                                                 cert01_e01, dyn01):
    # rows where Python floats and numpy could part: psi0 = -0.0
    # (np.maximum(-0.0, 0.0) is +0.0, Python's max(-0.0, 0.0) is -0.0),
    # psi1 exactly 0, and NaN or +-inf in psi0 or ||psi1||^2.  The lone
    # point's law has the bytes of the batch law on that row alone, NaN
    # included, or raises its error without the row prefix.  Against a
    # longer batch only NaN's sign and payload may differ: where both
    # factors of mu's product are NaN, which one numpy keeps depends on its
    # loop, in the batch code alone too
    monkeypatch.setattr(clf, "vecdot", dot)
    inf, nan = np.inf, np.nan
    for cert, dyn in _batch_cases(cert01_e01, dyn01):
        n, m = cert.dims.n_eta, cert.dims.n_mu
        x = np.zeros(n)
        x[0] = 1.0
        X, R = [], []
        for psi0 in (-0.0, 0.0, -1.5, 2.5, -inf, inf, nan):
            for lead in (0.0, -0.0, 0.7, 1e200, inf, -inf, nan):
                rows = np.zeros(3 * n + m)
                rows[2 * n] = lead  # psi1 = (lead, 0, ...); ||psi1||^2 may be 0, inf or NaN
                rows[2 * n + m:] = -0.0
                rows[2 * n + m] = psi0  # psi0 = x'(M x) = psi0 + -0.0 + ...
                got = dot(x, rows[2 * n + m:])
                # np.vecdot makes the -0.0 row +0.0
                assert (got.tobytes() == np.float64(psi0).tobytes()
                        or dot is clf.vecdot and got == psi0 == 0.0)
                X.append(x)
                R.append(rows)
        X, R = np.array(X), np.array(R)
        lone, raised = [], []
        for i, (xi, ri) in enumerate(zip(X, R)):
            try:
                lone.append(_law(xi, ri))
            except oc.ClfConsistencyError as exc:
                with pytest.raises(oc.ClfConsistencyError) as batch:
                    _law(X[i:i + 2], R[i:i + 2])
                assert str(batch.value) == "row 0: " + str(exc)
                raised.append(i)
                continue
            assert lone[-1].tobytes() == _law(X[i:i + 1], R[i:i + 1]).tobytes()
        keep = np.setdiff1d(np.arange(len(X)), raised)
        mu, lone = _law(X[keep], R[keep]), np.array(lone)
        assert np.isnan(mu).any() and np.signbit(mu[mu == 0.0]).any()
        assert np.array_equal(np.isnan(mu), np.isnan(lone))
        assert np.where(np.isnan(mu), 1.0, mu).tobytes() == np.where(np.isnan(lone), 1.0, lone).tobytes()
        # flat and psi0 > 0: psi0 = 2.5 with psi1 = 0, and psi0 = inf unless ||psi1||^2 is NaN
        assert len(raised) == 2 + 6


def test_overflowed_state_is_not_reported_as_a_broken_certificate(cert01_e01, dyn01):
    # eta = (1e170, 0) overflows psi0 and ||psi1||^2 to inf, and inf <= 1e-14 inf
    # marks the row flat: the error says the state overflowed, in both branches
    eta = np.array([1e170, 0.0])
    with np.errstate(over="ignore"):
        with pytest.raises(oc.ClfConsistencyError) as lone:
            _mu(cert01_e01, dyn01, eta)
        with pytest.raises(oc.ClfConsistencyError) as batch:
            _mu(cert01_e01, dyn01, np.array([[0.1, 0.2], eta]))
    assert str(lone.value) == "the state overflowed: psi0 = inf, ||psi1||^2 = inf"
    assert str(batch.value) == "row 1: " + str(lone.value)


def _textbook_mu(cert, dyn, eta):
    """The min-norm law as written in the literature, one point at a time: the oracle.

    Returns mu and the scale (|LF_V| + rate V) / ||psi1|| of its terms.
    """
    P = cert.P_eps
    V = eta @ P @ eta
    LF_V = eta @ (dyn.F.T @ P + P @ dyn.F) @ eta
    psi0 = LF_V + cert.rate * V
    psi1 = 2.0 * dyn.G.T @ P @ eta
    scale = (abs(LF_V) + cert.rate * V) / np.linalg.norm(psi1)
    if psi0 <= 0.0:
        return np.zeros(cert.dims.n_mu), scale
    return -(psi0 / (psi1 @ psi1)) * psi1, scale


@pytest.mark.parametrize("k1, k2", [(0, 1), (1, 0), (1, 2), (2, 3)])
@pytest.mark.parametrize("eps", [1.0, 0.1])
def test_min_norm_matches_textbook_formula(k1, k2, eps):
    # psi0 = eta'M eta rounds differently from LF_V + rate V, so near the
    # switching surface psi0 = 0, where both cancel, mu may differ by the
    # rounding of the terms: atol is 1e-13 of their scale, rtol 1e-13
    dims = oc.OutputDims(k1, k2)
    dyn = oc.build_fg(dims)
    cert = oc.certificate(dyn, np.eye(dims.n_eta), eps)
    rng = np.random.default_rng(100 * k1 + 10 * k2 + int(eps))
    E = rng.normal(size=(2000, dims.n_eta)) * np.exp(rng.uniform(-5, 5, size=(2000, 1)))
    mu = _mu(cert, dyn, E)
    active = 0
    for eta, got in zip(E, mu):
        want, scale = _textbook_mu(cert, dyn, eta)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * scale)
        active += bool(want.any())
    assert 0 < active < len(E) or k2 == 0  # k2 = 0: psi0 > 0 off the origin


def test_min_norm_inactive_rows_are_exactly_zero(cert01_e01, dyn01):
    # eta = 0, points of ker(G'P_eps) (psi0 <= 0 there) and rows whose psi1
    # is exactly 0 with psi0 < 0: mu is 0 in value, with no NaN or warning
    cert = cert01_e01
    w = (cert.P_eps @ dyn01.G).reshape(-1)
    kernel = np.array([-w[1], w[0]])
    E = np.array([[0.0, 0.0], kernel, -3.0 * kernel, 1e-9 * kernel])
    rows = _rows(cert, dyn01, E)
    n, m = cert.dims.n_eta, cert.dims.n_mu
    exact = rows.copy()
    exact[:, 2 * n:2 * n + m] = 0.0  # psi1 = 0; the M eta rows keep psi0 <= 0
    assert np.all(np.sum(E * exact[:, 2 * n + m:3 * n + m], axis=1) <= 0.0)
    with np.errstate(all="raise"):
        for r in (rows, exact):
            mu = _law(E, r)
            assert mu.shape == (4, m) and np.all(mu == 0.0)
        assert np.all(_law(np.zeros(n), np.zeros(3 * n + m)) == 0.0)
