"""Lyapunov function evaluation, min-norm auxiliary input, and damping feedback.

V_eps(eta) = eta' P_eps eta with Lie derivatives along the output dynamics

    LF_V = eta' (F' P_eps + P_eps F) eta,    LG_V = 2 eta' P_eps G.

The controller set accepts mu whenever LF_V + LG_V mu + (gamma/eps) V <= 0.
The canonical selection implemented here is the pointwise minimum-norm
element: with psi0 = LF_V + (gamma/eps) V = eta' M eta, where

    M = F' P_eps + P_eps F + (gamma/eps) P_eps    (symmetrized),

and psi1 = LG_V',

    mu = -(max(psi0, 0) / ||psi1||^2) psi1,

which is 0 where psi0 <= 0.  psi1 = 0 with psi0 > 0 cannot occur when the
scaled Riccati identity and gamma P_eps <= Q_eps hold (then psi0 =
-(1/eps) eta'(Q_eps - gamma P_eps) eta on ker(G'P_eps)); it is reported as
an internal-consistency failure.

Every quantity above is linear in eta or a product of two linear ones:
``clf_operator`` stacks W = [F; P_eps; 2 G'P_eps; M] once per certificate,
whose rows give F eta, P_eps eta, psi1 and M eta.  ``matvec`` and
``vecdot`` sum row by row without BLAS; the closed loops write the same
sums out over the rows' nonzero entries (``plants``).  ``min_norm_mu``
takes the forms psi0 and ||psi1||^2 and gives each row's gain k; its
caller multiplies, mu = k psi1.

The controller-set membership test, which applies verbatim to
time-parameterized outputs (evaluate it on eta_t in place of eta), is the
tests' oracle of this law: ``membership`` in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .output_dynamics import OutputDynamics
from .riccati import ResClfCertificate


class ClfConsistencyError(RuntimeError):
    """The provably-infeasible branch (psi1 = 0, psi0 > 0) was reached, or the state overflowed."""


@dataclass(frozen=True)
class ClfEvaluation:
    """V_eps and its Lie derivatives at a point."""

    V: float
    LF_V: float
    LG_V: np.ndarray


def _check_eta(cert: ResClfCertificate, eta: np.ndarray) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    n = cert.dims.n_eta
    if eta.shape != (n,):
        raise ValueError(f"eta has shape {eta.shape}, expected ({n},)")
    return eta


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x row by row for x of shape (..., n); A may be stacked, (..., r, n).

    Entry i is sum_j A[i, j] x_j, summed left to right from the first
    product as plain numpy operations: its bits depend neither on the batch
    a row sits in nor on the BLAS kernel.
    """
    A, x = np.asarray(A, dtype=float), np.asarray(x, dtype=float)
    out = x[..., 0, None] * A[..., 0]
    for j in range(1, A.shape[-1]):
        out = out + x[..., j, None] * A[..., j]
    return out


def vecdot(x: np.ndarray, y: np.ndarray, dtype: type = float) -> np.ndarray:
    """x . y row by row over the last axis, summed as ``matvec`` sums; 0.0 for no entries.

    With dtype=np.longdouble the sums run in that type and round once:
    ``evaluate_clf`` and the records take V_eps (and LF_V) so.  Their bits
    then follow np.longdouble's width, 80-bit on x86-64 Linux, IEEE quad on
    aarch64 Linux and double on Windows and Apple arm64, not the BLAS kernel.
    """
    x, y = np.asarray(x, dtype=dtype), np.asarray(y, dtype=dtype)
    if not x.shape[-1]:
        return np.zeros(np.broadcast_shapes(x.shape, y.shape)[:-1])
    out = x[..., 0] * y[..., 0]
    for j in range(1, x.shape[-1]):
        out = out + x[..., j] * y[..., j]
    return out.astype(float, copy=False)


def clf_operator(cert: ResClfCertificate, dyn: OutputDynamics) -> np.ndarray:
    """The laws' stacked operator W = [F; P_eps; 2 G'P_eps; M], shape (3 n_eta + n_mu, n_eta).

    One ``matvec(W, eta)`` gives F eta, P_eps eta, psi1 = LG_V' =
    2 G'P_eps eta and M eta; the laws below read them from those rows.
    """
    F, P = dyn.F, cert.P_eps
    M = F.T @ P + P @ F + cert.rate * P
    return np.vstack([F, P, 2.0 * (dyn.G.T @ P), 0.5 * (M + M.T)])


def evaluate_clf(cert: ResClfCertificate, dyn: OutputDynamics, eta: np.ndarray) -> ClfEvaluation:
    """V_eps, LF_V and LG_V = psi1' at eta, from the rows of ``clf_operator``."""
    eta, n = _check_eta(cert, eta), cert.dims.n_eta
    rows = matvec(clf_operator(cert, dyn), eta)
    Pe = rows[n:2 * n]  # LF_V = eta'(F'P + PF)eta = 2 (F eta) . (P eta)
    return ClfEvaluation(V=float(vecdot(eta, Pe, np.longdouble)),
                         LF_V=float(2.0 * vecdot(rows[:n], Pe, np.longdouble)),
                         LG_V=rows[2 * n:2 * n + cert.dims.n_mu])


#: the law's constants as 0-d arrays, which numpy combines with a large
#: array faster than a Python float: 0, the 1e-14 of the flat-psi1 guard,
#: and the smallest normal double, a floor for denominators that may be 0
_ZERO, _FLAT, _TINY = np.array(0.0), np.array(1e-14), np.array(np.finfo(float).tiny)
_TINY_F = float(_TINY)


def min_norm_mu(psi0: float | tuple | np.ndarray, denom: float | tuple | np.ndarray) -> np.ndarray:
    """Each row's gain k of the min-norm law: k psi1 is the least-norm mu of the rate-gamma/eps set.

    psi0 = eta'M eta and denom = ||psi1||^2: two floats or 0-d arrays (a 0-d
    gain), two tuples of B Python floats, as a Hopf field calls the law, or
    two (B,) arrays, as records and checks call it ((B,) gains).  Each row's
    finite gain has its lone law's bits.  psi0 <= 0 gives a zero gain (maybe
    -0.0), also at psi1 = 0.
    """
    if type(psi0) is float and type(denom) is float:
        return np.array(_gain(psi0, denom))
    if type(psi0) is tuple and type(denom) is tuple and len(psi0) == len(denom):
        return _gains(psi0, denom)
    shape, other = np.shape(psi0), np.shape(denom)  # a Python float is one point
    if shape != other or type(psi0) is tuple or type(denom) is tuple:
        raise ValueError(f"psi0 and ||psi1||^2 have shapes {shape} and {other}")
    if not shape:
        return np.array(_gain(float(psi0), float(denom)))
    # psi1 ~ 0 relative to psi0; only such a row can be inconsistent, so
    # the full check runs only when one exists
    flat = denom <= _FLAT * psi0
    if np.count_nonzero(flat):
        bad = np.flatnonzero(flat & (psi0 > 0.0))
        if bad.size:
            row = int(bad[0])
            raise _inconsistency(f"row {row}: ", float(psi0[row]), float(denom[row]))
    return -(np.maximum(psi0, _ZERO) / np.maximum(denom, _TINY))


def _gains(psi0: tuple, denom: tuple) -> np.ndarray:
    """``_gain`` of each row of two equal-length tuples of Python floats, as a (B,) array."""
    try:
        return np.fromiter(map(_gain, psi0, denom), float, len(psi0))
    except ClfConsistencyError:
        for row, (p, q) in enumerate(zip(psi0, denom)):
            _gain(p, q, row)  # raises for the first flat row, naming it
        raise


def _gain(psi0: float, denom: float, row: int | None = None) -> float:
    """The law's gain -max(psi0, 0) / max(||psi1||^2, tiny) at one point, on Python floats.

    The comparisons keep np.maximum's semantics: NaN propagates, and
    max(-0.0, 0.0) is +0.0.  row is the point's index in its batch, which
    a ClfConsistencyError names.
    """
    if denom <= 1e-14 * psi0 and psi0 > 0.0:
        raise _inconsistency("" if row is None else f"row {row}: ", psi0, denom)
    return -((0.0 if psi0 <= 0.0 else psi0) / (_TINY_F if denom < _TINY_F else denom))


def _inconsistency(where: str, psi0: float, denom: float) -> ClfConsistencyError:
    """The error for a flat row (||psi1||^2 <= 1e-14 psi0) with psi0 > 0.

    psi0 = inf marks a row flat unless ||psi1||^2 is NaN; such a row is a
    state that overflowed, not a broken certificate, and its message says so.
    """
    if not (math.isfinite(psi0) and math.isfinite(denom)):
        return ClfConsistencyError(f"{where}the state overflowed: psi0 = {psi0:g}, "
                                   f"||psi1||^2 = {denom:g}")
    return ClfConsistencyError(f"{where}psi1 ~ 0 with psi0 = {psi0:g} > 0; "
                               "certificate invariants are broken")


def damping_gain(eps_bar: float) -> float:
    """-1/(4 eps_bar), the damping feedback per unit psi1: u_s = damping_gain(eps_bar) psi1."""
    if not (0.0 < eps_bar <= 1.0):
        raise ValueError(f"eps_bar must lie in (0, 1], got {eps_bar}")
    return -0.25 / eps_bar


def u_s_damping(cert: ResClfCertificate, rows: np.ndarray, eps_bar: float) -> np.ndarray:
    """State-based damping feedback u_s = -(1/(2 eps_bar)) G' P_eps eta = -(1/(4 eps_bar)) psi1.

    With B_y = I this adds exactly -(1/eps_bar) ||G'P_eps eta||^2 to the
    V_eps derivative; smaller eps_bar damps harder.  rows = matvec(W, eta)
    for W from ``clf_operator``, one point or a batch.  u_s is linear in the
    rows, so it also maps W' itself: u_s_damping(cert, W.T, eps_bar).T is
    the gain K with u_s = K eta.
    """
    n = cert.dims.n_eta
    return damping_gain(eps_bar) * rows[..., 2 * n:2 * n + cert.dims.n_mu]
