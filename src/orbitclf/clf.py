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

Every quantity above is linear in eta or a product of two linear ones, so
one row-by-row ``matvec`` of a stacked operator gives all the laws need.
``clf_operator`` builds it once per certificate on eta,

    W = [F; P_eps; 2 G'P_eps; M]    ((3 n_eta + n_mu) x n_eta),

whose rows give F eta, P_eps eta, psi1 and M eta, in that order.  A closed
loop on a state x = (eta, ...) of width w > n_eta may instead build one
operator on x with the same law rows in state coordinates,

    W_x = [L; G 2 G'P_eps; M]    (3w x w; the law's blocks are zero off eta),

where L is the loop's own linear field: ``min_norm_mu`` then reads G psi1
and M eta from ``matvec(W_x, x)`` and returns G mu, already placed.  G is
a 0/1 selection with disjoint columns, so ||G psi1|| = ||psi1||, and the
placed law is G times the law (the longer rows may round differently in
the last bit).

The same membership test applies verbatim to time-parameterized outputs:
evaluate it on eta_t in place of eta.
"""

from __future__ import annotations

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
    """A @ x for x of shape (n,) or row by row for x of shape (..., n).

    Each row goes through the same BLAS call as a lone vector, so a
    row's result is bit for bit independent of the batch it sits in.
    """
    return (A @ x[..., None])[..., 0]


#: x @ y row by row, as a gufunc: each row takes the same dot-product call
#: as a lone vector (see ``matvec``), in one numpy call
vecdot = np.vecdot


def clf_operator(cert: ResClfCertificate, dyn: OutputDynamics) -> np.ndarray:
    """The laws' stacked operator W = [F; P_eps; 2 G'P_eps; M], shape (3 n_eta + n_mu, n_eta).

    One ``matvec(W, eta)`` gives F eta, P_eps eta, psi1 = LG_V' =
    2 G'P_eps eta and M eta; the laws below read them from those rows.
    """
    F, P = dyn.F, cert.P_eps
    M = F.T @ P + P @ F + cert.rate * P
    return np.vstack([F, P, 2.0 * (dyn.G.T @ P), 0.5 * (M + M.T)])


def lie_terms(cert: ResClfCertificate, eta: np.ndarray,
              rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V_eps, LF_V and psi1 = LG_V' at eta, from rows = matvec(W, eta); batches as ``matvec``."""
    n, m = cert.dims.n_eta, cert.dims.n_mu
    Pe = rows[..., n:2 * n]
    V = vecdot(eta, Pe)
    LF_V = 2.0 * vecdot(rows[..., :n], Pe)  # eta'(F'P + PF)eta = 2 eta'P F eta
    return V, LF_V, rows[..., 2 * n:2 * n + m]


def evaluate_clf(cert: ResClfCertificate, dyn: OutputDynamics, eta: np.ndarray) -> ClfEvaluation:
    """Evaluate V_eps, LF_V, LG_V at eta."""
    eta = _check_eta(cert, eta)
    V, LF_V, LG_V = lie_terms(cert, eta, matvec(clf_operator(cert, dyn), eta))
    return ClfEvaluation(V=float(V), LF_V=float(LF_V), LG_V=LG_V)


#: the law's constants as 0-d arrays, which numpy combines with a small
#: array faster than a Python float: 0, the 1e-14 of the flat-psi1 guard,
#: and the smallest normal double, a floor for denominators that may be 0
#: (also as a Python float, for a lone point)
_ZERO, _FLAT, _TINY = np.array(0.0), np.array(1e-14), np.array(np.finfo(float).tiny)
_TINY_F = float(_TINY)


def min_norm_mu(cert: ResClfCertificate, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Minimum-Euclidean-norm element of the rate-(gamma/eps) controller set.

    rows = matvec(W, x), and the width of x tells the layout apart:
    x = eta (n_eta wide) with W from ``clf_operator`` gives mu (n_mu wide);
    a state x of width w != n_eta with a state operator [L; G 2 G'P_eps; M]
    (3w rows, see the module docstring) gives G mu in the state's
    coordinates (w wide).  x is one point or a batch (B, width); each row
    equals the law at that row alone, bit for bit.  A lone point (x and
    rows 1-D) takes the scalar path: the same IEEE operations on Python
    floats, which skip numpy's per-call cost on 0-d values, with the same
    bits.  A row with psi0 <= 0 gives a zero mu (possibly -0.0), and
    psi1 = 0 there gives no NaN.
    """
    w = x.shape[-1]
    n = cert.dims.n_eta
    a, b = (2 * n, 2 * n + cert.dims.n_mu) if w == n else (w, 2 * w)
    if rows.shape[-1:] != (b + w,):
        raise ValueError(f"rows have shape {rows.shape}, expected (..., {b + w}) "
                         f"for a point of width {w}")
    psi1 = rows[..., a:b]
    psi0 = vecdot(x, rows[..., b:])
    denom = vecdot(psi1, psi1)
    if x.ndim == rows.ndim == 1:
        p, q = float(psi0), float(denom)
        if q <= 1e-14 * p:
            _check_consistency(x, psi0, denom, True)
        # np.maximum's semantics: NaN propagates and max(-0.0, 0.0) is +0.0
        p = 0.0 if p <= 0.0 else p
        q = _TINY_F if q < _TINY_F else q
        return -(p / q) * psi1
    # psi1 ~ 0 relative to psi0; only such a row can be inconsistent, so the
    # full check runs only when one exists
    flat = denom <= _FLAT * psi0
    if np.count_nonzero(flat):
        _check_consistency(x, psi0, denom, flat)
    return -(np.maximum(psi0, _ZERO) / np.maximum(denom, _TINY))[..., None] * psi1


def _check_consistency(x: np.ndarray, psi0: np.ndarray, denom: np.ndarray,
                       flat: np.ndarray | bool) -> None:
    """Raise ClfConsistencyError for the first row with psi0 > 0 among the flat rows.

    psi0 = inf marks a row flat unless ||psi1||^2 is NaN; such a row is a
    state that overflowed, not a broken certificate, and its message says so.
    """
    psi0, denom = np.ravel(psi0), np.ravel(denom)
    bad = np.flatnonzero((psi0 > 0.0) & flat)
    if bad.size:
        row = int(bad[0])
        where = f"row {row}: " if x.ndim == 2 else ""
        if not (np.isfinite(psi0[row]) and np.isfinite(denom[row])):
            raise ClfConsistencyError(
                f"{where}the state overflowed: psi0 = {psi0[row]:g}, "
                f"||psi1||^2 = {denom[row]:g}")
        raise ClfConsistencyError(
            f"{where}psi1 ~ 0 with psi0 = {psi0[row]:g} > 0; "
            "certificate invariants are broken")


def membership(cert: ResClfCertificate, dyn: OutputDynamics, eta: np.ndarray,
               mu: np.ndarray, mode: str = "res", c: float | None = None) -> tuple[bool, float]:
    """Controller-set membership test; returns (member, signed slack).

    mode "res" tests against the rapid rate gamma/eps; mode "es" against a
    plain exponential rate c (defaulting to gamma).  Membership allows the
    slack a working-precision margin (1e-12 scaled to the term magnitudes)
    so that the exactly-tight min-norm selection is a member despite
    round-off.  Applies unchanged to time-based outputs by passing eta_t.
    """
    eta = _check_eta(cert, eta)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (cert.dims.n_mu,):
        raise ValueError(f"mu has shape {mu.shape}, expected ({cert.dims.n_mu},)")
    if mode == "res":
        rate = cert.rate
    elif mode == "es":
        rate = cert.gamma if c is None else float(c)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    ev = evaluate_clf(cert, dyn, eta)
    slack = ev.LF_V + float(ev.LG_V @ mu) + rate * ev.V
    guard = 1e-12 * max(1.0, abs(ev.LF_V), rate * ev.V, abs(float(ev.LG_V @ mu)))
    return slack <= guard, slack


def u_s_damping(cert: ResClfCertificate, rows: np.ndarray, eps_bar: float) -> np.ndarray:
    """State-based damping feedback u_s = -(1/(2 eps_bar)) G' P_eps eta = -(1/(4 eps_bar)) psi1.

    With B_y = I this adds exactly -(1/eps_bar) ||G'P_eps eta||^2 to the
    V_eps derivative; smaller eps_bar damps harder.  rows = matvec(W, eta)
    for W from ``clf_operator``, one point or a batch.  u_s is linear in the
    rows, so it also maps W' itself: u_s_damping(cert, W.T, eps_bar).T is
    the gain K with u_s = K eta.
    """
    if not (0.0 < eps_bar <= 1.0):
        raise ValueError(f"eps_bar must lie in (0, 1], got {eps_bar}")
    n = cert.dims.n_eta
    return (-0.25 / eps_bar) * rows[..., 2 * n:2 * n + cert.dims.n_mu]
