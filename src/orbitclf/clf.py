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
operator on x with the law rows in state coordinates, six w x w blocks

    W_x = [L; Psi; M; Q; I; R],    Psi = G 2 G'P_eps,  Q = Psi + R,

where L is the loop's own linear field, Psi and M are the law's blocks
(zero off eta), I is the identity and R selects coordinates of x off
G's rows for the loop's own use (the Hopf loop's z).  Blocks 1-3 and 3-5
of ``matvec(W_x, x)``, read as two stacked (3, w) views, meet in one
``vecdot`` (``state_forms``): Psi x . Q x = ||psi1||^2, M x . x = psi0
and Q x . R x = |R x|^2.  G is a 0/1 selection with disjoint columns,
so ||G psi1|| = ||psi1||, and on a finite x the identity rows are x and
the products with zero rows add only zeros: the forms have the bits of
the plain dot products.  ``min_norm_mu`` takes just the forms psi0 and
||psi1||^2, two Python floats or 0-d arrays for one point or (B,) for a
batch, and gives each row's gain k = -max(psi0, 0) / ||psi1||^2.  Its
caller multiplies: mu = k psi1, or G mu = k Psi x, which the Hopf loop
multiplies into Q x together with its own coefficient on R's rows.

The same membership test applies verbatim to time-parameterized outputs:
evaluate it on eta_t in place of eta.
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
    """A @ x row by row for x of shape (..., n), one vector (n,) included.

    Each row goes through the same stacked BLAS call, so a row's result
    is bit for bit independent of the batch it sits in.
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


#: the law's constants as 0-d arrays, which numpy combines with a large
#: array faster than a Python float: 0, the 1e-14 of the flat-psi1 guard,
#: and the smallest normal double, a floor for denominators that may be 0
_ZERO, _FLAT, _TINY = np.array(0.0), np.array(1e-14), np.array(np.finfo(float).tiny)
_TINY_F = float(_TINY)

#: a batch of at most this many rows runs the law's per-row scalars on
#: Python floats, which skip numpy's per-call cost; a larger one runs them
#: as whole-array operations.  Both make the same IEEE operations.
SCALAR_ROWS = 16


def state_forms(blocks: np.ndarray) -> np.ndarray:
    """(||psi1||^2, psi0, |R x|^2) of each row of a state operator's rows, by one ``vecdot``.

    blocks is matvec(W_x, x) for a state operator W_x = [L; Psi; M; Q; I; R]
    (module docstring) read as (..., 6, w); the forms have shape (..., 3).
    """
    return vecdot(blocks[..., 1:4, :], blocks[..., 3:, :])


def min_norm_mu(psi0: float | np.ndarray, denom: float | np.ndarray) -> np.ndarray:
    """Each row's gain k of the min-norm law: k psi1 is the least-norm mu of the rate-gamma/eps set.

    psi0 = eta'M eta and denom = ||psi1||^2 are two Python floats or 0-d
    arrays for a lone point, or (B,) for a batch; the gains are 0-d or
    (B,).  Each row's gain equals the law at that row alone, bit for bit
    (but for a NaN's sign where psi0 and ||psi1||^2 are NaN).  Up to
    ``SCALAR_ROWS`` rows, a lone point included, the flat-psi1 test, the
    clamps and the quotient run on Python floats; two Python floats go
    straight there.  A row with psi0 <= 0 gives a zero gain (possibly
    -0.0), and psi1 = 0 there gives no NaN.
    """
    if type(psi0) is float and type(denom) is float:
        return np.array(_gain(psi0, denom))
    shape = getattr(psi0, "shape", ())  # a Python float is one point
    if shape != getattr(denom, "shape", ()):
        raise ValueError(f"psi0 and ||psi1||^2 have shapes {shape} and {np.shape(denom)}")
    if not shape:
        return np.array(_gain(float(psi0), float(denom)))
    if len(psi0) <= SCALAR_ROWS:
        return np.array([_gain(p, q, row) for row, (p, q)
                         in enumerate(zip(psi0.tolist(), denom.tolist()))])
    # psi1 ~ 0 relative to psi0; only such a row can be inconsistent, so
    # the full check runs only when one exists
    flat = denom <= _FLAT * psi0
    if np.count_nonzero(flat):
        bad = np.flatnonzero(flat & (psi0 > 0.0))
        if bad.size:
            row = int(bad[0])
            raise _inconsistency(f"row {row}: ", float(psi0[row]), float(denom[row]))
    return -(np.maximum(psi0, _ZERO) / np.maximum(denom, _TINY))


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


def membership(cert: ResClfCertificate, dyn: OutputDynamics, eta: np.ndarray,
               mu: np.ndarray, rate: float | None = None) -> tuple[bool, float]:
    """Controller-set membership test; returns (member, signed slack).

    The set is that of decrease rate `rate`, by default the rapid rate
    gamma/eps (rate = gamma gives the plain exponential set).  Membership
    allows the slack a working-precision margin (1e-12 scaled to the term
    magnitudes) so that the exactly-tight min-norm selection is a member
    despite round-off.  Applies unchanged to time-based outputs via eta_t.
    """
    eta = _check_eta(cert, eta)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (cert.dims.n_mu,):
        raise ValueError(f"mu has shape {mu.shape}, expected ({cert.dims.n_mu},)")
    rate = cert.rate if rate is None else rate
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
