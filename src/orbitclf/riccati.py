"""CARE synthesis, epsilon scaling, and the RES-CLF certificate constants.

The continuous algebraic Riccati equation for the output dynamics pair
(F, G) with unit input weight,

    F'P + P F - P G G' P + Q = 0,    Q = Q' > 0,

is solved by Newton-Kleinman iteration in correction form: each step
solves the Lyapunov equation A' X + X A = -R for the current closed loop
A = F - G K, K = G' P, with R the current CARE residual, and sets
P <- P + X.  The inner Lyapunov equation is solved in O(n^3) by the scaled
matrix-sign iteration; since its right-hand side is the residual itself,
the final accuracy is set by the residual evaluation, not by the inner
solve.  The seed is the closed-form Q = I solution, which stabilizes F for
every valid dims, so every iterate is stabilizing and trace(P_i) is
non-increasing.  Symmetric eigenvalues come from LAPACK (np.linalg.eigh).

Epsilon scaling uses M = diag(I_k1, (1/eps) I_k2, I_k2).  This is the
unique diagonal block scaling (with unit y1 and dy2 blocks) for which

    F'P_e + P_e F - (1/eps) P_e G G' P_e + (1/eps) Q_e = 0

holds identically given the CARE, with P_e = M P M and Q_e = M Q M.  The
residual of this identity is validated on every certificate.

Certificate constants: gamma = lambda_min(Q)/lambda_max(P) (so that
gamma * P <= Q; it is also the decrease constant c3), c1 = lambda_min(P),
c2 = lambda_max(P).
Since I <= M <= (1/eps) I, the quadratic form eta' P_e eta is sandwiched
between c1 ||eta||^2 and (c2/eps^2) ||eta||^2 for every 0 < eps <= 1.

The bounds are module constants: RESIDUAL_TOL (1e-10) on both residuals,
SYM_TOL (1e-12) on the asymmetry ``sym_eig`` accepts, and NK_MAX_ITER
(100) Newton-Kleinman iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .output_dynamics import OutputDims, OutputDynamics

SQRT3 = float(np.sqrt(3.0))

#: Frobenius-norm ceiling accepted for both Riccati residuals.
RESIDUAL_TOL = 1e-10
#: largest |A - A'| accepted as symmetric, per unit of max(1, max |A|)
SYM_TOL = 1e-12
#: Newton-Kleinman iterations before the solve gives up
NK_MAX_ITER = 100

#: Sign-iteration cap, and the entrywise step below which A has stopped moving
#: (convergence is quadratic, so the next error is about its square).
_SIGN_MAX_ITER = 100
_SIGN_TOL = 1e-8


class CareSolveError(RuntimeError):
    """Newton-Kleinman failed to reach the residual tolerance."""


def sym_eig(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix (LAPACK, via np.linalg.eigh).

    Returns (eigenvalues ascending, orthonormal eigenvectors as columns).
    Raises ValueError if A is not square, or not symmetric within SYM_TOL
    (scaled by the magnitude of A).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 0.0)
    if A.size and float(np.max(np.abs(A - A.T))) > SYM_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return np.linalg.eigh(0.5 * (A + A.T))


def _spd_eigenvalues(A: np.ndarray) -> np.ndarray | None:
    """``sym_eig``'s eigenvalues of A when A is symmetric positive definite, else None."""
    try:
        w, _ = sym_eig(A)
    except ValueError:
        return None
    return w if w[0] > 0.0 else None


def care_residual(dyn: OutputDynamics, P: np.ndarray, Q: np.ndarray) -> float:
    """Frobenius norm of F'P + PF - PGG'P + Q."""
    F, G = dyn.F, dyn.G
    return float(np.linalg.norm(F.T @ P + P @ F - P @ G @ G.T @ P + Q))


def scaled_care_residual(dyn: OutputDynamics, P_eps: np.ndarray, Q_eps: np.ndarray,
                         eps: float) -> float:
    """Frobenius norm of the epsilon-scaled Riccati identity residual."""
    F, G = dyn.F, dyn.G
    R = F.T @ P_eps + P_eps @ F - (1.0 / eps) * P_eps @ G @ G.T @ P_eps + (1.0 / eps) * Q_eps
    return float(np.linalg.norm(R))


def closed_form_identity_p(dims: OutputDims) -> np.ndarray:
    """Exact CARE solution for Q = I.

    The (F, G) structure decouples into k1 scalar integrators (P block = 1)
    and k2 double integrators (P block = [[sqrt3, 1], [1, sqrt3]]), so the
    solution is assembled blockwise.  Used as the Newton-Kleinman seed.
    """
    k1, k2 = dims.k1, dims.k2
    n = dims.n_eta
    P = np.zeros((n, n))
    P[:k1, :k1] = np.eye(k1)
    for i in range(k2):
        a, b = k1 + i, k1 + k2 + i  # (y2_i, dy2_i) index pair
        P[a, a] = SQRT3
        P[b, b] = SQRT3
        P[a, b] = P[b, a] = 1.0
    return P


def solve_lyapunov(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Solve A'X + XA = -C for Hurwitz A by the scaled matrix-sign iteration.

    A <- (gA + A^-1/g)/2 converges to sign(A) = -I, and the paired update
    C <- (gC + A^-T C A^-1/g)/2 to 2X (Roberts 1980); g = |det A|^(-1/n) is
    the determinant scaling.  Raises ValueError if A does not reach -I,
    i.e. A is not Hurwitz.
    """
    n = A.shape[0]
    for _ in range(_SIGN_MAX_ITER):
        A_inv = np.linalg.inv(A)
        g = float(np.exp(-np.linalg.slogdet(A)[1] / n))
        A, A_prev = 0.5 * g * A + (0.5 / g) * A_inv, A
        C = 0.5 * g * C + (0.5 / g) * (A_inv.T @ C @ A_inv)
        if np.abs(A - A_prev).max() <= _SIGN_TOL:
            break
    if not np.abs(A + np.eye(n)).max() <= _SIGN_TOL:
        raise ValueError("Lyapunov solve: A is not Hurwitz (sign iteration did not reach -I)")
    return 0.25 * (C + C.T)


def newton_kleinman_iterates(dyn: OutputDynamics, Q: np.ndarray) -> Iterator[np.ndarray]:
    """Yield up to NK_MAX_ITER Newton-Kleinman iterates P_i (all stabilizing), correction form."""
    F, G = dyn.F, dyn.G
    P = closed_form_identity_p(dyn.dims)
    for _ in range(NK_MAX_ITER):
        K = G.T @ P
        R = F.T @ P + P @ F - K.T @ K + Q
        P = P + solve_lyapunov(F - G @ K, R)
        yield P


def solve_care(dyn: OutputDynamics, Q: np.ndarray, spectra: dict | None = None) -> np.ndarray:
    """Solve the CARE for (F, G) and SPD Q; returns the stabilizing P.

    Iterates past RESIDUAL_TOL down to the round-off floor: the
    epsilon-scaled identity downstream amplifies this residual by up to
    1/eps^3, so the solve must be as exact as the arithmetic allows.
    Raises ValueError for a non-SPD Q, and CareSolveError on overflow or on
    non-convergence within NK_MAX_ITER iterations.  A `spectra` dict
    receives what the checks took on the way, ``sym_eig``'s eigenvalues of
    P and Q ("P", "Q") and P's CARE residual ("residual").
    """
    Q = np.asarray(Q, dtype=float)
    n = dyn.dims.n_eta
    if Q.shape != (n, n):
        raise ValueError(f"Q has shape {Q.shape}, expected ({n}, {n})")
    w_q = _spd_eigenvalues(Q)
    if w_q is None:
        raise ValueError("Q must be symmetric positive definite")
    prev_res = np.inf
    try:
        with np.errstate(over="raise", invalid="raise"):
            floor = 1e-15 * max(1.0, float(np.linalg.norm(Q)))
            for P in newton_kleinman_iterates(dyn, Q):
                res = care_residual(dyn, P, Q)
                at_floor = res <= floor or res >= 0.25 * prev_res
                prev_res = res
                if res <= RESIDUAL_TOL and at_floor:
                    cl_eigs = np.linalg.eigvals(dyn.F - dyn.G @ dyn.G.T @ P)
                    if np.max(cl_eigs.real) >= 0.0:
                        raise CareSolveError("converged P is not stabilizing")
                    w_p = _spd_eigenvalues(P)
                    if w_p is None:
                        raise CareSolveError("converged P is not positive definite")
                    if spectra is not None:
                        spectra.update(P=w_p, Q=w_q, residual=res)
                    return P
    except FloatingPointError as exc:
        raise CareSolveError(f"Newton-Kleinman left the double range ({exc})") from exc
    raise CareSolveError(f"no convergence to residual {RESIDUAL_TOL:g} "
                         f"within {NK_MAX_ITER} iterations")


def scale_epsilon(P: np.ndarray, Q: np.ndarray, dims: OutputDims,
                  eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, P_eps, Q_eps) = (M, M P M, M Q M) for the scaling M = diag(I_k1, (1/eps) I_k2, I_k2)."""
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    M = np.diag(np.concatenate([np.ones(dims.k1), np.full(dims.k2, 1.0 / eps), np.ones(dims.k2)]))
    return M, M @ P @ M, M @ Q @ M


@dataclass(frozen=True)
class ResClfCertificate:
    """RES-CLF certificate: scaled Riccati data plus the Def.-2 constants."""

    dims: OutputDims
    eps: float
    P: np.ndarray = field(repr=False)
    Q: np.ndarray = field(repr=False)
    M: np.ndarray = field(repr=False)
    P_eps: np.ndarray = field(repr=False)
    Q_eps: np.ndarray = field(repr=False)
    gamma: float
    c1: float
    c2: float
    care_residual: float
    scaled_residual: float

    @property
    def rate(self) -> float:
        """Guaranteed exponential decrease rate gamma/eps of V_eps."""
        return self.gamma / self.eps

    def to_dict(self) -> dict:
        return {
            "k1": self.dims.k1,
            "k2": self.dims.k2,
            "eps": self.eps,
            "P": self.P.tolist(),
            "Q": self.Q.tolist(),
            "M": np.diag(self.M).tolist(),
            "P_eps": self.P_eps.tolist(),
            "Q_eps": self.Q_eps.tolist(),
            "gamma": self.gamma,
            "c1": self.c1,
            "c2": self.c2,
            "care_residual": self.care_residual,
            "scaled_residual": self.scaled_residual,
        }

    @staticmethod
    def from_dict(data: dict) -> "ResClfCertificate":
        dims = OutputDims(k1=int(data["k1"]), k2=int(data["k2"]))
        return ResClfCertificate(
            dims=dims,
            eps=float(data["eps"]),
            P=np.asarray(data["P"], dtype=float),
            Q=np.asarray(data["Q"], dtype=float),
            M=np.diag(np.asarray(data["M"], dtype=float)),
            P_eps=np.asarray(data["P_eps"], dtype=float),
            Q_eps=np.asarray(data["Q_eps"], dtype=float),
            gamma=float(data["gamma"]),
            c1=float(data["c1"]),
            c2=float(data["c2"]),
            care_residual=float(data["care_residual"]),
            scaled_residual=float(data["scaled_residual"]),
        )


def certificate(dyn: OutputDynamics, Q: np.ndarray, eps: float) -> ResClfCertificate:
    """Solve, scale, and package the full RES-CLF certificate.

    Validates the certificate invariants: both residuals within tolerance,
    gamma > 0, and gamma*P <= Q up to 1e-12 eigenvalue slack.
    """
    Q = np.asarray(Q, dtype=float)
    P = solve_care(dyn, Q, spectra := {})
    w_p, w_q, res = spectra["P"], spectra["Q"], spectra["residual"]
    M, P_eps, Q_eps = scale_epsilon(P, Q, dyn.dims, eps)
    gamma = float(w_q[0] / w_p[-1])
    res_eps = scaled_care_residual(dyn, P_eps, Q_eps, eps)
    for name, value in (("CARE residual", res), ("eps-scaled CARE residual", res_eps)):
        if value > RESIDUAL_TOL:
            # the scaled identity has terms of size about ||Q||/eps^3, which a
            # double-precision P cannot match to an absolute tolerance
            raise CareSolveError(
                f"{name} {value:g} exceeds the tolerance {RESIDUAL_TOL:g} "
                f"at ||Q|| = {w_q[-1]:g}, eps = {eps:g}; try rescaling Q to a smaller norm")
    if gamma <= 0.0:
        raise CareSolveError("gamma must be positive")
    w_gap, _ = sym_eig(Q - gamma * P)
    if w_gap[0] < -1e-12:
        raise CareSolveError(f"gamma*P <= Q violated: min eig {w_gap[0]:g}")
    return ResClfCertificate(
        dims=dyn.dims, eps=float(eps), P=P, Q=Q, M=M, P_eps=P_eps, Q_eps=Q_eps,
        gamma=gamma, c1=float(w_p[0]), c2=float(w_p[-1]),
        care_residual=res, scaled_residual=res_eps,
    )
