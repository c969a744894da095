"""Fixed-point solution of the coupled deterministic-equivalent system.

For a channel H = A + Sigma^(o1/2) .* X of size N x M evaluated at
z = -rho (rho > 0), the system couples M scalars delta_j with N scalars
delta~_i through the resolvent-equivalent matrices

    T  = ( diag(rho (1 + delta~_i))  + rho A  psi~ A^H )^{-1}    (N x N)
    T~ = ( diag(rho (1 + delta_j))   + rho A^H psi  A  )^{-1}    (M x M)

with psi_i = 1 / (rho (1 + delta~_i)) and psi~_j = 1 / (rho (1 + delta_j)),
and the self-consistency conditions

    delta_j  = tr(D_j T) / M,     D_j  = diag of the j-th column of Sigma,
    delta~_i = tr(D~_i T~) / M,   D~_i = diag of the i-th row of Sigma.

Iteration follows the Gauss-Seidel order of the underlying algorithm: the
delta update uses the previous iterate's T, the delta~ update then uses the
T~ built from the fresh delta.

The LoS enters only through its thin factorization A = P Q^H of numerical
rank r (``ChannelModel.los_factors``), so T and T~ are diagonal matrices
minus rank-r corrections.  Each half-step reads diag T from an r x r
Woodbury capacitance system: an iteration costs O(NM + (N + M) r^2), the
two Sigma products included, against two dense O(N^3 + M^3) inverses.  A
centered channel is the case r = 0, where T = diag(psi) and T~ =
diag(psi~).  The full matrices are formed only once, after convergence, in
O(N^2 r + M^2 r).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .channel import ChannelModel
from .errors import ConvergenceError, NumericalError

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000


@dataclass(frozen=True)
class DeltaSolution:
    """Converged fixed-point parameters at z = -rho."""

    delta: np.ndarray        # length M, positive
    delta_tilde: np.ndarray  # length N, positive
    rho: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class Resolvents:
    """Resolvent equivalents and their diagonals at z = -rho.

    ``t_diag`` and ``t_tilde_diag`` are the real diagonals of T and T~;
    ``psi`` / ``psi_tilde`` the diagonal weight vectors.  T and T~ are
    Hermitian positive definite by construction.
    """

    t_mat: np.ndarray
    t_tilde_mat: np.ndarray
    psi: np.ndarray
    psi_tilde: np.ndarray
    t_diag: np.ndarray
    t_tilde_diag: np.ndarray
    logdet_t_inv: float
    logdet_t_tilde_inv: float


def _cholesky(mat):
    """Lower Cholesky factor of an r x r Hermitian positive definite matrix.

    LAPACK is called directly: the solver factors two r x r matrices per
    half-step, where the numpy and scipy wrappers cost more than the work.
    """
    potrf, = sla.get_lapack_funcs(("potrf",), (mat,))
    factor, info = potrf(mat, lower=True)
    if info:
        eigmin = float(np.linalg.eigvalsh(mat).min())
        raise NumericalError(
            f"r x r resolvent matrix is not positive definite "
            f"(min eigenvalue {eigmin:.3e})")
    return factor


def _woodbury(psi, p, q, weights):
    """Low-rank form of T = (diag(1/psi) + P Q^H diag(weights) Q P^H)^{-1}.

    With L = chol(Q^H diag(weights) Q), V = P L and the r x r capacitance
    C = I + V^H diag(psi) V, Woodbury gives T = diag(psi) - X^H X with
    X = chol(C)^{-1} V^H diag(psi).  Returns (diag T, X, chol(C)); r = 0
    leaves T = diag(psi).
    """
    r = p.shape[1]
    v = p @ _cholesky(q.conj().T @ (weights[:, None] * q))
    pvh = (psi[:, None] * v).conj().T
    lc = _cholesky(np.eye(r) + pvh @ v)
    if r:  # LAPACK rejects an empty right-hand side
        trtrs, = sla.get_lapack_funcs(("trtrs",), (lc,))
        x = trtrs(lc, pvh, lower=True)[0]
    else:
        x = pvh
    return psi - (np.abs(x) ** 2).sum(axis=0), x, lc


def _logdet_inv(psi, lc):
    """log det T^{-1} = log det C - sum log psi (matrix determinant lemma)."""
    return (2.0 * float(np.sum(np.log(np.real(np.diag(lc)))))
            - float(np.sum(np.log(psi))))


def _full(t_diag, x):
    """T = diag(psi) - X^H X, Hermitian, with the diagonal _woodbury returned."""
    mat = -(x.conj().T @ x)
    mat = 0.5 * (mat + mat.conj().T)
    np.fill_diagonal(mat, t_diag)
    return mat


def compute_resolvents(model: ChannelModel, delta, delta_tilde,
                       rho: float) -> Resolvents:
    """Materialize T, T~, psi, psi~ for given fixed-point parameters."""
    delta = np.asarray(delta, dtype=float)
    delta_tilde = np.asarray(delta_tilde, dtype=float)
    if np.any(delta <= 0) or np.any(delta_tilde <= 0):
        raise ValueError("delta parameters must be entrywise positive")
    if rho <= 0:
        raise ValueError("rho must be positive")
    p, q = model.los_factors
    psi = 1.0 / (rho * (1.0 + delta_tilde))
    psi_tilde = 1.0 / (rho * (1.0 + delta))
    # rho psi~ = 1 / (1 + delta) and rho psi = 1 / (1 + delta~).
    t_diag, x, lc = _woodbury(psi, p, q, 1.0 / (1.0 + delta))
    tt_diag, xt, lct = _woodbury(psi_tilde, q, p, 1.0 / (1.0 + delta_tilde))
    return Resolvents(t_mat=_full(t_diag, x), t_tilde_mat=_full(tt_diag, xt),
                      psi=psi, psi_tilde=psi_tilde, t_diag=t_diag,
                      t_tilde_diag=tt_diag,
                      logdet_t_inv=_logdet_inv(psi, lc),
                      logdet_t_tilde_inv=_logdet_inv(psi_tilde, lct))


def solve_deltas(model: ChannelModel, rho: float | None = None,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                 damping: float = 1.0, init: float = 1.0):
    """Run the fixed-point iteration until the sup-norm update <= tol.

    ``rho`` defaults to the model's zeta.  ``damping`` in (0, 1] relaxes the
    update (1 = plain iteration); it exists because no convergence rate is
    guaranteed.  Returns (DeltaSolution, Resolvents).

    Raises ConvergenceError with the residual trace when max_iter is
    exhausted.
    """
    if rho is None:
        rho = model.zeta
    if rho <= 0:
        raise ValueError("rho must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")

    n, m = model.dims
    sigma = model.profile.matrix
    p, q = model.los_factors

    delta = np.full(m, float(init))
    delta_tilde = np.full(n, float(init))
    residuals = []
    for iteration in range(1, max_iter + 1):
        psi = 1.0 / (rho * (1.0 + delta_tilde))
        t_diag = _woodbury(psi, p, q, 1.0 / (1.0 + delta))[0]
        delta_new = _relax(delta, sigma.T @ t_diag / m, damping)
        psi_tilde = 1.0 / (rho * (1.0 + delta_new))
        tt_diag = _woodbury(psi_tilde, q, p, 1.0 / (1.0 + delta_tilde))[0]
        delta_tilde_new = _relax(delta_tilde, sigma @ tt_diag / m, damping)

        residual = max(float(np.abs(delta_new - delta).max()),
                       float(np.abs(delta_tilde_new - delta_tilde).max()))
        residuals.append(residual)
        delta, delta_tilde = delta_new, delta_tilde_new
        if residual <= tol:
            solution = DeltaSolution(delta=delta, delta_tilde=delta_tilde,
                                     rho=float(rho), iterations=iteration,
                                     residual=residual)
            return solution, compute_resolvents(model, delta, delta_tilde, rho)

    raise ConvergenceError(
        f"fixed point did not reach tol={tol:g} in {max_iter} iterations "
        f"(last residual {residuals[-1]:.3e})", residuals=residuals)


def _relax(old, new, damping):
    if damping == 1.0:
        return new
    return (1.0 - damping) * old + damping * new


def self_consistency_residual(model: ChannelModel, solution: DeltaSolution,
                              res: Resolvents) -> float:
    """sup-norm defect of the returned solution in the original equations."""
    m = model.dims[1]
    sigma = model.profile.matrix
    r1 = np.abs(solution.delta - sigma.T @ res.t_diag / m).max()
    r2 = np.abs(solution.delta_tilde - sigma @ res.t_tilde_diag / m).max()
    return float(max(r1, r2))


def delta_upper_bounds(model: ChannelModel, rho: float):
    """Trace-inequality bounds: delta_j <= (N/M) s2max/rho, delta~_i <= s2max/rho."""
    n, m = model.dims
    s2max = model.profile.sigma2_max
    return (n / m) * s2max / rho, s2max / rho
