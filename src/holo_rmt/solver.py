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

The solver iterates the Jacobi map G(x) = (Sigma^T diag T / M,
Sigma diag T~ / M), x = (delta, delta~), with T and T~ both built from x:
the map whose Jacobian J gives V = -log det(I - J) and whose defect
``self_consistency_residual`` reports.  G contracts ever more slowly as the
SNR grows, so the solver runs Anderson acceleration on it (Walker & Ni,
"Anderson acceleration for fixed-point iterations", SIAM J. Numer. Anal.
49(4), 2011).  With f(x) = G(x) - x and the last ANDERSON_DEPTH
differences dX, dF of iterates and of f, the step is

    gamma   = argmin || f(x_k) - dF gamma ||_2          (np.linalg.lstsq)
    x_{k+1} = G(x_k) - (dX + dF) gamma,

that is G(x_k) corrected by the secant history.  An extrapolated iterate
that is not entrywise positive lies outside the domain of G; the history is
then cleared and the plain step G(x_k) taken.  ``solve_deltas`` sets out
the stop and the point returned.

The LoS enters only through its thin factorization A = P Q^H of numerical
rank r (``ChannelModel.los_factors``), so T and T~ are diagonal matrices
minus rank-r corrections.  Each of diag T and diag T~ is read from an
r x r Woodbury capacitance system: an iteration costs O(NM + (N + M) r^2),
the two Sigma products included, against two dense O(N^3 + M^3) inverses.  A
centered channel is the case r = 0, where T = diag(psi) and T~ =
diag(psi~).  The solve keeps T and T~ factored, and the closed form reads
them only through the factors; ``Resolvents`` forms the full matrices, in
O(N^2 r + M^2 r), only when a check asks for them.  It also keeps T's
E = C - I, the r x r product the capacitance C is formed from, so only this
module knows how C is formed.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .errors import ConvergenceError, NumericalError

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000
ANDERSON_DEPTH = 5  # secant pairs kept in the Anderson history
_STOP_ULPS = 4 * np.finfo(float).eps  # stop floor per max(x), and e_G's factor


@dataclass(frozen=True)
class DeltaSolution:
    """Converged fixed-point parameters at z = -rho.

    ``residual`` is sup |G(x) - x| at the iterate x that met the stop and
    ``iterations`` counts the iterates up to x; (delta, delta~) are read
    one Anderson step past x, as ``solve_deltas`` sets out.
    """

    delta: np.ndarray        # length M, positive
    delta_tilde: np.ndarray  # length N, positive
    rho: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class Resolvents:
    """Resolvent equivalents at z = -rho in factored form.

    T = diag(psi) - X^H X with the r x N factor ``x`` of ``_woodbury``, T~
    likewise with the r x M ``x_tilde``; ``t_diag`` and ``t_tilde_diag`` are
    their real diagonals.  Both are Hermitian positive definite by
    construction; ``t_dense()`` and ``t_tilde_dense()`` form them in full,
    for checks.  ``chol_w`` = L and ``e`` = E = V^H diag(psi) V (V = P L)
    are the r x r products of T's ``_woodbury``: its capacitance is
    C = I + E, whose eigenvalues give the EMI's log det C and whose Cholesky
    factor ``tp()`` applies T to the LoS factor with.
    """

    t_diag: np.ndarray
    t_tilde_diag: np.ndarray
    x: np.ndarray
    x_tilde: np.ndarray
    chol_w: np.ndarray
    e: np.ndarray

    def tp(self) -> np.ndarray:
        """T P for the LoS factor P, in O(N r^2 + r^3).

        T V = psi V C^{-1} = X^H chol(C)^{-1}, so with V = P L,
        T P = X^H (L chol(C))^{-1}.  It subtracts nothing, where
        psi P - X^H (X P) cancels in the range of A as the SNR grows.
        """
        k = self.chol_w @ _cholesky(np.eye(self.e.shape[0]) + self.e)
        return np.linalg.solve(k.conj().T, self.x).conj().T

    def t_dense(self) -> np.ndarray:
        return _full(self.t_diag, self.x)

    def t_tilde_dense(self) -> np.ndarray:
        return _full(self.t_tilde_diag, self.x_tilde)


def _cholesky(mat):
    """Lower Cholesky factor of an r x r Hermitian positive definite matrix."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        eigmin = float(np.linalg.eigvalsh(mat).min())
        raise NumericalError(
            f"r x r resolvent matrix is not positive definite "
            f"(min eigenvalue {eigmin:.3e})") from None


def _woodbury(rho, own, other, p, q):
    """Low-rank form of T = (diag(1/psi) + P Q^H diag(weights) Q P^H)^{-1}.

    psi = 1/(rho (1 + own)) and weights = 1/(1 + other); T takes
    (delta~, delta, P, Q) and T~ (delta, delta~, Q, P).  With
    L = chol(Q^H diag(weights) Q), V = P L and the r x r capacitance
    C = I + E, E = V^H diag(psi) V, Woodbury gives T = diag(psi) - X^H X
    with X = chol(C)^{-1} V^H diag(psi).  Returns (diag T, X, E, L);
    r = 0 gives the empty X, so T = diag(psi).
    """
    psi = 1.0 / (rho * (1.0 + own))
    weights = 1.0 / (1.0 + other)
    l = _cholesky(q.conj().T @ (weights[:, None] * q))
    v = p @ l
    pvh = (psi[:, None] * v).conj().T
    e = pvh @ v
    x = np.linalg.solve(_cholesky(np.eye(p.shape[1]) + e), pvh)
    return psi - (np.abs(x) ** 2).sum(axis=0), x, e, l


def _full(t_diag, x):
    """T = diag(psi) - X^H X, Hermitian, with the diagonal _woodbury returned."""
    mat = -(x.conj().T @ x)
    mat = 0.5 * (mat + mat.conj().T)
    np.fill_diagonal(mat, t_diag)
    return mat


def compute_resolvents(model: ChannelModel, delta, delta_tilde) -> Resolvents:
    """Factored T and T~ for given fixed-point parameters."""
    delta = np.asarray(delta, dtype=float)
    delta_tilde = np.asarray(delta_tilde, dtype=float)
    if not (np.all(delta > 0) and np.all(delta_tilde > 0)):
        raise ValueError("delta parameters must be entrywise positive")
    rho = model.zeta
    p, q = model.los_factors
    t_diag, x, e, l = _woodbury(rho, delta_tilde, delta, p, q)
    tt_diag, xt = _woodbury(rho, delta, delta_tilde, q, p)[:2]
    return Resolvents(t_diag, tt_diag, x, xt, l, e)


def _jacobi_image(model: ChannelModel, t_diag, t_tilde_diag) -> np.ndarray:
    """(Sigma^T t / M, Sigma t~ / M); G(x) for diag T and diag T~ at x."""
    m = model.dims[1]
    sigma = model.profile.matrix
    return np.concatenate([sigma.T @ t_diag, sigma @ t_tilde_diag]) / m


def solve_deltas(model: ChannelModel, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER):
    """Anderson-accelerated fixed point of the Jacobi map G.

    The solve runs at rho = the model's zeta (``ChannelModel.at_zeta`` moves
    a channel to another noise level), starts from delta = delta~ = 1 and
    stops at the first iterate x with, for every entry i,

        |G(x) - x|_i <= max(tol min(1, x_i) + 4 eps max(x), e_G,i):

    absolute for entries >= 1, relative below 1, never below 4 ulps of the
    largest delta, which G cannot resolve, nor below e_G = G(4 eps (2 psi - t)),
    the rounding bound of ``_woodbury``'s t = psi - diag X^H X (2 psi - t is
    t + 2 diag X^H X).  The solution is read one Anderson step past x, at
    y = G(x'), as G(x) is off the fixed point by about (I - J)^{-1} times the
    residual (on rank-4 desk LoS at 0-30 dB, V is 5e-14 off there, 1e-13 at
    G(x)): delta = y[:M] and delta~ the image Sigma diag T~ / M of the T~ at y,
    where the EMI's closed form is stationary in delta (y[M:] left 2e-14).

    Returns (DeltaSolution, Resolvents); raises ConvergenceError with the
    residual trace when max_iter iterates miss the stop.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    n, m = model.dims
    x = np.ones(m + n)
    d_x = deque(maxlen=ANDERSON_DEPTH)
    d_f = deque(maxlen=ANDERSON_DEPTH)
    x_prev = f_prev = None
    residuals = []
    # 2 psi - t <= 2 psi < 2 / rho puts e_G below 8 eps times the delta bounds
    reach = 4.0 * _STOP_ULPS * max(delta_upper_bounds(model))  # twice, for rounding
    for iteration in range(1, max_iter + 1):
        res = compute_resolvents(model, x[:m], x[m:])
        g = _jacobi_image(model, res.t_diag, res.t_tilde_diag)
        f = g - x
        residuals.append(float(np.abs(f).max()))
        bound = tol * np.minimum(1.0, x) + _STOP_ULPS * x.max()
        stop = np.all(np.abs(f) <= bound)
        if not stop and residuals[-1] <= max(tol + _STOP_ULPS * x.max(), reach):
            bound = np.maximum(bound, _STOP_ULPS * _jacobi_image(
                model, res.t_diag + 2.0 * (np.abs(res.x) ** 2).sum(axis=0),
                res.t_tilde_diag + 2.0 * (np.abs(res.x_tilde) ** 2).sum(axis=0)))
            stop = np.all(np.abs(f) <= bound)
        if x_prev is not None:
            d_x.append(x - x_prev)
            d_f.append(f - f_prev)
        x_prev, f_prev = x, f
        x = g
        if d_f:
            dx, df = np.column_stack(d_x), np.column_stack(d_f)
            gamma = np.linalg.lstsq(df, f, rcond=None)[0]
            x_acc = g - (dx + df) @ gamma
            if np.all(x_acc > 0):
                x = x_acc
            else:
                d_x.clear()
                d_f.clear()
        if stop:
            break
    else:
        raise ConvergenceError(
            f"fixed point did not reach |G(x) - x| <= max(tol min(1, x) + "
            f"4 eps max(x), e_G) with tol={tol:g} in {max_iter} iterations "
            f"(last residual {residuals[-1]:.3e})", residuals=residuals)

    res = compute_resolvents(model, x[:m], x[m:])
    y = _jacobi_image(model, res.t_diag, res.t_tilde_diag)
    res = compute_resolvents(model, y[:m], y[m:])
    delta, delta_tilde = y[:m], _jacobi_image(model, res.t_diag, res.t_tilde_diag)[m:]
    return (DeltaSolution(delta, delta_tilde, float(model.zeta), iteration,
                          residuals[-1]),
            compute_resolvents(model, delta, delta_tilde))


def self_consistency_residual(model: ChannelModel, solution: DeltaSolution,
                              res: Resolvents) -> float:
    """sup |x - G(x)| of the returned x = (delta, delta~), G read from ``res``."""
    x = np.concatenate([solution.delta, solution.delta_tilde])
    return float(np.abs(x - _jacobi_image(model, res.t_diag, res.t_tilde_diag)).max())


def delta_upper_bounds(model: ChannelModel):
    """Trace-inequality bounds: delta_j <= (N/M) s2max/rho, delta~_i <= s2max/rho."""
    n, m = model.dims
    s2max = model.profile.sigma2_max
    return (n / m) * s2max / model.zeta, s2max / model.zeta
