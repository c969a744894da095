"""Closed-form asymptotic statistics of the mutual information.

Given a converged fixed-point solution this module evaluates the
deterministic-equivalent ergodic MI, assembles the M x M blocks of the
2M x 2M matrix B whose log-det gives the asymptotic variance, computes that
variance (from one M x M log-det, a Schur complement over the LoS block Pi,
when Pi has low rank), and provides two cross checks: a Gaussian outage
approximation and an independent per-column linear-system evaluation of the
same variance.  Everything reads T and T~ through the solve's factors:
B = [[Pi, Sigma^T |T|^2 Sigma / M^2], [zeta^2 |T~|^2, Pi^T]], its two
modulus blocks from one form, and the EMI from the Woodbury products.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel
from .errors import InvalidRegimeError, NumericalError
from .normal import norm_cdf
from .solver import DeltaSolution, Resolvents, solve_deltas

ORACLE_MAX_COLUMNS = 64


@dataclass(frozen=True)
class BMatrix:
    """Blocks of B = [[Pi, Gamma], [Xi + Lambda~, Pi^T]].

    All blocks are M x M real and entrywise nonnegative; Xi has a zero
    diagonal, kept as its block ``xi_block`` on the LoS columns ``xi_rows``
    (``xi`` scatters it), and Lambda~ is diagonal.  ``pi_factors`` = (U, V),
    when given, are real M x k factors with Pi = U V^T.
    """

    pi: np.ndarray
    xi_rows: np.ndarray
    xi_block: np.ndarray
    gamma: np.ndarray
    lambda_tilde: np.ndarray
    pi_factors: tuple[np.ndarray, np.ndarray] | None = field(default=None,
                                                             repr=False)

    @property
    def m(self) -> int:
        return self.pi.shape[0]

    @property
    def xi(self) -> np.ndarray:
        xi = np.zeros((self.m, self.m))
        xi[np.ix_(self.xi_rows, self.xi_rows)] = self.xi_block
        return xi

    def full(self) -> np.ndarray:
        return np.block([[self.pi, self.gamma],
                         [self.xi + np.diag(self.lambda_tilde), self.pi.T]])


@dataclass(frozen=True)
class AsymptoticStats:
    """Deterministic-equivalent mean and CLT variance at one noise level."""

    emi_nats: float
    variance: float
    zeta: float
    solution: DeltaSolution

    @property
    def emi_bits(self) -> float:
        return self.emi_nats / math.log(2.0)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


def emi_deterministic(model: ChannelModel, solution: DeltaSolution,
                      res: Resolvents) -> float:
    """Deterministic equivalent of the ergodic MI, in nats: the paper's
    log det[T^{-1}/zeta] + sum log1p(delta) - (zeta/M) sum_ij s_ij T_ii T~_jj
    (s = sigma^2) summed from terms that are each >= 0,

        sum log1p(delta~) + log det C + sum [log1p(delta) - delta/(1 + delta)]
          + zeta sum_j delta_j ||x~_j||^2.

    The determinant lemma on T^{-1} = diag(zeta (1 + delta~)) + V V^H,
    V = P chol_w, gives the first two, C = I + E being the Woodbury
    capacitance the solve formed (E = ``res.e``); log det C =
    sum log1p(eig(E)), as chol(C)'s diagonal rounds E to an ulp of 1.  The
    fixed point sum_i sigma^2_ij T_ii = M delta_j and zeta T~_jj =
    1/(1 + delta_j) - zeta ||x~_j||^2 (x~ = ``x_tilde``) give the last two.
    """
    delta, delta_tilde = solution.delta, solution.delta_tilde
    eig = np.linalg.eigvalsh(res.e)
    x_tilde_sq = (np.abs(res.x_tilde) ** 2).sum(axis=0)
    return (float(np.sum(np.log1p(delta_tilde))) + float(np.sum(np.log1p(eig)))
            + float(np.sum(np.log1p(delta) - delta / (1.0 + delta)))
            + model.zeta * float(delta @ x_tilde_sq))


def abs2_factors(y: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real factors F (N x r^2) and G (M x r^2) with |Y Q^H|^2 = F G^T.

    Entrywise, |sum_l y_l conj(q_l)|^2 expands into the r squared moduli
    |y_l|^2 |q_l|^2 and, for each pair l < l', the cross term
    2 Re(a b) = 2 Re(a) Re(b) - 2 Im(a) Im(b) with a = y_l conj(y_l') and
    b = conj(q_l) q_l'.  r = 0 gives k = 0 columns.
    """
    first, second = np.triu_indices(y.shape[1], k=1)
    a = y[:, first] * y[:, second].conj()
    b = q[:, first].conj() * q[:, second]
    f = np.hstack([np.abs(y) ** 2, 2.0 * a.real, -2.0 * a.imag])
    g = np.hstack([np.abs(q) ** 2, b.real, b.imag])
    return f, g


def _abs2_support(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The off-diagonal of |diag(psi) - X^H X|^2 for a factored resolvent
    (T from ``res.x``, T~ from ``res.x_tilde``): that of |X^H X|^2, which
    lives on the rows S where X is nonzero.  Returns S and the |S| x |S|
    block with a zero diagonal; the diagonal, the squared resolvent
    diagonal, is the caller's.  It subtracts nothing, and a single LoS has
    |S| = 1."""
    xh = x.conj().T
    rows = np.flatnonzero(np.any(xh, axis=1))
    block = np.abs(xh[rows] @ xh[rows].conj().T) ** 2
    np.fill_diagonal(block, 0.0)
    return rows, block


def build_b(model: ChannelModel, solution: DeltaSolution,
            res: Resolvents) -> BMatrix:
    """Assemble the four blocks of the variance matrix B.

    Pi_{j,k}    = a_k^H T D_j T a_k / (M (1+delta_k)^2)
    Xi_{j,k}    = |a_j^H T a_k|^2 / ((1+delta_j)^2 (1+delta_k)^2), j != k
    Gamma_{j,k} = tr(D_j T D_k T) / M^2
    Lambda~     = rho^2 diag(t~_jj^2)

    With w_k = T a_k, Pi's quadratic forms reduce to column sums against
    |w|^2, and the Gamma double trace to Sigma^T |T|^2 Sigma, because T is
    Hermitian.  Xi + Lambda~ is rho^2 |T~|^2: write T = (R + A W A^H)^{-1}
    with R = diag(rho (1 + delta~)) and W = D^{-1}, D = diag(1 + delta).
    Then rho T~ = (W^{-1} + A^H R^{-1} A)^{-1}, and Woodbury gives
    A^H T A = D - rho D T~ D, so off the diagonal
    a_j^H T a_k = -rho (1 + delta_j)(1 + delta_k) T~_jk and
    Xi_jk = rho^2 |T~_jk|^2; Lambda~ is the diagonal of the same block.  So
    Gamma and Xi read the one modulus form |diag(psi) - X^H X|^2
    (``_abs2_support``), of T's factor and of T~'s; Xi stays on its
    support.  A centered channel (r = 0) gives Pi = Xi = 0.

    No N x N matrix is formed.  T P is ``Resolvents.tp()`` (dense T @ P
    cancels in the range of A as the SNR grows) and T A = (T P) Q^H for
    the LoS factors A = P Q^H.  The width decides only Pi's form: while
    2 r^2 <= M, Pi = U V^T from abs2_factors (rank <= r^2), the factors
    variance_clt uses; past it Pi is formed from T A, which with
    variance_clt's dense 2M x 2M log-det is then the cheaper path
    (measured at M = 317).
    """
    m = model.dims[1]
    sigma = model.profile.matrix
    one_plus_sq = (1.0 + solution.delta) ** 2
    rho = solution.rho
    q = model.los_factors[1]

    pi_factors = None
    tp = res.tp()
    if 2 * q.shape[1] ** 2 <= m:
        f, g = abs2_factors(tp, q)
        pi_factors = (sigma.T @ f / m, g / one_plus_sq[:, None])
        pi = pi_factors[0] @ pi_factors[1].T
    else:
        w = tp @ q.conj().T                            # w[:, k] = T a_k
        pi = (sigma.T @ (np.abs(w) ** 2)) / (m * one_plus_sq[None, :])
    rows, block = _abs2_support(res.x)
    s = sigma[rows]
    gamma = ((sigma.T * res.t_diag ** 2) @ sigma + (s.T @ block) @ s) / m ** 2
    gamma = 0.5 * (gamma + gamma.T)
    rows, block = _abs2_support(res.x_tilde)
    return BMatrix(pi=pi, xi_rows=rows, xi_block=rho ** 2 * block, gamma=gamma,
                   lambda_tilde=(rho * res.t_tilde_diag) ** 2, pi_factors=pi_factors)


def variance_clt(b: BMatrix) -> float:
    """Asymptotic variance -log det(I_{2M} - B), in nats^2.

    Without ``pi_factors`` this is the pivoted-LU log-det of the dense
    2M x 2M matrix.  With Pi = U V^T (k columns) a Schur complement on the
    top-left block gives

        det(I - B) = det(I - Pi) det(S),
        S = I - Pi^T - (Xi + Lambda~) (I - Pi)^{-1} Gamma,

    and the matrix determinant lemma and Woodbury give
    det(I - Pi) = det(I_k - V^T U) and
    (I - Pi)^{-1} Gamma = Gamma + U (I_k - V^T U)^{-1} V^T Gamma.  So the
    cost is one M x M and one k x k log-det, Xi Y taken on Xi's support
    rows; a centered channel has k = 0 and S = I - Lambda~ Gamma.  Pi is a
    principal block of the nonnegative B, so rho(Pi) <= rho(B) < 1 and
    I - Pi is nonsingular wherever the formula applies.  A non-positive
    determinant (the spectral-radius condition failed) is an invalid regime.

    V is also -log det(I - J), J the Jacobian of the fixed-point map
    (delta, delta~) -> (Sigma^T diag T / M, Sigma diag T~ / M), exactly.
    Let K = |T A|^2 D^{-2} (N x M, D = diag(1 + delta)), so Pi = Sigma^T K / M.
    The push-through T A = zeta diag(psi) A T~ D gives J's delta~ block
    Pi~ = Sigma K^T / M, and
    J = [[Pi, -(zeta/M) Sigma^T |T|^2], [-(zeta/M) Sigma |T~|^2, Pi~]].
    With Xi + Lambda~ = zeta^2 |T~|^2 (``build_b``), B = V W for
    V = diag(Sigma^T / M, I_M) and
    W = [[K, |T|^2 Sigma / M], [zeta^2 |T~|^2, K^T Sigma / M]], so
    det(I - B) = det(I - W V).  W V becomes J by a transpose, a block swap,
    the similarity diag(zeta I, I) and a sign flip of the off-diagonal
    blocks, none of which moves det(I - .).  (Cf. Hachem, Loubaton & Najim,
    Ann. Appl. Probab. 2008; Hachem, Kharouf, Najim & Silverstein, RMTA
    2012.)
    """
    if b.pi_factors is None:
        sign, logdet = np.linalg.slogdet(np.eye(2 * b.m) - b.full())
    else:
        u, v = b.pi_factors
        core = np.eye(u.shape[1]) - v.T @ u
        sign, logdet = np.linalg.slogdet(core)
        if sign != 0:
            y = b.gamma + u @ np.linalg.solve(core, v.T @ b.gamma)
            s = np.eye(b.m) - b.pi.T
            s[b.xi_rows] -= b.xi_block @ y[b.xi_rows]
            s -= b.lambda_tilde[:, None] * y
            sign_s, logdet_s = np.linalg.slogdet(s)
            sign, logdet = sign * sign_s, logdet + logdet_s
    if sign <= 0:
        raise InvalidRegimeError(
            f"det(I - B) is not positive (sign {sign:+.0f}); the variance "
            "formula does not apply -- check solver convergence")
    return -logdet


def oracle_from_blocks(b: BMatrix) -> float:
    """Independent per-column linear-system evaluation of the variance.

    For each j the vector p_j solves (I_{2j} - B_j) p_j = q_j with
    q_j = M [Gamma_{j,1..j}, Pi_{j,1..j}]^T, B_j being the rows and
    columns 1..j and M+1..M+j of B, and the variance accumulates
    (1/M) sum_j (2 p_j[2j] - rho^2 t~_jj^2 p_j[j]).  The j systems are
    solved independently so this code path shares nothing with
    variance_clt beyond the blocks; agreement improves as M grows.  Its
    cost grows like M^4, so B is limited to M <= ORACLE_MAX_COLUMNS.
    """
    m = b.m
    if m > ORACLE_MAX_COLUMNS:
        raise ValueError(
            f"oracle limited to M <= {ORACLE_MAX_COLUMNS} columns (got {m}); "
            "its cost grows like M^4")
    full = b.full()
    total = 0.0
    for j in range(1, m + 1):
        lead = np.r_[:j, m:m + j]
        s_j = np.eye(2 * j) - full[np.ix_(lead, lead)]
        q_j = m * np.concatenate([b.gamma[j - 1, :j], b.pi[j - 1, :j]])
        try:
            p_j = np.linalg.solve(s_j, q_j)
        except np.linalg.LinAlgError as exc:
            raise InvalidRegimeError(
                f"singular system at column {j} in the variance oracle") from exc
        total += 2.0 * p_j[2 * j - 1] - b.lambda_tilde[j - 1] * p_j[j - 1]
    return total / m


def outage_curve(stats: AsymptoticStats, rates) -> list[tuple[float, float]]:
    """(rate, P(C < rate)) pairs for a rate grid under the Gaussian outage
    approximation Phi((rate - mean) / std), in one vectorized norm_cdf call."""
    if stats.variance <= 0:
        raise ValueError("variance must be positive")
    rates = np.asarray(rates, dtype=float)
    probs = norm_cdf((rates - stats.emi_nats) / stats.std)
    return list(zip(rates.tolist(), probs.tolist()))


def auto_rate_grid(stats: AsymptoticStats) -> np.ndarray:
    """Default rate grid: mean +/- 5 sigma, 101 points."""
    return np.linspace(stats.emi_nats - 5.0 * stats.std,
                       stats.emi_nats + 5.0 * stats.std, 101)


def analyze_model(model: ChannelModel, **solver_opts):
    """Solve the fixed point and return (stats, b_matrix); the solution is
    ``stats.solution``, and ``solver_opts`` (tol, max_iter) go to
    solve_deltas unchanged.

    At a low enough SNR B is so small that -log det(I - B) rounds to 0 or
    below, or zeta^2 overflows (zeta > 1.3e154) and V is nan; that is a
    NumericalError, not a variance.  (A B of zeros, which no channel gives,
    has variance exactly 0 in ``variance_clt``.)
    """
    solution, res = solve_deltas(model, **solver_opts)
    emi = emi_deterministic(model, solution, res)
    try:
        b = build_b(model, solution, res)
        variance = variance_clt(b)
    except OverflowError:                   # zeta^2 in build_b's Xi
        variance = math.nan
    if not variance > 0:
        raise NumericalError(
            f"variance -log det(I - B) = {variance:.3g} at zeta = "
            f"{model.zeta:.3e}: the SNR is too low for V to be resolved "
            "in double precision")
    stats = AsymptoticStats(emi_nats=emi, variance=variance,
                            zeta=solution.rho, solution=solution)
    return stats, b
