import math
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from holo_rmt import validate
from holo_rmt.asymptotics import (AsymptoticStats, BMatrix, abs2_factors,
                                  analyze_model, auto_rate_grid, build_b,
                                  emi_deterministic, oracle_from_blocks,
                                  outage_curve, variance_clt)
from holo_rmt.channel import (VarianceProfile, build_holographic,
                              build_weichselberger, synth_los)
from holo_rmt.config import RunConfig
from holo_rmt.errors import InvalidRegimeError
from holo_rmt.normal import norm_cdf
from holo_rmt.solver import solve_deltas

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def iid_model(n, m, rho):
    return build_weichselberger(np.zeros((n, m)),
                                VarianceProfile(np.ones((n, m))), rho)


def random_model(seed, n=5, m=4, rho=0.5, los_scale=0.6):
    rng = np.random.default_rng(seed)
    sig = 0.3 + rng.random((n, m))
    a = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    a *= los_scale / np.linalg.norm(a, 2)
    return build_weichselberger(a, VarianceProfile(sig), rho)


def los_of_rank(rng, n, m, rank, complex_los):
    """Sum of ``rank`` random outer products, real or complex, with the
    spectral norm drawn like C9's random_model (uniform in [0, 1.5))."""
    def draw(size):
        x = rng.normal(size=size)
        return x + 1j * rng.normal(size=size) if complex_los else x
    a = sum((np.outer(draw(n), draw(m)) for _ in range(rank)),
            np.zeros((n, m)))
    if rank:
        a *= rng.random() * 1.5 / np.linalg.norm(a, 2)
    return a


WIDTH_CASES = [(0, 19), (1, 19), (3, 18), (3, 17), (4, 32), (4, 31), (13, 19)]


def assert_blocks_match_dense_t(model, sol, res, b):
    m = model.dims[1]
    sigma = model.profile.matrix
    ops = (1.0 + sol.delta) ** 2
    t = res.t_dense()
    a = model.los
    pi = sigma.T @ np.abs(t @ a) ** 2 / (m * ops[None, :])
    xi = np.abs(a.conj().T @ t @ a) ** 2 / np.outer(ops, ops)
    np.fill_diagonal(xi, 0.0)
    gamma = sigma.T @ np.abs(t) ** 2 @ sigma / m ** 2
    xi_lam = model.zeta ** 2 * np.abs(res.t_tilde_dense()) ** 2
    for got, ref in ((b.pi, pi), (b.xi, xi), (b.gamma, gamma),
                     (b.xi + np.diag(b.lambda_tilde), xi_lam)):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert b.full().min() >= 0.0


def c9_models(count, seed=31):
    """The first ``count`` models of C9's random family (validate.random_model)."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return [validate.random_model(rng) for _ in range(count)]


@pytest.fixture(scope="module")
def shipped_models():
    """The shipped desk and full channels at unit noise power, by config
    name; ``at_zeta`` moves them to any SNR."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {name: RunConfig.from_file(CONFIGS / f"{name}.json")
                .build_models([0.0])[0][1] for name in ("desk", "full")}


def emi_paper_form(model, sol, res):
    """The paper's three-term EMI from dense T and T~:

        log det[zeta^{-1} T^{-1}] + sum_j log(1 + delta_j)
          - (zeta / M) sum_ij sigma^2_ij T_ii T~_jj.

    The log-det is slogdet of T^{-1} formed from its definition; slogdet of
    ``t_dense()`` would carry the cancellation in T's diagonal on the LoS
    row (2.7e-13 of the EMI on full at 30 dB).
    """
    m = model.dims[1]
    zeta = model.zeta
    a = model.los
    t_inv = (np.diag(1.0 + sol.delta_tilde)
             + (a / (1.0 + sol.delta)) @ a.conj().T / zeta)
    sign, logdet = np.linalg.slogdet(t_inv)
    assert sign > 0
    t = np.real(np.diag(res.t_dense()))
    t_tilde = np.real(np.diag(res.t_tilde_dense()))
    return (logdet + float(np.sum(np.log1p(sol.delta)))
            - zeta / m * float(t @ model.profile.matrix @ t_tilde))


def emi_40_digits(model, sol):
    """The paper's EMI in 40 digits at the solve's (delta, delta~), with T
    and T~ inverted densely in mpmath from the model's A."""
    n, m = model.dims
    with mp.workdps(40):
        zeta = mp.mpf(model.zeta)
        a = mp.matrix(model.los.tolist())
        delta = [mp.mpf(x) for x in sol.delta.tolist()]
        delta_tilde = [mp.mpf(x) for x in sol.delta_tilde.tolist()]
        # zeta^{-1} T^{-1} and zeta^{-1} T~^{-1}
        t_inv = mp.diag([1 + x for x in delta_tilde]) + a * mp.diag(
            [1 / (zeta * (1 + x)) for x in delta]) * a.H
        tt_inv = mp.diag([1 + x for x in delta]) + a.H * mp.diag(
            [1 / (zeta * (1 + x)) for x in delta_tilde]) * a
        t, t_tilde = mp.inverse(t_inv), mp.inverse(tt_inv)
        sig = model.profile.matrix
        term3 = mp.fsum(mp.mpf(float(sig[i, j])) * mp.re(t[i, i])
                        * mp.re(t_tilde[j, j])
                        for i in range(n) for j in range(m)) / (zeta * m)
        return (mp.re(mp.log(mp.det(t_inv)))
                + mp.fsum(mp.log1p(x) for x in delta) - term3)


def desk_model(desk, los_kind, snr_db, rank=None):
    """desk's nonseparable channel, Rician K = 10, with a ``single`` LoS or
    a ``lowrank`` one of the given rank (seed 701)."""
    n, m = desk["nonsep"].shape
    kwargs = {} if rank is None else {"rank": rank, "seed": 701}
    los = synth_los(n, m, los_kind, **kwargs)
    return build_holographic(desk["geom"], desk["nonsep"], los, 10.0,
                             10.0 ** (-snr_db / 10.0))


def xi_40_digits(model, sol):
    """Xi in 40 digits at the solve's (delta, delta~): zeta^2 |T~_jk|^2 off
    the diagonal, with T~ inverted in mpmath from A = P Q^H as factored."""
    m = model.dims[1]
    p, q = model.los_factors
    with mp.workdps(40):
        zeta = mp.mpf(model.zeta)
        a = mp.matrix(p.tolist()) * mp.matrix(q.tolist()).H
        delta = [mp.mpf(x) for x in sol.delta.tolist()]
        delta_tilde = [mp.mpf(x) for x in sol.delta_tilde.tolist()]
        tt = mp.inverse(mp.diag([zeta * (1 + x) for x in delta])
                        + a.H * mp.diag([1 / (1 + x) for x in delta_tilde]) * a)
        return np.array([[0.0 if j == k else float((zeta * abs(tt[j, k])) ** 2)
                          for k in range(m)] for j in range(m)])


def variance_from_jacobian(model, sol, res):
    """-log det(I - J), J the Jacobian of the Jacobi map (delta, delta~) ->
    (Sigma^T diag T / M, Sigma diag T~ / M), its blocks formed densely from
    ``t_dense()`` and ``t_tilde_dense()``:

        [[Pi,                          -(zeta/M) Sigma^T |T|^2],
         [-(zeta/M) Sigma |T~|^2,       Pi~                    ]]

    with Pi~_il = sum_j sigma_ij |(T~ A^H)_jl|^2 / (M (1 + delta~_l)^2).
    """
    m = model.dims[1]
    sigma = model.profile.matrix
    zeta = model.zeta
    a = model.los
    t, tt = res.t_dense(), res.t_tilde_dense()
    pi = sigma.T @ np.abs(t @ a) ** 2 / (m * (1.0 + sol.delta) ** 2)
    pi_tilde = (sigma @ np.abs(tt @ a.conj().T) ** 2
                / (m * (1.0 + sol.delta_tilde) ** 2))
    jac = np.block([[pi, -zeta / m * sigma.T @ np.abs(t) ** 2],
                    [-zeta / m * sigma @ np.abs(tt) ** 2, pi_tilde]])
    sign, logdet = np.linalg.slogdet(np.eye(jac.shape[0]) - jac)
    assert sign > 0
    return -logdet


NO_XI = {"xi_rows": np.arange(0), "xi_block": np.zeros((0, 0))}  # Xi = 0


def zero_b(m):
    return BMatrix(pi=np.zeros((m, m)), **NO_XI,
                   gamma=np.zeros((m, m)), lambda_tilde=np.zeros(m))


class TestEmiDeterministic:
    def test_scalar_golden_ratio_value(self):
        # Hand-derived closed form at N=M=1, zeta=1:
        #   delta = (sqrt(5)-1)/2,  emi = 2 log(1+delta) - delta/(1+delta).
        model = iid_model(1, 1, 1.0)
        sol, res = solve_deltas(model, tol=1e-14)
        hand = 2.0 * math.log1p(GOLDEN) - GOLDEN / (1.0 + GOLDEN)
        assert hand == pytest.approx(0.5804576389, abs=1e-9)
        assert emi_deterministic(model, sol, res) == pytest.approx(hand, rel=1e-12)

    def test_vanishing_snr_limit(self):
        model = random_model(1, rho=1e9)
        sol, res = solve_deltas(model)
        assert emi_deterministic(model, sol, res) <= 1e-6

    def test_nonincreasing_in_zeta(self):
        base = random_model(2)
        values = []
        for rho in (0.2, 0.5, 1.0, 3.0, 10.0):
            model = build_weichselberger(base.los, base.profile, rho)
            sol, res = solve_deltas(model)
            values.append(emi_deterministic(model, sol, res))
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert all(v >= 0 for v in values)

    def test_weichselberger_unitary_factors_irrelevant(self):
        # Same (A_bar, Sigma) twice: the builder keeps only what MI needs.
        model1 = random_model(3)
        model2 = build_weichselberger(model1.los.copy(),
                                      VarianceProfile(model1.profile.matrix.copy()),
                                      model1.zeta)
        s1, r1 = solve_deltas(model1)
        s2, r2 = solve_deltas(model2)
        assert emi_deterministic(model1, s1, r1) == pytest.approx(
            emi_deterministic(model2, s2, r2), rel=1e-14)

    def test_matches_paper_form_on_c9_models(self):
        for model in c9_models(20):
            sol, res = solve_deltas(model)
            ref = emi_paper_form(model, sol, res)
            assert abs(emi_deterministic(model, sol, res) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("name", ["desk", "full"])
    def test_matches_paper_form_on_shipped_configs(self, shipped_models, name):
        base = shipped_models[name]
        for snr_db in (0.0, 10.0, 20.0, 30.0, 40.0):
            model = base.at_zeta(base.zeta * 10.0 ** (-snr_db / 10.0))
            sol, res = solve_deltas(model)
            ref = emi_paper_form(model, sol, res)
            assert abs(emi_deterministic(model, sol, res) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("name", ["desk", "full"])
    def test_first_order_at_low_snr(self, shipped_models, name):
        # As zeta -> infinity, C = (sum_ij sigma^2_ij / M + ||A||_F^2) / zeta
        # to first order; the second-order term is at most 6e-8 of it here.
        # The paper's form, which subtracts terms of order 1/zeta, misses
        # the bound: 2.3e-13 against 1.45e-13 on desk at -150 dB, and
        # -9.1e-13 on full.
        base = shipped_models[name]
        m = base.dims[1]
        for snr_db in (-100.0, -150.0):
            model = base.at_zeta(base.zeta * 10.0 ** (-snr_db / 10.0))
            sol, res = solve_deltas(model)
            emi = emi_deterministic(model, sol, res)
            first = (base.profile.matrix.sum() / m
                     + np.linalg.norm(base.los) ** 2) / model.zeta
            assert emi >= 0.0
            assert abs(emi - first) <= 1e-6 * first

    @pytest.mark.parametrize("snr_db", [-60.0, -100.0, -150.0])
    def test_matches_40_digit_reference_at_low_snr(self, snr_db):
        for model in c9_models(3, seed=7):
            model = model.at_zeta(10.0 ** (-snr_db / 10.0))
            sol, res = solve_deltas(model)
            ref = emi_40_digits(model, sol)
            assert abs(emi_deterministic(model, sol, res) - ref) <= 1e-14 * ref


class TestBuildB:
    def test_centered_blocks_vanish(self):
        model = iid_model(4, 4, 0.8)
        sol, res = solve_deltas(model)
        b = build_b(model, sol, res)
        assert not np.any(b.pi)
        assert not np.any(b.xi)
        full = b.full()
        assert np.array_equal(full[:4, :4], np.zeros((4, 4)))
        assert np.array_equal(full[4:, 4:], np.zeros((4, 4)))

    def test_single_column_shape(self):
        model = random_model(4, n=3, m=1)
        sol, res = solve_deltas(model)
        b = build_b(model, sol, res)
        assert b.full().shape == (2, 2)
        assert b.xi[0, 0] == 0.0  # indicator forces the diagonal to zero

    def test_gamma_against_entrywise_double_sum(self):
        model = random_model(5, n=4, m=4)
        sol, res = solve_deltas(model)
        b = build_b(model, sol, res)
        sig = model.profile.matrix
        t = res.t_dense()
        m = 4
        for j in range(m):
            for k in range(m):
                brute = sum(sig[p, j] * sig[q, k] * t[p, q] * t[q, p]
                            for p in range(4) for q in range(4)) / m ** 2
                assert b.gamma[j, k] == pytest.approx(float(np.real(brute)),
                                                      rel=1e-10)

    def test_pi_and_xi_against_quadratic_forms(self):
        model = random_model(6, n=4, m=3)
        sol, res = solve_deltas(model)
        b = build_b(model, sol, res)
        t = res.t_dense()
        a = model.los
        m = 3
        for j in range(m):
            d_j = np.diag(model.profile.matrix[:, j])
            for k in range(m):
                a_k = a[:, k]
                brute_pi = np.real(a_k.conj() @ t @ d_j @ t @ a_k) / (
                    m * (1 + sol.delta[k]) ** 2)
                assert b.pi[j, k] == pytest.approx(float(brute_pi), rel=1e-10)
                a_j = a[:, j]
                brute_xi = 0.0 if j == k else float(
                    np.abs(a_j.conj() @ t @ a_k) ** 2
                    / ((1 + sol.delta[j]) ** 2 * (1 + sol.delta[k]) ** 2))
                assert b.xi[j, k] == pytest.approx(brute_xi, rel=1e-10, abs=1e-18)

    @pytest.mark.parametrize("rank", [0, 1, 2, 4])
    @pytest.mark.parametrize("complex_los", [False, True])
    def test_abs2_factors(self, rank, complex_los):
        rng = np.random.default_rng(100 + rank)
        y, q = (rng.normal(size=(d, rank)) for d in (7, 9))
        if complex_los:
            y, q = y + 1j * rng.normal(size=y.shape), q + 1j * rng.normal(size=q.shape)
        f, g = abs2_factors(y, q)
        assert f.shape == (7, rank ** 2) and g.shape == (9, rank ** 2)
        assert np.isrealobj(f) and np.isrealobj(g)
        np.testing.assert_allclose(f @ g.T, np.abs(y @ q.conj().T) ** 2,
                                   rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("rank, m", WIDTH_CASES)
    def test_pi_factors_width_and_product(self, rank, m):
        # r^2 factor columns while 2 r^2 <= M, else no factors.
        rng = np.random.default_rng(rank)
        a = los_of_rank(rng, 13, m, rank, True)
        model = build_weichselberger(a, VarianceProfile(0.2 + rng.random((13, m))),
                                     0.5)
        sol, res = solve_deltas(model)
        b = build_b(model, sol, res)
        if 2 * rank ** 2 > m:
            assert b.pi_factors is None
            return
        u, v = b.pi_factors
        assert u.shape == v.shape == (m, rank ** 2)
        assert np.isrealobj(u) and np.isrealobj(v)
        np.testing.assert_allclose(u @ v.T, b.pi, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("rank, m", WIDTH_CASES)
    def test_blocks_match_dense_t(self, rank, m):
        # The blocks from the solve's factors, with Pi factored (2 r^2 <= M)
        # or dense (past it), match B's formulas evaluated on dense T and
        # A, to 1e-13 of each block's largest entry.
        rng = np.random.default_rng(rank)
        a = los_of_rank(rng, 13, m, rank, True)
        model = build_weichselberger(a, VarianceProfile(0.2 + rng.random((13, m))),
                                     0.5)
        sol, res = solve_deltas(model)
        assert_blocks_match_dense_t(model, sol, res, build_b(model, sol, res))

    @pytest.mark.parametrize("rows, cols, seed", [
        *(pytest.param(rows, range(11), len(rows), id=f"rows{k}")
          for k, rows in enumerate([[0], [3], [2, 7], [0, 4, 5, 11]])),
        *(pytest.param(range(13), cols, 20 + k, id=f"cols{k}")
          for k, cols in enumerate([[0], [2, 7], [0, 4, 5, 10]]))])
    def test_sparse_los_blocks_match_dense_t(self, rows, cols, seed):
        # A rank-1 LoS on a few rows: Gamma's off-diagonal |X^H X|^2 lives
        # on the block of those rows, and one row has none.  On a few
        # columns, Xi lives on the block of those columns: B keeps that
        # block, and the Schur complement subtracts Xi Y on its rows only.
        rng = np.random.default_rng(seed)
        a = np.zeros((13, 11), dtype=complex)
        a[np.ix_(rows, cols)] = np.outer(rng.normal(size=len(rows)) + 1j,
                                         rng.normal(size=len(cols)) - 0.5j)
        a /= np.linalg.norm(a, 2)
        model = build_weichselberger(a, VarianceProfile(0.2 + rng.random((13, 11))),
                                     1e-4)
        sol, res = solve_deltas(model)
        b = build_b(model, sol, res)
        assert_blocks_match_dense_t(model, sol, res, b)
        assert np.array_equal(b.xi_rows, np.asarray(cols))
        sign, logdet = np.linalg.slogdet(np.eye(22) - b.full())
        assert sign > 0 and b.pi_factors is not None
        assert abs(variance_clt(b) + logdet) <= 1e-13 * max(1.0, -logdet)

    def test_lower_left_block_is_zeta2_abs2_t_tilde(self, desk):
        # Xi + Lambda~ = zeta^2 |T~|^2 (A^H T A = D - zeta D T~ D), to 1e-14
        # of the block's largest entry, on C9's family and on desk's single,
        # rank-4 and rank-5 LoS.
        models = c9_models(20) + [
            desk_model(desk, kind, snr_db, rank)
            for kind, rank in (("single", None), ("lowrank", 4),
                               ("lowrank", 5))
            for snr_db in (10.0, 30.0)]
        for model in models:
            sol, res = solve_deltas(model)
            b = build_b(model, sol, res)
            ref = model.zeta ** 2 * np.abs(res.t_tilde_dense()) ** 2
            got = b.xi + np.diag(b.lambda_tilde)
            assert np.abs(got - ref).max() <= 1e-14 * ref.max()

    @pytest.mark.parametrize("snr_db", [30.0, 70.0])
    def test_xi_matches_40_digit_reference(self, desk, snr_db):
        # desk's rank-4 LoS (seed 701): every entry of Xi within 3e-14 of
        # its 40-digit value at the same (delta, delta~).
        model = desk_model(desk, "lowrank", snr_db, rank=4)
        sol, res = solve_deltas(model)
        xi = build_b(model, sol, res).xi
        ref = xi_40_digits(model, sol)
        assert np.array_equal(xi == 0.0, ref == 0.0)
        off = ref > 0.0
        assert (np.abs(xi[off] - ref[off]) / ref[off]).max() <= 3e-14

    def test_hand_built_blocks_take_dense_logdet(self):
        # No factors: variance_clt is the dense 2M x 2M log-det, bit for bit.
        rng = np.random.default_rng(5)
        pi, xi, gamma = (0.05 * rng.random((6, 6)) for _ in range(3))
        np.fill_diagonal(xi, 0.0)
        b = BMatrix(pi=pi, xi_rows=np.arange(6), xi_block=xi, gamma=gamma,
                    lambda_tilde=0.05 * rng.random(6))
        assert b.pi_factors is None
        sign, logdet = np.linalg.slogdet(np.eye(12) - b.full())
        assert sign > 0
        assert variance_clt(b) == -logdet

    def test_structural_invariants(self):
        model = random_model(7, n=6, m=5)
        sol, res = solve_deltas(model)
        b = build_b(model, sol, res)
        assert b.full().min() >= 0.0
        assert np.all(np.diag(b.xi) == 0.0)
        assert np.allclose(b.xi, b.xi.T, rtol=1e-12)
        assert np.allclose(b.gamma, b.gamma.T, rtol=1e-12)
        assert np.all(b.lambda_tilde > 0)


class TestVarianceClt:
    def test_centered_block_determinant_reduction(self):
        model = iid_model(5, 5, 0.6)
        sol, res = solve_deltas(model)
        b = build_b(model, sol, res)
        v = variance_clt(b)
        sign, logdet = np.linalg.slogdet(
            np.eye(5) - np.diag(b.lambda_tilde) @ b.gamma)
        assert sign > 0
        assert v == pytest.approx(-logdet, rel=1e-10)

    def test_zero_b_gives_zero_variance(self):
        assert variance_clt(zero_b(3)) == 0.0

    def test_invalid_regime_raises(self):
        bad = BMatrix(pi=np.zeros((1, 1)), **NO_XI,
                      gamma=np.array([[2.0]]), lambda_tilde=np.array([2.0]))
        with pytest.raises(InvalidRegimeError):
            variance_clt(bad)

    @pytest.mark.parametrize("rho", [0.05, 0.5, 5.0])
    @pytest.mark.parametrize("complex_los", [False, True])
    @pytest.mark.parametrize("rank", [0, 1, 4, "full"])
    def test_matches_dense_logdet(self, rank, complex_los, rho):
        # C9's random_model family with the LoS rank, realness and noise
        # level pinned; "full" rank keeps no factors.
        rng = np.random.default_rng(
            [99 if rank == "full" else rank, int(complex_los), int(100 * rho)])
        for _ in range(3):
            n = int(rng.integers(4, 17))
            m = int(rng.integers(32, 40) if rank == 4 else rng.integers(2, 25))
            r = min(n, m) if rank == "full" else rank
            a = los_of_rank(rng, n, m, r, complex_los)
            model = build_weichselberger(
                a, VarianceProfile(0.2 + rng.random((n, m))), rho)
            stats, b = analyze_model(model)
            width = None if b.pi_factors is None else b.pi_factors[0].shape[1]
            assert width == (r * r if 2 * r * r <= m else None)
            sign, logdet = np.linalg.slogdet(np.eye(2 * m) - b.full())
            assert sign > 0
            assert abs(stats.variance + logdet) <= 1e-13 * max(1.0, stats.variance)

    def test_equals_jacobian_logdet_on_c9_models(self):
        # det(I - B) = det(I - J) for the fixed-point map's Jacobian J
        # (variance_clt's docstring has the proof).
        for model in c9_models(20, seed=77):
            sol, res = solve_deltas(model)
            v = variance_clt(build_b(model, sol, res))
            assert abs(variance_from_jacobian(model, sol, res) - v) <= 1e-13 * v

    def test_positive_on_random_models(self):
        for seed in range(5):
            model = random_model(20 + seed)
            stats, b = analyze_model(model)
            assert stats.variance > 0
            sign, logdet = np.linalg.slogdet(np.eye(2 * b.m) - b.full())
            assert sign > 0 and logdet <= 0


class TestVarianceOracle:
    def test_single_column_hand_solved_system(self):
        # M=1, A=0: the 2x2 system (I - [[0, G], [L, 0]]) p = [G, 0] has
        # p = [G, L G] / (1 - L G); the oracle value is (2 p_2 - L p_1).
        model = iid_model(3, 1, 0.9)
        sol, res = solve_deltas(model)
        b = build_b(model, sol, res)
        g = b.gamma[0, 0]
        lam = b.lambda_tilde[0]
        hand = (2 * lam * g - lam * g) / (1 - lam * g)
        oracle = oracle_from_blocks(b)
        assert oracle == pytest.approx(hand, rel=1e-12)

    def test_gap_shrinks_with_size(self):
        gaps = []
        for m in (8, 32):
            rng = np.random.default_rng(40)
            sig = 0.5 + rng.random((m, m))
            a = synth_los(m, m, "lowrank", rank=2, seed=1) * 0.7
            model = build_weichselberger(a, VarianceProfile(sig), 0.5)
            stats, b = analyze_model(model)
            oracle = oracle_from_blocks(b)
            gaps.append(abs(oracle - stats.variance))
        assert gaps[0] > gaps[1]

    def test_size_guard(self):
        with pytest.raises(ValueError, match="M <= 64"):
            oracle_from_blocks(zero_b(65))

    def test_zero_blocks_give_zero(self):
        assert oracle_from_blocks(zero_b(4)) == 0.0

    def test_singular_leading_system_raises(self):
        # Pi = [[1]] with zero Gamma, Xi and Lambda~ makes I_2 - B_1 zero.
        bad = BMatrix(pi=np.array([[1.0]]), **NO_XI,
                      gamma=np.zeros((1, 1)), lambda_tilde=np.zeros(1))
        with pytest.raises(InvalidRegimeError, match="at column 1"):
            oracle_from_blocks(bad)

    def test_code_path_disjointness_smoke(self):
        # The oracle must not simply reproduce variance_clt at finite M.
        model = random_model(41, n=6, m=6)
        stats, b = analyze_model(model)
        oracle = oracle_from_blocks(b)
        assert oracle != stats.variance
        assert oracle == pytest.approx(stats.variance, rel=0.15)


def make_stats(emi, var, zeta=1.0):
    from holo_rmt.solver import DeltaSolution
    sol = DeltaSolution(delta=np.array([1.0]), delta_tilde=np.array([1.0]),
                        rho=zeta, iterations=1, residual=0.0)
    return AsymptoticStats(emi_nats=emi, variance=var, zeta=zeta, solution=sol)


class TestOutage:
    def test_median_at_mean(self):
        stats = make_stats(10.0, 4.0)
        [(_, p)] = outage_curve(stats, [10.0])
        assert p == pytest.approx(0.5, abs=1e-14)

    def test_six_sigma_tail(self):
        stats = make_stats(10.0, 4.0)
        [(_, p)] = outage_curve(stats, [10.0 - 6 * 2.0])
        assert p == pytest.approx(9.865876e-10, rel=1e-5)

    def test_monotone_and_extremes(self):
        stats = make_stats(5.0, 1.0)
        curve = [p for _, p in outage_curve(stats, auto_rate_grid(stats))]
        assert all(a <= b + 1e-15 for a, b in zip(curve, curve[1:]))
        wide = np.linspace(5.0 - 12, 5.0 + 12, 7)
        probs = [p for _, p in outage_curve(stats, wide)]
        assert probs[0] <= 1e-12 and probs[-1] >= 1 - 1e-12

    def test_auto_grid_shape(self):
        stats = make_stats(5.0, 1.0)
        grid = auto_rate_grid(stats)
        assert len(grid) == 101
        assert grid[0] == pytest.approx(0.0)
        assert grid[-1] == pytest.approx(10.0)

    def test_requires_positive_variance(self):
        stats = make_stats(5.0, 0.0)
        with pytest.raises(ValueError):
            outage_curve(stats, [5.0])

    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_curve_equals_scalar_loop(self, seed):
        # One vectorized norm_cdf call runs the same IEEE operations per
        # rate as scalar ones, so the curve is bit-identical to them and to
        # one-rate curves.
        stats = analyze_model(random_model(seed, n=6, m=5))[0]
        grid = auto_rate_grid(stats)
        curve = outage_curve(stats, grid)
        assert curve == [(r, norm_cdf((r - stats.emi_nats) / stats.std))
                         for r in grid.tolist()]
        assert curve == [outage_curve(stats, [r])[0] for r in grid]
        assert all(type(r) is float and type(p) is float for r, p in curve)


class TestStatsContainer:
    def test_bits_conversion(self):
        stats = make_stats(math.log(2.0) * 7, 1.0)
        assert stats.emi_bits == pytest.approx(7.0, rel=1e-14)
