import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from holo_rmt import validate
from holo_rmt.channel import (VarianceProfile, build_holographic,
                              build_kronecker, build_weichselberger,
                              synth_los)
from holo_rmt.config import RunConfig
from holo_rmt.errors import ConvergenceError, NumericalError
from holo_rmt.solver import (DEFAULT_MAX_ITER, compute_resolvents,
                             delta_upper_bounds, self_consistency_residual,
                             solve_deltas)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def iid_model(n, m, rho):
    return build_weichselberger(np.zeros((n, m)),
                                VarianceProfile(np.ones((n, m))), rho)


def random_model(seed, n=6, m=5, rho=0.4, los_scale=0.5):
    rng = np.random.default_rng(seed)
    sig = 0.3 + rng.random((n, m))
    a = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    a *= los_scale / np.linalg.norm(a, 2)
    return build_weichselberger(a, VarianceProfile(sig), rho)


def hpd_inverse(mat):
    """Dense reference: the inverse of an HPD matrix, by Cholesky."""
    inv = sla.cho_solve(sla.cho_factor(mat, lower=True),
                        np.eye(mat.shape[0], dtype=mat.dtype))
    return 0.5 * (inv + inv.conj().T)


def dense_resolvent(a, own, other, rho):
    """(diag(rho (1 + own)) + rho A diag(psi) A^H)^{-1} with
    psi = 1/(rho (1 + other)), by one dense inversion: T is
    (A, delta~, delta) and T~ is (A^H, delta, delta~)."""
    psi = 1.0 / (rho * (1.0 + other))
    return hpd_inverse(np.diag(rho * (1.0 + own))
                       + rho * (a * psi) @ a.conj().T)


def plain_gauss_seidel(model, rho, tol, max_iter=100_000, start=1.0):
    """Oracle: the unaccelerated Gauss-Seidel iteration on dense resolvents.

    Starting from delta = delta~ = ``start``, the delta half-step uses the T
    of the previous iterate, the delta~ half-step the T~ built from the
    fresh delta; it stops when the sup-norm update is <= tol.
    """
    n, m = model.dims
    sigma = model.profile.matrix
    a = model.los
    delta, delta_tilde = np.full(m, start), np.full(n, start)
    for _ in range(max_iter):
        t_mat = dense_resolvent(a, delta_tilde, delta, rho)
        delta_new = sigma.T @ np.real(np.diag(t_mat)) / m
        tt_mat = dense_resolvent(a.conj().T, delta_new, delta_tilde, rho)
        delta_tilde_new = sigma @ np.real(np.diag(tt_mat)) / m
        step = max(np.abs(delta_new - delta).max(),
                   np.abs(delta_tilde_new - delta_tilde).max())
        delta, delta_tilde = delta_new, delta_tilde_new
        if step <= tol:
            return delta, delta_tilde
    raise AssertionError("plain Gauss-Seidel oracle did not converge")


def rank_r_model(seed, rank, complex_los):
    """C9's random-model family with the LoS replaced by a rank-r matrix.

    ``rank`` None keeps full rank; the LoS keeps C9's spectral-norm scale.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    base = validate.random_model(rng)
    n, m = base.dims
    r = min(n, m) if rank is None else min(rank, n, m)
    u = rng.normal(size=(n, r))
    v = rng.normal(size=(m, r))
    if complex_los:
        u = u + 1j * rng.normal(size=(n, r))
        v = v + 1j * rng.normal(size=(m, r))
    a = u @ v.conj().T
    if r:
        a *= np.linalg.norm(base.los, 2) / np.linalg.norm(a, 2)
    model = build_weichselberger(a, base.profile, base.zeta)
    assert model.los_factors[0].shape[1] == r
    return model, rng


def rel_err(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


class TestLowRankResolvents:
    @pytest.mark.parametrize("complex_los", [False, True])
    @pytest.mark.parametrize("rank", [0, 1, 4, None])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_inverse(self, seed, rank, complex_los):
        model, rng = rank_r_model(seed, rank, complex_los)
        n, m = model.dims
        rho = model.zeta
        delta = 0.1 + 3.0 * rng.random(m)
        delta_tilde = 0.1 + 3.0 * rng.random(n)
        res = compute_resolvents(model, delta, delta_tilde)
        t_ref = dense_resolvent(model.los, delta_tilde, delta, rho)
        tt_ref = dense_resolvent(model.los.conj().T, delta, delta_tilde, rho)
        assert rel_err(res.t_diag, np.real(np.diag(t_ref))) <= 1e-12
        assert rel_err(res.t_tilde_diag, np.real(np.diag(tt_ref))) <= 1e-12
        assert rel_err(res.t_dense(), t_ref) <= 1e-12
        assert rel_err(res.t_tilde_dense(), tt_ref) <= 1e-12

    @pytest.mark.parametrize("snr_db", [40.0, 50.0, 80.0])
    def test_rank4_desk_los_converges_at_high_snr(self, desk, snr_db):
        """Dense-inverse roundoff kept the residual above tol at 40 and 50 dB;
        the plain Gauss-Seidel sweep ran out of iterations at 80 dB."""
        n, m = desk["nonsep"].shape
        los = synth_los(n, m, "lowrank", rank=4, seed=701)
        model = build_holographic(desk["geom"], desk["nonsep"], los, 10.0,
                                  10.0 ** (-snr_db / 10.0))
        sol, res = solve_deltas(model)
        assert sol.iterations < DEFAULT_MAX_ITER
        assert self_consistency_residual(model, sol, res) <= 1e-10


class TestAndersonAcceleration:
    @pytest.mark.parametrize("rho", [0.05, 0.5, 5.0])
    @pytest.mark.parametrize("rank", [0, 1, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_plain_gauss_seidel(self, seed, rank, rho):
        model = rank_r_model(seed, rank, complex_los=True)[0].at_zeta(rho)
        delta_ref, delta_tilde_ref = plain_gauss_seidel(model, rho, tol=1e-14)
        sol, _ = solve_deltas(model)
        assert rel_err(sol.delta, delta_ref) <= 1e-12
        assert rel_err(sol.delta_tilde, delta_tilde_ref) <= 1e-12

    def test_single_desk_los_converges_at_80_db(self, desk):
        """The plain Gauss-Seidel sweep needs about 21000 iterations here."""
        n, m = desk["nonsep"].shape
        model = build_holographic(desk["geom"], desk["nonsep"],
                                  synth_los(n, m, "single"), 10.0, 1e-8)
        sol, res = solve_deltas(model)
        assert sol.iterations < DEFAULT_MAX_ITER
        assert self_consistency_residual(model, sol, res) <= 1e-10

    @pytest.mark.parametrize("snr_db", [70.0, 80.0, 90.0])
    def test_full_rank_desk_los_converges_at_high_snr(self, desk, snr_db):
        """A full-rank LoS: diag T = psi - sum |X|^2 cancels by up to 1e4,
        so G is off by more than the stop's floor.  Without e_G in the stop
        70 dB took 666 iterations and 80 and 90 dB met no stop in 10000."""
        n, m = desk["nonsep"].shape
        rng = np.random.default_rng(11)
        a = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        model = build_holographic(desk["geom"], desk["nonsep"],
                                  a / np.linalg.norm(a, 2), 10.0,
                                  10.0 ** (-snr_db / 10.0))
        sol, res = solve_deltas(model)
        assert sol.iterations <= 100
        assert self_consistency_residual(model, sol, res) <= 1e-10

    @pytest.mark.parametrize("los, snr_db", [("single", 120.0),
                                             ("single", 150.0),
                                             ("rank4", 110.0),
                                             ("full", 100.0)])
    def test_converges_to_ulps_of_delta_at_high_snr(self, desk, los, snr_db):
        """Anderson on the Gauss-Seidel sweep ran out of iterations at each
        point: its absolute 1e-12 stop lies below an ulp of delta there.
        The defect is bounded at 16 eps max(delta): the stop's 4-ulp floor,
        as much again from reading delta~ as the image of the returned
        delta, and a factor 2 for the rounding of the image itself."""
        if los == "full":
            model = RunConfig.from_file(CONFIGS / "full.json").build_model(snr_db)
        else:
            n, m = desk["nonsep"].shape
            kwargs = {"rank": 4, "seed": 701} if los == "rank4" else {}
            a = synth_los(n, m, "lowrank" if kwargs else "single", **kwargs)
            model = build_holographic(desk["geom"], desk["nonsep"], a, 10.0,
                                      10.0 ** (-snr_db / 10.0))
        sol, res = solve_deltas(model)
        scale = max(sol.delta.max(), sol.delta_tilde.max())
        assert sol.iterations < DEFAULT_MAX_ITER
        assert (self_consistency_residual(model, sol, res)
                <= 16 * np.finfo(float).eps * scale)


class TestComputeResolvents:
    def test_tp_keeps_rounding_level_at_high_snr(self, desk):
        # T P against T from its definition at the solution, in 30 digits,
        # for the factored A = P Q^H the solve uses.  On the rank-4 desk LoS
        # at 70 dB, T P formed from dense T, or as psi P - X^H (X P), is
        # about 1.5e-12 off; tp() subtracts nothing.
        n, m = desk["nonsep"].shape
        los = synth_los(n, m, "lowrank", rank=4, seed=701)
        model = build_holographic(desk["geom"], desk["nonsep"], los, 10.0, 1e-7)
        sol, res = solve_deltas(model)
        p, q = model.los_factors
        with mp.workdps(30):
            a = mp.matrix(p.tolist()) * mp.matrix(q.tolist()).H
            t_inv = a * mp.diag([1 / (1 + mp.mpf(d)) for d in sol.delta]) * a.H
            for i, d in enumerate(sol.delta_tilde):
                t_inv[i, i] += model.zeta * (1 + mp.mpf(d))
            ref = mp.inverse(t_inv) * mp.matrix(p.tolist())
            ref = np.array(ref.tolist(), dtype=complex)
        assert np.abs(res.tp() - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_centered_resolvent_is_diagonal(self):
        model = iid_model(3, 4, 2.0)
        delta = np.full(4, 0.3)
        delta_tilde = np.full(3, 0.7)
        res = compute_resolvents(model, delta, delta_tilde)
        expected = 1.0 / (2.0 * (1.0 + delta_tilde))
        assert np.allclose(res.t_dense(), np.diag(expected), atol=1e-15)
        assert np.allclose(res.t_diag, expected, rtol=1e-14)

    def test_scalar_golden_ratio_point(self):
        model = iid_model(1, 1, 1.0)
        res = compute_resolvents(model, np.array([GOLDEN]), np.array([GOLDEN]))
        expected = 2.0 / (1.0 + math.sqrt(5.0))
        assert res.t_diag[0] == pytest.approx(expected, rel=1e-14)
        assert res.t_tilde_diag[0] == pytest.approx(expected, rel=1e-14)

    def test_hermitian_to_machine_precision(self):
        model = random_model(5)
        sol, res = solve_deltas(model)
        for mat in (res.t_dense(), res.t_tilde_dense()):
            assert np.abs(mat - mat.conj().T).max() <= 1e-12

    def test_failed_factorization_raises_numerical_error(self):
        # delta = inf zeroes the LoS weights, so the r x r matrix is singular.
        model = random_model(11, rho=1.0)
        n, m = model.dims
        with pytest.raises(NumericalError, match="not positive definite"):
            compute_resolvents(model, np.full(m, np.inf), np.ones(n))

    def test_rejects_nonpositive_parameters(self):
        # NaN compares False with everything, so "<= 0" lets it through.
        model = iid_model(2, 2, 1.0)
        for bad in (0.0, np.nan):
            with pytest.raises(ValueError, match="entrywise positive"):
                compute_resolvents(model, np.array([bad, 1.0]), np.ones(2))
            with pytest.raises(ValueError, match="entrywise positive"):
                compute_resolvents(model, np.ones(2), np.array([1.0, bad]))


class TestSolveDeltas:
    @pytest.mark.parametrize("rho", [0.1, 1.0, 10.0])
    def test_iid_square_closed_form(self, rho):
        model = iid_model(8, 8, rho)
        sol, _ = solve_deltas(model)
        exact = (-1.0 + math.sqrt(1.0 + 4.0 / rho)) / 2.0
        assert np.abs(sol.delta - exact).max() <= 1e-10
        assert np.abs(sol.delta_tilde - exact).max() <= 1e-10
        assert sol.delta.std() <= 1e-12  # all equal by symmetry

    def test_high_noise_limit(self):
        model = random_model(7, rho=1e6)
        sol, _ = solve_deltas(model)
        bound_d, bound_dt = delta_upper_bounds(model)
        assert np.all(sol.delta > 0)
        assert np.all(sol.delta <= bound_d)
        assert np.all(sol.delta_tilde <= bound_dt)
        assert sol.delta.max() < 1e-5

    def test_uniqueness_across_initializations(self):
        # The plain sweep from other starts lands on the solver's fixed point.
        model = random_model(8, n=8, m=6)
        sol, _ = solve_deltas(model, tol=1e-12)
        for start in (0.5, 2.0):
            delta, delta_tilde = plain_gauss_seidel(model, model.zeta,
                                                    tol=1e-14, start=start)
            assert np.abs(sol.delta - delta).max() <= 1e-11
            assert np.abs(sol.delta_tilde - delta_tilde).max() <= 1e-11

    def test_deltas_decrease_with_rho(self):
        model = random_model(9)
        lo, _ = solve_deltas(model.at_zeta(0.5))
        hi, _ = solve_deltas(model.at_zeta(1.5))
        assert np.all(hi.delta < lo.delta)
        assert np.all(hi.delta_tilde < lo.delta_tilde)

    def test_self_consistency_after_convergence(self):
        model = random_model(10)
        sol, res = solve_deltas(model, tol=1e-13)
        assert self_consistency_residual(model, sol, res) <= 1e-11

    def test_separable_factorization(self):
        rng = np.random.default_rng(12)
        d = 0.5 + rng.random(7)
        dt = 0.5 + rng.random(5)
        a = (rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))) * 0.2
        model = build_kronecker(a, d, dt, 0.6)
        sol, _ = solve_deltas(model)
        ratios_j = sol.delta / dt
        ratios_i = sol.delta_tilde / d
        assert np.ptp(ratios_j) / ratios_j.mean() <= 1e-10
        assert np.ptp(ratios_i) / ratios_i.mean() <= 1e-10

    def test_max_iter_exhaustion_carries_residuals(self):
        model = iid_model(4, 4, 0.01)
        with pytest.raises(ConvergenceError, match=r"tol min\(1, x\)") as err:
            solve_deltas(model, tol=1e-14, max_iter=3)
        assert len(err.value.residuals) == 3
        assert err.value.residuals[-1] > 0

    def test_argument_validation(self):
        model = iid_model(2, 2, 1.0)
        with pytest.raises(ValueError):
            solve_deltas(model, tol=0.0)
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                solve_deltas(model, tol=tol)
        with pytest.raises(ValueError):
            solve_deltas(model, max_iter=0)

    def test_real_los_keeps_real_arithmetic(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(4, 4)) * 0.3
        model = build_weichselberger(a, VarianceProfile(0.5 + rng.random((4, 4))), 0.7)
        sol, res = solve_deltas(model)
        assert not np.iscomplexobj(res.t_dense())
        # Complexified copy of the same model agrees.
        model_c = build_weichselberger(a.astype(complex), model.profile, 0.7)
        sol_c, res_c = solve_deltas(model_c)
        assert np.abs(sol.delta - sol_c.delta).max() <= 1e-13

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31), st.floats(min_value=0.05, max_value=20.0))
    def test_bounds_hold_on_random_models(self, seed, rho):
        model = random_model(seed, rho=rho)
        sol, _ = solve_deltas(model)
        bound_d, bound_dt = delta_upper_bounds(model)
        assert np.all(sol.delta > 0)
        assert np.all(sol.delta_tilde > 0)
        assert np.all(sol.delta <= bound_d * (1 + 1e-9))
        assert np.all(sol.delta_tilde <= bound_dt * (1 + 1e-9))
