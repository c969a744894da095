import math
import warnings

import numpy as np
import pytest
from conftest import desk_geometry

from holo_rmt import matio
from holo_rmt.channel import (PROFILE_FLOOR_REL, ChannelModel,
                              VarianceProfile, build_holographic,
                              build_kronecker, build_weichselberger,
                              effective_width, floor_count,
                              profile_nonseparable_gaussian,
                              profile_separable_isotropic, separable_profile,
                              synth_los, _cell_measures, _side_weights)
from holo_rmt.geometry import effective_zeta, enumerate_lattice

LAM = 0.01
KAPPA = 2 * math.pi / LAM


def riemann_cell_oracle(x0, x1, y0, y1, n=512, clip=1e-6):
    """Independent fine-grid midpoint sum used as the quadrature oracle."""
    xs = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
    ys = y0 + (np.arange(n) + 0.5) * (y1 - y0) / n
    g2 = KAPPA ** 2 - xs[:, None] ** 2 - ys[None, :] ** 2
    mask = g2 > (clip * KAPPA) ** 2
    return float(np.sum(1.0 / np.sqrt(g2[mask]))) * (x1 - x0) * (y1 - y0) / n ** 2


def mpmath_cell_oracle(x0, x1, y0, y1, clip=1e-6, dps=20):
    """Nested tanh-sinh quadrature of the clipped cell integral in mpmath.

    First-quadrant cells only.  The outer breakpoints are where the clipped
    disk edge crosses ky = y1 and ky = y0, so each piece's endpoint
    singularity sits where tanh-sinh handles it.
    """
    import mpmath as mp
    with mp.workdps(dps):
        k = mp.mpf(KAPPA)
        r2 = k * k - (clip * k) ** 2
        x0, x1, y0, y1 = (mp.mpf(v) for v in (x0, x1, y0, y1))
        if y0 ** 2 >= r2:
            return 0.0
        hi = min(x1, mp.sqrt(r2 - y0 ** 2))
        if hi <= x0:
            return 0.0
        pts = [x0, hi]
        if y1 ** 2 < r2 and x0 < mp.sqrt(r2 - y1 ** 2) < hi:
            pts.insert(1, mp.sqrt(r2 - y1 ** 2))

        def inner(x):
            top = min(y1, mp.sqrt(r2 - x * x))
            return mp.quad(lambda y: 1 / mp.sqrt(k * k - x * x - y * y), [y0, top])

        return float(mp.quad(inner, pts))


class TestIsotropicProfile:
    def test_single_point_lattice_normalizes_to_one(self):
        lat = enumerate_lattice(0.5 * LAM, 0.5 * LAM, LAM)
        prof = profile_separable_isotropic(lat, lat)
        assert prof.matrix.shape == (1, 1)
        assert prof.matrix[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_interior_cell_weight_against_riemann_oracle(self):
        # Far-interior cell of the 10-wavelength lattice: smooth integrand,
        # oracle and adaptive quadrature agree tightly.
        lx = 10 * LAM
        h = 2 * math.pi / lx
        oracle = riemann_cell_oracle(0.0, h, 0.0, h)
        production = _cell_measures(0.0, h, 0.0, h, KAPPA)[0]
        assert production == pytest.approx(oracle, rel=1e-5)

    def test_interior_cell_weight_against_dblquad(self):
        # Second, fully independent oracle: adaptive Gauss-Kronrod.
        from scipy.integrate import dblquad
        h = 2 * math.pi / (10 * LAM)
        val, err = dblquad(lambda y, x: 1.0 / math.sqrt(KAPPA ** 2 - x * x - y * y),
                           0.0, h, 0.0, h, epsabs=1e-12, epsrel=1e-12)
        assert err < 1e-8 * val
        assert _cell_measures(0.0, h, 0.0, h, KAPPA)[0] == pytest.approx(
            val, rel=1e-10)

    @pytest.mark.parametrize("cell", [(2, 5, 10), (3, 9, 10), (9, 4, 10),
                                      (9, 0, 10), (99, 0, 99.01)])
    def test_full_lattice_cells_against_mpmath(self, cell):
        # (mx, my, aperture in wavelengths).  At 10 wavelengths
        # (configs/full.json) (2, 5) is interior, (3, 9) and (9, 4) are cut
        # by the disk edge; (9, 0) and (99, 0) hold the disk's kx-axis end
        # (kappa, 0).
        mx, my, wavelengths = cell
        h = 2 * math.pi / (wavelengths * LAM)
        box = (mx * h, (mx + 1) * h, my * h, (my + 1) * h)
        assert _cell_measures(*box, KAPPA)[0] == pytest.approx(
            mpmath_cell_oracle(*box), rel=1e-13)

    def test_sliver_cell_is_exact_relative_to_the_largest(self):
        # (49, 10) of the 50.01-wavelength lattice clips a sliver of about
        # 3e-9 of the largest cell off the disk edge: it may lose relative
        # accuracy, but not absolute accuracy against the largest cell.
        lat = enumerate_lattice(50.01 * LAM, 50.01 * LAM, LAM)
        h = 2 * math.pi / (50.01 * LAM)
        # Mirror cells repeat the first quadrant's measures.
        cx, cy = np.array([p for p in lat.points if min(p) >= 0], dtype=float).T
        largest = _cell_measures(cx * h, (cx + 1) * h, cy * h, (cy + 1) * h,
                                 KAPPA).max()
        box = (49 * h, 50 * h, 10 * h, 11 * h)
        oracle = mpmath_cell_oracle(*box)
        assert 0 < oracle < 1e-8 * largest
        assert abs(_cell_measures(*box, KAPPA)[0] - oracle) <= 1e-13 * largest

    def test_five_point_lattice_weights_against_oracle(self):
        # L = wavelength: every cell touches the disk edge.  The coarse
        # Riemann oracle converges slowly there; the closed-form
        # quarter-disk value pins the production rule tightly.
        lat = enumerate_lattice(LAM, LAM, LAM)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prof = profile_separable_isotropic(lat, lat)
        h = 2 * math.pi / LAM  # cell side = kappa
        w_origin, w_right = _cell_measures([0.0, h], [h, 2 * h], [0.0, 0.0],
                                           [h, h], KAPPA)
        # (0,0) cell is the quarter disk: closed form (pi/2) kappa (1 - clip).
        exact = (math.pi / 2) * KAPPA * (1 - 1e-6)
        assert w_origin == pytest.approx(exact, rel=1e-12)
        assert w_origin == pytest.approx(riemann_cell_oracle(0.0, h, 0.0, h), rel=2e-2)
        # (1,0) cell touches the disk only at one corner: zero measure.
        assert w_right == 0.0
        # Each side factor has unit sum up to its floored entries (about
        # 7e-13 here), so outer(d, d~) sums to 1 within twice that.
        assert prof.matrix.sum() == pytest.approx(1.0, rel=2e-12)

    def test_swap_symmetry_of_cell_measures(self):
        h = 2 * math.pi / (2.3 * LAM)
        # [h, 2h] x [0, h] and its transpose [0, h] x [h, 2h].
        a, b = _cell_measures([h, 0.0], [2 * h, h], [0.0, h], [h, 2 * h],
                              KAPPA)
        assert b == pytest.approx(a, rel=1e-12)

    def test_rectangular_aperture_weights_against_oracle(self):
        # 2.5 x 1.5 wavelength aperture: all 11 cells touch or approach the
        # disk edge, where the fixed 512-grid oracle carries ~1e-3..1e-2
        # error; compare at 2%.
        lat = enumerate_lattice(2.5 * LAM, 1.5 * LAM, LAM)
        w = _side_weights(lat)
        hx = 2 * math.pi / (2.5 * LAM)
        hy = 2 * math.pi / (1.5 * LAM)
        oracle = np.array([riemann_cell_oracle(px * hx, (px + 1) * hx,
                                               py * hy, (py + 1) * hy)
                           for px, py in lat.points])
        oracle /= oracle.sum()
        assert np.abs(w - oracle).max() <= 0.02 * oracle.max()
        # Mirror symmetry confirmed by the independent oracle, not the cache.
        i, j = lat.points.index((0, 0)), lat.points.index((0, -1))
        assert oracle[i] == pytest.approx(oracle[j], rel=1e-9)
        assert w[i] == w[j]

    def test_full_scale_zero_cells_stay_floored(self):
        # Corner-anchored cells of the lattice points on the positive disk
        # edge meet the disk at a point only: zero measure, floored factor.
        lat = enumerate_lattice(10 * LAM, 10 * LAM, LAM)
        w = _side_weights(lat)
        zero = sorted(lat.points[i] for i in np.flatnonzero(w == 0.0))
        assert zero == [(0, 10), (6, 8), (8, 6), (10, 0)]
        # The row sums of outer(d, d~) are d times sum(d~) = 1.
        d = profile_separable_isotropic(lat, lat).matrix.sum(axis=1)
        floored = d <= PROFILE_FLOOR_REL * d.max() * (1 + 1e-12)
        assert np.array_equal(floored, w == 0.0)
        assert d[floored] == pytest.approx(PROFILE_FLOOR_REL * d.max(), rel=1e-12)

    def test_floored_factor_rows_and_columns_count_whole(self):
        # The four zero cells floor 4 rows and 4 columns of the 317 x 317
        # outer(d, d~); entries against the largest factor entries sit
        # within an ulp of the floor, whichever way their rounding falls.
        lat = enumerate_lattice(10 * LAM, 10 * LAM, LAM)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prof = profile_separable_isotropic(lat, lat)
        assert floor_count(prof.matrix) == 2 * 4 * 317 - 4 * 4

    def test_floor_warning_counts_entries(self, desk):
        sep = desk["sep"]
        lat_rx, lat_tx = desk["lattices"]
        rx = np.asarray(lat_rx.points, dtype=float)
        tx = np.asarray(lat_tx.points, dtype=float)
        raw = sep.matrix * np.exp(-((rx[:, None, :] - tx[None, :, :]) ** 2).sum(axis=2))
        expected = int((raw <= PROFILE_FLOOR_REL * raw.max()).sum())
        assert expected > 0
        with pytest.warns(UserWarning, match="below the positivity floor") as rec:
            prof = profile_nonseparable_gaussian(sep, lat_rx, lat_tx, 1.0)
        assert f": {expected} of {raw.size} entries" in str(rec[0].message)
        assert floor_count(prof.matrix) == expected


class TestGaussianKernelProfile:
    def test_matched_wavenumbers_keep_separable_value(self, desk):
        sep, nonsep = desk["sep"], desk["nonsep"]
        lat_rx, lat_tx = desk["lattices"]
        i = lat_rx.points.index((0, 0))
        j = lat_tx.points.index((0, 0))
        assert nonsep.matrix[i, j] == sep.matrix[i, j]

    def test_huge_scale_recovers_separable(self, desk):
        sep = desk["sep"]
        lat_rx, lat_tx = desk["lattices"]
        wide = profile_nonseparable_gaussian(sep, lat_rx, lat_tx, 1e12)
        assert np.allclose(wide.matrix, sep.matrix, rtol=1e-9)

    def test_unit_scale_single_step_multiplier(self, desk):
        # Neighboring wavenumbers at distance (1, 0) pick up exp(-1).
        sep, nonsep = desk["sep"], desk["nonsep"]
        lat_rx, lat_tx = desk["lattices"]
        i = lat_rx.points.index((1, 0))
        j = lat_tx.points.index((0, 0))
        assert nonsep.matrix[i, j] == pytest.approx(
            sep.matrix[i, j] * math.exp(-1.0), rel=1e-12)

    def test_kernel_never_amplifies(self, desk):
        assert np.all(desk["nonsep"].matrix <= desk["sep"].matrix + 1e-30)

    def test_rejects_bad_scale(self, desk):
        lat_rx, lat_tx = desk["lattices"]
        with pytest.raises(ValueError):
            profile_nonseparable_gaussian(desk["sep"], lat_rx, lat_tx, 0.0)


class TestProfileInvariants:
    def test_entries_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            VarianceProfile(np.array([[1.0, -0.1], [0.5, 0.2]]))

    def test_row_and_column_sums_positive(self):
        with pytest.raises(ValueError):
            VarianceProfile(np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_effective_width_of_constant_profile(self):
        # A flat n x m profile spreads each row over m entries and each
        # column over n.
        assert effective_width(np.ones((5, 3))) == ((3.0, 3.0), (5.0, 5.0))
        assert effective_width(np.full((4, 7), 0.25)) == ((7.0, 7.0),
                                                           (4.0, 4.0))

    def test_effective_width_counts_carrying_entries(self):
        # Row 0 is carried by one entry, row 1 by two equal ones.
        (row_min, row_med), (col_min, col_med) = effective_width(
            np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert (row_min, row_med) == (1.0, 1.5)
        assert (col_min, col_med) == (1.0, 1.5)

    @pytest.mark.parametrize("shape", [(5, 8), (8, 5), (1, 2), (2, 1)])
    def test_effective_width_median_is_numpy_median(self, shape):
        # Odd and even row and column counts: the same bits as np.median.
        m = np.random.default_rng(sum(shape)).random(shape)
        for (low, med), axis in zip(effective_width(m), (1, 0)):
            n_eff = m.sum(axis=axis) ** 2 / (m * m).sum(axis=axis)
            assert low == n_eff.min()
            assert med == np.median(n_eff)

    def test_effective_width_of_desk_profiles(self, desk):
        # The narrow Gaussian kernel (kernel_a = 1) leaves about 5 entries
        # per row carrying the variance; the separable profile about 33.
        (row_min, row_med), cols = effective_width(desk["nonsep"].matrix)
        assert row_med == pytest.approx(5.13, abs=0.01)
        assert row_min == pytest.approx(2.54, abs=0.01)
        assert cols == pytest.approx((row_min, row_med), rel=1e-12)
        (_, sep_med), _ = effective_width(desk["sep"].matrix)
        assert sep_med == pytest.approx(33.47, abs=0.01)

    def test_check_positive_flags_zero_entry(self):
        m = np.ones((3, 3))
        m[1, 2] = 0.0
        prof = VarianceProfile(m)
        with pytest.raises(ValueError, match="positivity"):
            prof.check_positive()


class TestBuilders:
    def test_weichselberger_centered_iid(self):
        prof = VarianceProfile(np.ones((3, 4)))
        model = build_weichselberger(np.zeros((3, 4)), prof, 0.5)
        assert model.zeta == 0.5
        assert not np.any(model.los)
        assert model.los_factors[0].shape == (3, 0)

    def test_weichselberger_shape_mismatch(self):
        prof = VarianceProfile(np.ones((3, 4)))
        with pytest.raises(ValueError):
            build_weichselberger(np.zeros((4, 3)), prof, 0.5)

    def test_round_trip_through_matrix_file(self, tmp_path):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        sig = 0.5 + rng.random((4, 4))
        matio.save_complex_matrix(tmp_path / "a.json", a)
        matio.save_real_matrix(tmp_path / "s.json", sig)
        model = build_weichselberger(
            matio.load_matrix(tmp_path / "a.json", "complex"),
            VarianceProfile(matio.load_matrix(tmp_path / "s.json", "real")), 0.3)
        assert np.array_equal(model.los, a)
        assert np.array_equal(model.profile.matrix, sig)

    def test_holographic_k_zero_centers_los(self, desk):
        geom = desk["geom"]
        n = desk["nonsep"].shape[0]
        a_h = synth_los(n, n, "single")
        model = build_holographic(geom, desk["nonsep"], a_h, 0.0, 0.1)
        assert not np.any(model.los)

    def test_holographic_k_scaling_and_zeta(self, desk):
        geom = desk["geom"]
        n_r, n_s = desk["nonsep"].shape
        a_h = synth_los(n_r, n_s, "lowrank", rank=2, seed=1)
        model = build_holographic(geom, desk["nonsep"], a_h, 10.0, 0.1)
        assert np.linalg.norm(model.los, 2) == pytest.approx(math.sqrt(10.0 / n_s),
                                                             rel=1e-10)
        assert model.zeta == pytest.approx(effective_zeta(geom, 0.1), rel=1e-15)

    def test_holographic_dimension_mismatch(self, desk):
        with pytest.raises(ValueError):
            build_holographic(desk["geom"], desk["nonsep"],
                              np.zeros((2, 2)), 1.0, 0.1)

    def test_holographic_lattice_cardinality_mismatch(self, desk):
        # Same profile, geometry with a different lattice: refuse to build.
        other = desk_geometry(5.0)
        n_r, n_s = desk["nonsep"].shape
        with pytest.raises(ValueError, match="lattice cardinalities"):
            build_holographic(other, desk["nonsep"],
                              synth_los(n_r, n_s, "single"), 1.0, 0.1)

    def test_zeta_must_be_positive(self):
        prof = VarianceProfile(np.ones((2, 2)))
        model = ChannelModel(los=np.zeros((2, 2)), profile=prof, zeta=1.0)
        for zeta in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="zeta must be finite and positive"):
                ChannelModel(los=np.zeros((2, 2)), profile=prof, zeta=zeta)
            with pytest.raises(ValueError, match="zeta must be finite and positive"):
                model.at_zeta(zeta)

    def test_zeta_with_overflowing_reciprocal_refused(self):
        prof = VarianceProfile(np.ones((2, 2)))
        model = ChannelModel(los=np.zeros((2, 2)), profile=prof, zeta=1.0)
        edge = 1.0 / np.finfo(float).max        # subnormal; 1/edge is inf
        for zeta in (edge, 1.9e-313, 5e-324):
            with pytest.raises(ValueError, match="1/zeta overflows"):
                ChannelModel(los=np.zeros((2, 2)), profile=prof, zeta=zeta)
            with pytest.raises(ValueError, match="1/zeta overflows"):
                model.at_zeta(zeta)
        smallest = float(np.nextafter(edge, 1.0))
        assert math.isfinite(1.0 / smallest)
        assert model.at_zeta(smallest).zeta == smallest

    def test_at_zeta_shares_the_channel(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        model = build_weichselberger(a, VarianceProfile(0.5 + rng.random((5, 4))),
                                     0.3)
        moved = model.at_zeta(0.6)
        assert (moved.zeta, model.zeta) == (0.6, 0.3)
        assert moved.los is model.los and moved.profile is model.profile
        assert moved.los_factors is model.los_factors
        fresh = build_weichselberger(a, model.profile, 0.6)
        assert all(np.array_equal(f, g)
                   for f, g in zip(moved.los_factors, fresh.los_factors))
        for zeta in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="zeta must be finite and positive"):
                model.at_zeta(zeta)


def full_svd_factors(a):
    """Thin factors from the SVD of the whole of A, rank by matrix_rank's
    tolerance."""
    u, s, vh = np.linalg.svd(a if np.any(np.imag(a)) else np.real(a),
                             full_matrices=False)
    r = int(np.count_nonzero(s > s[0] * max(a.shape) * np.finfo(float).eps))
    return u[:, :r] * s[:r], vh[:r].conj().T


class TestSupportFactors:
    """ChannelModel takes the SVD of A's nonzero rows and columns only."""

    def model(self, a):
        return ChannelModel(los=a, profile=VarianceProfile(np.ones(a.shape)),
                            zeta=0.5)

    @pytest.mark.parametrize("shape", [(37, 37), (317, 317), (13, 19)])
    def test_single_los_factors_match_full_svd_bitwise(self, shape):
        a = math.sqrt(10.0 / shape[1]) * synth_los(*shape, "single")
        p, q = self.model(a).los_factors
        p_ref, q_ref = full_svd_factors(a)
        assert p.dtype == q.dtype == np.float64
        assert np.array_equal(p, p_ref) and np.array_equal(q, q_ref)

    @pytest.mark.parametrize("complex_los", [False, True])
    def test_zero_rows_and_columns_keep_the_rank(self, complex_los):
        rng = np.random.default_rng(8)
        rows, cols = [1, 4, 5, 9], [0, 2, 7, 8, 11]
        left, right = rng.normal(size=(4, 3)), rng.normal(size=(3, 5))
        if complex_los:
            left = left + 1j * rng.normal(size=(4, 3))
            right = right + 1j * rng.normal(size=(3, 5))
        block = left @ right
        a = np.zeros((13, 17), dtype=block.dtype)
        a[np.ix_(rows, cols)] = block / np.linalg.norm(block, 2)
        p, q = self.model(a).los_factors
        assert p.shape == (13, 3) and q.shape == (17, 3)
        assert np.iscomplexobj(p) == complex_los
        assert not np.any(np.delete(p, rows, axis=0))
        assert not np.any(np.delete(q, cols, axis=0))
        assert np.abs(p @ q.conj().T - a).max() <= 1e-15
        np.testing.assert_allclose(q.conj().T @ q, np.eye(3), atol=1e-15)

    def test_zero_los_gives_real_empty_factors(self):
        p, q = self.model(np.zeros((3, 4), dtype=complex)).los_factors
        assert p.shape == (3, 0) and q.shape == (4, 0)
        assert not np.iscomplexobj(p) and not np.iscomplexobj(q)

    @pytest.mark.parametrize("complex_los", [False, True])
    def test_dense_los_takes_the_full_svd(self, complex_los):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(9, 7))
        if complex_los:
            a = a + 1j * rng.normal(size=(9, 7))
        p, q = self.model(a).los_factors
        p_ref, q_ref = full_svd_factors(a)
        assert np.array_equal(p, p_ref) and np.array_equal(q, q_ref)


def power_iteration_norm(a, iters=500, seed=0):
    """Spectral-norm oracle independent of numpy's SVD path."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=a.shape[1]) + 1j * rng.normal(size=a.shape[1])
    v /= np.linalg.norm(v)
    g = a.conj().T @ a
    for _ in range(iters):
        v = g @ v
        v /= np.linalg.norm(v)
    return math.sqrt(float(np.real(v.conj() @ g @ v)))


class TestSynthLos:
    def test_single_coupling_matrix(self):
        a = synth_los(3, 3, "single")
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.array_equal(a, expected)
        assert np.linalg.norm(a, 2) == 1.0

    def test_lowrank_rank(self):
        a = synth_los(6, 5, "lowrank", rank=1, seed=4)
        assert np.linalg.matrix_rank(a) == 1
        a3 = synth_los(6, 5, "lowrank", rank=3, seed=4)
        assert np.linalg.matrix_rank(a3) == 3

    def test_unit_spectral_norm_by_power_iteration(self):
        for rank, dims, seed in [(1, (5, 7), 0), (2, (8, 4), 1), (3, (6, 6), 2)]:
            a = synth_los(*dims, "lowrank", rank=rank, seed=seed)
            assert power_iteration_norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_for_seed(self):
        a1 = synth_los(4, 4, "lowrank", rank=2, seed=9)
        a2 = synth_los(4, 4, "lowrank", rank=2, seed=9)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, synth_los(4, 4, "lowrank", rank=2, seed=10))

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            synth_los(3, 3, "lowrank", rank=4)


class TestKroneckerEquivalence:
    def test_builders_share_profile_content(self):
        rng = np.random.default_rng(2)
        d = 0.5 + rng.random(5)
        dt = 0.5 + rng.random(4)
        a = rng.normal(size=(5, 4)) * 0.1
        mk = build_kronecker(a, d, dt, 0.2)
        mw = build_weichselberger(a, separable_profile(d, dt), 0.2)
        assert np.array_equal(mk.profile.matrix, mw.profile.matrix)
        assert np.array_equal(mk.profile.sqrt_entries(), mw.profile.sqrt_entries())
