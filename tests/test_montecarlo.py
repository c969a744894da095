import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holo_rmt import montecarlo
from holo_rmt.asymptotics import analyze_model
from holo_rmt.channel import (build_weichselberger, profile_from_matrix,
                              separable_profile)
from holo_rmt.errors import NumericalError
from holo_rmt.montecarlo import (MiSampleSet, compute_mi, empirical_outage,
                                 ks_statistic, model_digest,
                                 normalized_samples, qq_data, qq_slope,
                                 run_mc, run_mc_grid, sample_channel,
                                 substream)
from holo_rmt.normal import norm_cdf
from holo_rmt.solver import solve_deltas


def iid_model(n, m, zeta):
    return build_weichselberger(np.zeros((n, m)),
                                profile_from_matrix(np.ones((n, m))), zeta)


def with_cpus(monkeypatch, count, log_dir):
    """Make the engine see ``count`` CPUs and log the pid and index of every
    substream call to ``log_dir`` (forked workers inherit the patch); the
    returned function maps each pid to the indices it drew."""
    monkeypatch.setattr(montecarlo, "_cpus", lambda: count)
    log = log_dir / f"substreams{count}.log"

    def logged(seed, index):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {index}\n")
        return substream(seed, index)

    def pids():
        drawn = {}
        for line in log.read_text().splitlines():
            pid, index = map(int, line.split())
            drawn.setdefault(pid, []).append(index)
        return {pid: sorted(indices) for pid, indices in drawn.items()}

    monkeypatch.setattr(montecarlo, "substream", logged)
    return pids


def small_model(seed=0, n=4, m=3, zeta=0.5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    sig = 0.4 + rng.random((n, m))
    return build_weichselberger(a * 0.4, profile_from_matrix(sig), zeta)


class TestSampleChannel:
    def test_vanishing_profile_recovers_los(self):
        model = small_model()
        tiny = build_weichselberger(model.los,
                                    profile_from_matrix(np.full((4, 3), 1e-24)),
                                    0.5)
        h = sample_channel(tiny, substream(1, 0))
        assert np.abs(h - model.los).max() <= 1e-10

    def test_seeded_determinism(self):
        model = small_model()
        h1 = sample_channel(model, substream(42, 0))
        h2 = sample_channel(model, substream(42, 0))
        assert np.array_equal(h1, h2)
        h3 = sample_channel(model, substream(42, 1))
        assert not np.array_equal(h1, h3)

    def test_first_matrix_frozen_value(self):
        # Frozen literals: the counter-based generator plus Box-Muller pins
        # these values across platforms, so any drift is a contract break.
        model = iid_model(2, 2, 1.0)
        h = sample_channel(model, substream(7, 0))
        assert h.shape == (2, 2) and h.dtype == complex
        expected = np.array(
            [[0.879688691854697 + 0.5042790182118985j,
              -0.1376735427219032 - 0.3950745963983254j],
             [-0.14989391361767476 + 0.49997961466672375j,
              -0.37041537966389093 - 0.3503128747685247j]])
        assert np.array_equal(h, expected)

    def test_entry_variance_matches_profile(self):
        model = small_model(seed=3)
        draws = 100_000
        acc = np.zeros(model.shape)
        for i in range(draws):
            h = sample_channel(model, substream(11, i))
            acc += np.abs(h - model.los) ** 2
        emp = acc / draws
        expected = model.profile.matrix / model.dims[1]
        assert np.abs(emp / expected - 1.0).max() <= 0.02

    def test_separable_sampling_equals_kronecker_form(self):
        d = np.array([0.5, 2.0, 1.25])
        dt = np.array([0.8, 1.6])
        model = build_weichselberger(np.zeros((3, 2)),
                                     separable_profile(d, dt), 1.0)
        h = sample_channel(model, substream(5, 0))
        # The bare X: a centered channel with a unit profile (x1 and +0 are
        # exact).
        x = sample_channel(iid_model(3, 2, 1.0), substream(5, 0))
        assert np.array_equal(h, (np.sqrt(d)[:, None] * np.sqrt(dt)[None, :]) * x)
        assert np.allclose(h, np.diag(np.sqrt(d)) @ x @ np.diag(np.sqrt(dt)),
                           rtol=1e-13)


class TestComputeMi:
    def test_identity_channel(self):
        h = np.eye(5, dtype=complex)
        assert compute_mi(h, 1.0) == pytest.approx(5 * math.log(2.0), rel=1e-12)

    def test_zero_channel(self):
        assert compute_mi(np.zeros((3, 4), dtype=complex), 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_rectangular_sides_agree(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        wide = compute_mi(h, 0.7)
        tall = compute_mi(h.conj().T, 0.7)
        assert wide == pytest.approx(tall, rel=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(9)
        h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        qu, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        qv, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        assert compute_mi(qu @ h @ qv.conj().T, 0.3) == pytest.approx(
            compute_mi(h, 0.3), rel=1e-10)

    def test_rejects_bad_zeta(self):
        for zeta in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="zeta"):
                compute_mi(np.eye(2, dtype=complex), zeta)


class TestRunMc:
    def test_single_sample_has_no_variance(self):
        ms = run_mc(small_model(), 1, seed=1)
        assert ms.count == 1
        assert ms.variance is None

    def test_mean_tracks_deterministic_equivalent(self):
        model = iid_model(16, 16, 0.1)
        sol, res = solve_deltas(model)
        from holo_rmt.asymptotics import emi_deterministic
        emi = emi_deterministic(model, sol, res)
        ms = run_mc(model, 10_000, seed=21)
        se = math.sqrt(ms.variance / ms.count)
        assert abs(ms.mean - emi) <= 3 * se + 0.01 * emi

    def test_partition_invariance(self):
        model = small_model(seed=5)
        full = run_mc(model, 400, seed=33)
        first = run_mc(model, 200, seed=33, start_index=0)
        second = run_mc(model, 200, seed=33, start_index=200)
        merged = np.concatenate([first.samples, second.samples])
        assert np.array_equal(merged, full.samples)
        assert np.mean(merged) == pytest.approx(full.mean, rel=1e-9)

    def test_threaded_run_is_identical(self, monkeypatch, tmp_path):
        model = small_model(seed=6)
        pids = with_cpus(monkeypatch, 1, tmp_path)
        seq = run_mc(model, 1200, seed=44)
        assert list(pids()) == [os.getpid()]
        # 4 CPUs, but 1200 samples fill only 3 workers of 512 or more.
        pids = with_cpus(monkeypatch, 4, tmp_path)
        par = run_mc(model, 1200, seed=44)
        assert len(pids()) == 3
        assert np.array_equal(seq.samples, par.samples)

    def test_worker_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        assert montecarlo._cpus() == 3
        # Platforms without an affinity call fall back to the CPU count.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert montecarlo._cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert montecarlo._cpus() == 1

    def test_samples_nonnegative_and_digest_stable(self):
        model = small_model(seed=7)
        ms = run_mc(model, 500, seed=3)
        assert np.all(ms.samples >= 0)
        assert ms.digest == model_digest(model)
        other = build_weichselberger(model.los, model.profile, model.zeta * 2)
        assert model_digest(other) != ms.digest

    def test_repeat_run_bit_identical(self):
        model = small_model(seed=7)
        a = run_mc(model, 300, seed=9)
        b = run_mc(model, 300, seed=9)
        assert np.array_equal(a.samples, b.samples)

    def test_batched_path_matches_scalar_path(self):
        model = small_model(seed=8)
        ms = run_mc(model, 10, seed=12)
        manual = [compute_mi(sample_channel(model, substream(12, i)), model.zeta)
                  for i in range(10)]
        assert np.allclose(ms.samples, manual, rtol=1e-12)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            run_mc(small_model(), 0, seed=1)

    def test_mean_consistent_at_two_sample_scales(self):
        # Standard-error scaling: the deviation from the analytic mean stays
        # inside 4 sqrt(var/S) at both S and 4S.
        model = iid_model(10, 10, 0.5)
        from holo_rmt.asymptotics import analyze_model
        stats, _, _, _ = analyze_model(model)
        for s in (2_000, 8_000):
            ms = run_mc(model, s, seed=61)
            gate = 4.0 * math.sqrt(ms.variance / s) + 0.005 * stats.emi_nats
            assert abs(ms.mean - stats.emi_nats) <= gate


class TestRunMcGrid:
    def test_grid_equals_one_run_per_zeta(self):
        model = small_model(seed=9)
        zetas = [0.05, 0.5, 5.0]
        grid = run_mc_grid(model, zetas, 300, seed=17)
        for zeta, ms in zip(zetas, grid):
            single = run_mc(model.at_zeta(zeta), 300, seed=17)
            assert np.array_equal(ms.samples, single.samples)
            assert ms.digest == single.digest == model_digest(model.at_zeta(zeta))
            assert ms.seed == 17

    def test_worker_split_identical_off_chunk_boundary(self, monkeypatch,
                                                       tmp_path):
        model = small_model(seed=10)
        with_cpus(monkeypatch, 1, tmp_path)
        one = run_mc_grid(model, [0.2, 2.0], 1100, seed=8, start_index=777)
        pids = with_cpus(monkeypatch, 2, tmp_path)
        two = run_mc_grid(model, [0.2, 2.0], 1100, seed=8, start_index=777)
        # The parent draws [777, 1327) and one forked worker [1327, 1877).
        drawn = pids()
        assert drawn.pop(os.getpid()) == list(range(777, 1327))
        assert list(drawn.values()) == [list(range(1327, 1877))]
        for a, b in zip(one, two):
            assert np.array_equal(a.samples, b.samples)

    def test_each_sample_is_compute_mi_of_its_draw(self):
        # One MI path: the engine's streamed draw and log-det reproduce
        # sample_channel + compute_mi exactly, not just to ulps.
        model = small_model(seed=11)
        ms = run_mc(model, 40, seed=12, start_index=5)
        manual = [compute_mi(sample_channel(model, substream(12, 5 + i)),
                             model.zeta) for i in range(40)]
        assert np.array_equal(ms.samples, manual)

    def test_worker_exception_keeps_its_type(self, monkeypatch):
        parent = os.getpid()
        real = montecarlo.substream

        def failing(seed, index):
            if index >= 600:
                raise NumericalError(f"index {index} in pid {os.getpid()}")
            return real(seed, index)

        # Forked workers inherit the patched module attributes.
        monkeypatch.setattr(montecarlo, "substream", failing)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        with pytest.raises(NumericalError, match="index 600") as exc:
            run_mc(small_model(), 1200, seed=3)
        assert f"pid {parent}" not in str(exc.value)

    def test_rejects_bad_zeta(self):
        with pytest.raises(ValueError, match="zeta"):
            run_mc_grid(small_model(), [0.5, math.nan], 10, seed=1)


class TestNormalizedSamples:
    def test_affine_shift(self):
        ms = MiSampleSet(samples=np.array([1.0, 2.0, 3.0]), seed=0, digest="x")
        base = normalized_samples(ms, 2.0, 4.0)
        shifted = MiSampleSet(samples=ms.samples + 1.0, seed=0, digest="x")
        out = normalized_samples(shifted, 2.0, 4.0)
        assert np.allclose(out - base, 0.5, rtol=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-5, 5), st.floats(0.1, 10))
    def test_normalization_inverts_affine_map(self, mean, var):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=50)
        ms = MiSampleSet(samples=mean + math.sqrt(var) * raw, seed=0, digest="x")
        out = normalized_samples(ms, mean, var)
        assert np.allclose(out, raw, atol=1e-9)

    def test_moments_converge_for_matched_model(self):
        model = iid_model(12, 12, 0.2)
        stats, _, _, _ = analyze_model(model)
        ms = run_mc(model, 20_000, seed=55)
        norm = normalized_samples(ms, stats.emi_nats, stats.variance)
        assert abs(norm.mean()) <= 4.0 / math.sqrt(ms.count) + 0.02
        assert abs(norm.var(ddof=1) - 1.0) <= 0.1


class TestKsStatistic:
    def test_exact_normals_pass_at_one_percent_level(self):
        s = 20_000
        limit = 1.63 / math.sqrt(s)
        for seed in (101, 202, 303, 404, 505):
            z = substream(seed, 0).standard_normal(s)
            assert ks_statistic(z) <= limit

    def test_point_mass_at_zero(self):
        assert ks_statistic(np.zeros(1000)) == pytest.approx(0.5, abs=1e-12)

    def test_unit_shift_detected(self):
        z = substream(9, 0).standard_normal(50_000) + 1.0
        d = ks_statistic(z)
        assert d >= 0.3
        # closed-form sup |Phi(x-1) - Phi(x)| = Phi(0.5) - Phi(-0.5)
        assert d == pytest.approx(norm_cdf(0.5) - norm_cdf(-0.5), abs=0.02)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]))

    def test_matches_scipy_oracle(self):
        from scipy.stats import kstest
        rng = substream(31, 0)
        for data in (rng.standard_normal(5000),
                     rng.standard_normal(3000) + 0.4,
                     rng.random(2000) * 4 - 2):
            assert ks_statistic(data) == pytest.approx(
                kstest(data, "norm").statistic, abs=1e-12)


class TestQqData:
    def test_single_sample_median_pair(self):
        pairs = qq_data(np.array([3.7]))
        assert pairs.shape == (1, 2)
        assert pairs[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert pairs[0, 1] == 3.7

    def test_gaussian_input_slope_near_one(self):
        z = substream(77, 0).standard_normal(100_000)
        slope = qq_slope(qq_data(z))
        assert 0.99 <= slope <= 1.01

    def test_empirical_coordinates_sorted(self):
        pairs = qq_data(substream(78, 0).standard_normal(500))
        emp = pairs[:, 1]
        assert np.all(np.diff(emp) >= 0)


class TestEmpiricalOutage:
    def make_set(self, values):
        return MiSampleSet(samples=np.asarray(values, float), seed=0, digest="x")

    def test_extremes(self):
        ms = self.make_set([1.0, 2.0, 3.0])
        assert empirical_outage(ms, 0.5) == 0.0
        assert empirical_outage(ms, 3.5) == 1.0

    def test_median(self):
        vals = np.arange(1, 1002, dtype=float)
        ms = self.make_set(vals)
        assert empirical_outage(ms, float(np.median(vals))) == pytest.approx(
            0.5, abs=1.5 / len(vals))

    def test_strict_inequality_at_ties(self):
        ms = self.make_set([1.0, 2.0, 2.0, 2.0, 3.0])
        assert empirical_outage(ms, 2.0) == pytest.approx(0.2)  # only 1.0 < R
        assert empirical_outage(ms, 2.0 + 1e-12) == pytest.approx(0.8)
