"""Release acceptance gate.

One test per criterion, each at its reference scale and fixed tolerance,
printing a single pass/fail line.  The channel-dependent criteria run on a
shipped configuration, built by the same code as in the CLI: the
full-scale convergence criterion on configs/full.json (n = 317), the
mean/variance-vs-MC criteria on configs/desk.json (n = 37, the closest odd
cardinality to the nominal 36), and the Gaussianity and outage criteria on
its separable variant (profile "separable").

Known-red criteria: the mean/variance-vs-MC secondary clauses at 20 dB
fail for the unit-scale Gaussian-kernel profile: there the MC mean is
+0.129/+0.120 nats (0.34%/0.26%, K = 0/10) above the asymptotic mean and
the MC variance 3.8% above V, more than pure sampling noise; the primary
tolerance clauses (1% mean, 5% variance) hold.  The
cause is the kernel's effective width: at kernel_a = 1 about 5 entries per
row carry a row's variance, at every aperture, while the deterministic
equivalents need that mass spread over many entries.  It is not finite n
(larger apertures leave the gap as large) and not the 1e-12 entry spread
(raising the floor to 1e-3 leaves it as large).  See the per-setting
tables these tests print.
"""

from pathlib import Path

import pytest

from holo_rmt.channel import effective_width
from holo_rmt.config import RunConfig
from holo_rmt.validate import (check_appendix_oracle, check_convergence,
                               check_emi_vs_mc, check_gaussianity,
                               check_iid_closed_form, check_invariants,
                               check_outage, check_reductions,
                               check_variance_vs_mc)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SNRS_DB = (0.0, 10.0, 20.0)
RICIAN_KS = (0.0, 10.0)


@pytest.fixture(scope="module")
def desk_cfg():
    return RunConfig.from_file(CONFIGS / "desk.json")


@pytest.fixture(scope="module")
def desk_sep(desk_cfg):
    return desk_cfg.updated(channel={"profile": "separable"})


def report(tag, result):
    mark = "PASS" if result.passed else "FAIL"
    print(f"[{mark}] {tag} {result.name}: {result.measured} "
          f"(threshold: {result.threshold}; {result.runtime_s:.1f}s)")
    for detail in result.details:
        print(f"    {detail}")
    return result


class TestAcceptance:
    def test_c1_fixed_point_convergence_full_scale(self):
        res = report("C1", check_convergence(
            RunConfig.from_file(CONFIGS / "full.json"), snr_db=10.0,
            tol=1e-12, max_iter=10_000, selfcons_tol=1e-10,
            time_limit_s=60.0))
        assert res.passed

    def test_c2_iid_closed_form_oracle(self):
        res = report("C2", check_iid_closed_form(rhos=(0.1, 1.0, 10.0),
                                                 size=16, tol=1e-10))
        assert res.passed

    def test_c3_emi_vs_monte_carlo(self, desk_cfg):
        res = report("C3", check_emi_vs_mc(
            desk_cfg, snrs_db=SNRS_DB, rician_ks=RICIAN_KS, samples=10_000,
            seed=11, rel_tol=0.01, se_mult=4.0))
        assert res.runtime_s < 300.0
        assert res.passed

    def test_c4_variance_vs_monte_carlo(self, desk_cfg):
        res = report("C4", check_variance_vs_mc(
            desk_cfg, snrs_db=SNRS_DB, rician_ks=RICIAN_KS, samples=100_000,
            seed=13, rel_tol=0.05, se_mult=4.0))
        assert res.runtime_s < 900.0
        assert res.passed

    def test_c5_linear_system_variance_oracle(self):
        res = report("C5", check_appendix_oracle(sizes=(8, 16, 32),
                                                 trials=3, final_rel_tol=0.05))
        assert res.passed

    def test_c6_gaussianity_of_normalized_mi(self, desk_sep):
        res = report("C6", check_gaussianity(
            desk_sep, snr_db=10.0, samples=100_000, seed=17, ks_coef=1.95,
            slope_range=(0.97, 1.03)))
        assert res.passed

    def test_c7_outage_curve(self, desk_sep):
        res = report("C7", check_outage(
            desk_sep, snrs_db=(30.0, 31.0), samples=100_000, seed=19,
            sup_tol=0.02))
        assert res.passed

    def test_c8_structural_reductions(self):
        res = report("C8", check_reductions(tol=1e-10))
        assert res.passed

    def test_c9_invariant_suite(self):
        res = report("C9", check_invariants(num_models=200, seed=31))
        assert res.passed

    def test_supplementary_gates_on_bounded_profile(self, desk_sep):
        """Evidence run, not a criterion: the C3/C4 gates on the separable
        isotropic profile, whose variances are bounded below (entry ratio
        ~0.05 instead of the kernel profile's 1e-12).  Both pass at every
        (k, SNR) setting, isolating the 20 dB reds above as a property of
        the narrow-kernel profile family, not of this implementation."""
        r3 = report("S3", check_emi_vs_mc(
            desk_sep, snrs_db=SNRS_DB, rician_ks=RICIAN_KS, samples=10_000,
            seed=11))
        r4 = report("S4", check_variance_vs_mc(
            desk_sep, snrs_db=SNRS_DB, rician_ks=RICIAN_KS, samples=100_000,
            seed=13))
        assert r3.passed
        assert r4.passed

    def test_mean_gap_shrinks_with_effective_width(self, desk_cfg):
        """Evidence run, not a criterion: the C3 gate (seed 11, 10 000
        samples, K = 0) at 20 dB on the desk kernel profile with kernel_a =
        1, 4 and 16.  Widening the kernel spreads each row's variance over
        more entries (median row n_eff about 5, 13 and 28), and the offset
        of the MC mean from the closed-form EMI, in standard errors, falls
        with it (about +7.6, +1.8 and -0.3)."""
        widths, gaps = [], []
        for kernel_a in (1.0, 4.0, 16.0):
            cfg = desk_cfg.updated(channel={"kernel_a": kernel_a})
            (_, row_median), _ = effective_width(
                cfg.build_profile(*cfg.lattices()).matrix)
            res = report(f"E1 kernel_a={kernel_a:g} n_eff={row_median:.1f}",
                         check_emi_vs_mc(cfg, snrs_db=(20.0,),
                                         rician_ks=(0.0,), samples=10_000,
                                         seed=11))
            (d,) = res.details
            widths.append(row_median)
            gaps.append(abs(d["mc_mean"] - d["emi"]) / d["se"])
        assert widths == sorted(widths)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[0] > 4.0 > gaps[2]
