from pathlib import Path

import numpy as np
import pytest
from conftest import desk_geometry
from scipy.stats import chi2

from holo_rmt.asymptotics import analyze_model, auto_rate_grid, outage_curve
from holo_rmt.config import RunConfig
from holo_rmt.montecarlo import run_mc
from holo_rmt.normal import norm_cdf
from holo_rmt.validate import (SE_MULTIPLIER, check_convergence,
                               check_emi_vs_mc, check_outage,
                               check_variance_vs_mc, chi2_ppf)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("samples", [200, 1_000, 10_000, 100_000])
def test_chi2_ppf_equals_scipy_stats(samples):
    # The variance band's two quantiles, and p = 5e-4, where
    # scipy.special.chdtri differs from scipy.stats in the last bits.
    p_lo = norm_cdf(-SE_MULTIPLIER)
    dof = samples - 1
    for p in (p_lo, 1.0 - p_lo, 5e-4):
        assert chi2_ppf(p, dof) == chi2.ppf(p, dof)


def test_shipped_configs_are_the_reference_geometries():
    assert RunConfig.from_file(CONFIGS / "desk.json").geometry == desk_geometry(3.38)
    assert RunConfig.from_file(CONFIGS / "full.json").geometry == desk_geometry(10.0)


def test_criteria_check_the_configured_channel():
    # A separable desk channel with a rank-4 LoS: C1 and C3 must solve the
    # model that analyze solves, not a single-LoS Gaussian-kernel stand-in
    # (whose 10 dB EMI is 50.355 nats).
    cfg = RunConfig.from_file(CONFIGS / "desk.json").updated(channel={
        "profile": "separable",
        "los": {"kind": "lowrank", "rank": 4, "seed": 701}})
    stats = analyze_model(cfg.build_model(10.0), **cfg.solver_opts)[0]
    assert stats.emi_nats == pytest.approx(65.4108188838892, rel=1e-10)

    k = cfg.doc["channel"]["rician_k"]
    c3 = check_emi_vs_mc(cfg, snrs_db=(10.0,), rician_ks=(k,), samples=500,
                         seed=11)
    assert c3.details[0]["emi"] == stats.emi_nats
    c1 = check_convergence(cfg, snr_db=10.0)
    assert c1.measured.startswith(f"iters={stats.solution.iterations} ")


def test_outage_sup_equals_direct_count():
    # C7's sup against a per-rate count over the same samples.
    cfg = RunConfig.from_file(CONFIGS / "desk.json").updated(
        channel={"profile": "separable"})
    c7 = check_outage(cfg, snrs_db=(10.0,), samples=500, seed=19)
    model = cfg.build_model(10.0)
    stats = analyze_model(model, **cfg.solver_opts)[0]
    samples = run_mc(model, 500, 19).samples
    sup = max(abs(p - np.mean(samples < r))
              for r, p in outage_curve(stats, auto_rate_grid(stats)))
    assert c7.details[0]["sup_dev"] == sup
    assert c7.measured == f"sup |Prop - empirical| = {sup:.4f}"


@pytest.mark.parametrize("check", [check_emi_vs_mc, check_variance_vs_mc])
def test_rician_factor_listed_twice_is_swept_once(check):
    # run_all passes (0, K); at K = 0 that is one sweep, one row per SNR.
    cfg = RunConfig.from_file(CONFIGS / "desk.json").updated(
        channel={"profile": "separable"})
    res = check(cfg, snrs_db=(0.0, 10.0), rician_ks=(0.0, 0.0), samples=200,
                seed=11)
    assert [(d["rician_k"], d["snr_db"]) for d in res.details] == [
        (0.0, 0.0), (0.0, 10.0)]
