"""Criterion evaluators shared by the validate command and the test suite.

Every check returns a CriterionResult carrying the measured quantity, the
threshold it was held to, and the verdict.  The criteria that depend on the
channel take it as a RunConfig and build their models with
RunConfig.build_models, the path of the analyze and mc commands; their
other arguments are what they sweep or gate on (SNRs, Rician factors,
samples, seed, thresholds).  The MC criteria take each SNR's closed form
and samples from montecarlo.closed_form_and_mc, as the mc command does.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincinv

from . import channel, montecarlo, solver
from .asymptotics import (analyze_model, auto_rate_grid, build_b,
                          emi_deterministic, oracle_from_blocks, outage_curve,
                          variance_clt)
from .montecarlo import (closed_form_and_mc, empirical_outage, ks_statistic,
                         normalized_samples, qq_data, qq_slope, sample_channel,
                         substream)
from .normal import norm_cdf

# Quantile multiplier shared by the mean gate (4 standard errors) and the
# chi^2 sampling band on the variance.
SE_MULTIPLIER = 4.0


@dataclass
class CriterionResult:
    name: str
    passed: bool
    measured: str
    threshold: str
    runtime_s: float = 0.0
    details: list = field(default_factory=list)

    def row(self):
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.name:<22} {self.measured:<34} {self.threshold:<30} {verdict}"


# ---------------------------------------------------------------------------
# Criterion 1: fixed-point convergence at full scale
# ---------------------------------------------------------------------------

def check_convergence(cfg, snr_db=10.0, tol=1e-12, max_iter=10_000,
                      selfcons_tol=1e-10, time_limit_s=60.0) -> CriterionResult:
    t0 = time.perf_counter()
    model = cfg.build_model(snr_db)
    sol, res = solver.solve_deltas(model, tol=tol, max_iter=max_iter)
    sc = solver.self_consistency_residual(model, sol, res)
    elapsed = time.perf_counter() - t0
    ok = (sol.iterations < max_iter and sol.residual <= tol
          and sc <= selfcons_tol and elapsed < time_limit_s)
    return CriterionResult(
        name="fixed-point",
        passed=ok,
        measured=(f"iters={sol.iterations} resid={sol.residual:.1e} "
                  f"selfcons={sc:.1e} t={elapsed:.1f}s"),
        threshold=f"<{max_iter} it, <={tol:g}, <={selfcons_tol:g}, <{time_limit_s:.0f}s",
        runtime_s=elapsed)


# ---------------------------------------------------------------------------
# Criterion 2: iid closed-form oracle
# ---------------------------------------------------------------------------

def check_iid_closed_form(rhos=(0.1, 1.0, 10.0), size=16,
                          tol=1e-10) -> CriterionResult:
    t0 = time.perf_counter()
    worst = 0.0
    prof = channel.VarianceProfile(np.ones((size, size)))
    a = np.zeros((size, size))
    for rho in rhos:
        model = channel.build_weichselberger(a, prof, rho)
        sol, _ = solver.solve_deltas(model)
        exact = (-1.0 + math.sqrt(1.0 + 4.0 / rho)) / 2.0
        worst = max(worst, float(np.abs(sol.delta - exact).max()),
                    float(np.abs(sol.delta_tilde - exact).max()))
    return CriterionResult(
        name="iid-closed-form",
        passed=worst <= tol,
        measured=f"max |delta - closed form| = {worst:.2e}",
        threshold=f"<= {tol:g}",
        runtime_s=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Criteria 3/4: EMI and variance against Monte Carlo
# ---------------------------------------------------------------------------

def _rician_sweep(cfg, snrs_db, rician_ks, samples, seed):
    """(K, SNR, closed-form stats, MC sample set) per SNR and per distinct
    Rician factor K of ``rician_ks``, in their given order."""
    for k in dict.fromkeys(rician_ks):
        cfg_k = cfg.updated(channel={"rician_k": k})
        for snr, stats, ms in closed_form_and_mc(cfg_k, snrs_db, samples, seed):
            yield k, snr, stats, ms


def check_emi_vs_mc(cfg, snrs_db=(0.0, 10.0, 20.0), rician_ks=(0.0, 10.0),
                    samples=10_000, seed=11, rel_tol=0.01,
                    se_mult=SE_MULTIPLIER) -> CriterionResult:
    t0 = time.perf_counter()
    details = []
    sweep = _rician_sweep(cfg, snrs_db, rician_ks, samples, seed)
    for k, snr, stats, ms in sweep:
        rel = float(abs(ms.mean - stats.emi_nats) / abs(stats.emi_nats))
        se = math.sqrt(ms.variance / samples)
        within_se = bool(abs(ms.mean - stats.emi_nats) <= se_mult * se)
        details.append({"rician_k": k, "snr_db": snr, "emi": stats.emi_nats,
                        "mc_mean": ms.mean, "rel": rel, "se": se,
                        "pass": bool(rel <= rel_tol) and within_se})
    worst_rel = max((d["rel"] for d in details), default=0.0)
    return CriterionResult(
        name="emi-vs-mc",
        passed=all(d["pass"] for d in details),
        measured=f"worst |mean-emi|/emi = {worst_rel:.4%}",
        threshold=f"<= {rel_tol:.0%} and within {se_mult:.0f} SE",
        runtime_s=time.perf_counter() - t0,
        details=details)


def chi2_ppf(p, dof):
    """chi^2 quantile by the formula scipy.stats.chi2.ppf evaluates."""
    return 2.0 * gammaincinv(dof / 2, p)


def check_variance_vs_mc(cfg, snrs_db=(0.0, 10.0, 20.0), rician_ks=(0.0, 10.0),
                         samples=100_000, seed=13, rel_tol=0.05,
                         se_mult=SE_MULTIPLIER) -> CriterionResult:
    t0 = time.perf_counter()
    p_lo = norm_cdf(-se_mult)
    details = []
    sweep = _rician_sweep(cfg, snrs_db, rician_ks, samples, seed)
    for k, snr, stats, ms in sweep:
        s2 = ms.variance
        rel = float(abs(s2 - stats.variance) / stats.variance)
        # chi^2 sampling band for the variance of ~Gaussian samples,
        # at quantiles matching the +-se_mult convention of the mean gate.
        dof = samples - 1
        band_lo = s2 * dof / chi2_ppf(1.0 - p_lo, dof)
        band_hi = s2 * dof / chi2_ppf(p_lo, dof)
        in_band = bool(band_lo <= stats.variance <= band_hi)
        details.append({"rician_k": k, "snr_db": snr,
                        "variance": stats.variance, "mc_var": s2,
                        "rel": rel, "band": [float(band_lo), float(band_hi)],
                        "pass": bool(rel <= rel_tol) and in_band})
    worst_rel = max((d["rel"] for d in details), default=0.0)
    return CriterionResult(
        name="variance-vs-mc",
        passed=all(d["pass"] for d in details),
        measured=f"worst |s2-V|/V = {worst_rel:.4%}",
        threshold=f"<= {rel_tol:.0%} and inside chi2 band",
        runtime_s=time.perf_counter() - t0,
        details=details)


# ---------------------------------------------------------------------------
# Criterion 5: Appendix-style linear-system oracle
# ---------------------------------------------------------------------------

def _oracle_family_model(size, seed, rho=0.5):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    sig = 0.5 + rng.random((size, size))
    a = channel.synth_los(size, size, "lowrank", rank=2, seed=seed) * 0.8
    return channel.build_weichselberger(a, channel.VarianceProfile(sig), rho)


def check_appendix_oracle(sizes=(8, 16, 32), trials=3, seed=101,
                          final_rel_tol=0.05) -> CriterionResult:
    t0 = time.perf_counter()
    mean_gap = {}
    final_ok = True
    details = []
    for size in sizes:
        gaps = []
        for t in range(trials):
            model = _oracle_family_model(size, seed + t)
            stats, b = analyze_model(model)
            oracle = oracle_from_blocks(b)
            gap = abs(oracle - stats.variance)
            gaps.append(gap)
            if size == sizes[-1] and gap > final_rel_tol * stats.variance:
                final_ok = False
            details.append({"size": size, "trial": t, "variance": stats.variance,
                            "oracle": oracle, "gap": gap})
        mean_gap[size] = float(np.mean(gaps))
    decreasing = all(mean_gap[a] > mean_gap[b]
                     for a, b in zip(sizes, sizes[1:]))
    ok = decreasing and final_ok
    gaps_str = " > ".join(f"{mean_gap[s]:.2e}" for s in sizes)
    return CriterionResult(
        name="appendix-oracle",
        passed=ok,
        measured=f"mean gaps {gaps_str}",
        threshold=f"decreasing, final <= {final_rel_tol:.0%} of V",
        runtime_s=time.perf_counter() - t0,
        details=details)


# ---------------------------------------------------------------------------
# Criterion 6: Gaussianity of the normalized MI
# ---------------------------------------------------------------------------

def check_gaussianity(cfg, snr_db=10.0, samples=100_000, seed=17,
                      ks_coef=1.95, slope_range=(0.97, 1.03)) -> CriterionResult:
    t0 = time.perf_counter()
    [(_, stats, ms)] = closed_form_and_mc(cfg, [snr_db], samples, seed)
    norm = normalized_samples(ms, stats.emi_nats, stats.variance)
    ks = ks_statistic(norm)
    slope = qq_slope(qq_data(norm))
    ks_limit = ks_coef / math.sqrt(samples)
    ok = bool(ks <= ks_limit) and slope_range[0] <= slope <= slope_range[1]
    return CriterionResult(
        name="gaussianity",
        passed=ok,
        measured=f"ks={ks:.2e} slope={slope:.4f}",
        threshold=(f"ks <= {ks_limit:.2e}, slope in "
                   f"[{slope_range[0]}, {slope_range[1]}]"),
        runtime_s=time.perf_counter() - t0,
        details=[{"ks": ks, "slope": slope, "emi": stats.emi_nats,
                  "variance": stats.variance}])


# ---------------------------------------------------------------------------
# Criterion 7: outage curve against the empirical CDF
# ---------------------------------------------------------------------------

def check_outage(cfg, snrs_db=(30.0, 31.0), samples=100_000, seed=19,
                 sup_tol=0.02) -> CriterionResult:
    t0 = time.perf_counter()
    details = []
    worst = 0.0
    for snr, stats, ms in closed_form_and_mc(cfg, snrs_db, samples, seed):
        grid = auto_rate_grid(stats)
        probs = np.array([p for _, p in outage_curve(stats, grid)])
        sup = float(np.abs(probs - empirical_outage(ms, grid)).max())
        worst = max(worst, sup)
        details.append({"snr_db": snr, "sup_dev": sup,
                        "emi": stats.emi_nats, "variance": stats.variance})
    return CriterionResult(
        name="outage",
        passed=bool(worst <= sup_tol),
        measured=f"sup |Prop - empirical| = {worst:.4f}",
        threshold=f"<= {sup_tol}",
        runtime_s=time.perf_counter() - t0,
        details=details)


# ---------------------------------------------------------------------------
# Criterion 8: structural reductions
# ---------------------------------------------------------------------------

def check_reductions(seed=23, tol=1e-10) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    msgs = []
    ok = True

    # (a) separable profile: delta_j / d~_j constant across j.
    d = 0.5 + rng.random(10)
    dt = 0.5 + rng.random(8)
    a = (rng.normal(size=(10, 8)) + 1j * rng.normal(size=(10, 8))) * 0.1
    model = channel.build_kronecker(a, d, dt, 0.7)
    sol, _ = solver.solve_deltas(model)
    ratios = sol.delta / dt
    spread_a = float(ratios.max() - ratios.min()) / abs(float(ratios.mean()))
    if spread_a > tol:
        ok = False
    msgs.append(f"sep-ratio spread {spread_a:.2e}")

    # (b) centered variance: variance_clt evaluates the reduced
    # -log det(I_M - Lambda~ Gamma); the reference is the dense 2M x 2M
    # log-det, so the block-determinant reduction is checked independently.
    sig = 0.5 + rng.random((9, 9))
    model0 = channel.build_weichselberger(np.zeros((9, 9)),
                                          channel.VarianceProfile(sig), 0.8)
    sol0, res0 = solver.solve_deltas(model0)
    b0 = build_b(model0, sol0, res0)
    v_clt = variance_clt(b0)
    sign, logdet = np.linalg.slogdet(np.eye(2 * b0.m) - b0.full())
    v_dense = -logdet
    rel_b = abs(v_clt - v_dense) / abs(v_dense)
    if sign <= 0 or rel_b > tol:
        ok = False
    msgs.append(f"centered-blockdet rel {rel_b:.2e}")

    # (c) Kronecker and Weichselberger builders give bit-identical H for the
    # same X stream; the explicit D^{1/2} X D~^{1/2} product agrees to a few
    # ulp (association order of the three factors differs).  The bare X is
    # the draw of a centered channel with a unit profile (x1 and +0 are
    # exact).
    model_w = channel.build_weichselberger(a, channel.separable_profile(d, dt), 0.7)
    model_k = channel.build_kronecker(a, d, dt, 0.7)
    h_w = sample_channel(model_w, substream(99, 0))
    h_k = sample_channel(model_k, substream(99, 0))
    bit_same = np.array_equal(h_w, h_k)
    model_x = channel.build_weichselberger(
        np.zeros(a.shape), channel.VarianceProfile(np.ones(a.shape)), 0.7)
    x = sample_channel(model_x, substream(99, 0))
    h_kron = a + np.diag(np.sqrt(d)) @ x @ np.diag(np.sqrt(dt))
    kron_close = np.allclose(h_w, h_kron, rtol=1e-13, atol=0)
    if not (bit_same and kron_close):
        ok = False
    msgs.append(f"bit-identical={bit_same}, kron-form-ulp={kron_close}")

    return CriterionResult(
        name="reductions",
        passed=ok,
        measured="; ".join(msgs),
        threshold=f"spreads <= {tol:g}, bit-identical H",
        runtime_s=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Criterion 9: invariant suite on random models
# ---------------------------------------------------------------------------

def random_model(rng):
    n = int(rng.integers(2, 17))
    m = int(rng.integers(2, 17))
    sig = 0.2 + rng.random((n, m))
    a = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    a *= rng.random() * 1.5 / max(np.linalg.norm(a, 2), 1e-12)
    rho = float(10.0 ** rng.uniform(-1.3, 0.7))
    return channel.build_weichselberger(a, channel.VarianceProfile(sig), rho)


def _check_one_invariant_model(rng) -> list[str]:
    failures = []
    model = random_model(rng)
    n, m = model.dims
    rho = model.zeta
    sol, res = solver.solve_deltas(model)
    bound_d, bound_dt = solver.delta_upper_bounds(model)
    if not (np.all(sol.delta > 0) and np.all(sol.delta <= bound_d * (1 + 1e-9))):
        failures.append("delta bound")
    if not (np.all(sol.delta_tilde > 0)
            and np.all(sol.delta_tilde <= bound_dt * (1 + 1e-9))):
        failures.append("delta~ bound")
    for mat, label in ((res.t_dense(), "T"), (res.t_tilde_dense(), "T~")):
        if np.abs(mat - mat.conj().T).max() > 1e-12:
            failures.append(f"{label} not Hermitian")
        if np.linalg.eigvalsh(mat).min() <= 0:
            failures.append(f"{label} not PD")
    b = build_b(model, sol, res)
    full = b.full()
    if full.min() < 0:
        failures.append("B has negative entries")
    if np.abs(np.diag(b.xi)).max() != 0.0:
        failures.append("Xi diagonal not zero")
    if np.abs(b.gamma - b.gamma.T).max() > 1e-15 * max(b.gamma.max(), 1e-300):
        failures.append("Gamma not symmetric")
    sign, logdet = np.linalg.slogdet(np.eye(2 * m) - full)
    if not (sign > 0 and logdet <= 1e-12):
        failures.append("det(I-B) outside (0, 1]")
    v = variance_clt(b)
    if not v > 0:
        failures.append("variance not positive")
    emi1 = emi_deterministic(model, sol, res)
    if emi1 < 0:
        failures.append("EMI negative")
    model2 = model.at_zeta(2.0 * rho)
    sol2, res2 = solver.solve_deltas(model2)
    emi2 = emi_deterministic(model2, sol2, res2)
    if emi2 > emi1 + 1e-12:
        failures.append("EMI not nonincreasing in zeta")
    # MI invariance under unitary rotation of one realization.
    h = sample_channel(model, substream(7, 0))
    qu, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    qv, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    mi_a = montecarlo.compute_mi(h, rho)
    mi_b = montecarlo.compute_mi(qu @ h @ qv.conj().T, rho)
    if abs(mi_a - mi_b) > 1e-10 * max(1.0, abs(mi_a)):
        failures.append("MI not unitary invariant")
    return failures


def check_invariants(num_models=200, seed=31) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    failures = []
    for idx in range(num_models):
        bad = _check_one_invariant_model(rng)
        if bad:
            failures.append((idx, bad))
    return CriterionResult(
        name="invariant-suite",
        passed=not failures,
        measured=f"{len(failures)} failing models of {num_models}",
        threshold="zero failures",
        runtime_s=time.perf_counter() - t0,
        details=[{"model": i, "failures": f} for i, f in failures])


# ---------------------------------------------------------------------------
# Orchestration for the CLI
# ---------------------------------------------------------------------------

def run_all(run_config, rel_tol_scale=1.0):
    """Evaluate every criterion at the configured size.

    The channel-dependent criteria run on the configured channel: its
    geometry, profile, kernel_a, LoS, Rician factor and solver settings.
    The mean/variance-vs-MC checks also sweep K = 0, once if K is 0.  The
    Gaussianity and outage checks run on its separable variant (``profile``
    set to "separable"): their criteria do not pin the profile, and the
    narrow-kernel non-separable profile, where about 5 entries per row
    carry a row's variance at kernel_a = 1, carries a bias those
    distributional gates cannot absorb.  ``rel_tol_scale`` scales the
    relative thresholds (smaller = stricter) and must be finite and
    positive, and mc.samples must be at least 2, as the criteria compare
    sample variances.  The configured profile must be entrywise positive;
    that pre-flight check runs before any criterion and raises
    AssumptionError.  The MC criteria take seeds mc.seed + 0..3, modulo
    2^64.
    """
    if not (math.isfinite(rel_tol_scale) and rel_tol_scale > 0):
        raise ValueError(f"rel_tol_scale must be finite and positive, "
                         f"got {rel_tol_scale!r}")
    if run_config.mc_samples < 2:
        raise ValueError(f"validate needs mc.samples (--samples) >= 2 for "
                         f"sample variances, got {run_config.mc_samples}")
    run_config.build_profile(*run_config.lattices()).check_positive()
    samples = run_config.mc_samples
    seeds = [(run_config.mc_seed + i) % 2**64 for i in range(4)]
    snrs = tuple(run_config.snr_db)
    k = float(run_config.doc["channel"]["rician_k"])
    sopts = run_config.solver_opts
    separable = run_config.updated(channel={"profile": "separable"})
    return [
        check_convergence(run_config, snr_db=snrs[0], tol=sopts["tol"],
                          max_iter=sopts["max_iter"]),
        check_iid_closed_form(),
        check_emi_vs_mc(run_config, snrs_db=snrs, rician_ks=(0.0, k),
                        samples=samples, seed=seeds[0],
                        rel_tol=0.01 * rel_tol_scale),
        check_variance_vs_mc(run_config, snrs_db=snrs, rician_ks=(0.0, k),
                             samples=samples, seed=seeds[1],
                             rel_tol=0.05 * rel_tol_scale),
        check_appendix_oracle(),
        check_gaussianity(separable, snr_db=snrs[0], samples=samples,
                          seed=seeds[2]),
        check_outage(separable, snrs_db=snrs, samples=samples, seed=seeds[3],
                     sup_tol=0.02 * rel_tol_scale),
        check_reductions(),
        check_invariants(num_models=50),
    ]
