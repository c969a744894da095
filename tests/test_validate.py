import pytest
from scipy.stats import chi2

from holo_rmt.normal import norm_cdf
from holo_rmt.validate import SE_MULTIPLIER, chi2_ppf


@pytest.mark.parametrize("samples", [200, 1_000, 10_000, 100_000])
def test_chi2_ppf_equals_scipy_stats(samples):
    # The variance band's two quantiles, and p = 5e-4, where
    # scipy.special.chdtri differs from scipy.stats in the last bits.
    p_lo = norm_cdf(-SE_MULTIPLIER)
    dof = samples - 1
    for p in (p_lo, 1.0 - p_lo, 5e-4):
        assert chi2_ppf(p, dof) == chi2.ppf(p, dof)
