"""Standard normal CDF and inverse CDF.

Both come from the standard library, so the statistics code does not pull
in a probability library.  The CDF goes through ``math.erfc`` (the C
library's rational minimax approximation, |abs err| < 1e-15), which keeps
full relative precision in the lower tail where ``NormalDist.cdf``, built
on ``erf``, does not.  The inverse CDF is ``statistics.NormalDist``'s
(Wichura's AS241 algorithm, accurate to about 1e-16 relative).
"""

import math
from statistics import NormalDist

import numpy as np

_STANDARD = NormalDist()


def norm_cdf(x):
    """Standard normal CDF, elementwise on scalars or arrays."""
    arr = np.asarray(x, dtype=float)
    out = 0.5 * np.vectorize(math.erfc)(-arr / math.sqrt(2.0))
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _inv_scalar(p):
    if not 0.0 < p < 1.0:
        if p == 0.0:
            return -math.inf
        if p == 1.0:
            return math.inf
        raise ValueError(f"probability out of range: {p}")
    return _STANDARD.inv_cdf(p)


def norm_inv_cdf(p):
    """Inverse standard normal CDF (quantile function)."""
    arr = np.asarray(p, dtype=float)
    out = np.vectorize(_inv_scalar)(arr)
    if np.isscalar(p) or arr.ndim == 0:
        return float(out)
    return out
