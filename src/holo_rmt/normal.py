"""Standard normal CDF and inverse CDF.

Both come from the standard library, so the statistics code does not pull
in a probability library.  The CDF goes through ``math.erfc`` (the C
library's rational minimax approximation, |abs err| < 1e-15), which keeps
full relative precision in the lower tail where ``NormalDist.cdf``, built
on ``erf``, does not.  The inverse CDF is ``statistics.NormalDist``'s
(Wichura's AS241 algorithm, accurate to about 1e-16 relative).
``statistics`` loads ``fractions`` and ``decimal`` with it, so it is
imported on the first inverse-CDF call, not with the package.
"""

import math

import numpy as np


def _elementwise(scalar, x):
    """``scalar`` mapped over the entries of ``x``: a float for a scalar or
    0-d ``x``, else a float array of its shape."""
    arr = np.asarray(x, dtype=float)
    out = np.array(list(map(scalar, arr.ravel().tolist())),
                   dtype=float).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def norm_cdf(x):
    """Standard normal CDF, elementwise on scalars or arrays."""
    return 0.5 * _elementwise(math.erfc,
                              -np.asarray(x, dtype=float) / math.sqrt(2.0))


def norm_inv_cdf(p):
    """Inverse standard normal CDF (quantile function)."""
    from statistics import NormalDist

    inv_cdf = NormalDist().inv_cdf

    def scalar(q):
        if 0.0 < q < 1.0:
            return inv_cdf(q)
        if q == 0.0:
            return -math.inf
        if q == 1.0:
            return math.inf
        raise ValueError(f"probability out of range: {q}")

    return _elementwise(scalar, p)
