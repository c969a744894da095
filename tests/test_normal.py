import math

import numpy as np
import pytest
import scipy.special as sp

from holo_rmt.normal import norm_cdf, norm_inv_cdf


def test_cdf_matches_scipy_oracle():
    x = np.linspace(-8.0, 8.0, 2001)
    assert np.abs(norm_cdf(x) - sp.ndtr(x)).max() <= 1e-12


def test_cdf_known_points():
    assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert norm_cdf(-6.0) == pytest.approx(9.865876e-10, rel=1e-5)
    assert norm_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)


def test_inverse_matches_scipy_oracle():
    p = np.concatenate([
        np.geomspace(1e-10, 0.4, 300),
        np.linspace(0.4, 0.6, 50),
        1.0 - np.geomspace(1e-10, 0.4, 300),
    ])
    err = np.abs(norm_inv_cdf(p) - sp.ndtri(p))
    assert err.max() <= 1e-9


def test_inverse_round_trip():
    x = np.linspace(-5.5, 5.5, 401)
    assert np.abs(norm_inv_cdf(norm_cdf(x)) - x).max() <= 1e-9


def test_inverse_is_normaldist_bit_for_bit():
    from statistics import NormalDist

    p = np.concatenate([[0.0, 1e-300, 1e-100, 1e-16], np.geomspace(1e-10, 0.4, 200),
                        np.linspace(0.4, 0.6, 51), 1.0 - np.geomspace(1e-10, 0.4, 200),
                        [1.0 - 1e-16, 1.0]])
    inv_cdf = NormalDist().inv_cdf
    expected = np.array([-math.inf if q == 0.0 else math.inf if q == 1.0
                         else inv_cdf(q) for q in p.tolist()])
    assert np.array_equal(norm_inv_cdf(p).view(np.uint64), expected.view(np.uint64))
    assert [norm_inv_cdf(q) for q in p[[1, -2]].tolist()] == expected[[1, -2]].tolist()


def test_inverse_edges():
    assert norm_inv_cdf(0.5) == pytest.approx(0.0, abs=1e-15)
    assert norm_inv_cdf(0.0) == -math.inf
    assert norm_inv_cdf(1.0) == math.inf
    with pytest.raises(ValueError):
        norm_inv_cdf(-0.1)
    with pytest.raises(ValueError):
        norm_inv_cdf(1.1)


def test_arrays_keep_shape_and_scalar_bits():
    x = np.linspace(-6.0, 6.0, 12).reshape(3, 4)
    cdf = norm_cdf(x)
    assert cdf.shape == (3, 4)
    scalars = np.array([norm_cdf(v) for v in x.ravel().tolist()])
    assert np.array_equal(cdf.ravel().view(np.uint64), scalars.view(np.uint64))
    inv = norm_inv_cdf(cdf)
    assert inv.shape == (3, 4)
    scalars = np.array([norm_inv_cdf(q) for q in cdf.ravel().tolist()])
    assert np.array_equal(inv.ravel().view(np.uint64), scalars.view(np.uint64))
    assert type(norm_cdf(np.float64(0.3))) is float
    assert type(norm_inv_cdf(np.array(0.3))) is float


def test_empty_input_gives_empty_float_array():
    for f in (norm_cdf, norm_inv_cdf):
        out = f(np.empty((0, 3)))
        assert out.dtype == np.float64 and out.shape == (0, 3)
