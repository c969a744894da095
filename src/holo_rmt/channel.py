"""Channel construction: H = A + Sigma^(o1/2) .* X.

Variance-profile generators (isotropic separable, Gaussian-kernel
non-separable), profile bookkeeping (positivity floor, effective width),
and the two model builders (Weichselberger and holographic).
"""

import copy
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionError
from .geometry import (ArrayGeometry, WavenumberLattice, effective_zeta,
                       rx_lattice, tx_lattice)

# Entries below 1e-12 * max are raised to that floor: the asymptotic
# formulas need strictly positive variances, but measured profiles can hit
# exact zeros at cells clipped by the propagation-disk edge.
PROFILE_FLOOR_REL = 1e-12


@dataclass(frozen=True)
class VarianceProfile:
    """Per-entry variance matrix Sigma of the random channel component.

    A separable (Kronecker) profile is the matrix outer(d, d~).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise ValueError("variance profile must be a nonempty 2-D matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("variance profile entries must be finite")
        if np.any(m < 0):
            raise ValueError("variance profile entries must be nonnegative")
        if np.any(m.sum(axis=0) <= 0) or np.any(m.sum(axis=1) <= 0):
            raise ValueError("every row and column sum of the profile must be positive")
        object.__setattr__(self, "matrix", m)

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def sigma2_max(self) -> float:
        return float(self.matrix.max())

    @property
    def sigma2_min(self) -> float:
        return float(self.matrix.min())

    def sqrt_entries(self) -> np.ndarray:
        """Elementwise square root Sigma^(o1/2) used by the sampler."""
        return np.sqrt(self.matrix)

    def check_positive(self):
        """Raise AssumptionError if any entry is non-positive (assumption
        gate, no flooring)."""
        if self.sigma2_min <= 0:
            i, j = np.unravel_index(np.argmin(self.matrix), self.shape)
            raise AssumptionError(
                f"variance profile violates the positivity assumption: "
                f"entry ({i},{j}) = {self.matrix[i, j]}")


def floor_count(matrix) -> int:
    """Number of entries at or below the positivity floor PROFILE_FLOOR_REL * max.

    The floor carries a 1e-9 relative slack: in outer(d, d~) a floored
    factor entry times the largest other one lands within an ulp of the
    floor, on either side as rounding falls, and counts as floored.
    """
    m = np.asarray(matrix, dtype=float)
    return int(np.count_nonzero(m <= PROFILE_FLOOR_REL * m.max() * (1 + 1e-9)))


def effective_width(matrix):
    """How many entries carry each row's and each column's variance.

    n_eff of row i is (sum_j s_ij)^2 / sum_j s_ij^2: m for a flat row of m
    entries, 1 when a single entry carries the row.  Returns
    ((min, median) over rows, (min, median) over columns).
    """
    m = np.asarray(matrix, dtype=float)

    def side(axis):
        n_eff = np.sort(m.sum(axis=axis) ** 2 / (m * m).sum(axis=axis))
        # np.median's own formula, the mean of the one or two middle
        # entries; np.median itself would import numpy.ma on first use.
        middle = n_eff[(n_eff.size - 1) // 2:n_eff.size // 2 + 1]
        return float(n_eff.min()), float(middle.mean())

    return side(1), side(0)


def _floored(matrix, what):
    """``matrix`` with entries raised to the positivity floor, warning with
    the count and ``what`` the matrix is when any are."""
    m = np.asarray(matrix, dtype=float)
    count = floor_count(m)
    if count:
        floor = PROFILE_FLOOR_REL * m.max()
        warnings.warn("variance profile entries below the positivity floor "
                      f"were raised to {floor:.3e}: {count} of {m.size} entries "
                      f"of the {what}",
                      stacklevel=3)
        m = np.maximum(m, floor)
    return m


def separable_profile(d, d_tilde):
    """Profile Sigma = outer(d, d~)."""
    d = np.asarray(d, dtype=float)
    dt = np.asarray(d_tilde, dtype=float)
    if d.ndim != 1 or dt.ndim != 1:
        raise ValueError("factors must be vectors")
    if np.any(d <= 0) or np.any(dt <= 0):
        raise ValueError("separable factors must be strictly positive")
    return VarianceProfile(np.outer(d, dt))


# ---------------------------------------------------------------------------
# Isotropic separable profile: lattice-cell solid angles in closed form
# ---------------------------------------------------------------------------

# Cells are clipped to kz = sqrt(kappa^2 - kx^2 - ky^2) > CELL_CLIP_REL * kappa,
# which keeps the integrand finite at the propagation-disk edge.
CELL_CLIP_REL = 1e-6

def _cell_measures(x0, x1, y0, y1, kappa):
    """Integral of (kappa^2 - kx^2 - ky^2)^(-1/2) over each cell
    [x0, x1] x [y0, y1] of the first quadrant (0 <= x0 <= x1, 0 <= y0 <= y1),
    in closed form.

    The domain is clipped to kz > eps = CELL_CLIP_REL * kappa, the disk
    kx^2 + ky^2 <= r^2 = kappa^2 - eps^2, which bounds the edge
    singularity.  Its edge crosses ky = y1 at xk and ky = y0 at xe: on
    [x0, xk] ky spans [y0, y1], on [xk, xe] it spans [y0, sqrt(r^2 - kx^2)].
    With s = sqrt(kappa^2 - x^2 - y^2) and q = sqrt(r^2 - x^2), both pieces
    are differences of two antiderivatives at the interval ends:

        F(x, y) = int_0^x int_0^y = x atan2(y, s) + y atan2(x, s)
                                    - kappa atan2(x y, kappa s),
        H(x) = int_0^x acos(eps / sqrt(kappa^2 - t^2)) dt
             = x atan2(q, eps) - eps atan2(x, q) + kappa atan2(x eps, kappa q).

    Near x = kappa or y = kappa the terms are ~ pi kappa / 2 and cancel, so
    atan(u) - atan(v) = atan((u - v) / (1 + u v)) folds each cancelling
    pair into one small angle: F = x Dx + y Dy - (kappa - x - y) atan2(x y,
    kappa s) with Dx = atan2(y s (kappa - x), kappa s^2 + x y^2) and Dy its
    mirror, and H = x pi / 2 - G with G as in ``g_edge``.

    Against a 40-digit evaluation over lattices of 1 to 100 wavelengths,
    every cell is within 3e-13 of its lattice's largest cell; the (kappa, 0)
    cells of the 10- and 99.01-wavelength lattices are within 1e-15 and
    6e-14 relative.  Slivers lose relative accuracy only: (49, 10) of the
    50.01-wavelength lattice, 3e-9 of the largest cell, is 1e-7 off.  A
    cell that meets the disk at a point or not at all has empty intervals,
    so each difference takes one point twice and is exactly 0.
    """
    x0, x1, y0, y1 = (np.atleast_1d(np.asarray(v, dtype=float))
                      for v in (x0, x1, y0, y1))
    eps = CELL_CLIP_REL * kappa
    r2 = kappa * kappa - eps * eps
    xk = np.sqrt(np.maximum(r2 - y1 * y1, 0.0))
    xe = np.sqrt(np.maximum(r2 - y0 * y0, 0.0))

    def f_corner(x, y):
        s = np.sqrt(np.maximum(kappa * kappa - x * x - y * y, 0.0))
        ks2 = kappa * s * s
        return (x * np.arctan2(y * s * (kappa - x), ks2 + x * y * y)
                + y * np.arctan2(x * s * (kappa - y), ks2 + x * x * y)
                - (kappa - x - y) * np.arctan2(x * y, kappa * s))

    def g_edge(x):
        q = np.sqrt(np.maximum(r2 - x * x, 0.0))
        return (x * np.arctan2(eps * q * (kappa - x),
                               kappa * q * q + x * eps * eps)
                - (kappa - x) * np.arctan2(x * eps, kappa * q)
                + eps * np.arctan2(x, q))

    ea = np.minimum(x1, xk)
    a = np.minimum(x0, ea)
    eb = np.minimum(x1, xe)
    b = np.minimum(np.maximum(x0, xk), eb)
    full = ((f_corner(ea, y1) - f_corner(a, y1))
            - (f_corner(ea, y0) - f_corner(a, y0)))
    cut = ((eb - b) * (0.5 * np.pi) - (g_edge(eb) - g_edge(b))
           - (f_corner(eb, y0) - f_corner(b, y0)))
    return np.maximum(full + cut, 0.0)


def _side_weights(lattice: WavenumberLattice) -> np.ndarray:
    """Solid-angle measure of every lattice cell, normalized to unit sum.

    The cell of point (m_x, m_y) is the corner-anchored rectangle
    [2 pi m_x / L_x, 2 pi (m_x+1) / L_x] x [2 pi m_y / L_y, 2 pi (m_y+1) / L_y]
    intersected with the propagation disk kappa = 2 pi / lattice.wavelength.
    The integrand is invariant under axis reflection (and axis swap for
    square apertures), so each cell is mirrored into the first quadrant
    (m -> -m - 1 for m < 0), its axes ordered on a square aperture, and
    all cells go through one vectorised ``_cell_measures`` call.
    """
    kappa = 2.0 * np.pi / lattice.wavelength
    lx, ly = lattice.aperture
    hx = 2.0 * np.pi / lx
    hy = 2.0 * np.pi / ly
    cx, cy = (np.where(m >= 0, m, -m - 1)
              for m in np.array(lattice.points, dtype=float).T)
    if abs(lx - ly) <= 1e-15 * max(lx, ly):
        cx, cy = np.minimum(cx, cy), np.maximum(cx, cy)
    weights = _cell_measures(cx * hx, (cx + 1) * hx, cy * hy, (cy + 1) * hy,
                             kappa)
    total = weights.sum()
    if total <= 0:
        # Cannot happen for a valid lattice: the origin cell always overlaps
        # the propagation disk with positive measure.
        raise RuntimeError("lattice cell measures sum to zero")
    return weights / total


def profile_separable_isotropic(lat_rx: WavenumberLattice,
                                lat_tx: WavenumberLattice) -> VarianceProfile:
    """Isotropic separable profile from per-side lattice solid angles.

    Each side's factor is the solid-angle measure of its lattice cell,
    normalized to unit sum per side (total profile power 1).
    """
    if lat_rx.n == 0 or lat_tx.n == 0:
        raise ValueError("lattices must be nonempty")
    d = _floored(_side_weights(lat_rx), "rx factor")
    dt = _floored(_side_weights(lat_tx), "tx factor")
    return separable_profile(d, dt)


def profile_nonseparable_gaussian(sep: VarianceProfile,
                                  lat_rx: WavenumberLattice,
                                  lat_tx: WavenumberLattice,
                                  kernel_scale: float) -> VarianceProfile:
    """Multiply a separable profile by the Gaussian wavenumber-distance kernel.

    sigma^2(l, m) = sigma_R^2(l) sigma_S^2(m) * exp(-(|l - m|^2) / a) with
    integer lattice coordinates l, m and a = kernel_scale.
    """
    if kernel_scale <= 0:
        raise ValueError("kernel scale must be positive")
    if sep.shape != (lat_rx.n, lat_tx.n):
        raise ValueError("profile shape does not match the lattices")
    rx = np.asarray(lat_rx.points, dtype=float)
    tx = np.asarray(lat_tx.points, dtype=float)
    dist2 = ((rx[:, None, 0] - tx[None, :, 0]) ** 2
             + (rx[:, None, 1] - tx[None, :, 1]) ** 2)
    kernel = np.exp(-dist2 / kernel_scale)
    return VarianceProfile(_floored(sep.matrix * kernel, "profile"))


# ---------------------------------------------------------------------------
# Channel models
# ---------------------------------------------------------------------------

def check_zeta(zeta):
    """Raise unless the noise parameter zeta is finite and positive, with a
    finite reciprocal: the resolvents start from 1/zeta, and a zeta at or
    below 1/(largest double) = 5.6e-309 would overflow it."""
    if not (math.isfinite(zeta) and zeta > 0):
        raise ValueError(f"zeta must be finite and positive, got {zeta}")
    if math.isinf(1.0 / float(zeta)):
        raise ValueError(
            f"zeta = {zeta:.3g} is at or below 1/(largest double) = "
            f"{1.0 / np.finfo(float).max:.3g}, so 1/zeta overflows; lower "
            "the SNR (snr_db, --snr-db) or raise the noise power")


def _support_factors(a):
    """Thin factors (P, Q), A = P Q^H, from the SVD of A's support.

    Only the rows and columns of A that hold a nonzero entry enter the SVD,
    so a single LoS factors a 1 x 1 block.  The rank is decided with numpy's
    ``matrix_rank`` tolerance taken on A's full shape, and the factors are
    scattered back to N x r and M x r, zero outside the support.  They are
    real when A is; A = 0 gives r = 0.
    """
    nonzero = a != 0
    rows = np.flatnonzero(nonzero.any(axis=1))
    cols = np.flatnonzero(nonzero.any(axis=0))
    block = a[np.ix_(rows, cols)]
    u, s, vh = np.linalg.svd(block if np.any(np.imag(block)) else np.real(block),
                             full_matrices=False)
    norm = float(s.max(initial=0.0))
    if not np.isfinite(norm):
        raise ValueError("LoS spectral norm must be finite")
    r = int(np.count_nonzero(s > norm * max(a.shape) * np.finfo(float).eps))
    p = np.zeros((a.shape[0], r), dtype=u.dtype)
    q = np.zeros((a.shape[1], r), dtype=vh.dtype)
    p[rows], q[cols] = u[:, :r] * s[:r], vh[:r].conj().T
    return p, q


def finite_los(a):
    """``a``, if its entries are finite: LAPACK's SVD may never return on inf/nan."""
    if not np.all(np.isfinite(a)):
        raise ValueError("LoS entries must be finite")
    return a


@dataclass(frozen=True)
class ChannelModel:
    """Unified non-centered non-separable channel H = A + Sigma^(o1/2) .* X.

    ``los`` is the deterministic component already expressed in the domain
    where the mutual information is computed, shaped like the profile;
    ``zeta`` the effective noise parameter.

    ``los_factors`` = (P, Q) is the thin factorization A = P Q^H of
    ``_support_factors``: Q has orthonormal columns and r = P.shape[1] is
    the numerical rank of A (numpy's ``matrix_rank`` tolerance), 0 for a
    centered channel.  The factors are real when A is.
    """

    los: np.ndarray
    profile: VarianceProfile
    zeta: float
    los_factors: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.los)
        if a.shape != self.profile.shape:
            raise ValueError(
                f"LoS shape {a.shape} does not match profile {self.profile.shape}")
        check_zeta(self.zeta)
        finite_los(a)
        object.__setattr__(self, "los", np.array(a, dtype=complex))
        object.__setattr__(self, "los_factors", _support_factors(a))

    def at_zeta(self, zeta):
        """This channel at noise parameter ``zeta``, sharing ``los``,
        ``profile`` and ``los_factors``: no SVD runs."""
        check_zeta(zeta)
        model = copy.copy(self)
        object.__setattr__(model, "zeta", zeta)
        return model

    @property
    def dims(self):
        n, m = self.profile.shape
        return n, m


def build_weichselberger(a_bar, profile: VarianceProfile,
                         noise_power: float) -> ChannelModel:
    """Channel model from Weichselberger inputs: A = A_bar, zeta = sigma^2.

    The unitary side factors are dropped on purpose: the mutual information
    depends only on the rotated mean and the coupling profile.
    """
    return ChannelModel(los=np.asarray(a_bar, dtype=complex), profile=profile,
                        zeta=float(noise_power))


def build_kronecker(a_bar, d, d_tilde, noise_power: float) -> ChannelModel:
    """Kronecker-correlation special case: coupling matrix outer(d, d~)."""
    return build_weichselberger(a_bar, separable_profile(d, d_tilde), noise_power)


def build_holographic(geom: ArrayGeometry, profile: VarianceProfile,
                      los_coeffs, rician_k: float,
                      noise_power: float) -> ChannelModel:
    """Holographic angular-domain model.

    A = sqrt(k / n_S) * A_h and zeta = sigma^2 / (G_R G_S N_R N_S); the
    profile and LoS coefficients must be shaped (n_R, n_S) per the
    geometry's wavenumber lattices.
    """
    expected = (rx_lattice(geom).n, tx_lattice(geom).n)
    if profile.shape != expected:
        raise ValueError(
            f"profile shape {profile.shape} does not match the geometry's "
            f"lattice cardinalities {expected}")
    if rician_k < 0:
        raise ValueError("rician factor must be nonnegative")
    n_s = profile.shape[1]
    zeta = effective_zeta(geom, noise_power)
    a_h = np.asarray(los_coeffs, dtype=complex)
    return ChannelModel(los=np.sqrt(rician_k / n_s) * a_h, profile=profile,
                        zeta=zeta)


def synth_los(n_rx: int, n_tx: int, kind: str = "single",
              rank: int = 1, seed: int = 0) -> np.ndarray:
    """Synthetic unit-spectral-norm LoS coefficient matrix.

    ``single``: one unit entry at the matched (0, 0) index.  ``lowrank``:
    sum of ``rank`` outer products of seeded random unit vectors, rescaled
    to unit spectral norm.
    """
    if n_rx < 1 or n_tx < 1:
        raise ValueError("dimensions must be at least 1")
    if kind == "single":
        a = np.zeros((n_rx, n_tx), dtype=complex)
        a[0, 0] = 1.0
        return a
    if kind != "lowrank":
        raise ValueError(f"unknown LoS kind: {kind}")
    if not 1 <= rank <= min(n_rx, n_tx):
        raise ValueError(f"rank {rank} out of range for {n_rx}x{n_tx}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    a = np.zeros((n_rx, n_tx), dtype=complex)
    for _ in range(rank):
        u = rng.normal(size=n_rx) + 1j * rng.normal(size=n_rx)
        v = rng.normal(size=n_tx) + 1j * rng.normal(size=n_tx)
        a += np.outer(u / np.linalg.norm(u), np.conj(v) / np.linalg.norm(v))
    return a / np.linalg.norm(a, 2)
