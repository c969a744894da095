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
    """Number of entries at or below the positivity floor PROFILE_FLOOR_REL * max."""
    m = np.asarray(matrix, dtype=float)
    return int(np.count_nonzero(m <= PROFILE_FLOOR_REL * m.max()))


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


def _floored(matrix):
    m = np.asarray(matrix, dtype=float)
    count = floor_count(m)
    if count:
        floor = PROFILE_FLOOR_REL * m.max()
        warnings.warn("variance profile entries below the positivity floor "
                      f"were raised to {floor:.3e}: {count} of {m.size} entries",
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
# Isotropic separable profile: lattice-cell solid-angle quadrature
# ---------------------------------------------------------------------------

# Cells are clipped to kz = sqrt(kappa^2 - kx^2 - ky^2) > CELL_CLIP_REL * kappa,
# which keeps the integrand finite at the propagation-disk edge.
CELL_CLIP_REL = 1e-6

# Gauss-Legendre rule on [0, 1] for the outer (kx) integral of every cell.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def _outer_rule(a, e, bound):
    """Gauss-Legendre rule for kx in [a, e], in t with kx = bound - t^2.

    ``bound`` >= e is where the inner integral has a square-root branch
    point; in t the integrand is smooth there.  Returns the weights (with
    the Jacobian 2t) and bound^2 - kx^2 at the nodes, evaluated as
    t^2 (bound + kx) so that it keeps full relative accuracy near the edge.
    Empty intervals (a == e) get zero weights.
    """
    ta = np.sqrt(bound - a)[:, None]
    te = np.sqrt(bound - e)[:, None]
    t = te + (ta - te) * _GL_NODES
    x = bound[:, None] - t * t
    return 2.0 * t * (ta - te) * _GL_WEIGHTS, t * t * (bound[:, None] + x)


def _cell_measures(x0, x1, y0, y1, kappa):
    """Integral of (kappa^2 - kx^2 - ky^2)^(-1/2) over each cell
    [x0, x1] x [y0, y1] of the first quadrant (0 <= x0 <= x1, 0 <= y0 <= y1).

    The domain is clipped to kz > CELL_CLIP_REL * kappa, which bounds the
    edge singularity.  Inner integral in closed form, for
    c = sqrt(kappa^2 - kx^2): int dky / sqrt(c^2 - ky^2) = arcsin(ky / c),
    taken as arctan2(ky, sqrt(c^2 - ky^2)) with c^2 - ky^2 formed without
    cancellation.  The ky range is [y0, min(y1, s)], where s(kx) =
    sqrt(kappa^2 - eps^2 - kx^2) is the clipped disk edge, so the kx range
    splits at xk = sqrt(kappa^2 - eps^2 - y1^2), where s falls below y1, and
    ends at xe = sqrt(kappa^2 - eps^2 - y0^2), where it falls below y0.

    The kx integral takes a fixed 64-point Gauss-Legendre rule on each side
    of xk, the point where the disk edge enters the cell, mapped so that
    the square-root behaviour at the edge is integrated smoothly.  Lattice
    cells of apertures up to 100 wavelengths come out within about 1e-12
    relative of an arbitrary-precision oracle, except a cell holding the
    disk's kx-axis end (kappa, 0): there the rule does not resolve the
    clip's own O(eps^2 / kappa) rounding of the edge (2e-11 relative for a
    10-wavelength lattice).  Cells that meet the disk only at a point, or
    not at all, measure exactly 0.
    """
    x0, x1, y0, y1 = (np.atleast_1d(np.asarray(v, dtype=float))
                      for v in (x0, x1, y0, y1))
    eps = CELL_CLIP_REL * kappa
    eps2 = eps * eps
    r2 = kappa * kappa - eps2
    xk = np.sqrt(np.maximum(r2 - y1 * y1, 0.0))
    xe = np.sqrt(np.maximum(r2 - y0 * y0, 0.0))
    y0c, y1c = y0[:, None], y1[:, None]

    # kx in [x0, min(x1, xk)]: ky runs over the whole [y0, y1].
    ea = np.minimum(x1, xk)
    w, d = _outer_rule(np.minimum(x0, ea), ea, xk)     # d = xk^2 - kx^2
    g1 = eps2 + d                                      # c^2 - y1^2
    g0 = g1 + ((y1 - y0) * (y1 + y0))[:, None]         # c^2 - y0^2
    inner = np.arctan2(y1c, np.sqrt(g1)) - np.arctan2(y0c, np.sqrt(g0))
    total = (w * inner).sum(axis=1)

    # kx in [max(x0, xk), min(x1, xe)]: ky runs over [y0, s(kx)].
    eb = np.minimum(x1, xe)
    w, d = _outer_rule(np.minimum(np.maximum(x0, xk), eb), eb, xe)
    # d = xe^2 - kx^2 = s^2 - y0^2 = c^2 - eps^2 - y0^2.
    inner = (np.arctan2(np.sqrt(y0c * y0c + d), eps)
             - np.arctan2(y0c, np.sqrt(eps2 + d)))
    return total + (w * inner).sum(axis=1)


def _side_weights(lattice: WavenumberLattice, wavelength: float) -> np.ndarray:
    """Solid-angle measure of every lattice cell, normalized to unit sum.

    The cell of point (m_x, m_y) is the corner-anchored rectangle
    [2 pi m_x / L_x, 2 pi (m_x+1) / L_x] x [2 pi m_y / L_y, 2 pi (m_y+1) / L_y]
    intersected with the propagation disk of radius kappa = 2 pi / wavelength.
    Each distinct cell is measured once, on a mirror/swap canonical key,
    since the integrand is invariant under axis reflection (and axis swap
    for square apertures); all distinct cells go through one vectorised
    ``_cell_measures`` call.
    """
    kappa = 2.0 * np.pi / wavelength
    lx, ly = lattice.aperture
    hx = 2.0 * np.pi / lx
    hy = 2.0 * np.pi / ly
    square = abs(lx - ly) <= 1e-15 * max(lx, ly)

    def canon(mx, my):
        cx = mx if mx >= 0 else -mx - 1
        cy = my if my >= 0 else -my - 1
        if square and cy < cx:
            cx, cy = cy, cx
        return cx, cy

    keys = [canon(mx, my) for mx, my in lattice.points]
    cells = sorted(set(keys))
    cx, cy = np.array(cells, dtype=float).T
    measure = dict(zip(cells, _cell_measures(cx * hx, (cx + 1) * hx,
                                             cy * hy, (cy + 1) * hy, kappa)))
    weights = np.array([measure[key] for key in keys])
    total = weights.sum()
    if total <= 0:
        # Cannot happen for a valid lattice: the origin cell always overlaps
        # the propagation disk with positive measure.
        raise RuntimeError("lattice cell measures sum to zero")
    return weights / total


def profile_separable_isotropic(lat_rx: WavenumberLattice,
                                lat_tx: WavenumberLattice,
                                wavelength: float) -> VarianceProfile:
    """Isotropic separable profile from per-side lattice solid angles.

    Each side's factor is the solid-angle measure of its lattice cell,
    normalized to unit sum per side (total profile power 1).
    """
    if lat_rx.n == 0 or lat_tx.n == 0:
        raise ValueError("lattices must be nonempty")
    d = _floored(_side_weights(lat_rx, wavelength))
    dt = _floored(_side_weights(lat_tx, wavelength))
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
    return VarianceProfile(_floored(sep.matrix * kernel))


# ---------------------------------------------------------------------------
# Channel models
# ---------------------------------------------------------------------------

def check_zeta(zeta):
    """Raise unless the noise parameter zeta is finite and positive."""
    if not (math.isfinite(zeta) and zeta > 0):
        raise ValueError(f"zeta must be finite and positive, got {zeta}")


@dataclass(frozen=True)
class ChannelModel:
    """Unified non-centered non-separable channel H = A + Sigma^(o1/2) .* X.

    ``los`` is the deterministic component already expressed in the domain
    where the mutual information is computed, shaped like the profile;
    ``zeta`` the effective noise parameter.

    ``los_factors`` = (P, Q) is the thin factorization A = P Q^H from the
    SVD of A: Q has orthonormal columns and r = P.shape[1] is the numerical
    rank of A (numpy's ``matrix_rank`` tolerance), 0 for a centered
    channel.  The factors are real when A is.
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
        # LAPACK's SVD with singular vectors may never return on inf/nan.
        if not np.all(np.isfinite(a)):
            raise ValueError("LoS entries must be finite")
        u, s, vh = np.linalg.svd(a if np.any(np.imag(a)) else np.real(a),
                                 full_matrices=False)
        norm = float(s[0])
        if not np.isfinite(norm):
            raise ValueError("LoS spectral norm must be finite")
        r = int(np.count_nonzero(s > norm * max(a.shape) * np.finfo(float).eps))
        object.__setattr__(self, "los", np.array(a, dtype=complex))
        object.__setattr__(self, "los_factors",
                           (u[:, :r] * s[:r], vh[:r].conj().T))

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
