"""Channel construction: H = A + Sigma^(o1/2) .* X.

Variance-profile generators (isotropic separable, Gaussian-kernel
non-separable), profile bookkeeping (positivity floor, separability
detection), and the two model builders (Weichselberger and holographic).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import (ArrayGeometry, WavenumberLattice, effective_zeta,
                       rx_lattice, tx_lattice)

# Entries below 1e-12 * max are raised to that floor: the asymptotic
# formulas need strictly positive variances, but measured profiles can hit
# exact zeros at cells clipped by the propagation-disk edge.
PROFILE_FLOOR_REL = 1e-12

SEPARABLE_DETECT_RTOL = 1e-12


@dataclass(frozen=True)
class VarianceProfile:
    """Per-entry variance matrix of the random channel component.

    ``kind`` is one of ``separable`` / ``nonseparable`` / ``user``.  For
    separable profiles the rank-1 factors are kept so sampling can use the
    factorized square root (exactly the Kronecker form D^{1/2} X D~^{1/2}).
    """

    matrix: np.ndarray
    kind: str
    factors: tuple[np.ndarray, np.ndarray] | None = None

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
        if self.kind not in ("separable", "nonseparable", "user"):
            raise ValueError(f"unknown profile kind: {self.kind}")
        if self.kind == "separable" and self.factors is None:
            raise ValueError("separable profile requires its rank-1 factors")
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
        """Elementwise square root used by the sampler.

        Separable profiles return outer(sqrt(d), sqrt(d~)) so that the
        general entrywise form and the Kronecker form produce identical
        matrices for the same X.
        """
        if self.factors is not None:
            d, dt = self.factors
            return np.sqrt(d)[:, None] * np.sqrt(dt)[None, :]
        return np.sqrt(self.matrix)

    def check_positive(self):
        """Raise if any entry is non-positive (assumption gate, no flooring)."""
        if self.sigma2_min <= 0:
            i, j = np.unravel_index(np.argmin(self.matrix), self.shape)
            raise ValueError(
                f"variance profile violates the positivity assumption: "
                f"entry ({i},{j}) = {self.matrix[i, j]}")


def _floored(matrix):
    m = np.asarray(matrix, dtype=float)
    floor = PROFILE_FLOOR_REL * m.max()
    if np.any(m < floor):
        warnings.warn("variance profile entries below the positivity floor "
                      f"were raised to {floor:.3e}", stacklevel=3)
        m = np.maximum(m, floor)
    return m


def separable_profile(d, d_tilde, kind="separable"):
    """Profile Sigma = outer(d, d~) with the factors retained."""
    d = np.asarray(d, dtype=float)
    dt = np.asarray(d_tilde, dtype=float)
    if d.ndim != 1 or dt.ndim != 1:
        raise ValueError("factors must be vectors")
    if np.any(d <= 0) or np.any(dt <= 0):
        raise ValueError("separable factors must be strictly positive")
    return VarianceProfile(np.outer(d, dt), kind, factors=(d.copy(), dt.copy()))


def profile_from_matrix(matrix, kind="user"):
    """Wrap a user matrix, detecting and tagging exact rank-1 (separable) structure."""
    m = np.asarray(matrix, dtype=float)
    factors = _rank_one_factors(m)
    if factors is not None:
        return VarianceProfile(m, "separable", factors=factors)
    return VarianceProfile(m, kind)


def _rank_one_factors(m, rtol=SEPARABLE_DETECT_RTOL):
    if np.any(m <= 0):
        return None
    i0 = int(np.argmax(m.max(axis=1)))
    j0 = int(np.argmax(m[i0]))
    d = m[:, j0].copy()
    dt = m[i0, :] / m[i0, j0]
    if np.allclose(np.outer(d, dt), m, rtol=rtol, atol=rtol * m.max()):
        return d, dt
    return None


# ---------------------------------------------------------------------------
# Isotropic separable profile: lattice-cell solid-angle quadrature
# ---------------------------------------------------------------------------

def _cell_measure(x0, x1, y0, y1, kappa, rel_tol=1e-8, n_start=16,
                  n_max=2048, clip=1e-6):
    """Midpoint quadrature of (kappa^2 - kx^2 - ky^2)^(-1/2) over one cell.

    The domain is clipped to gamma >= clip*kappa, which bounds the edge
    singularity; the resolution doubles until the relative change drops
    below rel_tol.  Cells crossing the disk boundary inherit the sqrt
    singularity, for which midpoint refinement stalls near 1e-3 relative,
    so a hard resolution cap keeps the cost bounded (the capped error is
    far below anything the downstream statistics can resolve).
    """
    lim = (clip * kappa) ** 2
    kappa2 = kappa * kappa
    area = (x1 - x0) * (y1 - y0)
    prev = None
    n = n_start
    while True:
        xs = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
        ys = y0 + (np.arange(n) + 0.5) * (y1 - y0) / n
        total = 0.0
        for lo in range(0, n, 512):
            g2 = kappa2 - xs[lo:lo + 512, None] ** 2 - ys[None, :] ** 2
            inside = g2 > lim
            if inside.any():
                total += float(np.sum(1.0 / np.sqrt(g2[inside])))
        val = total * area / (n * n)
        if prev is not None:
            if val == prev or abs(val - prev) <= rel_tol * abs(val) or n >= n_max:
                return val
        prev = val
        n *= 2


def _side_weights(lattice: WavenumberLattice, wavelength: float) -> np.ndarray:
    """Solid-angle measure of every lattice cell, normalized to unit sum.

    The cell of point (m_x, m_y) is the corner-anchored rectangle
    [2 pi m_x / L_x, 2 pi (m_x+1) / L_x] x [2 pi m_y / L_y, 2 pi (m_y+1) / L_y]
    intersected with the propagation disk of radius kappa = 2 pi / wavelength.
    Cell measures are cached on a mirror/swap canonical key since the
    integrand is invariant under axis reflection (and axis swap for square
    apertures).
    """
    kappa = 2.0 * np.pi / wavelength
    lx, ly = lattice.aperture
    hx = 2.0 * np.pi / lx
    hy = 2.0 * np.pi / ly
    square = abs(lx - ly) <= 1e-15 * max(lx, ly)
    cache: dict[tuple[int, int], float] = {}

    def canon(mx, my):
        cx = mx if mx >= 0 else -mx - 1
        cy = my if my >= 0 else -my - 1
        if square and cy < cx:
            cx, cy = cy, cx
        return cx, cy

    weights = np.empty(lattice.n)
    for idx, (mx, my) in enumerate(lattice.points):
        key = canon(mx, my)
        if key not in cache:
            cx, cy = key
            cache[key] = _cell_measure(cx * hx, (cx + 1) * hx,
                                       cy * hy, (cy + 1) * hy, kappa)
        weights[idx] = cache[key]
    total = weights.sum()
    if total <= 0:
        # Cannot happen for a valid lattice: the origin cell always overlaps
        # the propagation disk with positive measure.
        raise RuntimeError("lattice cell measures sum to zero")
    return weights / total


def profile_separable_isotropic(lat_rx: WavenumberLattice,
                                lat_tx: WavenumberLattice,
                                wavelength: float,
                                scale: float = 1.0) -> VarianceProfile:
    """Isotropic separable profile from per-side lattice solid angles.

    Each side's factor is the solid-angle measure of its lattice cell,
    normalized to unit sum per side; ``scale`` multiplies the receive
    factors (total profile power = scale).
    """
    if lat_rx.n == 0 or lat_tx.n == 0:
        raise ValueError("lattices must be nonempty")
    if scale <= 0:
        raise ValueError("scale must be positive")
    d = _floored(scale * _side_weights(lat_rx, wavelength))
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
    if sep.factors is None:
        raise ValueError("base profile must be separable with known factors")
    if sep.shape != (lat_rx.n, lat_tx.n):
        raise ValueError("profile shape does not match the lattices")
    rx = np.asarray(lat_rx.points, dtype=float)
    tx = np.asarray(lat_tx.points, dtype=float)
    dist2 = ((rx[:, None, 0] - tx[None, :, 0]) ** 2
             + (rx[:, None, 1] - tx[None, :, 1]) ** 2)
    kernel = np.exp(-dist2 / kernel_scale)
    return VarianceProfile(_floored(sep.matrix * kernel), "nonseparable")


def profile_rescale_to_match(target: VarianceProfile,
                             reference: VarianceProfile) -> VarianceProfile:
    """Scale target so its total power equals the reference's."""
    if target.shape != reference.shape:
        raise ValueError("profiles must have the same shape")
    total = target.matrix.sum()
    if total <= 0:
        raise ValueError("target profile has zero total power")
    m = reference.matrix.sum() / total
    if target.factors is not None:
        d, dt = target.factors
        return separable_profile(m * d, dt, kind=target.kind)
    return VarianceProfile(m * target.matrix, target.kind)


# ---------------------------------------------------------------------------
# Channel models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelModel:
    """Unified non-centered non-separable channel H = A + Sigma^(o1/2) .* X.

    ``los`` is the deterministic component already expressed in the domain
    where the mutual information is computed; ``zeta`` the effective noise
    parameter; ``rician_k`` the configured LoS/NLoS power ratio (0 when the
    model was built directly from a Weichselberger mean).

    ``los_factors`` = (P, Q) is the thin factorization A = P Q^H from the
    SVD that also gives ``los_norm``: Q has orthonormal columns and r =
    P.shape[1] is the numerical rank of A (numpy's ``matrix_rank``
    tolerance), 0 for a centered channel.  The factors are real when A is.
    """

    los: np.ndarray
    profile: VarianceProfile
    zeta: float
    rician_k: float = 0.0
    los_norm: float = field(init=False)
    los_factors: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.los)
        if a.ndim != 2:
            raise ValueError("LoS component must be a matrix")
        if a.shape != self.profile.shape:
            raise ValueError(
                f"LoS shape {a.shape} does not match profile {self.profile.shape}")
        if self.zeta <= 0:
            raise ValueError("zeta must be positive")
        if self.rician_k < 0:
            raise ValueError("rician factor must be nonnegative")
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
        object.__setattr__(self, "los_norm", norm)
        object.__setattr__(self, "los_factors",
                           (u[:, :r] * s[:r], vh[:r].conj().T))

    @property
    def shape(self):
        return self.profile.shape

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
    a_bar = np.asarray(a_bar, dtype=complex)
    if a_bar.shape != profile.shape:
        raise ValueError("mean matrix and profile shapes disagree")
    return ChannelModel(los=a_bar, profile=profile, zeta=float(noise_power))


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
    a_h = np.asarray(los_coeffs, dtype=complex)
    if a_h.shape != profile.shape:
        raise ValueError(
            f"LoS coefficients {a_h.shape} do not match profile {profile.shape}")
    expected = (rx_lattice(geom).n, tx_lattice(geom).n)
    if profile.shape != expected:
        raise ValueError(
            f"profile shape {profile.shape} does not match the geometry's "
            f"lattice cardinalities {expected}")
    if rician_k < 0:
        raise ValueError("rician factor must be nonnegative")
    n_s = profile.shape[1]
    zeta = effective_zeta(geom, noise_power)
    return ChannelModel(los=np.sqrt(rician_k / n_s) * a_h, profile=profile,
                        zeta=zeta, rician_k=float(rician_k))


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
