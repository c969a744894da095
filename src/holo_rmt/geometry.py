"""Planar-array geometry for holographic MIMO.

Antenna counts, the wavenumber lattice ellipse with its cardinality, patch
antenna gain and the effective noise parameter of the angular-domain channel.
"""

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ArrayGeometry:
    """Physical description of the transmit and receive planar arrays.

    Lengths are in meters.  ``tx_aperture`` / ``rx_aperture`` are the
    (L_x, L_y) side lengths of the rectangular apertures, ``tx_spacing`` /
    ``rx_spacing`` the uniform antenna spacings, ``antenna_area`` the patch
    area and ``antenna_efficiency`` the efficiency in (0, 1).
    """

    wavelength: float
    tx_aperture: tuple[float, float]
    rx_aperture: tuple[float, float]
    tx_spacing: float
    rx_spacing: float
    antenna_area: float
    antenna_efficiency: float

    def __post_init__(self):
        lengths = (self.wavelength, *self.tx_aperture, *self.rx_aperture,
                   self.tx_spacing, self.rx_spacing, self.antenna_area)
        if not all(0 < v < math.inf for v in lengths):
            raise ValueError("all geometry lengths must be finite and "
                             "strictly positive")
        if not 0.0 < self.antenna_efficiency < 1.0:
            raise ValueError("antenna efficiency must lie in (0, 1)")
        side = math.sqrt(self.antenna_area)
        if self.tx_spacing < side or self.rx_spacing < side:
            raise ValueError("spacing must be at least the antenna side length")
        if self.num_tx < 1 or self.num_rx < 1:
            raise ValueError("apertures too small for a single antenna")

    @property
    def num_tx(self) -> int:
        """N_S: antennas per side rounded from aperture/spacing, multiplied."""
        return (round(self.tx_aperture[0] / self.tx_spacing)
                * round(self.tx_aperture[1] / self.tx_spacing))

    @property
    def num_rx(self) -> int:
        return (round(self.rx_aperture[0] / self.rx_spacing)
                * round(self.rx_aperture[1] / self.rx_spacing))


@dataclass(frozen=True)
class WavenumberLattice:
    """Integer wavenumber pairs inside the lattice ellipse of one aperture.

    Points are sorted lexicographically (by m_x, then m_y) so that matrix
    rows/columns indexed by the lattice are reproducible across runs.  The
    generating aperture and wavelength are kept because the profile's cell
    measures need the physical cell boundaries.
    """

    points: tuple[tuple[int, int], ...]
    aperture: tuple[float, float]
    wavelength: float
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", len(self.points))

    def estimate(self) -> int:
        """ceil(pi * L_x * L_y / wavelength^2), the large-aperture estimate."""
        lx, ly = self.aperture
        return math.ceil(math.pi * lx * ly / self.wavelength ** 2)


def enumerate_lattice(length_x: float, length_y: float,
                      wavelength: float) -> WavenumberLattice:
    """Enumerate all integer pairs in the ellipse with semi-axes L/wavelength.

    Membership is (m_x/(L_x/lam))^2 + (m_y/(L_y/lam))^2 <= 1 inclusive; the
    origin always belongs, so the lattice is never empty.
    """
    if length_x <= 0 or length_y <= 0 or wavelength <= 0:
        raise ValueError("aperture sides and wavelength must be positive")
    ax = length_x / wavelength
    ay = length_y / wavelength
    # Slightly tolerant membership so points exactly on the ellipse (common
    # for integer semi-axes) are not lost to floating-point rounding.
    bound = (ax * ay) ** 2 * (1.0 + 1e-12)
    pts = []
    for mx in range(-math.floor(ax + 1), math.floor(ax + 1) + 1):
        for my in range(-math.floor(ay + 1), math.floor(ay + 1) + 1):
            if (mx * ay) ** 2 + (my * ax) ** 2 <= bound:
                pts.append((mx, my))
    return WavenumberLattice(points=tuple(pts), aperture=(length_x, length_y),
                             wavelength=wavelength)


def tx_lattice(geom: ArrayGeometry) -> WavenumberLattice:
    return enumerate_lattice(*geom.tx_aperture, geom.wavelength)


def rx_lattice(geom: ArrayGeometry) -> WavenumberLattice:
    return enumerate_lattice(*geom.rx_aperture, geom.wavelength)


def antenna_gain(geom: ArrayGeometry) -> tuple[float, float]:
    """Patch antenna gain G = 4*pi*tau*S/lambda^2 for (tx, rx).

    Both sides share the same patch area and efficiency, so the two gains
    coincide; the pair is returned to keep the sides explicit.
    """
    g = 4.0 * math.pi * geom.antenna_efficiency * geom.antenna_area / geom.wavelength ** 2
    return g, g


def effective_zeta(geom: ArrayGeometry, noise_power: float) -> float:
    """Effective noise parameter of the angular-domain channel.

    zeta = sigma^2 / (G_R * G_S * N_R * N_S).  The Weichselberger path uses
    sigma^2 verbatim and does not go through this function.
    """
    if noise_power <= 0:
        raise ValueError("noise power must be positive")
    g_s, g_r = antenna_gain(geom)
    return noise_power / (g_r * g_s * geom.num_rx * geom.num_tx)


def zeta_from_snr_db(geom: ArrayGeometry, snr_db: float) -> float:
    """effective_zeta at an SNR in dB under unit signal power, sigma^2 = 10^(-SNR/10).

    A noise power past the float range (SNR below about -3083 dB) gives
    zeta = inf, which ChannelModel refuses like any non-finite zeta.  One
    that underflows to 0 (SNR from about 3236 dB, or +inf) is refused here
    with the advice ChannelModel gives for a zeta whose reciprocal
    overflows; ``effective_zeta`` keeps refusing a zero noise power.
    """
    try:
        noise_power = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        noise_power = math.inf
    if noise_power == 0.0:
        raise ValueError(
            f"snr_db = {snr_db:g} underflows the noise power 10^(-SNR/10) "
            "to 0, so 1/zeta overflows; lower the SNR (snr_db, --snr-db) "
            "or raise the noise power")
    return effective_zeta(geom, noise_power)
