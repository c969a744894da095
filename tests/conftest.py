import contextlib
import io
import warnings
from typing import NamedTuple

import pytest

from holo_rmt import channel, geometry
from holo_rmt.cli import main


def desk_geometry(aperture_wavelengths: float = 3.38,
                  wavelength: float = 0.01) -> geometry.ArrayGeometry:
    """Square-aperture desk-scale geometry with the reference defaults.

    3.38 wavelengths per side gives lattice cardinality 37 (the closest the
    origin-symmetric lattice gets to 36, whose parity is always odd) with
    large-aperture estimate exactly 36.
    """
    lam = wavelength
    side = aperture_wavelengths * lam
    return geometry.ArrayGeometry(
        wavelength=lam, tx_aperture=(side, side), rx_aperture=(side, side),
        tx_spacing=lam / 4, rx_spacing=lam / 4,
        antenna_area=lam ** 2 / 64, antenna_efficiency=0.6)


class CliRun(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run_cli(argv):
    """``holo-rmt`` run in this process on ``argv``: its exit code and what
    it printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return CliRun(code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="session")
def desk():
    """Desk-scale geometry (n=37) with both profiles, built once per run."""
    geom = desk_geometry(3.38)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lat = (geometry.rx_lattice(geom), geometry.tx_lattice(geom))
        sep = channel.profile_separable_isotropic(*lat)
        nonsep = channel.profile_nonseparable_gaussian(sep, *lat, 1.0)
    return {"geom": geom, "lattices": lat, "sep": sep, "nonsep": nonsep}


@pytest.fixture(autouse=True)
def _silence_profile_floor_warning():
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="variance profile entries below the positivity floor.*")
        yield
