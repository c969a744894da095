"""Run configuration: defaults, schema validation, and model assembly."""

import copy
import json
from importlib import resources

import jsonschema

from . import channel, geometry, matio, solver
from .errors import ConfigError

# Default settings mirror the reference simulation setup: 30 GHz carrier
# (wavelength 0.01 m), square 10-wavelength apertures, quarter-wavelength
# spacing, patch area wavelength^2/64 at 0.6 efficiency, SNR 10 dB, LoS
# power ratio 10, Gaussian-kernel scale 1.
DEFAULT_CONFIG = {
    "schema": 1,
    "geometry": {
        "wavelength": 0.01,
        "tx_aperture": [0.1, 0.1],
        "rx_aperture": [0.1, 0.1],
        "tx_spacing": 0.0025,
        "rx_spacing": 0.0025,
        "antenna_area": 0.01 ** 2 / 64,
        "antenna_efficiency": 0.6,
    },
    "channel": {
        "profile": "nonseparable",
        "kernel_a": 1.0,
        "rician_k": 10.0,
        "los": {"kind": "single"},
    },
    "snr_db": [10.0],
    "rates": "auto",
    "mc": {"samples": 10_000, "seed": 2024},
    "solver": {"tol": solver.DEFAULT_TOL, "max_iter": solver.DEFAULT_MAX_ITER,
               "damping": solver.DEFAULT_DAMPING},
}


def _load_matrix(load, path, what):
    """``load(path)``, with an unreadable or malformed file as ConfigError."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        detail = getattr(exc, "strerror", None) or f"{type(exc).__name__}: {exc}"
        raise ConfigError(f"cannot read {what} {path}: {detail}") from exc


def _load_schema(name):
    text = resources.files("holo_rmt.schemas").joinpath(name).read_text()
    return json.loads(text)


def validate_document(doc, schema_name):
    """Validate a JSON document against a shipped schema; raise ConfigError."""
    schema = _load_schema(schema_name)
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"schema violation at {path}: {exc.message}") from exc


class RunConfig:
    """Validated run configuration with reference defaults filled in."""

    def __init__(self, doc):
        validate_document(doc, "config.schema.json")
        # Missing sections, and missing fields of the channel, mc and solver
        # sections, come from DEFAULT_CONFIG.
        defaults = copy.deepcopy(DEFAULT_CONFIG)
        self.doc = {**defaults, **copy.deepcopy(doc)}
        for section in ("channel", "mc", "solver"):
            self.doc[section] = {**defaults[section], **self.doc[section]}
        ch = self.doc["channel"]
        if ch["profile"] == "file" and "profile_path" not in ch:
            raise ConfigError("channel.profile 'file' requires channel.profile_path")
        los = ch["los"]
        if "path" in los and "kind" in los:
            raise ConfigError("channel.los: give either a file path or a synthetic kind")
        if "path" not in los:
            los.setdefault("kind", defaults["channel"]["los"]["kind"])
            los.setdefault("rank", 1)
            los.setdefault("seed", 0)
        try:
            self.geometry = geometry.ArrayGeometry(
                wavelength=self.doc["geometry"]["wavelength"],
                tx_aperture=tuple(self.doc["geometry"]["tx_aperture"]),
                rx_aperture=tuple(self.doc["geometry"]["rx_aperture"]),
                tx_spacing=self.doc["geometry"]["tx_spacing"],
                rx_spacing=self.doc["geometry"]["rx_spacing"],
                antenna_area=self.doc["geometry"]["antenna_area"],
                antenna_efficiency=self.doc["geometry"]["antenna_efficiency"],
            )
        except ValueError as exc:
            raise ConfigError(f"invalid geometry: {exc}") from exc

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls(doc)

    @classmethod
    def defaults(cls, **overrides):
        doc = copy.deepcopy(DEFAULT_CONFIG)
        doc.update(overrides)
        return cls(doc)

    # -- accessors ---------------------------------------------------------

    @property
    def snr_db(self):
        return list(self.doc["snr_db"])

    @property
    def rates(self):
        return self.doc["rates"]

    @property
    def mc_samples(self):
        return int(self.doc["mc"]["samples"])

    @property
    def mc_seed(self):
        return int(self.doc["mc"]["seed"])

    @property
    def solver_opts(self):
        s = self.doc["solver"]
        return {"tol": float(s["tol"]), "max_iter": int(s["max_iter"]),
                "damping": float(s["damping"])}

    # -- model assembly ----------------------------------------------------

    def lattices(self):
        return geometry.rx_lattice(self.geometry), geometry.tx_lattice(self.geometry)

    def build_profile(self, lat_rx, lat_tx):
        ch = self.doc["channel"]
        if ch["profile"] == "file":
            mat = _load_matrix(matio.load_real_matrix, ch["profile_path"],
                               "profile file")
            if mat.shape != (lat_rx.n, lat_tx.n):
                raise ConfigError(
                    f"profile file shape {mat.shape} does not match lattice "
                    f"cardinalities ({lat_rx.n}, {lat_tx.n})")
            return channel.profile_from_matrix(mat)
        sep = channel.profile_separable_isotropic(lat_rx, lat_tx,
                                                  self.geometry.wavelength)
        if ch["profile"] == "separable":
            return sep
        return channel.profile_nonseparable_gaussian(sep, lat_rx, lat_tx,
                                                     float(ch["kernel_a"]))

    def build_los(self, n_rx, n_tx):
        los = self.doc["channel"]["los"]
        if "path" in los:
            a = _load_matrix(matio.load_complex_matrix, los["path"], "LoS file")
            if a.shape != (n_rx, n_tx):
                raise ConfigError(
                    f"LoS file shape {a.shape} does not match ({n_rx}, {n_tx})")
            return a
        return channel.synth_los(n_rx, n_tx, kind=los["kind"],
                                 rank=int(los["rank"]), seed=int(los["seed"]))

    def build_models(self, snrs_db, profile=None, lattices=None):
        """(snr, model) for every SNR point, from one holographic model build.

        The model is built once, at unit noise power; ``at_zeta`` moves it to
        each SNR's zeta and shares A, Sigma and the LoS factors.
        """
        lat_rx, lat_tx = lattices if lattices is not None else self.lattices()
        if profile is None:
            profile = self.build_profile(lat_rx, lat_tx)
        los = self.build_los(lat_rx.n, lat_tx.n)
        k = float(self.doc["channel"]["rician_k"])
        model = channel.build_holographic(self.geometry, profile, los, k, 1.0)
        return [(snr, model.at_zeta(geometry.zeta_from_snr_db(self.geometry, snr)))
                for snr in snrs_db]

    def build_model(self, snr_db, profile=None, lattices=None):
        """Holographic channel model for one SNR point."""
        return self.build_models([snr_db], profile, lattices)[0][1]

    def with_channel(self, **fields):
        """This configuration with the given ``channel`` fields replaced."""
        doc = copy.deepcopy(self.doc)
        doc["channel"].update(fields)
        return RunConfig(doc)
