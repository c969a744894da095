"""Run configuration: defaults, schema validation, and model assembly."""

import contextlib
import copy
import functools
import json
import math
import numbers
from importlib import resources

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
    "solver": {"tol": solver.DEFAULT_TOL, "max_iter": solver.DEFAULT_MAX_ITER},
}


@contextlib.contextmanager
def _reading(what, path):
    """An OSError, ValueError, OverflowError or RecursionError (JSON nested
    too deep) in the body is a ConfigError ``cannot read <what> <path>:
    <the OS's reason, or else the message>``."""
    try:
        yield
    except (OSError, ValueError, OverflowError, RecursionError) as exc:
        detail = getattr(exc, "strerror", None) or str(exc)
        raise ConfigError(f"cannot read {what} {path}: {detail}") from exc


def _read_matrix(path, dtype, what, shape, check):
    """``check(matio.load_matrix(path, dtype))`` of ``shape``, or refused."""
    with _reading(what, path):
        mat = matio.load_matrix(path, dtype)
        if mat.shape != shape:
            raise ValueError(f"its shape {mat.shape} is not the lattice "
                             f"cardinalities (n_R, n_S) = {shape}")
        return check(mat)


@functools.cache
def _load_schema(name):
    text = resources.files("holo_rmt.schemas").joinpath(name).read_text()
    return json.loads(text)


# -- schema check ----------------------------------------------------------
#
# ``_conforms`` decides validity under the Draft 2020-12 keywords that the
# shipped schemas use, with jsonschema's semantics: a bool is neither a number
# nor an integer, 1.0 is an integer, True does not equal 1 in const and enum,
# and NaN passes every numeric bound.  Any other keyword raises, so a schema
# edit cannot drop a check unnoticed.  jsonschema itself is loaded only to
# word a violation.

def _is_number(x):
    # int and float first: the abstract class check is several times slower.
    return ((isinstance(x, (int, float)) or isinstance(x, numbers.Number))
            and not isinstance(x, bool))


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": _is_number,
    "integer": lambda x: ((isinstance(x, int) and not isinstance(x, bool))
                          or (isinstance(x, float) and x.is_integer())),
}


def _equal(a, b):
    """JSON equality: True and 1 differ; arrays and objects compare by item."""
    if a is b:
        return True
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return len(a) == len(b) and all(k in b and _equal(v, b[k])
                                        for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    return a == b


def _type(doc, types, schema, root):
    if isinstance(types, str):
        return _TYPES[types](doc)
    return any(_TYPES[name](doc) for name in types)


def _ref(doc, ref, schema, root):
    prefix = "#/$defs/"
    if not ref.startswith(prefix):
        raise NotImplementedError(f"schema $ref {ref!r} outside {prefix}")
    return _conforms(doc, root["$defs"][ref[len(prefix):]], root)


def _additional_properties(doc, extra, schema, root):
    known = schema.get("properties", {})
    return (not isinstance(doc, dict)
            or all(_conforms(v, extra, root) for k, v in doc.items()
                   if k not in known))


# keyword -> check(doc, keyword value, schema, root schema)
_KEYWORDS = {
    "type": _type,
    "const": lambda doc, c, s, r: _equal(doc, c),
    "enum": lambda doc, e, s, r: any(_equal(doc, v) for v in e),
    "oneOf": lambda doc, subs, s, r: sum(_conforms(doc, sub, r)
                                         for sub in subs) == 1,
    "$ref": _ref,
    "properties": lambda doc, props, s, r: not isinstance(doc, dict) or all(
        _conforms(doc[k], sub, r) for k, sub in props.items() if k in doc),
    "required": lambda doc, req, s, r: not isinstance(doc, dict) or all(
        k in doc for k in req),
    "additionalProperties": _additional_properties,
    "items": lambda doc, sub, s, r: not isinstance(doc, list) or all(
        _conforms(x, sub, r) for x in doc),
    "minItems": lambda doc, n, s, r: not isinstance(doc, list) or len(doc) >= n,
    "maxItems": lambda doc, n, s, r: not isinstance(doc, list) or len(doc) <= n,
    "minimum": lambda doc, b, s, r: not (_is_number(doc) and doc < b),
    "maximum": lambda doc, b, s, r: not (_is_number(doc) and doc > b),
    "exclusiveMinimum": lambda doc, b, s, r: not (_is_number(doc) and doc <= b),
    "exclusiveMaximum": lambda doc, b, s, r: not (_is_number(doc) and doc >= b),
}
_ANNOTATIONS = frozenset({"$schema", "title", "description", "$defs"})


def _conforms(doc, schema, root=None):
    """Whether ``doc`` is valid under ``schema``, as jsonschema's ``is_valid``
    would say; ``root`` is the schema that ``$ref`` resolves against.

    Raises NotImplementedError on a keyword it does not implement, unless a
    keyword checked before it has already failed.
    """
    if isinstance(schema, bool):
        return schema
    root = schema if root is None else root
    for key, value in schema.items():
        check = _KEYWORDS.get(key)
        if check is not None:
            if not check(doc, value, schema, root):
                return False
        elif key not in _ANNOTATIONS:
            raise NotImplementedError(f"schema keyword {key!r}")
    return True


@functools.cache
def _validator(schema_name):
    """jsonschema validator of a shipped schema, built on the first violation
    of that schema in a process; jsonschema is imported only then.  The
    schema itself is not checked here: the test suite checks every shipped
    schema."""
    import jsonschema

    schema = _load_schema(schema_name)
    return jsonschema.validators.validator_for(schema)(schema)


def validate_document(doc, schema_name):
    """Validate a JSON document against a shipped schema; raise ConfigError.

    Validity is ``_conforms``; a valid document returns without loading
    jsonschema.  Of several violations, the one reported is jsonschema's
    ``best_match``, as ``jsonschema.validate`` picks it.
    """
    if _conforms(doc, _load_schema(schema_name)):
        return
    from jsonschema.exceptions import best_match

    exc = best_match(_validator(schema_name).iter_errors(doc))
    if exc is None:
        raise RuntimeError(f"{schema_name}: _conforms rejects a document "
                           "that jsonschema accepts")
    path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
    raise ConfigError(f"schema violation at {path}: {exc.message}") from exc


def _refuse_non_finite(doc, path=""):
    """Raise ConfigError at the first number in ``doc`` that is no finite
    double: NaN, +-Infinity (``json`` reads them) or an integer float()
    cannot hold; the schema types each as a number, NaN within any bound."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            _refuse_non_finite(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            _refuse_non_finite(value, f"{path}[{i}]")
    elif _is_number(doc):
        try:
            finite = math.isfinite(doc)
        except OverflowError:
            finite, doc = False, "an integer beyond the float range"
        if not finite:
            raise ConfigError(f"{path} must be finite, got {doc}")


class RunConfig:
    """Validated run configuration with reference defaults filled in: the
    document, flag values included (``updated``), conforms to its schema and
    holds finite numbers only, or ConfigError."""

    def __init__(self, doc):
        validate_document(doc, "config.schema.json")
        _refuse_non_finite(doc)
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
        if "path" in los and los.keys() & {"kind", "rank", "seed"}:
            raise ConfigError("channel.los: give either a file path ('path') or "
                              "a synthetic LoS ('kind', 'rank', 'seed'), not both")
        if "path" not in los:
            los.setdefault("kind", defaults["channel"]["los"]["kind"])
            if los["kind"] == "lowrank":
                los.setdefault("rank", 1)
                los.setdefault("seed", 0)
            elif los.keys() & {"rank", "seed"}:
                raise ConfigError("channel.los: 'rank' and 'seed' apply to "
                                  "kind 'lowrank' only, not to 'single'")
        try:
            self.geometry = geometry.ArrayGeometry(**{
                k: tuple(v) if isinstance(v, list) else v
                for k, v in self.doc["geometry"].items()})
        except ValueError as exc:
            raise ConfigError(f"invalid geometry: {exc}") from exc

    @classmethod
    def from_file(cls, path):
        with _reading("config", path), open(path) as fh:
            doc = json.load(fh)
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
        return {"tol": float(s["tol"]), "max_iter": int(s["max_iter"])}

    # -- model assembly ----------------------------------------------------

    def lattices(self):
        return geometry.rx_lattice(self.geometry), geometry.tx_lattice(self.geometry)

    def build_profile(self, lat_rx, lat_tx):
        ch = self.doc["channel"]
        if ch["profile"] == "file":
            return _read_matrix(ch["profile_path"], "real", "profile file",
                                (lat_rx.n, lat_tx.n), channel.VarianceProfile)
        sep = channel.profile_separable_isotropic(lat_rx, lat_tx)
        if ch["profile"] == "separable":
            return sep
        return channel.profile_nonseparable_gaussian(sep, lat_rx, lat_tx,
                                                     float(ch["kernel_a"]))

    def build_los(self, n_rx, n_tx):
        los = self.doc["channel"]["los"]
        if "path" in los:
            return _read_matrix(los["path"], "complex", "LoS file",
                                (n_rx, n_tx), channel.finite_los)
        return channel.synth_los(n_rx, n_tx, kind=los["kind"],
                                 **{k: int(los[k]) for k in ("rank", "seed")
                                    if k in los})

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

    def updated(self, **sections):
        """A new configuration with the given top-level keys changed.

        A dict value is merged into that section (its other fields stay); any
        other value replaces the key.  The result is validated and filled in
        like a configuration file; this one is left unchanged.
        """
        doc = copy.deepcopy(self.doc)
        for key, value in sections.items():
            doc[key] = ({**doc.get(key, {}), **value} if isinstance(value, dict)
                        else value)
        return RunConfig(doc)
