import copy
import json
import math
import re
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from conftest import run_cli
from hypothesis import given, settings
from hypothesis import strategies as st

from holo_rmt import config, matio
from holo_rmt.config import DEFAULT_CONFIG, RunConfig, validate_document
from holo_rmt.errors import ConfigError
from holo_rmt.geometry import effective_zeta, zeta_from_snr_db


def make_doc(**overrides):
    doc = copy.deepcopy(DEFAULT_CONFIG)
    doc.update(overrides)
    return doc


def numeric_leaves(schema, root, steps=()):
    """(steps, schema) of every number or integer in the config schema,
    reached through properties, $ref, oneOf and items; an array's steps go
    to its item 0."""
    if "$ref" in schema:
        yield from numeric_leaves(
            root["$defs"][schema["$ref"].rpartition("/")[2]], root, steps)
    for sub in schema.get("oneOf", []):
        yield from numeric_leaves(sub, root, steps)
    for key, sub in schema.get("properties", {}).items():
        yield from numeric_leaves(sub, root, (*steps, key))
    if "items" in schema:
        yield from numeric_leaves(schema["items"], root, (*steps, 0))
    types = schema.get("type", [])
    if {"number", "integer"} & set([types] if isinstance(types, str) else types):
        yield steps, schema


def put(node, steps, value):
    """``node`` with ``value`` at ``steps``; a missing object, or a list
    where there is none (rates "auto"), is made on the way."""
    if not steps:
        return value
    step, rest = steps[0], steps[1:]
    if step == 0:
        items = node if isinstance(node, list) else [None]
        return [put(items[0], rest, value), *items[1:]]
    node = node if isinstance(node, dict) else {}
    return {**node, step: put(node.get(step), rest, value)}


def dotted(steps):
    return "".join(f"[{s}]" if s == 0 else f".{s}" for s in steps).lstrip(".")


# NaN, Infinity and 10**400 at every numeric field of the config schema, each
# where that field's schema takes it: NaN passes every bound, and an integer
# field takes only 10**400, and only without a maximum.  A number field added
# to the schema is covered here with no list to update.
CONFIG_SCHEMA = config._load_schema("config.schema.json")
NON_FINITE = [pytest.param(steps, value, id=f"{dotted(steps)}="
                           f"{'10**400' if isinstance(value, int) else value}")
              for steps, leaf in numeric_leaves(CONFIG_SCHEMA, CONFIG_SCHEMA)
              for value in (math.nan, math.inf, 10**400)
              if config._conforms(value, leaf)]


class TestSchemaValidation:
    def test_defaults_valid(self):
        cfg = RunConfig(make_doc())
        assert cfg.snr_db == [10.0]
        assert cfg.mc_samples == 10_000

    def test_unknown_top_level_key_rejected(self):
        doc = make_doc()
        doc["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            RunConfig(doc)

    def test_unknown_nested_key_rejected(self):
        doc = make_doc()
        doc["solver"] = {"tol": 1e-12, "typo_key": 3}
        with pytest.raises(ConfigError):
            RunConfig(doc)

    def test_missing_required_block(self):
        doc = make_doc()
        del doc["geometry"]
        with pytest.raises(ConfigError):
            RunConfig(doc)

    def test_empty_snr_list_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(make_doc(snr_db=[]))

    def test_zero_samples_rejected(self):
        doc = make_doc()
        doc["mc"] = {"samples": 0, "seed": 1}
        with pytest.raises(ConfigError):
            RunConfig(doc)

    def test_damping_key_rejected(self):
        doc = make_doc()
        doc["solver"] = {"tol": 1e-12, "damping": 1.0}
        with pytest.raises(ConfigError, match="damping"):
            RunConfig(doc)

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError):
            RunConfig(make_doc(schema=2))

    def test_file_profile_requires_path(self):
        doc = make_doc()
        doc["channel"] = {"profile": "file"}
        with pytest.raises(ConfigError, match="profile_path"):
            RunConfig(doc)

    @pytest.mark.parametrize("rates", [[math.nan], [1.0, math.inf],
                                       [-math.inf]])
    def test_non_finite_rates_rejected(self, rates):
        # The schema accepts NaN and Infinity as numbers; RunConfig does not.
        assert config._conforms(make_doc(rates=rates),
                                config._load_schema("config.schema.json"))
        i = next(i for i, r in enumerate(rates) if not math.isfinite(r))
        with pytest.raises(ConfigError, match=re.escape(
                f"rates[{i}] must be finite, got {rates[i]}")):
            RunConfig(make_doc(rates=rates))

    def test_schema_walk_reaches_the_numeric_fields(self):
        fields = {dotted(p.values[0]) for p in NON_FINITE}
        assert fields >= {"geometry.wavelength", "geometry.tx_aperture[0]",
                          "channel.kernel_a", "channel.rician_k",
                          "channel.los.rank", "snr_db[0]", "rates[0]",
                          "mc.samples", "solver.tol", "solver.max_iter"}

    @pytest.mark.parametrize("steps, value", NON_FINITE)
    def test_non_finite_number_rejected(self, steps, value):
        doc = put(make_doc(), steps, value)
        assert config._conforms(doc, CONFIG_SCHEMA)
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(dotted(steps))} must be finite"):
            RunConfig(doc)

    def test_los_path_and_kind_conflict(self):
        doc = make_doc()
        for synthetic in ({"kind": "single"}, {"rank": 4}, {"seed": 9},
                          {"rank": 4, "seed": 9}):
            doc["channel"] = {"profile": "separable",
                              "los": {"path": "a.json", **synthetic}}
            with pytest.raises(ConfigError, match="los.*path.*kind"):
                RunConfig(doc)

    def test_single_los_refuses_rank_and_seed(self):
        # Without 'kind' the LoS is 'single', which has no rank or seed.
        doc = make_doc()
        for los in ({"kind": "single", "rank": 4}, {"seed": 9},
                    {"kind": "single", "rank": 4, "seed": 9}):
            doc["channel"] = {"profile": "separable", "los": los}
            with pytest.raises(ConfigError, match="rank.*seed.*lowrank"):
                RunConfig(doc)

    def test_lowrank_los_defaults_filled(self):
        doc = make_doc()
        doc["channel"] = {"profile": "separable", "los": {"kind": "lowrank"}}
        assert RunConfig(doc).doc["channel"]["los"] == {
            "kind": "lowrank", "rank": 1, "seed": 0}


class TestUpdated:
    def test_flag_values_go_through_the_schema(self):
        cfg = RunConfig(make_doc())
        with pytest.raises(ConfigError,
                           match="schema violation at solver/tol"):
            cfg.updated(solver={"tol": -1})

    def test_source_left_unchanged(self):
        cfg = RunConfig(make_doc())
        before = copy.deepcopy(cfg.doc)
        new = cfg.updated(snr_db=[0.0, 20.0], solver={"tol": 1e-9},
                          channel={"profile": "separable"})
        assert cfg.doc == before
        assert new.snr_db == [0.0, 20.0]
        assert new.solver_opts == {"tol": 1e-9, "max_iter": 10_000}
        assert new.doc["channel"]["profile"] == "separable"

    def test_section_merge_keeps_other_fields(self):
        cfg = RunConfig(make_doc())
        new = cfg.updated(mc={"seed": 5})
        assert new.mc_seed == 5
        assert new.mc_samples == cfg.mc_samples

    def test_single_los_round_trips(self):
        # validate's K sweep and separable variant go through updated().
        new = RunConfig(make_doc()).updated(channel={"rician_k": 0.0,
                                                     "profile": "separable"})
        assert new.doc["channel"]["los"] == {"kind": "single"}

    def test_unknown_key_is_a_schema_violation(self):
        with pytest.raises(ConfigError, match="surprise"):
            RunConfig(make_doc()).updated(surprise={"x": 1})


class TestAccessors:
    def test_noise_power(self):
        # An SNR in dB means sigma^2 = 10^(-SNR/10) under unit signal power.
        geom = RunConfig(make_doc()).geometry
        for snr, sigma2 in ((10.0, 0.1), (0.0, 1.0), (30.0, 1e-3)):
            assert zeta_from_snr_db(geom, snr) == pytest.approx(
                effective_zeta(geom, sigma2), rel=1e-15)
        assert zeta_from_snr_db(geom, 0.0) == effective_zeta(geom, 1.0)

    def test_solver_defaults_filled(self):
        # A section left out, or its optional fields left out, is filled in.
        cases = [
            ("solver", None, {"tol": 1e-12, "max_iter": 10_000}),
            ("mc", None, {"samples": 10_000, "seed": 2024}),
            ("channel", ("kernel_a", "rician_k", "los"),
             {"profile": "nonseparable", "kernel_a": 1.0, "rician_k": 10.0,
              "los": {"kind": "single"}}),
        ]
        for section, fields, filled in cases:
            doc = make_doc()
            if fields is None:
                del doc[section]
            else:
                for name in fields:
                    del doc[section][name]
            cfg = RunConfig(doc)
            assert cfg.doc[section] == filled, section
        assert cfg.solver_opts == {"tol": 1e-12, "max_iter": 10_000}
        # Filling in a copy leaves the defaults table as it was.
        assert DEFAULT_CONFIG["channel"]["los"] == {"kind": "single"}


class TestModelAssembly:
    def small_doc(self):
        doc = make_doc()
        doc["geometry"] = dict(doc["geometry"], tx_aperture=[0.02, 0.02],
                               rx_aperture=[0.02, 0.02])
        return doc

    def test_lattice_and_model_shapes(self):
        cfg = RunConfig(self.small_doc())
        lat_rx, lat_tx = cfg.lattices()
        model = cfg.build_model(10.0)
        assert model.dims == (lat_rx.n, lat_tx.n)
        # K = 10 reached the model: the single LoS has norm sqrt(K / n_S).
        assert np.linalg.norm(model.los, 2) == pytest.approx(
            math.sqrt(10.0 / lat_tx.n), rel=1e-12)

    def test_build_models_share_one_channel(self):
        cfg = RunConfig(self.small_doc())
        models = cfg.build_models([0.0, 10.0, 20.0])
        assert [snr for snr, _ in models] == [0.0, 10.0, 20.0]
        base = models[0][1]
        for snr, model in models:
            assert model.zeta == zeta_from_snr_db(cfg.geometry, snr)
            assert model.zeta == cfg.build_model(snr).zeta
            assert model.los_factors is base.los_factors

    def test_profile_file_roundtrip(self, tmp_path):
        cfg0 = RunConfig(self.small_doc())
        lat_rx, lat_tx = cfg0.lattices()
        mat = np.full((lat_rx.n, lat_tx.n), 0.5)
        path = tmp_path / "prof.json"
        matio.save_real_matrix(path, mat)
        doc = self.small_doc()
        doc["channel"] = {"profile": "file", "profile_path": str(path)}
        cfg = RunConfig(doc)
        prof = cfg.build_profile(lat_rx, lat_tx)
        assert np.array_equal(prof.matrix, mat)

    def test_profile_file_shape_mismatch(self, tmp_path):
        path = tmp_path / "prof.json"
        matio.save_real_matrix(path, np.ones((2, 2)))
        doc = self.small_doc()
        doc["channel"] = {"profile": "file", "profile_path": str(path)}
        cfg = RunConfig(doc)
        with pytest.raises(ConfigError, match="shape"):
            cfg.build_profile(*cfg.lattices())

    def test_los_file(self, tmp_path):
        cfg0 = RunConfig(self.small_doc())
        lat_rx, lat_tx = cfg0.lattices()
        a = np.zeros((lat_rx.n, lat_tx.n), dtype=complex)
        a[0, 0] = 1.0 + 0.5j
        path = tmp_path / "los.json"
        matio.save_complex_matrix(path, a)
        doc = self.small_doc()
        doc["channel"] = {"profile": "separable", "los": {"path": str(path)}}
        cfg = RunConfig(doc)
        assert np.array_equal(cfg.build_los(lat_rx.n, lat_tx.n), a)


def test_output_schema_validation_rejects_bad_doc():
    with pytest.raises(ConfigError):
        validate_document({"schema": 1, "results": []}, "analyze.schema.json")
    good = {"schema": 1, "results": [{
        "snr_db": 10.0, "zeta": 0.1, "emi_nats": 1.0, "emi_bits": 1.44,
        "variance": 0.5, "b_dims": [4, 4],
        "delta_summary": {"iterations": 3, "residual": 1e-13,
                          "delta_min": 0.1, "delta_max": 0.2,
                          "delta_tilde_min": 0.1, "delta_tilde_max": 0.2},
        "outage": [{"rate": 1.0, "p": 0.5}]}]}
    validate_document(good, "analyze.schema.json")


def _schema_keywords(schema):
    """Every keyword used in a schema and in the subschemas it holds."""
    if isinstance(schema, bool):
        return set()
    subs = [*schema.get("properties", {}).values(),
            *schema.get("$defs", {}).values(), *schema.get("oneOf", []),
            *(schema[k] for k in ("items", "additionalProperties")
              if k in schema)]
    return set(schema).union(*map(_schema_keywords, subs))


def test_shipped_schemas_are_valid():
    # validate_document trusts the shipped schemas without checking them at
    # run time, so this test is where every one must pass its metaschema,
    # and use only keywords that _conforms implements.
    files = [f for f in resources.files("holo_rmt.schemas").iterdir()
             if f.name.endswith(".json")]
    assert {f.name for f in files} >= {"config.schema.json",
                                       "analyze.schema.json",
                                       "mc_summary.schema.json"}
    used = set()
    for f in files:
        schema = json.loads(f.read_text())
        jsonschema.validators.validator_for(schema).check_schema(schema)
        used |= _schema_keywords(schema)
    # Exactly the keywords the shipped schemas use, no more.
    assert used - config._ANNOTATIONS == set(config._KEYWORDS)


@pytest.mark.parametrize("doc, schema", [
    ("a", {"type": "string", "pattern": "^a$"}),
    ({"x": "a"}, {"type": "object",
                  "properties": {"x": {"type": "string", "pattern": "^a$"}}}),
    ("a", {"$ref": "#/definitions/x", "definitions": {"x": {}}}),
])
def test_unimplemented_keyword_raises(doc, schema):
    # A keyword _conforms does not know must not pass a document unchecked.
    with pytest.raises(NotImplementedError):
        config._conforms(doc, schema)


@pytest.mark.parametrize("doc, schema", [
    # A bool is neither a number nor an integer; 1.0 is an integer.
    (True, {"type": "number"}), (False, {"type": "integer"}),
    (1.0, {"type": "integer"}), (1.5, {"type": "integer"}),
    (math.inf, {"type": "integer"}), (2**64, {"type": "integer"}),
    # True is not 1 in const and enum; 1.0 is.
    (True, {"const": 1}), (1.0, {"const": 1}), (False, {"enum": [0, "a"]}),
    ([True], {"const": [1]}), ({"a": 1.0}, {"const": {"a": 1}}),
    # NaN passes every numeric bound; Infinity does not.
    (math.nan, {"minimum": 0, "maximum": 1}),
    (math.nan, {"exclusiveMinimum": 0, "exclusiveMaximum": 1}),
    (math.inf, {"exclusiveMaximum": 1}), (-math.inf, {"minimum": 0}),
    (2**64, {"maximum": 2**64 - 1}), (float(2**64), {"maximum": 2**64 - 1}),
    (0, {"minimum": 0}), (-0.0, {"exclusiveMinimum": 0}),
    (1, {"maximum": 1}), (1.0, {"exclusiveMaximum": 1}),
    # Bounds, sizes and object keywords ignore other types.
    ("a", {"minimum": 0, "maxItems": 0, "required": ["x"]}),
    ([1, 2], {"minItems": 3}), (None, {"type": ["number", "null"]}),
    ("auto", {"oneOf": [{"const": "auto"}, {"type": "string"}]}),
])
def test_conforms_follows_draft_2020_12(doc, schema):
    expected = jsonschema.validators.validator_for(schema)(schema).is_valid(doc)
    assert config._conforms(doc, schema) == expected


def test_reported_violation_is_jsonschemas_best_match():
    doc = copy.deepcopy(DEFAULT_CONFIG)
    doc["snr_db"] = []
    doc["mc"] = {"samples": 0, "seed": -1}
    doc["extra"] = 1
    schema = json.loads(resources.files("holo_rmt.schemas")
                        .joinpath("config.schema.json").read_text())
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(doc, schema)
    path = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
    for _ in range(2):
        with pytest.raises(ConfigError) as got:
            validate_document(doc, "config.schema.json")
        assert str(got.value) == (f"schema violation at {path}: "
                                  f"{expected.value.message}")


def test_config_from_file_errors(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_file(missing)
    assert str(exc.value) == (f"cannot read config {missing}: "
                              "No such file or directory")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_file(bad)
    assert str(exc.value) == (f"cannot read config {bad}: Expecting property "
                              "name enclosed in double quotes: line 1 column "
                              "2 (char 1)")


# -- _conforms against jsonschema on mutated real documents -----------------

# Replacement values: each JSON type, with the numbers where bools, integer
# floats, the 2**64 seed bound and non-finite values behave differently.
POOL = [True, False, None, 0, 1, -1, -0.0, 0.5, 1.0, 2**64, 2**64 - 1,
        float(2**64), math.nan, math.inf, -math.inf, "", "auto", "single",
        "file", [], [1.0], [0.1, 0.1], [1, 2, 3], {}, {"kind": "single"},
        {"rate": 1.0, "p": 0.5}]
# Keys to add: unknown ones, and optional keys the schemas know.
EXTRA_KEYS = ["extra", "path", "kind", "rank", "seed", "rates", "mc",
              "profile_path", "variance", "ks", "qq_csv", "analytic"]


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, path + (index,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one or two random edits: a value replaced, a key or
    item deleted, or a key or item added.  Each edit picks a place in the
    document (a path with array indices left out) uniformly, so the 101
    outage points of an SNR weigh no more than its EMI."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        places = {}
        for path in _paths(doc):
            place = tuple("*" if isinstance(k, int) else k for k in path)
            places.setdefault(place, []).append(path)
        path = draw(st.sampled_from(
            places[draw(st.sampled_from(sorted(places)))]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]] if path else doc
        value = copy.deepcopy(draw(st.sampled_from(POOL)))
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "add" and isinstance(target, dict):
            target[draw(st.sampled_from(EXTRA_KEYS))] = value
        elif op == "add" and isinstance(target, list):
            target.append(value)
        elif not path:
            continue  # the root itself stays
        elif op == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def real_documents(tmp_path_factory):
    """The shipped configs, the defaults, and the analyze.json and
    mc_summary.json of one small CLI run."""
    repo = Path(__file__).resolve().parent.parent
    docs = {name: json.loads((repo / "configs" / f"{name}.json").read_text())
            for name in ("desk", "full")}
    docs["default"] = DEFAULT_CONFIG
    tmp = tmp_path_factory.mktemp("cli")
    doc = make_doc(snr_db=[0.0, 10.0], mc={"samples": 200, "seed": 3})
    doc["geometry"] = dict(doc["geometry"], tx_aperture=[0.02, 0.02],
                           rx_aperture=[0.02, 0.02])
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(doc))
    for command in ("analyze", "mc"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_cli([command, "--config", str(cfg),
                              "--out", str(tmp)])
        assert result.exit_code == 0, result.stdout + result.stderr
    docs["analyze"] = json.loads((tmp / "analyze.json").read_text())
    docs["mc"] = json.loads((tmp / "mc_summary.json").read_text())
    return docs


@pytest.mark.parametrize("name, schema_name", [
    ("desk", "config.schema.json"), ("full", "config.schema.json"),
    ("default", "config.schema.json"), ("analyze", "analyze.schema.json"),
    ("mc", "mc_summary.schema.json")])
def test_conforms_agrees_with_jsonschema(real_documents, name, schema_name):
    schema = config._load_schema(schema_name)
    reference = jsonschema.validators.validator_for(schema)(schema)
    original = real_documents[name]
    assert config._conforms(original, schema) and reference.is_valid(original)

    @settings(max_examples=200, deadline=None)
    @given(mutated(original))
    def agrees(doc):
        assert config._conforms(doc, schema) == reference.is_valid(doc)

    agrees()
