import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import run_cli

DESK_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "desk.json")

from holo_rmt import cli, matio
from holo_rmt.cli import COMMANDS, _parser
from holo_rmt.config import DEFAULT_CONFIG, RunConfig, validate_document
from holo_rmt.errors import ConfigError


def all_output(result):
    return result.stdout + result.stderr


def small_config(tmp_path, **channel_overrides):
    """Tiny geometry (n=13 lattice) so CLI runs stay fast."""
    doc = copy.deepcopy(DEFAULT_CONFIG)
    doc["geometry"] = dict(doc["geometry"], tx_aperture=[0.02, 0.02],
                           rx_aperture=[0.02, 0.02])
    doc["snr_db"] = [10.0]
    doc["mc"] = {"samples": 400, "seed": 5}
    if channel_overrides:
        doc["channel"] = dict(doc["channel"], **channel_overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def matrix_text(n, dtype, at=None, entry=None, **header):
    """An n x n matrix file's text: entries 0.5 (0.5 - 0.5j if complex),
    entry ``at`` replaced by ``entry``, header keys overridden."""
    data = [[0.5, -0.5] if dtype == "complex" else 0.5] * (n * n)
    if at is not None:
        data[at] = entry
    return json.dumps({"rows": n, "cols": n, "dtype": dtype, "data": data,
                       **header})


class TestAnalyzeCommand:
    def test_writes_schema_valid_results(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        result = run_cli(["analyze", "--config", str(cfg),
                          "--out", str(out)])
        assert result.exit_code == 0, result.stdout
        doc = json.loads((out / "analyze.json").read_text())
        validate_document(doc, "analyze.schema.json")
        entry = doc["results"][0]
        assert entry["snr_db"] == 10.0
        assert len(entry["outage"]) == 101  # auto grid default
        assert entry["emi_bits"] == pytest.approx(
            entry["emi_nats"] / np.log(2), rel=1e-12)

    def test_matches_library_path(self, tmp_path):
        # One model moved across the SNRs gives exactly what a fresh
        # per-SNR build gives, for a rank-1 and a rank-4 LoS.  So does the
        # composition perfbench's traced replay calls one step at a time
        # (solve_deltas, emi_deterministic, build_b, variance_clt): that
        # replay marks a run wrong unless it reproduces the CLI bit for bit.
        from holo_rmt.asymptotics import (analyze_model, build_b,
                                          emi_deterministic, variance_clt)
        from holo_rmt.solver import solve_deltas
        snrs = [0.0, 10.0, 20.0, 40.0]
        for los in ({"kind": "single"},
                    {"kind": "lowrank", "rank": 4, "seed": 701}):
            cfg_path = small_config(tmp_path, los=los)
            out = tmp_path / los["kind"]
            run_cli(["analyze", "--config", str(cfg_path),
                     "--out", str(out), "--snr-db", "0,10,20,40"])
            doc = json.loads((out / "analyze.json").read_text())
            cfg = RunConfig.from_file(cfg_path)
            assert [e["snr_db"] for e in doc["results"]] == snrs
            for entry, snr in zip(doc["results"], snrs):
                model = cfg.build_model(snr)
                stats = analyze_model(model, **cfg.solver_opts)[0]
                sol = stats.solution
                assert entry["zeta"] == model.zeta
                assert entry["emi_nats"] == stats.emi_nats
                assert entry["variance"] == stats.variance
                assert entry["delta_summary"]["iterations"] == sol.iterations
                assert entry["delta_summary"]["residual"] == sol.residual
                sol, res = solve_deltas(model, **cfg.solver_opts)
                assert entry["emi_nats"] == emi_deterministic(model, sol, res)
                assert entry["variance"] == variance_clt(
                    build_b(model, sol, res))

    def test_one_svd_per_configuration(self, tmp_path, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        cfg = small_config(tmp_path, los={"kind": "lowrank", "rank": 4,
                                          "seed": 701})
        result = run_cli(["analyze", "--config", str(cfg),
                          "--out", str(tmp_path / "o"),
                          "--snr-db", "0,10,20,30"])
        assert result.exit_code == 0, all_output(result)
        assert len(calls) == 1

    def test_variance_logdets_stay_m_by_m(self, tmp_path, monkeypatch):
        # variance_clt works on the M x M Schur complement of I - B: no
        # log-det of the 2M x 2M matrix runs at full scale (M = 317).
        shapes = []
        slogdet = np.linalg.slogdet

        def recording_slogdet(a):
            shapes.append(np.shape(a))
            return slogdet(a)

        monkeypatch.setattr(np.linalg, "slogdet", recording_slogdet)
        full = str(Path(DESK_CONFIG).with_name("full.json"))
        result = run_cli(["analyze", "--config", full,
                          "--out", str(tmp_path / "o"),
                          "--snr-db", "10"])
        assert result.exit_code == 0, all_output(result)
        doc = json.loads((tmp_path / "o" / "analyze.json").read_text())
        m = doc["results"][0]["b_dims"][0] // 2
        assert m == 317
        assert (m, m) in shapes
        assert max(max(shape) for shape in shapes) <= m

    def test_analyze_forms_neither_t_nor_t_tilde_densely(self, tmp_path,
                                                         monkeypatch):
        # The solve keeps T and T~ factored, and the closed form reads them
        # only through those factors: nothing on the analyze path forms
        # dense T or T~, on full's single LoS or on a LoS past the low-rank
        # width (desk with rank 5: 2 * 5^2 > 37).
        from holo_rmt import solver
        formed = []

        def recording(label, fn):
            def wrapper(*args):
                formed.append(label)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(solver, "_full", recording("_full", solver._full))
        cls = solver.Resolvents
        for label, name in (("T", "t_dense"), ("T~", "t_tilde_dense")):
            monkeypatch.setattr(cls, name, recording(label, getattr(cls, name)))
        wide = json.loads(Path(DESK_CONFIG).read_text())
        wide["channel"]["los"] = {"kind": "lowrank", "rank": 5, "seed": 701}
        wide_cfg = tmp_path / "wide.json"
        wide_cfg.write_text(json.dumps(wide))
        for cfg in (Path(DESK_CONFIG).with_name("full.json"), wide_cfg):
            result = run_cli(["analyze", "--config", str(cfg),
                              "--out", str(tmp_path / "o"),
                              "--snr-db", "10"])
            assert result.exit_code == 0, all_output(result)
        assert formed == []

    def test_explicit_rates_respected(self, tmp_path):
        doc = json.loads(small_config(tmp_path).read_text())
        doc["rates"] = [1.0, 2.0, 3.0]
        cfg = tmp_path / "cfg2.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out2"
        result = run_cli(["analyze", "--config", str(cfg),
                          "--out", str(out)])
        assert result.exit_code == 0
        entry = json.loads((out / "analyze.json").read_text())["results"][0]
        assert [o["rate"] for o in entry["outage"]] == [1.0, 2.0, 3.0]

    def test_snr_override_flag(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out3"
        result = run_cli(["analyze", "--config", str(cfg),
                          "--out", str(out), "--snr-db", "0,5"])
        assert result.exit_code == 0
        doc = json.loads((out / "analyze.json").read_text())
        assert [e["snr_db"] for e in doc["results"]] == [0.0, 5.0]

    def test_iid_square_config_matches_closed_form(self, tmp_path):
        # All-ones profile file with centered LoS: every delta solves the
        # scalar quadratic and the EMI has a hand-derivable closed form.
        import math
        from holo_rmt.geometry import effective_zeta
        doc = json.loads(small_config(tmp_path).read_text())
        cfg0 = RunConfig(copy.deepcopy(doc))
        lat_rx, lat_tx = cfg0.lattices()
        ones = np.ones((lat_rx.n, lat_tx.n))
        prof_path = tmp_path / "ones.json"
        matio.save_real_matrix(prof_path, ones)
        doc["channel"] = {"profile": "file", "profile_path": str(prof_path),
                          "rician_k": 0.0, "los": {"kind": "single"}}
        cfg = tmp_path / "iid.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "iid_out"
        result = run_cli(["analyze", "--config", str(cfg),
                          "--out", str(out)])
        assert result.exit_code == 0, all_output(result)
        entry = json.loads((out / "analyze.json").read_text())["results"][0]
        zeta = effective_zeta(cfg0.geometry, 0.1)
        delta = (-1.0 + math.sqrt(1.0 + 4.0 / zeta)) / 2.0
        n = lat_rx.n
        expected = n * (2.0 * math.log1p(delta) - delta / (1.0 + delta))
        assert entry["emi_nats"] == pytest.approx(expected, rel=1e-10)

    def test_desk_converges_at_80_db(self, tmp_path):
        out = tmp_path / "hi"
        result = run_cli(["analyze", "--config", DESK_CONFIG,
                          "--out", str(out), "--snr-db", "80"])
        assert result.exit_code == 0, all_output(result)
        entry = json.loads((out / "analyze.json").read_text())["results"][0]
        max_iter = json.loads(Path(DESK_CONFIG).read_text())["solver"]["max_iter"]
        assert entry["delta_summary"]["iterations"] < max_iter


class TestConfigErrors:
    def test_unknown_key_exits_2(self, tmp_path):
        doc = copy.deepcopy(DEFAULT_CONFIG)
        doc["mystery"] = True
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps(doc))
        result = run_cli(["analyze", "--config", str(bad)])
        assert result.exit_code == 2
        assert "schema violation" in all_output(result)

    @pytest.mark.parametrize("name, content, reason", [
        pytest.param("missing.json", None, "No such file or directory",
                     id="missing"),
        pytest.param("", None, "Is a directory", id="directory"),
        pytest.param("bad.json", "{nope", "Expecting property name enclosed "
                     "in double quotes: line 1 column 2 (char 1)",
                     id="malformed-json"),
        pytest.param("deep.json", "[" * 100_000 + "]" * 100_000,
                     "maximum recursion depth exceeded while decoding a JSON "
                     "array from a unicode string", id="nested-too-deep"),
    ])
    def test_bad_config_file_exits_2(self, tmp_path, name, content, reason):
        # The config's reader refuses it, with the reason it met, before
        # any work and before --out exists.
        path = tmp_path / name
        if content is not None:
            path.write_text(content)
        for command in COMMANDS:
            out = tmp_path / command
            result = run_cli([command, "--config", str(path),
                              "--out", str(out)])
            assert result.exit_code == 2, all_output(result)
            assert result.stderr == (f"config error: cannot read config "
                                     f"{path}: {reason}\n")
            assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "mc", "validate"])
    def test_non_finite_snr_exits_2(self, tmp_path, command):
        # An empty --snr-db is an empty list, refused like one in the file.
        cfg = small_config(tmp_path)
        for snr, message in (("nan", "config error: snr_db[0] must be "
                                     "finite, got nan"),
                             ("-inf", "config error: snr_db[0] must be "
                                      "finite, got -inf"),
                             ("10,nan", "config error: snr_db[1] must be "
                                        "finite, got nan"),
                             ("-4000", "zeta must be finite and positive"),
                             ("3300", "1/zeta overflows; lower the SNR"),
                             ("inf", "config error: snr_db[0] must be "
                                     "finite, got inf"),
                             ("", "schema violation at snr_db: [] should be "
                                  "non-empty")):
            out = tmp_path / f"{command}{snr}"
            result = run_cli([command, "--config", str(cfg),
                              "--out", str(out), f"--snr-db={snr}"])
            assert result.exit_code == 2, all_output(result)
            assert message in all_output(result)
            assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "mc", "validate"])
    def test_snr_too_low_for_variance_exits_3(self, tmp_path, command):
        # Below about -1570 dB zeta^2 overflows a double in B's Xi block;
        # every SNR down to the -3083 dB noise-overflow bound is refused as
        # one whose V cannot be resolved, before --out exists.
        cfg = small_config(tmp_path)
        for snr in ("-1560", "-2000", "-3082"):
            out = tmp_path / f"{command}{snr}"
            result = run_cli([command, "--config", str(cfg),
                              "--out", str(out), f"--snr-db={snr}"])
            assert result.exit_code == 3, all_output(result)
            assert ("the SNR is too low for V to be resolved"
                    in result.stderr), snr
            assert "Traceback" not in all_output(result)
            assert not out.exists()

    def test_nan_tol_exits_2(self, tmp_path):
        # A bad --tol is refused before --out exists, and by validate before
        # any criterion runs.  The schema refuses -1 and 0, as it does in
        # the file; nan and inf pass its exclusiveMinimum and are refused
        # as any non-finite number in a configuration is.
        cfg = small_config(tmp_path)
        for tol, message in (("nan", "config error: solver.tol must be "
                                     "finite, got nan"),
                             ("inf", "config error: solver.tol must be "
                                     "finite, got inf"),
                             ("-1", "schema violation at solver/tol"),
                             ("0", "schema violation at solver/tol")):
            for command in ("analyze", "validate"):
                out = tmp_path / f"{command}{tol}"
                result = run_cli([command, "--config", str(cfg),
                                  "--out", str(out), "--tol", tol])
                assert result.exit_code == 2, all_output(result)
                assert message in all_output(result), (command, tol)
                assert "PRE-FLIGHT" not in all_output(result)
                assert not out.exists()

    def test_flag_and_file_values_get_one_message(self, tmp_path):
        doc = json.loads(small_config(tmp_path).read_text())
        doc["solver"] = {"tol": -1.0}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        flag = run_cli(["analyze", "--config",
                        str(small_config(tmp_path)),
                        "--out", str(tmp_path / "a"),
                        "--tol", "-1"])
        file = run_cli(["analyze", "--config", str(bad),
                        "--out", str(tmp_path / "b")])
        assert flag.exit_code == file.exit_code == 2
        assert all_output(flag) == all_output(file)

    @pytest.mark.parametrize("command, reads", [
        ("profile", ()),
        ("analyze", ("--snr-db", "--tol")),
        ("mc", ("--seed", "--samples", "--snr-db")),
        ("validate", ("--seed", "--samples", "--snr-db", "--tol",
                      "--rel-tol-scale")),
    ])
    def test_command_takes_only_the_flags_it_reads(self, tmp_path, command,
                                                   reads):
        _, commands = _parser()
        declared = {opt for action in commands[command]._actions
                    for opt in action.option_strings}
        assert declared == {"--config", "--out", "--help", *reads}
        cfg = small_config(tmp_path)
        for flag, value in (("--seed", "5"), ("--snr-db", "99"),
                            ("--samples", "1"), ("--tol", "-1")):
            if flag in reads:
                continue
            out = tmp_path / f"out{flag}"
            result = run_cli([command, "--config", str(cfg),
                              "--out", str(out), flag, value])
            assert result.exit_code == 2, all_output(result)
            assert "unrecognized arguments" in all_output(result)
            assert flag in all_output(result)
            assert not out.exists()

    def test_infinite_tol_in_config_exits_2(self, tmp_path):
        # json reads the non-standard literal Infinity as a float.
        cfg = small_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["solver"]["tol"] = float("inf")
        cfg.write_text(json.dumps(doc))
        assert "Infinity" in cfg.read_text()
        out = tmp_path / "out"
        result = run_cli(["analyze", "--config", str(cfg),
                          "--out", str(out)])
        assert result.exit_code == 2, all_output(result)
        assert result.stderr == ("config error: solver.tol must be finite, "
                                 "got inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("wavelength", float("inf")), ("tx_aperture", [float("inf"), 0.1])])
    @pytest.mark.parametrize("command", ["profile", "analyze"])
    def test_infinite_geometry_length_exits_2(self, tmp_path, command, field,
                                              value):
        # The schema's exclusiveMinimum lets Infinity through.
        cfg = small_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["geometry"][field] = value
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = run_cli([command, "--config", str(cfg),
                          "--out", str(out)])
        where = f"geometry.{field}" + ("[0]" if isinstance(value, list) else "")
        assert result.exit_code == 2, all_output(result)
        assert result.stderr == (f"config error: {where} must be finite, "
                                 "got inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("section, field, value, where", [
        ("geometry", "wavelength", 10 ** 400, "geometry.wavelength"),
        (None, "rates", [1.0, -10 ** 400], "rates[1]"),
        ("channel", "kernel_a", 10 ** 400, "channel.kernel_a"),
        ("solver", "tol", 10 ** 400, "solver.tol")])
    def test_integer_beyond_float_range_exits_2(self, tmp_path, section,
                                                field, value, where):
        # The schema takes an integer literal of any size as a number.
        cfg = small_config(tmp_path)
        doc = json.loads(cfg.read_text())
        (doc if section is None else doc[section])[field] = value
        cfg.write_text(json.dumps(doc))
        for command in ("analyze", "mc"):
            out = tmp_path / command
            result = run_cli([command, "--config", str(cfg),
                              "--out", str(out)])
            assert result.exit_code == 2, all_output(result)
            assert (f"config error: {where} must be finite, got an integer "
                    "beyond the float range") in all_output(result)
            assert not out.exists()

    @pytest.mark.parametrize("rates", [[float("nan")], [1.0, float("inf")]])
    def test_non_finite_rates_exit_2(self, tmp_path, rates):
        # analyze.json would otherwise carry NaN or Infinity tokens.
        cfg = small_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["rates"] = rates
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = run_cli(["analyze", "--config", str(cfg),
                          "--out", str(out)])
        i = next(i for i, r in enumerate(rates) if not math.isfinite(r))
        assert result.exit_code == 2, all_output(result)
        assert result.stderr == (f"config error: rates[{i}] must be finite, "
                                 f"got {rates[i]}\n")
        assert not out.exists()

    @pytest.mark.parametrize("field, content, fix", [
        pytest.param("los", None, "No such file or directory", id="los-None"),
        pytest.param("los", "{}", "rows must be a non-negative integer, "
                     "got null", id="los-{}"),
        pytest.param("profile_path", None, "No such file or directory",
                     id="profile_path-None"),
        pytest.param("profile_path", '{"rows": 13}', "cols must be a "
                     "non-negative integer, got null",
                     id='profile_path-{"rows": 13}'),
        # The small config's lattices are 13 x 13.
        pytest.param("profile_path", matrix_text(13, "real", 0, "0.5"),
                     "every data entry must be a JSON number",
                     id="profile_path-string-entry"),
        pytest.param("profile_path", matrix_text(13, "real", 0, True),
                     "every data entry must be a JSON number",
                     id="profile_path-bool-entry"),
        pytest.param("profile_path", matrix_text(3, "real"),
                     "its shape (3, 3) is not the lattice cardinalities "
                     "(n_R, n_S) = (13, 13)", id="profile_path-3x3"),
        pytest.param("los", matrix_text(13, "complex", rows=13.5),
                     "rows must be a non-negative integer, got 13.5",
                     id="los-float-rows"),
        pytest.param("los", matrix_text(13, "complex", rows=True),
                     "rows must be a non-negative integer, got true",
                     id="los-bool-rows"),
        pytest.param("los", matrix_text(13, "complex", rows=-13, cols=-13),
                     "rows must be a non-negative integer, got -13",
                     id="los-negative-shape"),
        pytest.param("los", matrix_text(13, "complex", 5, [1, 0, 0]),
                     "every data entry must be an [re, im] pair of numbers",
                     id="los-three-part-entry"),
        pytest.param("los", matrix_text(13, "real"),
                     'dtype must be "complex", got "real"', id="los-real-dtype"),
        # Well-formed files whose values no channel has.
        pytest.param("profile_path", matrix_text(13, "real", 0, math.nan),
                     "variance profile entries must be finite",
                     id="profile_path-nan-entry"),
        pytest.param("profile_path", matrix_text(13, "real", 0, math.inf),
                     "variance profile entries must be finite",
                     id="profile_path-inf-entry"),
        pytest.param("profile_path", matrix_text(13, "real", 0, -0.5),
                     "variance profile entries must be nonnegative",
                     id="profile_path-negative-entry"),
        pytest.param("profile_path", matrix_text(13, "real").replace("0.5", "0"),
                     "every row and column sum of the profile must be "
                     "positive", id="profile_path-all-zero"),
        pytest.param("los", matrix_text(13, "complex", 0, [math.nan, 0.0]),
                     "LoS entries must be finite", id="los-nan-entry"),
    ])
    def test_bad_matrix_file_exits_2(self, tmp_path, field, content, fix):
        # Each message names the file and says what to fix.
        path = tmp_path / "matrix.json"
        if content is not None:
            path.write_text(content)
        commands = ["analyze", "mc", "validate"]
        if field == "los":
            cfg = small_config(tmp_path, los={"path": str(path)})
        else:
            cfg = small_config(tmp_path, profile="file", profile_path=str(path))
            commands.append("profile")
        for command in commands:
            out = tmp_path / command
            result = run_cli([command, "--config", str(cfg),
                              "--out", str(out)])
            assert result.exit_code == 2, all_output(result)
            what = "LoS file" if field == "los" else "profile file"
            assert (f"config error: cannot read {what} {path}: {fix}"
                    in all_output(result))
            assert not out.exists()

    def test_seed_beyond_64_bits_exits_2(self, tmp_path):
        top = 2**64 - 1
        doc = json.loads(small_config(tmp_path).read_text())
        big_mc = dict(doc, mc={"samples": 10, "seed": top + 1})
        big_los = dict(doc, channel=dict(doc["channel"], los={
            "kind": "lowrank", "rank": 2, "seed": top + 1}))
        cases = [(doc, ["--seed", str(top + 1)]), (big_mc, []), (big_los, [])]
        for k, (case, flags) in enumerate(cases):
            cfg = tmp_path / f"seed{k}.json"
            cfg.write_text(json.dumps(case))
            out = tmp_path / f"out{k}"
            result = run_cli(["mc", "--config", str(cfg),
                              "--out", str(out), *flags])
            assert result.exit_code == 2, all_output(result)
            assert not out.exists()
        # The largest 64-bit seed still runs, for the samples and the LoS.
        edge = dict(doc, channel=dict(doc["channel"], los={
            "kind": "lowrank", "rank": 2, "seed": top}))
        cfg = tmp_path / "edge.json"
        cfg.write_text(json.dumps(edge))
        result = run_cli(["mc", "--config", str(cfg),
                          "--out", str(tmp_path / "edge"),
                          "--samples", "10", "--seed", str(top)])
        assert result.exit_code == 0, all_output(result)
        entry = json.loads((tmp_path / "edge" / "mc_summary.json")
                           .read_text())["entries"][0]
        assert entry["seed"] == top and entry["samples"] == 10
        # validate's MC criteria take seeds mc.seed + 0..3, wrapped to 64 bits.
        result = run_cli(["validate", "--config", str(cfg),
                          "--out", str(tmp_path / "v"),
                          "--samples", "100", "--seed", str(top)])
        assert result.exit_code in (0, 1), all_output(result)
        assert (tmp_path / "v" / "validate.json").exists()

    def test_bad_rel_tol_scale_exits_2(self, tmp_path):
        cfg = small_config(tmp_path)
        for scale in ("nan", "0", "-1", "inf"):
            out = tmp_path / f"v{scale}"
            result = run_cli(["validate", "--config", str(cfg),
                              "--out", str(out),
                              f"--rel-tol-scale={scale}"])
            assert result.exit_code == 2, all_output(result)
            assert "rel_tol_scale must be finite and positive" in all_output(result)
            assert "criterion" not in all_output(result)
            assert not out.exists()

    def test_validate_single_sample_exits_2(self, tmp_path):
        # The MC criteria compare sample variances, which one sample lacks.
        cfg = small_config(tmp_path)
        out = tmp_path / "v"
        result = run_cli(["validate", "--config", str(cfg),
                          "--out", str(out), "--samples", "1"])
        assert result.exit_code == 2, all_output(result)
        assert "mc.samples (--samples) >= 2" in all_output(result)
        assert "criterion" not in all_output(result)
        assert not out.exists()

    @pytest.mark.parametrize("samples", [None, "100000000000000000000"])
    def test_failed_allocation_exits_2(self, tmp_path, monkeypatch, samples):
        # A sample count numpy cannot index fails before any allocation; a
        # count it can index but memory cannot hold raises MemoryError,
        # simulated here.
        if samples is None:
            def no_memory(*args, **kwargs):
                raise MemoryError("Unable to allocate 36.4 TiB")

            monkeypatch.setattr("holo_rmt.montecarlo.run_mc_grid", no_memory)
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        args = ["mc", "--config", str(cfg), "--out", str(out)]
        result = run_cli(args + (["--samples", samples]
                                 if samples else []))
        assert result.exit_code == 2, all_output(result)
        assert "config error: out of memory" in all_output(result)
        assert "mc.samples (--samples)" in all_output(result)
        assert not out.exists()

    def test_solver_nonconvergence_exits_3(self, tmp_path):
        doc = json.loads(small_config(tmp_path).read_text())
        doc["solver"] = {"tol": 1e-15, "max_iter": 1}
        cfg = tmp_path / "hard.json"
        cfg.write_text(json.dumps(doc))
        result = run_cli(["analyze", "--config", str(cfg),
                          "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert "numerical failure" in all_output(result)

    def test_mc_solver_failure_exits_3_before_drawing(self, tmp_path):
        # mc solves the closed form first: a failed solve draws no sample
        # and writes no CSV.
        doc = json.loads(small_config(tmp_path).read_text())
        doc["solver"]["max_iter"] = 1
        cfg = tmp_path / "hard.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        result = run_cli(["mc", "--config", str(cfg),
                          "--out", str(out)])
        assert result.exit_code == 3, all_output(result)
        assert "numerical failure" in all_output(result)
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command", ["analyze", "mc"])
    def test_unresolved_low_snr_variance_exits_3(self, tmp_path, command):
        # desk's rounding bound eps*sqrt(2M)/V is 5.3e-8 at -40 dB and
        # 5.1e-4 at -60 dB, on either side of V_REL_ACCURACY = 1e-6; at
        # -100 dB -log det(I - B) rounds to -0.  Refused: no outage curve
        # and no MC normalization, and mc draws nothing.
        samples = ["--samples", "200"] if command == "mc" else []
        for snr, code in (("-40", 0), ("-60", 3), ("-100", 3)):
            out = tmp_path / snr
            result = run_cli([command, "--config", DESK_CONFIG, "--out",
                              str(out), f"--snr-db={snr}", *samples])
            assert result.exit_code == code, all_output(result)
            if code:
                assert ("is below eps*sqrt(2M)/1e-06 = 1.91e-09: the SNR is "
                        "too low for V to be resolved") in result.stderr
                assert not out.exists()

    def test_lapack_failure_exits_3(self, tmp_path, monkeypatch):
        # LinAlgError is a ValueError, but LAPACK failing is a numerical
        # failure, not a config error.
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("LAPACK failed")

        monkeypatch.setattr(np.linalg, "slogdet", failing)
        result = run_cli(["analyze", "--config",
                          str(small_config(tmp_path)),
                          "--out", str(tmp_path / "o")])
        assert result.exit_code == 3, all_output(result)
        assert "numerical failure: LAPACK failed" in all_output(result)
        assert "config error" not in all_output(result)

    def test_zeta_with_overflowing_reciprocal_exits_2(self, tmp_path):
        # At 3100 dB desk's zeta is subnormal (1.9e-313) and 1/zeta is inf:
        # refused before the solve, so LAPACK never sees a NaN and prints
        # nothing (its messages go to the process's stdout).
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src"),
             os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "holo_rmt.cli", "analyze", "--config",
             DESK_CONFIG, "--out", str(out), "--snr-db", "3100"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "config error: zeta = 1.88e-313" in proc.stderr
        assert "1/zeta overflows" in proc.stderr
        assert "DLASCL" not in proc.stdout + proc.stderr
        assert not out.exists()

    def test_single_los_with_rank_or_seed_exits_2(self, tmp_path):
        cfg = small_config(tmp_path, los={"kind": "single", "rank": 4,
                                          "seed": 9})
        out = tmp_path / "o"
        result = run_cli(["analyze", "--config", str(cfg),
                          "--out", str(out)])
        assert result.exit_code == 2, all_output(result)
        assert "config error: channel.los" in all_output(result)
        assert not out.exists()


class TestParsing:
    @pytest.mark.parametrize("argv", [
        ["--help"], *([command, "--help"] for command in COMMANDS)])
    def test_help_exits_0(self, argv):
        result = run_cli(argv)
        assert result.exit_code == 0, all_output(result)
        assert "usage: holo-rmt" in result.stdout

    @pytest.mark.parametrize("command, flags, overrides", [
        ("analyze", ["--snr-db", "-10,0"], {"snr_db": [-10.0, 0.0]}),
        ("analyze", ["--snr-db=-100"], {"snr_db": [-100.0]}),
        ("analyze", ["--tol", "-1"], {"tol": -1.0}),
        ("validate", ["--tol", "-1e-3"], {"tol": -1e-3}),
        ("mc", ["--seed=5", "--snr-db", "-10"], {"seed": 5, "snr_db": [-10.0]}),
    ])
    def test_values_starting_with_a_dash(self, tmp_path, monkeypatch, command,
                                         flags, overrides):
        # A flag's value is the next token, or the text after '=', even
        # when it starts with '-'; the schema, not the parser, judges it.
        seen = {}

        def recording(path, **kwargs):
            seen.update((k, v) for k, v in kwargs.items() if v is not None)
            raise ConfigError("stopped")

        monkeypatch.setattr(cli, "_load_config", recording)
        result = run_cli([command, "--config", str(small_config(tmp_path)),
                          *flags])
        assert result.exit_code == 2, all_output(result)
        assert result.stderr == "config error: stopped\n"
        assert seen == overrides

    @pytest.mark.parametrize("flags, message", [
        ([], "required: --config"),
        (["--seed", "5.0"], "argument --seed: invalid int value: '5.0'"),
        (["--samples"], "argument --samples: expected one argument"),
        (["--snr", "10"], "unrecognized arguments: --snr"),
        (["--snr-db", "10,,20"],
         "argument --snr-db: invalid float_list value: '10,,20'")])
    def test_usage_errors_exit_2(self, tmp_path, flags, message):
        out = tmp_path / "out"
        config = [] if not flags else ["--config", str(small_config(tmp_path))]
        result = run_cli(["mc", *config, "--out", str(out), *flags])
        assert result.exit_code == 2, all_output(result)
        assert message in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_out_that_is_a_file_exits_2(self, tmp_path, command):
        # --out is its own nearest existing ancestor, and no directory.
        taken = tmp_path / "taken"
        taken.write_text("")
        result = run_cli([command, "--config", str(small_config(tmp_path)),
                          "--out", str(taken)])
        assert result.exit_code == 2, all_output(result)
        assert result.stderr == (f"config error: cannot write {taken}{os.sep}: "
                                 f"{taken}: Not a directory\n")
        assert taken.read_text() == ""

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_out_that_cannot_be_created_exits_2(self, tmp_path, command):
        # --out below a regular file is a config error, not a traceback.
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
        samples = ["--samples", "100"] if command in ("mc", "validate") else []
        result = run_cli([command, "--config", str(small_config(tmp_path)),
                          "--out", str(out), *samples])
        assert result.exit_code == 2, all_output(result)
        assert f"config error: cannot write {out}{os.sep}" in result.stderr
        assert result.stderr.endswith(": Not a directory\n")


    @pytest.mark.parametrize("command, work", [
        ("profile", "holo_rmt.config.RunConfig.lattices"),
        ("analyze", "holo_rmt.cli.analyze_model"),
        ("mc", "holo_rmt.montecarlo.run_mc_grid"),
        ("validate", "holo_rmt.validate.run_all")])
    def test_out_below_a_file_exits_before_the_work(self, tmp_path,
                                                    monkeypatch, command,
                                                    work):
        # The nearest existing ancestor of --out is a file: exit 2 before
        # the command's work runs, and create nothing.
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(work, no_work)
        cfg = str(small_config(tmp_path))
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub" / "deeper"
        result = run_cli([command, "--config", cfg, "--out", str(out)])
        assert result.exit_code == 2, all_output(result)
        assert result.stderr == (f"config error: cannot write {out}{os.sep}: "
                                 f"{tmp_path / 'file'}: Not a directory\n")
        assert (tmp_path / "file").read_text() == ""

    def test_out_below_an_unwritable_directory_exits_2(self, tmp_path,
                                                       monkeypatch):
        # The suite may run as root, whom no mode bit denies a write, so
        # os.access is made to deny it for the ancestor.
        access = os.access
        locked = tmp_path / "locked"
        locked.mkdir()
        monkeypatch.setattr(os, "access", lambda path, mode: (
            str(path) != str(locked) and access(path, mode)))
        monkeypatch.setattr("holo_rmt.cli.analyze_model", lambda *args, **kw:
                            pytest.fail("analyze_model ran"))
        out = locked / "sub"
        result = run_cli(["analyze", "--config", str(small_config(tmp_path)),
                          "--out", str(out)])
        assert result.exit_code == 2, all_output(result)
        assert result.stderr == (f"config error: cannot write {out}{os.sep}: "
                                 f"{locked}: Permission denied\n")
        assert not out.exists()

class TestMcCommand:
    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            result = run_cli(["mc", "--config", str(cfg),
                              "--out", str(out)])
            assert result.exit_code == 0, result.stdout
        csv1 = (out1 / "samples_snr10.csv").read_bytes()
        csv2 = (out2 / "samples_snr10.csv").read_bytes()
        assert csv1 == csv2
        doc = json.loads((out1 / "mc_summary.json").read_text())
        validate_document(doc, "mc_summary.schema.json")

    def test_analyze_byte_deterministic(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        for out in (out1, out2):
            assert run_cli(["analyze", "--config", str(cfg),
                            "--out", str(out)]).exit_code == 0
        assert (out1 / "analyze.json").read_bytes() == (out2 / "analyze.json").read_bytes()

    def test_single_sample_run(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "one"
        result = run_cli(["mc", "--config", str(cfg),
                          "--out", str(out), "--samples", "1"])
        assert result.exit_code == 0, all_output(result)
        entry = json.loads((out / "mc_summary.json").read_text())["entries"][0]
        assert entry["samples"] == 1
        assert entry["variance"] is None
        assert entry["ks"] is None and entry["ks_low_sample"] is True

    def test_low_sample_flag(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "low"
        result = run_cli(["mc", "--config", str(cfg),
                          "--out", str(out), "--samples", "10"])
        assert result.exit_code == 0, result.stdout
        entry = json.loads((out / "mc_summary.json").read_text())["entries"][0]
        assert entry["ks_low_sample"] is True
        assert entry["ks"] is None

    def test_analytic_deltas_when_analyze_present(self, tmp_path):
        # A fresh --out gets the closed form analyze writes, to the bit.
        cfg = small_config(tmp_path)
        assert run_cli(["analyze", "--config", str(cfg), "--out",
                        str(tmp_path / "a")]).exit_code == 0
        out = tmp_path / "fresh"
        result = run_cli(["mc", "--config", str(cfg),
                          "--out", str(out)])
        assert result.exit_code == 0, result.stdout
        entry = json.loads((out / "mc_summary.json").read_text())["entries"][0]
        ref = json.loads((tmp_path / "a" / "analyze.json").read_text())
        ref = ref["results"][0]
        assert entry["analytic"]["emi_nats"] == ref["emi_nats"]
        assert entry["analytic"]["variance"] == ref["variance"]
        assert entry["zeta"] == ref["zeta"]
        assert entry["analytic"]["mean_delta"] == pytest.approx(
            entry["mean"] - entry["analytic"]["emi_nats"], rel=1e-12)
        assert (out / entry["qq_csv"]).exists()

    def test_analyze_json_in_out_is_ignored(self, tmp_path):
        # The output depends on the config, flags and seed alone: a stray
        # file, or another channel's analyze.json, changes no byte.
        cfg = small_config(tmp_path)
        (tmp_path / "other").mkdir()
        other = small_config(tmp_path / "other", kernel_a=16.0, rician_k=0.0)
        outs = [tmp_path / name for name in ("fresh", "stray", "analyzed")]
        outs[1].mkdir()
        (outs[1] / "analyze.json").write_text("[1, 2]")
        assert run_cli(["analyze", "--config", str(other), "--out",
                        str(outs[2])]).exit_code == 0
        for out in outs:
            result = run_cli(["mc", "--config", str(cfg),
                              "--out", str(out)])
            assert result.exit_code == 0, all_output(result)
        for name in ("mc_summary.json", "samples_snr10.csv", "qq_snr10.csv"):
            fresh = (outs[0] / name).read_bytes()
            assert all((out / name).read_bytes() == fresh for out in outs[1:])

    @pytest.mark.parametrize("snrs", ["10.0000001,10.0000002", "10,10"])
    def test_snrs_sharing_a_file_name_exit_2(self, tmp_path, snrs):
        # Both SNRs would write samples_snr10.csv and qq_snr10.csv: refused
        # before --out exists.
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        result = run_cli(["mc", "--config", str(cfg),
                          "--out", str(out), "--snr-db", snrs,
                          "--samples", "200"])
        assert result.exit_code == 2, all_output(result)
        text = all_output(result)
        assert "samples_snr10.csv" in text
        for snr in snrs.split(","):
            assert repr(float(snr)) in text
        assert not out.exists()

    def test_seed_override_changes_samples(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_cli(["mc", "--config", str(cfg), "--out", str(out1)])
        run_cli(["mc", "--config", str(cfg), "--out", str(out2),
                 "--seed", "99"])
        a = matio.load_samples_csv(out1 / "samples_snr10.csv")
        b = matio.load_samples_csv(out2 / "samples_snr10.csv")
        assert not np.array_equal(a, b)


class TestProfileCommand:
    def test_single_cell_profile(self, tmp_path):
        doc = copy.deepcopy(DEFAULT_CONFIG)
        doc["geometry"] = dict(doc["geometry"], tx_aperture=[0.005, 0.005],
                               rx_aperture=[0.005, 0.005])
        doc["channel"] = dict(doc["channel"], profile="separable")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = run_cli(["profile", "--config", str(cfg),
                          "--out", str(out)])
        assert result.exit_code == 0, result.stdout
        mat = matio.load_matrix(out / "profile.json", "real")
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert "n_R=1" in result.stdout

    def test_full_scale_cardinality(self, tmp_path):
        # 10-wavelength aperture: exact enumeration lands in [300, 330].
        full_cfg = str(Path(DESK_CONFIG).parent / "full.json")
        out = tmp_path / "full"
        result = run_cli(["profile", "--config", full_cfg,
                          "--out", str(out)])
        assert result.exit_code == 0, all_output(result)
        lat = json.loads((out / "lattice.json").read_text())
        assert 300 <= lat["rx"]["n"] <= 330
        assert lat["rx"]["n"] == 317
        assert "n_R=317" in result.stdout
        mat = matio.load_matrix(out / "profile.json", "real")
        floored = int((mat <= 1e-12 * mat.max()).sum())
        assert floored > 0
        assert f"floored={floored} of {mat.size}" in result.stdout
        # The full nonseparable profile: a median row spreads over about 6
        # entries, the narrowest over fewer than 2.
        assert "n_eff min/median rows=1.63/6.17 cols=1.63/6.17" in result.stdout

    def test_floor_warning_names_each_floored_matrix(self, tmp_path):
        # Both separable factors of full.json floor 4 of 317 entries; each
        # warning names its matrix, so neither hides the other.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src"),
             os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "holo_rmt.cli", "profile", "--config",
             str(Path(DESK_CONFIG).parent / "full.json"),
             "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert [line[line.rindex(": ") + 2:]
                for line in proc.stderr.splitlines()
                if "below the positivity floor" in line] == [
            "4 of 317 entries of the rx factor",
            "4 of 317 entries of the tx factor",
            "81154 of 100489 entries of the profile"]

    def test_lattice_file_and_estimate(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        result = run_cli(["profile", "--config", str(cfg),
                          "--out", str(out)])
        assert result.exit_code == 0
        lat = json.loads((out / "lattice.json").read_text())
        assert lat["rx"]["n"] == len(lat["rx"]["points"])
        assert lat["rx"]["estimate"] >= 1
        # round trip: written profile reloads bit-exactly
        m1 = matio.load_matrix(out / "profile.json", "real")
        matio.save_real_matrix(out / "profile2.json", m1)
        m2 = matio.load_matrix(out / "profile2.json", "real")
        assert np.array_equal(m1, m2)


class TestValidateCommand:
    def test_desk_config_all_pass(self, tmp_path):
        result = run_cli(["validate", "--config",
                          DESK_CONFIG,
                          "--out", str(tmp_path / "v")])
        assert result.exit_code == 0, all_output(result)
        doc = json.loads((tmp_path / "v" / "validate.json").read_text())
        assert doc["all_passed"] is True
        assert len(doc["criteria"]) == 9
        assert "PASS" in result.stdout

    def test_tolerance_scale_flips_verdict(self, tmp_path):
        # C3's worst relative EMI error at 200 samples and 10 dB is 0.08 %:
        # inside the 1 % bound, outside the 1e-4 % it scales to.  Each
        # scaled bound is printed as the number it applies.
        thresholds = {}
        for scale in ("1", "1e-4"):
            out = tmp_path / scale
            result = run_cli(["validate", "--config", DESK_CONFIG,
                              "--out", str(out), "--samples", "200",
                              "--snr-db", "10", "--rel-tol-scale", scale])
            assert result.exit_code == 1, all_output(result)
            doc = json.loads((out / "validate.json").read_text())
            criteria = {c["name"]: c for c in doc["criteria"]}
            assert criteria["emi-vs-mc"]["passed"] is (scale == "1")
            thresholds[scale] = [criteria[name]["threshold"] for name in
                                 ("emi-vs-mc", "variance-vs-mc", "outage")]
        assert thresholds == {
            "1": ["<= 1% and within 4 SE", "<= 5% and inside chi2 band",
                  "<= 0.02"],
            "1e-4": ["<= 0.0001% and within 4 SE",
                     "<= 0.0005% and inside chi2 band", "<= 2e-06"]}

    def test_corrupted_profile_preflight(self, tmp_path):
        doc = copy.deepcopy(DEFAULT_CONFIG)
        doc["geometry"] = dict(doc["geometry"], tx_aperture=[0.02, 0.02],
                               rx_aperture=[0.02, 0.02])
        cfg0 = RunConfig(copy.deepcopy(doc))
        lat_rx, lat_tx = cfg0.lattices()
        bad = np.ones((lat_rx.n, lat_tx.n))
        bad[2, 3] = 0.0
        path = tmp_path / "badprof.json"
        matio.save_real_matrix(path, bad)
        doc["channel"] = {"profile": "file", "profile_path": str(path)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        result = run_cli(["validate", "--config", str(cfg),
                          "--out", str(tmp_path / "v")])
        assert result.exit_code == 1
        assert "PRE-FLIGHT" in all_output(result)


def run_python(code, timeout=60):
    """The standard output of ``code`` run in a fresh interpreter with this
    checkout's ``src`` on PYTHONPATH; the run must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"),
         env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImport:
    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # scipy is needed only by `validate`, which imports it on demand.
        code = ("import sys, holo_rmt.cli; "
                "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
        stdout = run_python(code)
        assert stdout.strip() == "[]"

    def test_cli_import_leaves_mc_only_modules_unloaded(self):
        # `analyze` and `profile` never draw or hash samples: numpy.random
        # and hashlib load only when MC code runs.
        code = ("import sys, holo_rmt.cli; "
                "print(sorted(k for k in sys.modules "
                "if k == 'hashlib' or k.startswith('numpy.random')))")
        stdout = run_python(code)
        assert stdout.strip() == "[]"

    def test_start_loads_no_click_or_statistics(self, tmp_path):
        # A CLI start loads numpy, the package and the standard library:
        # statistics, with fractions and decimal, loads only for the QQ
        # quantiles, and neither the import nor a `profile` run needs it.
        names = ("print(sorted(k for k in sys.modules if k.split('.')[0] in "
                 "('click', 'statistics', 'fractions', 'decimal')))")
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        code = (f"import sys, holo_rmt.cli; {names}; "
                f"holo_rmt.cli.main(['profile', '--config', {str(cfg)!r}, "
                f"'--out', {str(out)!r}]); {names}")
        lines = run_python(code, timeout=120).strip().splitlines()
        assert lines[0] == lines[-1] == "[]"
        assert (out / "profile.json").exists()

    def test_profile_leaves_numpy_ma_unloaded(self, tmp_path):
        # The n_eff median and the profile writer use plain arrays; numpy.ma
        # would cost every `profile` call about 15 ms of imports.
        names = ("print(sorted(k for k in sys.modules "
                 "if k.split('.')[:2] == ['numpy', 'ma']))")
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        code = ("import sys; from holo_rmt.cli import main; "
                f"main(['profile', '--config', {str(cfg)!r}, '--out', "
                f"{str(out)!r}]); {names}")
        stdout = run_python(code, timeout=120)
        assert stdout.strip().splitlines()[-1] == "[]"
        assert (out / "profile.json").exists()

    def test_cli_import_and_analyze_leave_jsonschema_unloaded(self, tmp_path):
        # A document that passes its schema check never loads jsonschema;
        # it is imported only to word a violation.
        names = ("print(sorted(k for k in sys.modules "
                 "if k.split('.')[0] in ('jsonschema', 'referencing')))")
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        code = (f"import sys, holo_rmt.cli; {names}; "
                "from holo_rmt.cli import main; "
                f"main(['analyze', '--config', {str(cfg)!r}, '--out', "
                f"{str(out)!r}]); {names}")
        stdout = run_python(code, timeout=120)
        lines = stdout.strip().splitlines()
        assert lines[0] == lines[-1] == "[]"
        assert (out / "analyze.json").exists()

    def test_mc_loads_no_scipy(self, tmp_path):
        # The MC engine is numpy-only: a whole `mc` run, forked workers
        # included, leaves scipy unloaded.
        cfg = small_config(tmp_path)
        code = ("import sys; from holo_rmt.cli import main; "
                f"main(['mc', '--config', {str(cfg)!r}, '--out', "
                f"{str(tmp_path / 'out')!r}, '--samples', '1100']); "
                "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
        stdout = run_python(code, timeout=120)
        assert stdout.strip().splitlines()[-1] == "[]"
        assert (tmp_path / "out" / "mc_summary.json").exists()
