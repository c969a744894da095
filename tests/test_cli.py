import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

DESK_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "desk.json")

from holo_rmt import matio
from holo_rmt.cli import main
from holo_rmt.config import DEFAULT_CONFIG, RunConfig, validate_document

runner = CliRunner()


def all_output(result):
    """stdout plus stderr regardless of the click version's capture mode."""
    text = result.output
    try:
        text += result.stderr
    except (ValueError, AttributeError):
        pass
    return text


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


class TestAnalyzeCommand:
    def test_writes_schema_valid_results(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "analyze.json").read_text())
        validate_document(doc, "analyze.schema.json")
        entry = doc["results"][0]
        assert entry["snr_db"] == 10.0
        assert len(entry["outage"]) == 101  # auto grid default
        assert entry["emi_bits"] == pytest.approx(
            entry["emi_nats"] / np.log(2), rel=1e-12)

    def test_matches_library_path(self, tmp_path):
        # One model moved across the SNRs gives exactly what a fresh
        # per-SNR build gives, for a rank-1 and a rank-4 LoS.
        from holo_rmt.asymptotics import analyze_model
        snrs = [0.0, 10.0, 20.0, 40.0]
        for los in ({"kind": "single"},
                    {"kind": "lowrank", "rank": 4, "seed": 701}):
            cfg_path = small_config(tmp_path, los=los)
            out = tmp_path / los["kind"]
            runner.invoke(main, ["analyze", "--config", str(cfg_path),
                                 "--out", str(out), "--snr-db", "0,10,20,40"],
                          catch_exceptions=False)
            doc = json.loads((out / "analyze.json").read_text())
            cfg = RunConfig.from_file(cfg_path)
            assert [e["snr_db"] for e in doc["results"]] == snrs
            for entry, snr in zip(doc["results"], snrs):
                model = cfg.build_model(snr)
                stats, _, sol, _ = analyze_model(model, **cfg.solver_opts)
                assert entry["zeta"] == model.zeta
                assert entry["emi_nats"] == stats.emi_nats
                assert entry["variance"] == stats.variance
                assert entry["delta_summary"]["iterations"] == sol.iterations
                assert entry["delta_summary"]["residual"] == sol.residual

    def test_one_svd_per_configuration(self, tmp_path, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        cfg = small_config(tmp_path, los={"kind": "lowrank", "rank": 4,
                                          "seed": 701})
        result = runner.invoke(main, ["analyze", "--config", str(cfg),
                                      "--out", str(tmp_path / "o"),
                                      "--snr-db", "0,10,20,30"])
        assert result.exit_code == 0, all_output(result)
        assert len(calls) == 1

    def test_explicit_rates_respected(self, tmp_path):
        doc = json.loads(small_config(tmp_path).read_text())
        doc["rates"] = [1.0, 2.0, 3.0]
        cfg = tmp_path / "cfg2.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out2"
        result = runner.invoke(main, ["analyze", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0
        entry = json.loads((out / "analyze.json").read_text())["results"][0]
        assert [o["rate"] for o in entry["outage"]] == [1.0, 2.0, 3.0]

    def test_snr_override_flag(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out3"
        result = runner.invoke(main, ["analyze", "--config", str(cfg),
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
        result = runner.invoke(main, ["analyze", "--config", str(cfg),
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
        result = runner.invoke(main, ["analyze", "--config", DESK_CONFIG,
                                      "--out", str(out), "--snr-db", "80"])
        assert result.exit_code == 0, all_output(result)
        entry = json.loads((out / "analyze.json").read_text())["results"][0]
        max_iter = json.loads(Path(DESK_CONFIG).read_text())["solver"]["max_iter"]
        assert entry["delta_summary"]["iterations"] < max_iter


class TestConfigErrors:
    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        result = runner.invoke(main, ["analyze", "--config", str(bad)])
        assert result.exit_code == 2

    def test_unknown_key_exits_2(self, tmp_path):
        doc = copy.deepcopy(DEFAULT_CONFIG)
        doc["mystery"] = True
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(main, ["analyze", "--config", str(bad)])
        assert result.exit_code == 2
        assert "schema violation" in all_output(result)

    def test_missing_file_exits_2(self):
        result = runner.invoke(main, ["analyze", "--config", "missing.json"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["analyze", "mc", "validate"])
    def test_non_finite_snr_exits_2(self, tmp_path, command):
        cfg = small_config(tmp_path)
        for snr in ("nan", "-inf", "10,nan", "-4000"):
            out = tmp_path / f"{command}{snr}"
            result = runner.invoke(main, [command, "--config", str(cfg),
                                          "--out", str(out), f"--snr-db={snr}"])
            assert result.exit_code == 2, all_output(result)
            assert "zeta must be finite and positive" in all_output(result)
            assert not (out / "mc_summary.json").exists()
            assert not (out / "analyze.json").exists()

    def test_nan_tol_exits_2(self, tmp_path):
        cfg = small_config(tmp_path)
        for command in ("analyze", "validate"):
            out = tmp_path / command
            result = runner.invoke(main, [command, "--config", str(cfg),
                                          "--out", str(out), "--tol", "nan"])
            assert result.exit_code == 2, all_output(result)
            assert "tol must be positive" in all_output(result)
        # validate refuses the input before any criterion runs or --out exists.
        assert "PRE-FLIGHT" not in all_output(result)
        assert not out.exists()

    @pytest.mark.parametrize("field, content", [
        ("los", None), ("los", "{}"),
        ("profile_path", None), ("profile_path", '{"rows": 13}')])
    def test_bad_matrix_file_exits_2(self, tmp_path, field, content):
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
            result = runner.invoke(main, [command, "--config", str(cfg),
                                          "--out", str(out)])
            assert result.exit_code == 2, all_output(result)
            assert "config error: cannot read" in all_output(result)
            assert str(path) in all_output(result)
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
            result = runner.invoke(main, ["mc", "--config", str(cfg),
                                          "--out", str(out), *flags])
            assert result.exit_code == 2, all_output(result)
            assert not out.exists()
        # The largest 64-bit seed still runs, for the samples and the LoS.
        edge = dict(doc, channel=dict(doc["channel"], los={
            "kind": "lowrank", "rank": 2, "seed": top}))
        cfg = tmp_path / "edge.json"
        cfg.write_text(json.dumps(edge))
        result = runner.invoke(main, ["mc", "--config", str(cfg),
                                      "--out", str(tmp_path / "edge"),
                                      "--samples", "10", "--seed", str(top)])
        assert result.exit_code == 0, all_output(result)
        entry = json.loads((tmp_path / "edge" / "mc_summary.json")
                           .read_text())["entries"][0]
        assert entry["seed"] == top and entry["samples"] == 10
        # validate's MC criteria take seeds mc.seed + 0..3, wrapped to 64 bits.
        result = runner.invoke(main, ["validate", "--config", str(cfg),
                                      "--out", str(tmp_path / "v"),
                                      "--samples", "100", "--seed", str(top)])
        assert result.exit_code in (0, 1), all_output(result)
        assert (tmp_path / "v" / "validate.json").exists()

    def test_bad_rel_tol_scale_exits_2(self, tmp_path):
        cfg = small_config(tmp_path)
        for scale in ("nan", "0", "-1", "inf"):
            out = tmp_path / f"v{scale}"
            result = runner.invoke(main, ["validate", "--config", str(cfg),
                                          "--out", str(out),
                                          f"--rel-tol-scale={scale}"])
            assert result.exit_code == 2, all_output(result)
            assert "rel_tol_scale must be finite and positive" in all_output(result)
            assert "criterion" not in all_output(result)
            assert not out.exists()

    def test_solver_nonconvergence_exits_3(self, tmp_path):
        doc = json.loads(small_config(tmp_path).read_text())
        doc["solver"] = {"tol": 1e-15, "max_iter": 1, "damping": 1.0}
        cfg = tmp_path / "hard.json"
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["analyze", "--config", str(cfg),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert "numerical failure" in all_output(result)


class TestMcCommand:
    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            result = runner.invoke(main, ["mc", "--config", str(cfg),
                                          "--out", str(out)])
            assert result.exit_code == 0, result.output
        csv1 = (out1 / "samples_snr10.csv").read_bytes()
        csv2 = (out2 / "samples_snr10.csv").read_bytes()
        assert csv1 == csv2
        doc = json.loads((out1 / "mc_summary.json").read_text())
        validate_document(doc, "mc_summary.schema.json")

    def test_analyze_byte_deterministic(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        for out in (out1, out2):
            assert runner.invoke(main, ["analyze", "--config", str(cfg),
                                        "--out", str(out)]).exit_code == 0
        assert (out1 / "analyze.json").read_bytes() == (out2 / "analyze.json").read_bytes()

    def test_single_sample_run(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "one"
        result = runner.invoke(main, ["mc", "--config", str(cfg),
                                      "--out", str(out), "--samples", "1"])
        assert result.exit_code == 0, all_output(result)
        entry = json.loads((out / "mc_summary.json").read_text())["entries"][0]
        assert entry["samples"] == 1
        assert entry["variance"] is None
        assert entry["ks"] is None and entry["ks_low_sample"] is True

    def test_low_sample_flag(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "low"
        result = runner.invoke(main, ["mc", "--config", str(cfg),
                                      "--out", str(out), "--samples", "10"])
        assert result.exit_code == 0, result.output
        entry = json.loads((out / "mc_summary.json").read_text())["entries"][0]
        assert entry["ks_low_sample"] is True
        assert entry["ks"] is None

    def test_analytic_deltas_when_analyze_present(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "both"
        assert runner.invoke(main, ["analyze", "--config", str(cfg),
                                    "--out", str(out)]).exit_code == 0
        result = runner.invoke(main, ["mc", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        entry = json.loads((out / "mc_summary.json").read_text())["entries"][0]
        assert "analytic" in entry
        assert entry["analytic"]["mean_delta"] == pytest.approx(
            entry["mean"] - entry["analytic"]["emi_nats"], rel=1e-12)
        assert (out / entry["qq_csv"]).exists()

    def test_seed_override_changes_samples(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        runner.invoke(main, ["mc", "--config", str(cfg), "--out", str(out1)])
        runner.invoke(main, ["mc", "--config", str(cfg), "--out", str(out2),
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
        result = runner.invoke(main, ["profile", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        mat = matio.load_real_matrix(out / "profile.json")
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert "n_R=1" in result.output

    def test_full_scale_cardinality(self, tmp_path):
        # 10-wavelength aperture: exact enumeration lands in [300, 330].
        full_cfg = str(Path(DESK_CONFIG).parent / "full.json")
        out = tmp_path / "full"
        result = runner.invoke(main, ["profile", "--config", full_cfg,
                                      "--out", str(out)])
        assert result.exit_code == 0, all_output(result)
        lat = json.loads((out / "lattice.json").read_text())
        assert 300 <= lat["rx"]["n"] <= 330
        assert lat["rx"]["n"] == 317
        assert "n_R=317" in result.output
        mat = matio.load_real_matrix(out / "profile.json")
        floored = int((mat <= 1e-12 * mat.max()).sum())
        assert floored > 0
        assert f"floored={floored} of {mat.size}" in result.output
        # The full nonseparable profile: a median row spreads over about 6
        # entries, the narrowest over fewer than 2.
        assert "n_eff min/median rows=1.63/6.17 cols=1.63/6.17" in result.output

    def test_lattice_file_and_estimate(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["profile", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0
        lat = json.loads((out / "lattice.json").read_text())
        assert lat["rx"]["n"] == len(lat["rx"]["points"])
        assert lat["rx"]["estimate"] >= 1
        # round trip: written profile reloads bit-exactly
        m1 = matio.load_real_matrix(out / "profile.json")
        matio.save_real_matrix(out / "profile2.json", m1)
        m2 = matio.load_real_matrix(out / "profile2.json")
        assert np.array_equal(m1, m2)


class TestValidateCommand:
    def test_desk_config_all_pass(self, tmp_path):
        result = runner.invoke(main, ["validate", "--config",
                                      DESK_CONFIG,
                                      "--out", str(tmp_path / "v")])
        assert result.exit_code == 0, all_output(result)
        doc = json.loads((tmp_path / "v" / "validate.json").read_text())
        assert doc["all_passed"] is True
        assert len(doc["criteria"]) == 9
        assert "PASS" in result.output

    def test_tolerance_scale_flips_verdict(self, tmp_path):
        result = runner.invoke(main, ["validate", "--config",
                                      DESK_CONFIG,
                                      "--out", str(tmp_path / "v2"),
                                      "--rel-tol-scale", "1e-4"])
        assert result.exit_code == 1
        doc = json.loads((tmp_path / "v2" / "validate.json").read_text())
        assert doc["all_passed"] is False

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
        result = runner.invoke(main, ["validate", "--config", str(cfg),
                                      "--out", str(tmp_path / "v")])
        assert result.exit_code == 1
        assert "PRE-FLIGHT" in all_output(result)


class TestImport:
    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # scipy is needed only by `validate`, which imports it on demand.
        code = ("import sys, holo_rmt.cli; "
                "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src"),
             env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
