"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, make_configs, write_configs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# Counts the program computes; they must repeat exactly for one seed.
EXACT_COUNTS = ("solver.iterations", "solver.converged_ratio",
                "channel.profile_floored", "montecarlo.samples",
                "montecarlo.chunk_bytes", "matio.bytes_written")


def test_configs_are_a_function_of_the_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    for workload in WORKLOADS.values():
        a = write_configs(make_configs(workload, 5, ROOT / "configs"), tmp_path / "a")
        b = write_configs(make_configs(workload, 5, ROOT / "configs"), tmp_path / "b")
        assert {k: p.read_bytes() for k, p in a.items()} == \
               {k: p.read_bytes() for k, p in b.items()}
        other = make_configs(workload, 6, ROOT / "configs")
        for name, doc in make_configs(workload, 5, ROOT / "configs").items():
            assert doc["mc"]["seed"] == 5 and other[name]["mc"]["seed"] == 6
            if doc["channel"]["los"]["kind"] == "lowrank":
                assert doc["channel"]["los"]["seed"] == 5
            # Nothing but the seeds depends on the seed.
            other[name]["mc"]["seed"] = 5
            other[name]["channel"]["los"] = doc["channel"]["los"]
            assert other[name] == doc


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _trace(workload, tmp_path, tag):
    out, result = tmp_path / f"out-{tag}", tmp_path / f"result-{tag}.json"
    out.mkdir()
    env = WORKLOADS[workload].env(os.environ, ROOT / "src")
    subprocess.run([sys.executable, str(BENCH_DIR / "trace.py"),
                    "--workload", workload, "--configs", str(tmp_path / "configs"),
                    "--out", str(out), "--result", str(result)],
                   env=env, check=True, timeout=170, capture_output=True)
    return json.loads(result.read_text())["metrics"]


def test_trace_counts_repeat_exactly(tmp_path):
    (tmp_path / "configs").mkdir()
    write_configs(make_configs(WORKLOADS["desk-mc"], 3, ROOT / "configs"),
                  tmp_path / "configs")
    first = _trace("desk-mc", tmp_path, "a")
    second = _trace("desk-mc", tmp_path, "b")
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    # run.py adds the two metrics that need the CLI's own runs.
    assert set(first) | {"cli.cpu_s", "trace.overhead_s"} == per_layer
    assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}
    assert first["montecarlo.samples"] == 20000
    assert first["solver.selfcons_max"] <= 1e-10


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "desk-mc", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
