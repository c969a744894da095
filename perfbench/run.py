"""Outside-in benchmark of the holo-rmt command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It generates the workload's configs from
``configs/*.json`` and the seed, then drives ``python -m holo_rmt.cli`` with
``PYTHONPATH=src`` as one client in a closed loop: each invocation starts
after the previous one exits.  One untimed import of the CLI warms up
before anything is timed.

``--trace 0`` repeats the workload's work invocations until ``--seconds``
have passed (median summed wall time per repetition reported as
``wall_s``); the first three repetitions each follow a ``profile``
invocation (set-up, median reported as ``setup_s``).  ``--trace 1`` runs
set-up and work once, then a traced replay (``perfbench/trace.py``) in a
fresh interpreter, checks that it computed the same numbers as the CLI, and
reports the per-layer metrics.

Every output is checked.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
metric names and units come from ``BENCHMARK.json``.  A record with the
provenance and every raw timing goes to ``.perfbench/runs/``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import PINNED_ENV, WORKLOADS, make_configs, write_configs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".perfbench"
# Set-ups per run, each followed by a work repetition; more work
# repetitions follow while --seconds have not passed.
SETUP_REPEATS = 3
# A run must end within 180 s; invocations still running at this point
# are killed and the run reports itself incorrect.
RUN_BUDGET_S = 170.0
# C1's bound on the independent self-consistency residual.
SELFCONS_BOUND = 1e-10

VERSIONS_SCRIPT = """
import json, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas.get("openblas configuration") or
                          f"{blas.get('name')} {blas.get('version')}"}))
"""


@dataclass
class Run:
    """One finished invocation."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stderr: str


def invoke(argv, env, err_path, deadline):
    """Run argv to completion; wall time spans process start to exit."""
    start = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
    killer = threading.Timer(max(0.0, deadline - start), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
               rss_mb=usage.ru_maxrss / 1024.0, exit_code=proc.returncode,
               stderr=Path(err_path).read_text(errors="replace"))


class Runner:
    """Invocations of one benchmark run, with their checks and tallies."""

    def __init__(self, workload, docs, config_paths, env, work_dir, deadline):
        import checks  # needs numpy and the package on sys.path
        self.checks = checks
        self.workload, self.docs, self.paths = workload, docs, config_paths
        self.env, self.work_dir, self.deadline = env, work_dir, deadline
        self.attempted = self.failed = 0
        self.correct = True
        self.notes = []
        self.peak_rss_mb = 0.0
        self.csv_digests = {}
        self.log = []

    def _call(self, command, variant):
        out_dir = self.work_dir / f"{len(self.log):03d}-{command}-{variant}"
        argv = [sys.executable, "-m", "holo_rmt.cli", command,
                "--config", str(self.paths[variant]), "--out", str(out_dir)]
        run = invoke(argv, self.env, self.work_dir / f"{len(self.log):03d}.err",
                     self.deadline)
        self.peak_rss_mb = max(self.peak_rss_mb, run.rss_mb)
        self.log.append({"command": command, "config": variant,
                         "wall_s": run.wall_s, "cpu_s": run.cpu_s,
                         "rss_mb": run.rss_mb, "exit": run.exit_code})
        return run, out_dir

    def _verify(self, run, what, check):
        """Exit code and output checks; False when the operations failed."""
        if run.exit_code == 3 and "numerical failure:" in run.stderr:
            self.notes.append(f"{what}: documented numerical failure")
            return False
        if run.exit_code != 0:
            tail = run.stderr.strip().splitlines()[-1:] or [""]
            self.wrong(f"{what}: exit {run.exit_code}: {tail[0]}")
            return False
        try:
            check()
        except (self.checks.CheckError, OSError, ValueError, KeyError) as exc:
            self.wrong(f"{what}: {exc}")
            return False
        return True

    def wrong(self, note):
        self.correct = False
        self.notes.append(note)

    def warm_up(self):
        """One untimed import of the CLI, so that no timed invocation pays
        for a cold page cache or for compiling the package's bytecode."""
        run = invoke([sys.executable, "-c", "import holo_rmt.cli"], self.env,
                     self.work_dir / "warm-up.err", self.deadline)
        if run.exit_code != 0:
            tail = run.stderr.strip().splitlines()[-1:] or [""]
            self.wrong(f"warm-up import: exit {run.exit_code}: {tail[0]}")

    def setup(self):
        run, out = self._call("profile", self.workload.setup_config)
        self._verify(run, "profile", lambda: self.checks.check_profile(out))
        return run

    def work(self, inv):
        run, out = self._call(inv.command, inv.config)
        doc = self.docs[inv.config]
        ops = len(doc["snr_db"])    # SNR points, or one sample set per SNR
        self.attempted += ops
        if inv.command == "analyze":
            def check():
                self.checks.check_analyze(out, doc["snr_db"])
        else:
            def check():
                digests = self.checks.check_mc(out, doc["snr_db"],
                                               doc["mc"]["samples"])
                first = self.csv_digests.setdefault(inv.config, digests)
                if digests != first:
                    raise self.checks.CheckError(
                        "sample CSV bytes differ between repetitions")
        if not self._verify(run, f"{inv.command} {inv.config}", check):
            self.failed += ops
        return run, out


def read_drift():
    """Steal ticks and 1-minute load average, to explain a noisy run."""
    try:
        cpu = Path("/proc/stat").read_text().splitlines()[0].split()
        load = float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, IndexError, ValueError):
        return None
    return {"steal_ticks": int(cpu[8]) if len(cpu) > 8 else 0, "loadavg_1m": load}


def provenance(seed, env):
    info = {"seed": seed,
            "threads": {k: env.get(k) for k in
                        (*PINNED_ENV, "HOLO_RMT_THREADS")},
            "nproc": os.cpu_count()}
    if (ROOT / ".git").exists():
        try:
            info["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            info["git_commit"] = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    info["source_sha256"] = digest.hexdigest()
    versions = subprocess.run([sys.executable, "-c", VERSIONS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=60)
    info.update(json.loads(versions.stdout) if versions.returncode == 0 else
                {"versions_error": versions.stderr.strip()[-200:]})
    return info


def measure_e2e(runner, seconds):
    """Set-up and work repetitions until ``seconds`` have passed.

    The first set-ups alternate with the first work repetitions, so that
    both sets of timings spread over the whole run: the host's speed drifts
    over tens of seconds, and a median over a longer stretch follows it less.
    """
    workload = runner.workload
    setup, reps = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        if len(setup) < SETUP_REPEATS:
            setup.append(runner.setup().wall_s)
        reps.append(sum(runner.work(inv)[0].wall_s for inv in workload.work))
        now = time.perf_counter()
        if now + (now - t) > runner.deadline or (
                len(setup) >= SETUP_REPEATS and now - start >= seconds):
            break
    values = {"setup_s": statistics.median(setup),
              "wall_s": statistics.median(reps),
              "peak_rss_mb": runner.peak_rss_mb,
              "ok_ratio": 1.0 - runner.failed / runner.attempted}
    return values, {"setup_s": setup, "wall_s": reps}


def measure_trace(runner, config_dir):
    """One set-up and work pass, then the traced replay of the same work."""
    workload = runner.workload
    runner.setup()
    work = [runner.work(inv) for inv in workload.work]
    wall_s = sum(run.wall_s for run, _ in work)
    trace_dir = runner.work_dir / "trace"
    trace_dir.mkdir()
    result_path = runner.work_dir / "trace.json"
    run = invoke([sys.executable, str(BENCH_DIR / "trace.py"),
                  "--workload", workload.name, "--configs", str(config_dir),
                  "--out", str(trace_dir), "--result", str(result_path)],
                 runner.env, runner.work_dir / "trace.err", runner.deadline)
    if run.exit_code != 0:
        tail = run.stderr.strip().splitlines()[-1:] or [""]
        runner.wrong(f"traced run: exit {run.exit_code}: {tail[0]}")
        return {}, {}
    result = json.loads(result_path.read_text())

    # The replay must compute what the CLI computed, bit for bit.
    for k, (inv, (_, out)) in enumerate(zip(workload.work, work)):
        if inv.command == "analyze":
            cli = json.loads((out / "analyze.json").read_text())["results"]
            cli = [[e["snr_db"], e["emi_nats"], e["variance"]] for e in cli]
            if cli != result["analyze"][inv.config]:
                runner.wrong(f"traced EMI/variance differ from the CLI's "
                             f"on {inv.config}")
        else:
            for csv in sorted(out.glob("samples_*.csv")):
                traced = trace_dir / f"work{k}" / csv.name
                if csv.read_bytes() != traced.read_bytes():
                    runner.wrong(f"traced MC samples differ from {csv.name}")
    metrics = result["metrics"]
    if not metrics["solver.selfcons_max"] <= SELFCONS_BOUND:
        runner.wrong(f"self-consistency residual "
                     f"{metrics['solver.selfcons_max']:.3e} > {SELFCONS_BOUND}")
    metrics["cli.cpu_s"] = sum(run.cpu_s for run, _ in work)
    # The replay imports once; charge it the import each CLI call pays.
    metrics["trace.overhead_s"] = (result["work_s"] - wall_s
                                   + len(work) * metrics["cli.import_s"])
    return metrics, {"e2e_wall_s": wall_s, "spans": result["spans"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S
    if not 0 <= args.seed < 2 ** 63:
        ap.error("--seed must lie in [0, 2^63)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    for needed in ("src/holo_rmt/cli.py", "configs/desk.json",
                   "configs/full.json", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} not found under {ROOT}; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    env = workload.env(os.environ, ROOT / "src")
    os.environ.update(PINNED_ENV)       # before this process imports numpy
    sys.path.insert(0, str(ROOT / "src"))
    STATE_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=STATE_DIR))
    try:
        config_dir = work_dir / "configs"
        config_dir.mkdir()
        docs = make_configs(workload, args.seed, ROOT / "configs")
        paths = write_configs(docs, config_dir)
        runner = Runner(workload, docs, paths, env, work_dir, deadline)
        runner.warm_up()
        drift_start = read_drift()
        if args.trace:
            values, raw = measure_trace(runner, config_dir)
        else:
            values, raw = measure_e2e(runner, args.seconds)
        drift_end = read_drift()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        runner.wrong(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    prov = provenance(args.seed, env)
    if drift_start and drift_end:
        prov["drift"] = {
            "steal_ticks": drift_end["steal_ticks"] - drift_start["steal_ticks"],
            "loadavg_1m": drift_start["loadavg_1m"],
            "loadavg_1m_delta": drift_end["loadavg_1m"] - drift_start["loadavg_1m"]}
    record = {"workload": workload.name, "trace": args.trace,
              "seconds": args.seconds, "provenance": prov,
              "invocations": runner.log, "notes": runner.notes,
              "metrics": metrics, **raw}
    runs_dir = STATE_DIR / "runs"
    runs_dir.mkdir(exist_ok=True)
    record_path = runs_dir / (f"{workload.name}-seed{args.seed}-"
                              f"trace{args.trace}-{time.time_ns()}.json")
    record_path.write_text(json.dumps(record, indent=1))

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio {runner.failed}/{runner.attempted} operations")
    for note in runner.notes:
        print(f"  note: {note}")
    print(f"provenance {json.dumps(prov)}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": runner.correct,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if runner.correct else 1


if __name__ == "__main__":
    sys.exit(main())
