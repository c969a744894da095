"""Traced run: the CLI's code paths replayed through public calls, one span each.

    python perfbench/trace.py --workload NAME --configs DIR --out DIR --result PATH

Runs in a fresh interpreter with the workload's environment and generated
configs.  It mirrors ``cli.profile`` on the set-up config, then ``cli.analyze``
/ ``cli.mc`` for every work invocation, writing the same files the CLI
writes under ``--out``.  Layers the workload's CLI path never calls (MC on
analyze workloads, the solver on MC workloads) are then timed once on the
workload's own model as probes, so every per-layer metric is a measurement
on every workload; probe spans sit outside the mirrored invocations.

Spans (name, start, end, parent) stay in memory and go to ``--result`` with
the per-layer metrics when the run ends.  Checks such as
``self_consistency_residual`` run outside the timed spans.
"""

import argparse
import importlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

# Only the standard library is imported up front: numpy and the package load
# inside the timed import of holo_rmt.cli (cli.import_s).
from workloads import WORKLOADS

# MC samples drawn by the probe on analyze workloads.
PROBE_SAMPLES = 64
# Size of the fixed, evenly spaced index subset timed sample by sample.
SPLIT_SAMPLES = 16
# The package raises profile entries below this share of the maximum to it.
PROFILE_FLOOR_REL = 1e-12
# Samples per batched MC chunk in montecarlo.run_mc.
MC_CHUNK = 512

# Spans whose summed duration is reported as the metric "<span>_s".
TIMED_SPANS = (
    "config.load", "config.validate_document", "geometry.lattice",
    "channel.profile", "channel.build_model", "solver.solve",
    "asymptotics.emi", "asymptotics.build_b", "asymptotics.variance",
    "asymptotics.outage", "montecarlo.run_mc", "montecarlo.ks",
    "montecarlo.qq", "normal.norm_cdf", "normal.norm_inv_cdf", "matio.write",
)


class Tracer:
    """In-memory span recorder; a span's parent is the span open around it."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name):
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


@dataclass
class Counts:
    solves: int = 0
    converged: int = 0
    iterations: int = 0
    selfcons_max: float = 0.0
    samples: int = 0
    chunk_bytes: int = 0
    split_samples: int = 0
    bytes_written: int = 0
    profile_floored: int | None = None


class Replay:
    """The CLI's calls, each wrapped in a span, with counts taken alongside."""

    def __init__(self, tracer, counts):
        self.tr = tracer
        self.c = counts
        from holo_rmt import asymptotics, config, matio, montecarlo, solver
        from holo_rmt import normal
        from holo_rmt.errors import ConvergenceError
        self.asym, self.config, self.matio = asymptotics, config, matio
        self.mc, self.solver, self.normal = montecarlo, solver, normal
        self.ConvergenceError = ConvergenceError

    def write(self, fn, path, payload):
        with self.tr.span("matio.write", file=Path(path).name):
            fn(str(path), payload)
        self.c.bytes_written += os.path.getsize(path)

    def load(self, path):
        with self.tr.span("config.load"):
            cfg = self.config.RunConfig.from_file(str(path))
        with self.tr.span("geometry.lattice"):
            lattices = cfg.lattices()
        with self.tr.span("channel.profile"):
            profile = cfg.build_profile(*lattices)
        return cfg, lattices, profile

    def build_model(self, cfg, snr, profile, lattices):
        with self.tr.span("channel.build_model", snr_db=snr):
            return cfg.build_model(snr, profile=profile, lattices=lattices)

    def profile(self, path, out_dir):
        """cli.profile"""
        with self.tr.span("cli.profile"):
            cfg, (lat_rx, lat_tx), prof = self.load(path)
            self.write(self.matio.save_real_matrix, out_dir / "profile.json",
                       prof.matrix)
            lattice_doc = {
                "schema": 1,
                "rx": {"points": [list(p) for p in lat_rx.points], "n": lat_rx.n,
                       "estimate": lat_rx.estimate()},
                "tx": {"points": [list(p) for p in lat_tx.points], "n": lat_tx.n,
                       "estimate": lat_tx.estimate()},
            }
            self.write(self.matio.save_json, out_dir / "lattice.json", lattice_doc)
        m = prof.matrix
        self.c.profile_floored = int((m <= PROFILE_FLOOR_REL * m.max()
                                      * (1 + 1e-9)).sum())
        return cfg, (lat_rx, lat_tx), prof

    def solve(self, model, opts, stall_probe=False):
        """solve_deltas; a probe expected to stall records its failure."""
        with self.tr.span("solver.solve", probe=stall_probe) as sp:
            try:
                sol, res = self.solver.solve_deltas(model, **opts)
            except self.ConvergenceError as exc:
                if not stall_probe:
                    raise
                sol = res = None
                iterations = len(exc.residuals)
        self.c.solves += 1
        if sol is None:
            self.c.iterations += iterations
            sp["converged"] = False
            return None, None
        self.c.iterations += sol.iterations
        self.c.converged += 1
        sp["converged"] = True
        self.c.selfcons_max = max(self.c.selfcons_max,
                                  self.solver.self_consistency_residual(
                                      model, sol, res))
        return sol, res

    def analyze_point(self, cfg, model, snr):
        """cli._analyze_one, with analyze_model's three steps split out."""
        sol, res = self.solve(model, cfg.solver_opts)
        with self.tr.span("asymptotics.emi"):
            emi = self.asym.emi_deterministic(model, sol, res)
        with self.tr.span("asymptotics.build_b"):
            b = self.asym.build_b(model, sol, res)
        with self.tr.span("asymptotics.variance"):
            variance = self.asym.variance_clt(b)
        stats = self.asym.AsymptoticStats(emi_nats=emi, variance=variance,
                                          zeta=sol.rho, solution=sol)
        with self.tr.span("asymptotics.outage"):
            # The generated configs keep the shipped "rates": "auto".
            grid = self.asym.auto_rate_grid(stats)
            outage = self.asym.outage_curve(stats, grid)
        return {
            "snr_db": float(snr), "zeta": stats.zeta,
            "emi_nats": stats.emi_nats, "emi_bits": stats.emi_bits,
            "variance": stats.variance, "b_dims": [2 * b.m, 2 * b.m],
            "delta_summary": {
                "iterations": sol.iterations, "residual": sol.residual,
                "delta_min": float(sol.delta.min()),
                "delta_max": float(sol.delta.max()),
                "delta_tilde_min": float(sol.delta_tilde.min()),
                "delta_tilde_max": float(sol.delta_tilde.max()),
            },
            "outage": [{"rate": r, "p": p} for r, p in outage],
        }

    def analyze(self, path, out_dir):
        """cli.analyze"""
        with self.tr.span("cli.analyze", config=Path(path).stem):
            cfg, lattices, profile = self.load(path)
            results = [self.analyze_point(cfg, self.build_model(
                cfg, snr, profile, lattices), snr) for snr in cfg.snr_db]
            doc = {"schema": 1, "results": results}
            with self.tr.span("config.validate_document"):
                self.config.validate_document(doc, "analyze.schema.json")
            self.write(self.matio.save_json, out_dir / "analyze.json", doc)
        return doc

    def run_mc(self, model, samples, seed):
        n, m = model.dims
        with self.tr.span("montecarlo.run_mc", samples=samples):
            ms = self.mc.run_mc(model, samples, seed)
        self.c.samples += samples
        self.c.chunk_bytes = max(self.c.chunk_bytes,
                                 min(MC_CHUNK, samples) * n * m * 16)
        return ms

    def ks_qq(self, norm):
        with self.tr.span("montecarlo.ks"):
            ks = self.mc.ks_statistic(norm)
        with self.tr.span("montecarlo.qq"):
            pairs = self.mc.qq_data(norm)
        return ks, pairs

    def mc_invocation(self, path, out_dir):
        """cli.mc in a fresh output directory (no analyze.json to normalize by)."""
        runs = []
        with self.tr.span("cli.mc", config=Path(path).stem):
            cfg, lattices, profile = self.load(path)
            entries = []
            for snr in cfg.snr_db:
                model = self.build_model(cfg, snr, profile, lattices)
                ms = self.run_mc(model, cfg.mc_samples, cfg.mc_seed)
                csv_name = f"samples_snr{snr:g}.csv"
                self.write(self.matio.save_samples_csv, out_dir / csv_name,
                           ms.samples)
                norm = (ms.samples - ms.mean) / math.sqrt(ms.variance)
                ks, pairs = self.ks_qq(norm)
                qq_name = f"qq_snr{snr:g}.csv"
                self.write(self.matio.save_qq_csv, out_dir / qq_name, pairs)
                entries.append({
                    "snr_db": float(snr), "zeta": model.zeta,
                    "samples": ms.count, "seed": cfg.mc_seed, "mean": ms.mean,
                    "variance": ms.variance, "ks": ks, "ks_low_sample": False,
                    "qq_slope": self.mc.qq_slope(pairs), "csv": csv_name,
                    "qq_csv": qq_name})
                runs.append((model, ms, norm))
            doc = {"schema": 1, "entries": entries}
            with self.tr.span("config.validate_document"):
                self.config.validate_document(doc, "mc_summary.schema.json")
            self.write(self.matio.save_json, out_dir / "mc_summary.json", doc)
        return runs

    def mc_layers(self, model, ms, norm):
        """Per-sample draw/MI split and the normal CDFs on one sample set."""
        import numpy as np
        count = ms.count
        for i in sorted(set(np.linspace(0, count - 1, SPLIT_SAMPLES).astype(int))):
            with self.tr.span("montecarlo.draw", index=int(i)):
                h = self.mc.sample_channel(model, self.mc.substream(ms.seed, int(i)))
            with self.tr.span("montecarlo.mi", index=int(i)):
                value = self.mc.compute_mi(h, model.zeta)
            # compute_mi is unbatched, so it may differ from run_mc by ulps.
            if abs(value - ms.samples[i]) > 1e-12 * max(1.0, abs(ms.samples[i])):
                raise RuntimeError(f"compute_mi({i}) = {value!r} but run_mc "
                                   f"gave {ms.samples[i]!r}")
            self.c.split_samples += 1
        with self.tr.span("normal.norm_cdf", points=count):
            self.normal.norm_cdf(norm)
        probs = (np.arange(1, count + 1) - 0.5) / count
        with self.tr.span("normal.norm_inv_cdf", points=count):
            self.normal.norm_inv_cdf(probs)


def replay(workload, configs_dir, out_dir, tracer, counts):
    """Mirror set-up and work invocations, then probe the unvisited layers."""
    rp = Replay(tracer, counts)
    paths = {name: configs_dir / f"{name}.json" for name in workload.variants}
    setup_dir = out_dir / "setup"
    setup_dir.mkdir()
    cfg, lattices, profile = rp.profile(paths[workload.setup_config], setup_dir)

    analyzed, mc_runs, work_spans = {}, [], []
    for k, inv in enumerate(workload.work):
        inv_dir = out_dir / f"work{k}"
        inv_dir.mkdir()
        first = len(tracer.spans)
        if inv.command == "analyze":
            doc = rp.analyze(paths[inv.config], inv_dir)
            analyzed[inv.config] = [[e["snr_db"], e["emi_nats"], e["variance"]]
                                    for e in doc["results"]]
        else:
            mc_runs += rp.mc_invocation(paths[inv.config], inv_dir)
        work_spans.append(first)

    with tracer.span("probe"):
        snr = cfg.snr_db[0]
        model = rp.build_model(cfg, snr, profile, lattices)
        if mc_runs:
            rp.analyze_point(cfg, model, snr)
        else:
            ms = rp.run_mc(model, PROBE_SAMPLES, cfg.mc_seed)
            norm = (ms.samples - ms.mean) / math.sqrt(ms.variance)
            rp.ks_qq(norm)
            mc_runs.append((model, ms, norm))
        # Stall-probe variants share the set-up config's geometry and profile.
        for variant, snrs in workload.stall_probe.items():
            with tracer.span("config.load"):
                vcfg = rp.config.RunConfig.from_file(str(paths[variant]))
            for s in snrs:
                rp.solve(rp.build_model(vcfg, s, profile, lattices),
                         vcfg.solver_opts, stall_probe=True)
        for run in mc_runs:
            rp.mc_layers(*run)

    work_s = sum(tracer.spans[i]["end"] - tracer.spans[i]["start"]
                 for i in work_spans)
    return analyzed, work_s


def layer_metrics(tracer, counts, import_s):
    m = {f"{name}_s": tracer.total(name) for name in TIMED_SPANS}
    c = counts
    m.update({
        "cli.import_s": import_s,
        "channel.profile_floored": c.profile_floored,
        "solver.iterations": c.iterations,
        "solver.s_per_iter": m["solver.solve_s"] / c.iterations,
        "solver.converged_ratio": c.converged / c.solves,
        "solver.selfcons_max": c.selfcons_max,
        "montecarlo.samples": c.samples,
        "montecarlo.s_per_sample": m["montecarlo.run_mc_s"] / c.samples,
        "montecarlo.draw_s_per_sample":
            tracer.total("montecarlo.draw") / c.split_samples,
        "montecarlo.mi_s_per_sample":
            tracer.total("montecarlo.mi") / c.split_samples,
        "montecarlo.chunk_bytes": c.chunk_bytes,
        "matio.bytes_written": c.bytes_written,
    })
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--configs", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--result", required=True, type=Path)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    importlib.import_module("holo_rmt.cli")
    import_s = time.perf_counter() - start

    tracer, counts = Tracer(), Counts()
    analyzed, work_s = replay(WORKLOADS[args.workload], args.configs,
                              args.out, tracer, counts)
    result = {"metrics": layer_metrics(tracer, counts, import_s),
              "work_s": work_s, "analyze": analyzed, "spans": tracer.spans}
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
