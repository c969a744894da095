"""Command-line interface.

    holo-rmt profile  --config <path> [--out <dir>]
    holo-rmt analyze  --config <path> [--out <dir>] [--snr-db <list>] [--tol <f>]
    holo-rmt mc       --config <path> [--out <dir>] [--snr-db <list>]
                      [--seed <u64>] [--samples <n>]
    holo-rmt validate --config <path> [--out <dir>] [--snr-db <list>]
                      [--seed <u64>] [--samples <n>] [--tol <f>]
                      [--rel-tol-scale <f>]

Each command takes only the flags it reads; any other is a usage error.

Exit codes: 0 success, 1 validation failure, 2 usage/config error (a
failed allocation, or a zeta whose reciprocal overflows, counts as one),
3 numerical failure (a LAPACK failure, or an SNR too low for the variance
to be resolved, counts as one).  All
outputs are deterministic functions of the config file, flags and seed.
"""

import functools
import os
import sys

import click
import numpy as np

from . import matio
from .asymptotics import analyze_model, auto_rate_grid, outage_curve
from .channel import effective_width, floor_count
from .config import RunConfig, validate_document
from .errors import (AssumptionError, ConfigError, ConvergenceError,
                     HoloRmtError, NumericalError)
from .montecarlo import (closed_form_and_mc, ks_statistic, normalized_samples,
                         qq_data, qq_slope)

KS_MIN_SAMPLES = 100

EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_config(path, seed=None, snr_db=None, samples=None, tol=None):
    """The configuration file with the given flags applied; the flags are
    checked by the config schema like values written in the file."""
    cfg = RunConfig.from_file(path)
    overrides = {}
    if snr_db is not None:
        overrides["snr_db"] = ([float(s) for s in snr_db.split(",")]
                               if snr_db else [])
    if seed is not None:
        overrides.setdefault("mc", {})["seed"] = seed
    if samples is not None:
        overrides.setdefault("mc", {})["samples"] = samples
    if tol is not None:
        overrides["solver"] = {"tol": tol}
    return cfg.updated(**overrides) if overrides else cfg


def _file_tags(snrs):
    """The ``<db>`` in each SNR's ``samples_snr<db>.csv`` and
    ``qq_snr<db>.csv``; two SNRs with one tag would write one file, so
    that is a config error."""
    seen = {}
    for snr in snrs:
        tag = f"{snr:g}"
        if tag in seen:
            raise ConfigError(
                f"snr_db {seen[tag]!r} and {snr!r} both write "
                f"samples_snr{tag}.csv and qq_snr{tag}.csv; give SNRs "
                f"that differ within 6 significant digits")
        seen[tag] = snr
    return list(seen)


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True, dir_okay=False),
                      help="JSON run configuration.")(fn)
    return click.option("--out", "out_dir", default=".", show_default=True,
                        type=click.Path(file_okay=False),
                        help="Output directory.")(fn)


# Config overrides; each command declares the ones it reads.
_seed_option = click.option("--seed", type=click.IntRange(0, 2**64 - 1),
                            default=None, help="Override mc.seed.")
_snr_db_option = click.option("--snr-db", default=None,
                              help="Comma-separated SNR list overriding snr_db.")
_samples_option = click.option("--samples", type=click.IntRange(min=1),
                               default=None, help="Override mc.samples.")
_tol_option = click.option("--tol", type=float, default=None,
                           help="Override solver.tol.")


def _guard(fn):
    """Map package exceptions onto the documented exit codes."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except (ConvergenceError, NumericalError,
                np.linalg.LinAlgError) as exc:
            # LinAlgError subclasses ValueError: LAPACK failing is a
            # numerical failure, not a config error.
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except HoloRmtError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except ValueError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except MemoryError as exc:
            click.echo(f"config error: out of memory ({exc}); lower "
                       "mc.samples (--samples) or the apertures", err=True)
            sys.exit(EXIT_CONFIG)
    return wrapper


@click.group()
def main():
    """Asymptotic MI statistics for non-centered non-separable MIMO channels."""


def _analyze_one(cfg, snr, model):
    stats, b = analyze_model(model, **cfg.solver_opts)
    sol = stats.solution
    rates = cfg.rates
    grid = auto_rate_grid(stats) if rates == "auto" else np.asarray(rates, float)
    return {
        "snr_db": float(snr),
        "zeta": stats.zeta,
        "emi_nats": stats.emi_nats,
        "emi_bits": stats.emi_bits,
        "variance": stats.variance,
        "b_dims": [2 * b.m, 2 * b.m],
        "delta_summary": {
            "iterations": sol.iterations,
            "residual": sol.residual,
            "delta_min": float(sol.delta.min()),
            "delta_max": float(sol.delta.max()),
            "delta_tilde_min": float(sol.delta_tilde.min()),
            "delta_tilde_max": float(sol.delta_tilde.max()),
        },
        "outage": [{"rate": r, "p": p} for r, p in outage_curve(stats, grid)],
    }


@main.command()
@_common_options
@_snr_db_option
@_tol_option
@_guard
def analyze(config_path, out_dir, snr_db, tol):
    """Closed-form EMI, variance and outage curve for each configured SNR."""
    cfg = _load_config(config_path, snr_db=snr_db, tol=tol)
    models = cfg.build_models(cfg.snr_db)
    doc = {"schema": 1,
           "results": [_analyze_one(cfg, snr, model) for snr, model in models]}
    validate_document(doc, "analyze.schema.json")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "analyze.json")
    matio.save_json(out_path, doc)
    for entry in doc["results"]:
        click.echo(f"snr={entry['snr_db']:g} dB  zeta={entry['zeta']:.6e}  "
                   f"emi={entry['emi_nats']:.6f} nats "
                   f"({entry['emi_bits']:.3f} bits)  "
                   f"variance={entry['variance']:.6e}")
    click.echo(f"wrote {out_path}")


@main.command()
@_common_options
@_snr_db_option
@_seed_option
@_samples_option
@_guard
def mc(config_path, out_dir, snr_db, seed, samples):
    """Monte-Carlo MI sampling against the closed form; writes per-SNR
    sample CSVs and a summary."""
    cfg = _load_config(config_path, seed=seed, snr_db=snr_db, samples=samples)
    tags = _file_tags(cfg.snr_db)
    runs = closed_form_and_mc(cfg, cfg.snr_db, cfg.mc_samples, cfg.mc_seed)
    os.makedirs(out_dir, exist_ok=True)

    entries = []
    for tag, (snr, stats, ms) in zip(tags, runs):
        csv_name = f"samples_snr{tag}.csv"
        matio.save_samples_csv(os.path.join(out_dir, csv_name), ms.samples)
        entry = {"snr_db": float(snr), "zeta": stats.zeta,
                 "samples": ms.count, "seed": cfg.mc_seed,
                 "mean": ms.mean, "variance": ms.variance,
                 "ks": None, "ks_low_sample": ms.count < KS_MIN_SAMPLES,
                 "qq_slope": None, "csv": csv_name,
                 "analytic": {
                     "emi_nats": stats.emi_nats, "variance": stats.variance,
                     "mean_delta": ms.mean - stats.emi_nats,
                     "variance_delta": (None if ms.variance is None
                                        else ms.variance - stats.variance)}}
        if not entry["ks_low_sample"]:
            norm = normalized_samples(ms, stats.emi_nats, stats.variance)
            entry["ks"] = ks_statistic(norm)
            pairs = qq_data(norm)
            entry["qq_slope"] = qq_slope(pairs)
            qq_name = f"qq_snr{tag}.csv"
            matio.save_qq_csv(os.path.join(out_dir, qq_name), pairs)
            entry["qq_csv"] = qq_name
        entries.append(entry)
        click.echo(f"snr={snr:g} dB  mean={ms.mean:.6f}  "
                   f"var={ms.variance if ms.variance is not None else 'n/a'}  "
                   f"ks={entry['ks']}")

    doc = {"schema": 1, "entries": entries}
    validate_document(doc, "mc_summary.schema.json")
    out_path = os.path.join(out_dir, "mc_summary.json")
    matio.save_json(out_path, doc)
    click.echo(f"wrote {out_path}")


@main.command()
@_common_options
@_snr_db_option
@_seed_option
@_samples_option
@_tol_option
@click.option("--rel-tol-scale", type=float, default=1.0, show_default=True,
              help="Scale the relative acceptance thresholds (smaller = stricter).")
@_guard
def validate(config_path, out_dir, snr_db, seed, samples, tol, rel_tol_scale):
    """Run the full criterion table at the configured size; exit 0 iff all pass."""
    # Imported here: validate pulls in scipy.special, which no other command
    # needs.
    from . import validate as validate_mod

    cfg = _load_config(config_path, seed=seed, snr_db=snr_db, samples=samples,
                       tol=tol)
    try:
        results = validate_mod.run_all(cfg, rel_tol_scale=rel_tol_scale)
    except AssumptionError as exc:
        click.echo(f"PRE-FLIGHT FAIL: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    os.makedirs(out_dir, exist_ok=True)
    header = f"{'criterion':<22} {'measured':<34} {'threshold':<30} verdict"
    click.echo(header)
    click.echo("-" * len(header))
    for res in results:
        click.echo(res.row())
    doc = {"schema": 1,
           "all_passed": all(r.passed for r in results),
           "criteria": [{"name": r.name, "passed": r.passed,
                         "measured": r.measured, "threshold": r.threshold,
                         "runtime_s": r.runtime_s} for r in results]}
    matio.save_json(os.path.join(out_dir, "validate.json"), doc)
    if not doc["all_passed"]:
        sys.exit(EXIT_VALIDATION)


@main.command()
@_common_options
@_guard
def profile(config_path, out_dir):
    """Materialize the variance profile and wavenumber lattices to disk."""
    cfg = _load_config(config_path)
    lat_rx, lat_tx = cfg.lattices()
    prof = cfg.build_profile(lat_rx, lat_tx)
    os.makedirs(out_dir, exist_ok=True)
    matio.save_real_matrix(os.path.join(out_dir, "profile.json"), prof.matrix)
    lattice_doc = {
        "schema": 1,
        "rx": {"points": [list(p) for p in lat_rx.points], "n": lat_rx.n,
               "estimate": lat_rx.estimate()},
        "tx": {"points": [list(p) for p in lat_tx.points], "n": lat_tx.n,
               "estimate": lat_tx.estimate()},
    }
    matio.save_json(os.path.join(out_dir, "lattice.json"), lattice_doc)
    click.echo(f"n_R={lat_rx.n} (estimate {lat_rx.estimate()})   "
               f"n_S={lat_tx.n} (estimate {lat_tx.estimate()})")
    (row_min, row_med), (col_min, col_med) = effective_width(prof.matrix)
    click.echo(f"profile={cfg.doc['channel']['profile']} shape={prof.shape} "
               f"sum={prof.matrix.sum():.6e} "
               f"floored={floor_count(prof.matrix)} of {prof.matrix.size} "
               f"n_eff min/median rows={row_min:.2f}/{row_med:.2f} "
               f"cols={col_min:.2f}/{col_med:.2f}")
    click.echo(f"wrote {os.path.join(out_dir, 'profile.json')} and lattice.json")


if __name__ == "__main__":
    main()
