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
failed allocation, an SNR so high that 1/zeta overflows, or an --out that
cannot be written, counts as one), 3 numerical failure (a LAPACK failure,
or an SNR too low for the variance to be resolved, counts as one).  All
outputs are deterministic functions of the config file, flags and seed.
"""

import argparse
import errno
import os
import sys

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


def _write(save, out_dir, name, data):
    """``save(out_dir/name, data)``, creating ``out_dir`` first; the path.

    A path that cannot be written is a config error: --out names it.
    """
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        save(path, data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return path


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


def analyze(config_path, out_dir, snr_db, tol):
    """Closed-form EMI, variance and outage curve for each configured SNR."""
    cfg = _load_config(config_path, snr_db=snr_db, tol=tol)
    models = cfg.build_models(cfg.snr_db)
    doc = {"schema": 1,
           "results": [_analyze_one(cfg, snr, model) for snr, model in models]}
    validate_document(doc, "analyze.schema.json")
    out_path = _write(matio.save_json, out_dir, "analyze.json", doc)
    for entry in doc["results"]:
        print(f"snr={entry['snr_db']:g} dB  zeta={entry['zeta']:.6e}  "
              f"emi={entry['emi_nats']:.6f} nats "
              f"({entry['emi_bits']:.3f} bits)  "
              f"variance={entry['variance']:.6e}")
    print(f"wrote {out_path}")


def mc(config_path, out_dir, snr_db, seed, samples):
    """Monte-Carlo MI sampling against the closed form; writes per-SNR
    sample CSVs and a summary."""
    cfg = _load_config(config_path, seed=seed, snr_db=snr_db, samples=samples)
    tags = _file_tags(cfg.snr_db)
    runs = closed_form_and_mc(cfg, cfg.snr_db, cfg.mc_samples, cfg.mc_seed)

    entries = []
    for tag, (snr, stats, ms) in zip(tags, runs):
        csv_name = f"samples_snr{tag}.csv"
        _write(matio.save_samples_csv, out_dir, csv_name, ms.samples)
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
            _write(matio.save_qq_csv, out_dir, qq_name, pairs)
            entry["qq_csv"] = qq_name
        entries.append(entry)
        print(f"snr={snr:g} dB  mean={ms.mean:.6f}  "
              f"var={ms.variance if ms.variance is not None else 'n/a'}  "
              f"ks={entry['ks']}")

    doc = {"schema": 1, "entries": entries}
    validate_document(doc, "mc_summary.schema.json")
    print(f"wrote {_write(matio.save_json, out_dir, 'mc_summary.json', doc)}")


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
        print(f"PRE-FLIGHT FAIL: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    header = f"{'criterion':<22} {'measured':<34} {'threshold':<30} verdict"
    print(header)
    print("-" * len(header))
    for res in results:
        print(res.row())
    doc = {"schema": 1,
           "all_passed": all(r.passed for r in results),
           "criteria": [{"name": r.name, "passed": r.passed,
                         "measured": r.measured, "threshold": r.threshold,
                         "runtime_s": r.runtime_s} for r in results]}
    _write(matio.save_json, out_dir, "validate.json", doc)
    return 0 if doc["all_passed"] else EXIT_VALIDATION


def profile(config_path, out_dir):
    """Materialize the variance profile and wavenumber lattices to disk."""
    cfg = _load_config(config_path)
    lat_rx, lat_tx = cfg.lattices()
    prof = cfg.build_profile(lat_rx, lat_tx)
    prof_path = _write(matio.save_real_matrix, out_dir, "profile.json",
                       prof.matrix)
    lattice_doc = {
        "schema": 1,
        "rx": {"points": [list(p) for p in lat_rx.points], "n": lat_rx.n,
               "estimate": lat_rx.estimate()},
        "tx": {"points": [list(p) for p in lat_tx.points], "n": lat_tx.n,
               "estimate": lat_tx.estimate()},
    }
    _write(matio.save_json, out_dir, "lattice.json", lattice_doc)
    print(f"n_R={lat_rx.n} (estimate {lat_rx.estimate()})   "
          f"n_S={lat_tx.n} (estimate {lat_tx.estimate()})")
    (row_min, row_med), (col_min, col_med) = effective_width(prof.matrix)
    print(f"profile={cfg.doc['channel']['profile']} shape={prof.shape} "
          f"sum={prof.matrix.sum():.6e} "
          f"floored={floor_count(prof.matrix)} of {prof.matrix.size} "
          f"n_eff min/median rows={row_min:.2f}/{row_med:.2f} "
          f"cols={col_min:.2f}/{col_med:.2f}")
    print(f"wrote {prof_path} and lattice.json")


def _config_file(path):
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    return path


def _out_dir(path):
    """--out, checked before any work and not created.  A file is a usage
    error; a nearest existing ancestor that is no directory this process may
    write and enter raises ConfigError, which argparse leaves to ``main``."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"directory {path!r} is a file")
    ancestor = os.path.abspath(path)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not (os.path.isdir(ancestor) and os.access(ancestor, os.W_OK | os.X_OK)):
        reason = errno.EACCES if os.path.isdir(ancestor) else errno.ENOTDIR
        raise ConfigError(f"cannot write {os.path.join(path, '')}: "
                          f"{ancestor}: {os.strerror(reason)}")
    return path


# Every flag takes a value.  The bounds on --seed and --samples are the
# config schema's, checked with the overridden configuration.
FLAGS = {
    "--config": dict(dest="config_path", required=True, type=_config_file,
                     metavar="PATH", help="JSON run configuration."),
    "--out": dict(dest="out_dir", default=".", type=_out_dir, metavar="DIR",
                  help="Output directory (default: .)."),
    "--snr-db": dict(metavar="LIST",
                     help="Comma-separated SNR list overriding snr_db."),
    "--seed": dict(type=int, metavar="U64", help="Override mc.seed."),
    "--samples": dict(type=int, metavar="N", help="Override mc.samples."),
    "--tol": dict(type=float, metavar="F", help="Override solver.tol."),
    "--rel-tol-scale": dict(type=float, default=1.0, metavar="F",
                            help="Scale the relative acceptance thresholds "
                                 "(smaller = stricter; default: 1.0)."),
}

# Each command with the config overrides it reads.
COMMANDS = {
    "profile": (profile, ()),
    "analyze": (analyze, ("--snr-db", "--tol")),
    "mc": (mc, ("--snr-db", "--seed", "--samples")),
    "validate": (validate, ("--snr-db", "--seed", "--samples", "--tol",
                            "--rel-tol-scale")),
}


def _parser():
    """The ``holo-rmt`` parser and its subparser for each command."""
    parser = argparse.ArgumentParser(
        prog="holo-rmt", add_help=False, allow_abbrev=False,
        description="Asymptotic MI statistics for non-centered "
                    "non-separable MIMO channels.")
    parser.add_argument("--help", action="help",
                        help="Show this message and exit.")
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND",
                                       required=True)
    for name, (command, reads) in COMMANDS.items():
        doc = " ".join(command.__doc__.split())
        sub = subparsers.add_parser(name, add_help=False, allow_abbrev=False,
                                    help=doc, description=doc)
        for flag in ("--config", "--out", *reads):
            sub.add_argument(flag, **FLAGS[flag])
        sub.add_argument("--help", action="help",
                         help="Show this message and exit.")
    return parser, subparsers.choices


def _joined(argv):
    """``argv`` with each ``--flag value`` written ``--flag=value``.

    argparse reads a token that starts with '-' as a flag unless it is one
    plain negative number, so ``--snr-db -10,0`` or ``--tol -1e-3`` would
    lose their values; joined, the token after a flag is always its value.
    """
    out, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in FLAGS else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv=None):
    """The ``holo-rmt`` entry point: run one command; its exit code."""
    parser, _ = _parser()
    try:
        args = vars(parser.parse_args(
            _joined(sys.argv[1:] if argv is None else argv)))
        command, _ = COMMANDS[args.pop("command")]
        return command(**args) or 0
    except SystemExit as exc:  # --help, or a usage error argparse printed
        return exc.code
    except ConfigError as exc:
        message, code = f"config error: {exc}", EXIT_CONFIG
    except (ConvergenceError, NumericalError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError: LAPACK failing is a numerical
        # failure, not a config error.
        message, code = f"numerical failure: {exc}", EXIT_NUMERICAL
    except HoloRmtError as exc:
        message, code = f"error: {exc}", EXIT_VALIDATION
    except ValueError as exc:
        message, code = f"config error: {exc}", EXIT_CONFIG
    except MemoryError as exc:
        message, code = (f"config error: out of memory ({exc}); lower "
                         "mc.samples (--samples) or the apertures", EXIT_CONFIG)
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
