"""Output checks on what one CLI invocation wrote.

Each check raises ``CheckError`` with the reason.  Schemas come from the
package itself through ``holo_rmt.config.validate_document``.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from holo_rmt.config import validate_document
from holo_rmt.errors import ConfigError


class CheckError(Exception):
    pass


def _schema(doc, name):
    try:
        validate_document(doc, name)
    except ConfigError as exc:
        raise CheckError(f"{name}: {exc}") from exc


def check_profile(out_dir):
    """profile.json matches lattice.json's sizes and is finite and positive."""
    lattice = json.loads((Path(out_dir) / "lattice.json").read_text())
    prof = json.loads((Path(out_dir) / "profile.json").read_text())
    shape = (lattice["rx"]["n"], lattice["tx"]["n"])
    if (prof["rows"], prof["cols"]) != shape:
        raise CheckError(f"profile shape {prof['rows']}x{prof['cols']} "
                         f"!= lattice {shape}")
    data = np.asarray(prof["data"], dtype=float)
    if data.size != shape[0] * shape[1]:
        raise CheckError("profile entry count does not match its shape")
    if not np.all(np.isfinite(data)) or np.any(data <= 0):
        raise CheckError("profile entries must be finite and positive")


def check_analyze(out_dir, snr_db):
    """analyze.json: schema, requested SNRs, finite EMI, V > 0, monotone outage."""
    doc = json.loads((Path(out_dir) / "analyze.json").read_text())
    _schema(doc, "analyze.schema.json")
    got = [e["snr_db"] for e in doc["results"]]
    if got != list(snr_db):
        raise CheckError(f"analyze SNRs {got} != requested {list(snr_db)}")
    for e in doc["results"]:
        where = f"snr {e['snr_db']:g} dB"
        if not (math.isfinite(e["emi_nats"]) and math.isfinite(e["variance"])):
            raise CheckError(f"{where}: EMI or variance not finite")
        if not e["variance"] > 0:
            raise CheckError(f"{where}: variance {e['variance']} not positive")
        rates = np.array([p["rate"] for p in e["outage"]])
        probs = np.array([p["p"] for p in e["outage"]])
        if np.any(np.diff(rates) <= 0):
            raise CheckError(f"{where}: outage rates not increasing")
        if np.any(probs < 0) or np.any(probs > 1) or np.any(np.diff(probs) < 0):
            raise CheckError(f"{where}: outage not a CDF in [0, 1]")


def check_mc(out_dir, snr_db, samples):
    """mc_summary.json and sample CSVs; returns the CSVs' sha256 per SNR."""
    doc = json.loads((Path(out_dir) / "mc_summary.json").read_text())
    _schema(doc, "mc_summary.schema.json")
    if [e["snr_db"] for e in doc["entries"]] != list(snr_db):
        raise CheckError("mc_summary entries do not match the requested SNRs")
    digests = {}
    for snr, entry in zip(snr_db, doc["entries"]):
        if entry["samples"] != samples:
            raise CheckError(f"summary reports {entry['samples']} samples, "
                             f"{samples} requested")
        raw = (Path(out_dir) / entry["csv"]).read_bytes()
        rows = raw.decode().splitlines()
        if rows[:1] != ["index,mi_nats"] or len(rows) - 1 != samples:
            raise CheckError(f"{entry['csv']}: {len(rows) - 1} rows, "
                             f"{samples} requested")
        values = np.array([float(r.split(",")[1]) for r in rows[1:]])
        if not np.all(np.isfinite(values)):
            raise CheckError(f"{entry['csv']}: non-finite sample")
        digests[snr] = hashlib.sha256(raw).hexdigest()
    return digests
