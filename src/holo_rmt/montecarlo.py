"""Monte-Carlo sampling of the channel and empirical MI statistics.

Reproducibility contract: sample i of a run with master seed s is drawn
from the Philox counter-based generator keyed by s with the fourth 64-bit
counter word set to i (every sample owns a disjoint counter range, so
parallel generation is order-independent and worker processes can split a
run by index range).  Complex Gaussians come from Box-Muller applied
to the generator's uniforms, which pins the exact sample values across
platforms.

The engine works in blocks of samples: numpy's per-call cost exceeds the
arithmetic of one small sample, so a worker draws every H of a block in
place, forms the block's Gram matrices once and runs one stacked Cholesky
per noise level, so one draw serves a whole SNR grid.  A worker allocates
its buffers once and reuses them for every block: the draw buffers (the
uniforms, a real scratch array and H) and the ``_workspace`` of the MI
(the conjugate of H, the Gram stack and its shifted copy); BLOCK_BYTES
gives their sizes.  Allocated afresh for each block, the MI stacks went
back to the kernel when freed and the next block faulted their pages in
again: about 375 minor page faults per block at n = 37.  Only Cholesky's
factor is still allocated per call.  Worker processes take contiguous
index ranges; the results land in index order.  ``closed_form_and_mc``
pairs each SNR's closed form with its samples, for the mc command and the
MC criteria alike.  The module needs numpy only.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .asymptotics import analyze_model
from .channel import ChannelModel, check_zeta
from .errors import NumericalError
from .normal import norm_cdf, norm_inv_cdf

# Fewest samples worth a worker process of their own.
MIN_SAMPLES_PER_WORKER = 512

# Bytes of draw buffers a worker holds for one block of samples: the
# uniforms (16 n m bytes per sample), one real scratch array (8 n m) and H
# (16 n m), 40 n m bytes per sample: 19 samples at n = m = 37, and one
# sample once n m exceeds 13107, so the full geometry (n = m = 317) holds
# no more than one sample's buffers.  The MI workspace adds 16 n m (the
# conjugate of H) plus 32 d^2 (the Gram and shifted stacks), d = min(n, m),
# so a worker holds 56 n m + 32 d^2 bytes per sample in all: 2.29 MB at
# n = m = 37 (19 samples) and 8.84 MB at n = m = 317 (one sample).  Each
# Cholesky call allocates another 16 d^2 per sample for its factor.
BLOCK_BYTES = 1 << 20


def _rekey(rng: np.random.Generator, seed: int,
           index: int) -> np.random.Generator:
    """Set a Philox generator to the start of sample ``index`` under ``seed``.

    The state is that of ``Philox(key=seed, counter=[0, 0, 0, index])``
    fresh from its constructor; re-keying costs far less than building a
    generator, which seeds an unused SeedSequence from the OS.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, index], "key": [seed, 0]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return rng


def _philox() -> np.random.Generator:
    """A Philox generator for ``_rekey`` to key."""
    return np.random.Generator(np.random.Philox(key=0))


def substream(seed: int, index: int) -> np.random.Generator:
    """Dedicated generator for one sample index under a master seed."""
    return _rekey(_philox(), seed, index)


def _box_muller(u, los, sqrt_sigma, part, h):
    """H = A + Sigma^(o1/2) .* X in place for a block, X i.i.d. CN(0, 1/M).

    ``u`` (shape (B, 2, n, m)) holds each sample's uniforms, amplitude
    then phase, and is overwritten; ``part`` (B, n, m) is real scratch and
    ``h`` (B, n, m) receives the block.  Real and imaginary parts are
    formed apart.
    """
    amp, phase = u[:, 0], u[:, 1]
    np.negative(amp, out=amp)
    np.log1p(amp, out=amp)                # 1 - u in (0, 1] avoids log(0)
    np.divide(amp, -los.shape[1], out=amp)  # x / -M is -(x / M) exactly
    np.sqrt(amp, out=amp)
    np.multiply(phase, 2.0 * np.pi, out=phase)
    for trig, dest, base in ((np.cos, h.real, los.real),
                             (np.sin, h.imag, los.imag)):
        trig(phase, out=part)
        np.multiply(part, amp, out=part)
        np.multiply(part, sqrt_sigma, out=part)
        np.add(base, part, out=dest)


def sample_channel(model: ChannelModel, rng: np.random.Generator) -> np.ndarray:
    """One realization H = A + Sigma^(o1/2) .* X with X i.i.d. CN(0, 1/M)."""
    n, m = model.dims
    u = rng.random((1, 2, n, m))
    h = np.empty((1, n, m), dtype=complex)
    _box_muller(u, model.los, model.profile.sqrt_entries(),
                np.empty((1, n, m)), h)
    return h[0]


def _workspace(size, n, m):
    """Buffers ``_log_dets`` fills for a block of up to ``size`` n x m
    channels: the conjugate of H, the Gram stack and its shifted copy."""
    d = min(n, m)
    return (np.empty((size, n, m), dtype=complex),
            np.empty((size, d, d), dtype=complex),
            np.empty((size, d, d), dtype=complex))


def _log_dets(h, zetas, work):
    """log det(I + G/zeta) of each H in the stack ``h`` at each zeta, shape
    (len(zetas), len(h)), G the smaller Gram matrix H^H H or H H^H.

    One Cholesky factorization per matrix: log det = 2 sum log Re diag L.
    ``work`` is a ``_workspace`` of at least len(h) samples; its leading
    len(h) entries are overwritten, so no block inherits another's values.
    """
    b, n, m = h.shape
    conj, g, c = (w[:b] for w in work)
    np.conjugate(h, out=conj)
    hh = conj.swapaxes(1, 2)
    if m <= n:
        np.matmul(hh, h, out=g)
    else:
        np.matmul(h, hh, out=g)
    d = min(n, m)
    out = np.empty((len(zetas), b))
    for z, zeta in enumerate(zetas):
        # The bits of g / zeta: numpy's complex division by zeta + 0j
        # multiplies both parts by 1 / zeta.
        np.multiply(g.view(float), 1.0 / zeta, out=c.view(float))
        c.reshape(b, d * d)[:, ::d + 1] += 1.0
        try:
            low = np.linalg.cholesky(c)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Cholesky of I + G/zeta failed: {exc}") from None
        out[z] = 2.0 * np.log(low.diagonal(axis1=1, axis2=2).real).sum(axis=1)
    return out


def compute_mi(h: np.ndarray, zeta: float) -> float:
    """Exact MI log det(I_d + zeta^{-1} G) in nats, d the smaller dimension.

    G is H^H H or H H^H, whichever is smaller (the determinant identity
    det(I+AB) = det(I+BA) makes them equal); the log-det goes through a
    Cholesky factorization of I + G/zeta.  This is the one-sample case of
    the engine's block computation, so ``run_mc`` samples equal it exactly.
    """
    check_zeta(zeta)
    h = np.asarray(h, dtype=complex)[None]
    return float(_log_dets(h, [zeta], _workspace(*h.shape))[0, 0])


def _block_size(n: int, m: int) -> int:
    """Samples per block of an n x m channel within BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (40 * n * m))


def _mi_range(los, sqrt_sigma, zetas, seed, start, stop):
    """MI of samples [start, stop) at every zeta, shape (len(zetas), stop - start)."""
    n, m = los.shape
    size = _block_size(n, m)
    u = np.empty((size, 2, n, m))
    part = np.empty((size, n, m))
    h = np.empty((size, n, m), dtype=complex)
    work = _workspace(size, n, m)
    rng = _philox()
    try:
        out = np.empty((len(zetas), stop - start))
    except ValueError as exc:  # a size past numpy's index range
        raise MemoryError(str(exc)) from None
    for lo in range(start, stop, size):
        k = min(size, stop - lo)
        for j in range(k):
            _rekey(rng, seed, lo + j).random(out=u[j])
        _box_muller(u[:k], los, sqrt_sigma, part[:k], h[:k])
        out[:, lo - start:lo - start + k] = _log_dets(h[:k], zetas, work)
    return out


def model_digest(model: ChannelModel) -> str:
    """Hash of (A, Sigma, zeta) identifying the sampled distribution."""
    import hashlib  # only MC runs hash a model; keep it off CLI start

    h = hashlib.sha256()
    h.update(np.ascontiguousarray(model.los).tobytes())
    h.update(np.ascontiguousarray(model.profile.matrix).tobytes())
    h.update(repr(model.zeta).encode())
    return h.hexdigest()


@dataclass
class MiSampleSet:
    """MI samples with seed provenance."""

    samples: np.ndarray
    seed: int
    digest: str

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("sample set must be a nonempty vector")

    @property
    def count(self) -> int:
        return self.samples.size

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def variance(self):
        """Unbiased sample variance; None for a single sample."""
        if self.count < 2:
            return None
        return float(self.samples.var(ddof=1))


def _cpus() -> int:
    """CPUs this process may run on (its affinity set where the platform
    has one, so ``taskset`` limits it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_mc_grid(model: ChannelModel, zetas, samples: int,
                seed: int) -> list[MiSampleSet]:
    """MI samples 0 .. samples-1 of one channel at every noise level in
    ``zetas``.

    Sample i is one draw of H (substream i of ``seed``) shared by every
    zeta, so each set equals ``run_mc(model.at_zeta(zeta), ...)`` exactly.
    Worker processes: one per CPU this process may use, but no more than
    one per MIN_SAMPLES_PER_WORKER samples; the parent works the first
    index range itself and starts a process for each other range.  A
    sample's value does not depend on which range it falls in.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    models = [model.at_zeta(z) for z in zetas]
    workers = max(1, min(_cpus(), -(-samples // MIN_SAMPLES_PER_WORKER)))
    edges = [samples * w // workers for w in range(workers + 1)]
    ranges = list(zip(edges, edges[1:]))
    args = (model.los, model.profile.sqrt_entries(),
            [mz.zeta for mz in models], seed)
    if workers == 1:
        mi = _mi_range(*args, *ranges[0])
    else:
        # Imported here: most CLI calls never start a worker.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork where the platform has it, else spawn: a forked worker starts
        # with numpy imported.  The executor starts all its workers at the
        # first submit, before it starts its management thread.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods
                                          else "spawn")
        with ProcessPoolExecutor(workers - 1, mp_context=ctx) as pool:
            futures = [pool.submit(_mi_range, *args, *r) for r in ranges[1:]]
            parts = [_mi_range(*args, *ranges[0])]
            parts += [f.result() for f in futures]
        mi = np.concatenate(parts, axis=1)
    return [MiSampleSet(samples=row, seed=seed, digest=model_digest(mz))
            for row, mz in zip(mi, models)]


def run_mc(model: ChannelModel, samples: int, seed: int) -> MiSampleSet:
    """Draw ``samples`` MI realizations with per-index substreams at the
    model's own zeta: the one-zeta case of ``run_mc_grid``."""
    return run_mc_grid(model, [model.zeta], samples, seed)[0]


def closed_form_and_mc(cfg, snrs_db, samples: int, seed: int):
    """[(snr, closed-form stats, MC sample set)] per SNR of ``cfg``'s
    channel (a RunConfig).

    Every SNR's closed form (``analyze_model`` with ``cfg.solver_opts``)
    is solved before any sample is drawn, so a solver failure ends the run
    first.  One ``run_mc_grid`` call then serves every SNR: sample i is the
    same draw of H at each.
    """
    models = cfg.build_models(snrs_db)
    stats = [analyze_model(model, **cfg.solver_opts)[0] for _, model in models]
    sets = run_mc_grid(models[0][1], [model.zeta for _, model in models],
                       samples, seed)
    return [(snr, st, ms) for (snr, _), st, ms in zip(models, stats, sets)]


def normalized_samples(sample_set: MiSampleSet, emi_nats: float,
                       variance: float) -> np.ndarray:
    """(C - mean) / sqrt(variance) against the analytic mean and variance."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    return (sample_set.samples - emi_nats) / math.sqrt(variance)


def ks_statistic(normalized: np.ndarray) -> float:
    """Two-sided KS distance of the sample set from the standard normal."""
    x = np.sort(np.asarray(normalized, dtype=float))
    if x.size == 0:
        raise ValueError("empty sample vector")
    s = x.size
    cdf = norm_cdf(x)
    upper = np.arange(1, s + 1) / s - cdf
    lower = cdf - np.arange(0, s) / s
    return float(max(upper.max(), lower.max()))


def qq_data(normalized: np.ndarray) -> np.ndarray:
    """(theoretical, empirical) quantile pairs against the standard normal.

    Theoretical coordinates are Phi^{-1}((i - 0.5)/S) for the i-th order
    statistic.
    """
    x = np.sort(np.asarray(normalized, dtype=float))
    if x.size == 0:
        raise ValueError("empty sample vector")
    s = x.size
    theo = norm_inv_cdf((np.arange(1, s + 1) - 0.5) / s)
    return np.column_stack([np.atleast_1d(theo), x])


def qq_slope(pairs: np.ndarray) -> float:
    """Least-squares slope of empirical vs theoretical quantiles."""
    t = pairs[:, 0]
    e = pairs[:, 1]
    tc = t - t.mean()
    denom = float(tc @ tc)
    if denom == 0.0:
        return 0.0
    return float(tc @ (e - e.mean())) / denom


def empirical_outage(sample_set: MiSampleSet, rates) -> np.ndarray:
    """Fraction of samples strictly below each rate of ``rates``."""
    idx = np.searchsorted(np.sort(sample_set.samples), rates, side="left")
    return idx / sample_set.count
