"""Monte-Carlo sampling of the channel and empirical MI statistics.

Reproducibility contract: sample i of a run with master seed s is drawn
from the Philox counter-based generator keyed by s with the fourth 64-bit
counter word set to i (every sample owns a disjoint counter range, so
parallel generation is order-independent and a run can be split across
processes by index range).  Complex Gaussians come from Box-Muller applied
to the generator's uniforms, which pins the exact sample values across
platforms.

The engine streams: a worker holds one sample's buffers, draws H in place,
forms its Gram matrix once and runs one Cholesky per noise level, so one
draw serves a whole SNR grid.  Worker processes take contiguous index
ranges; the results land in index order.
"""

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel, check_zeta
from .errors import NumericalError
from .normal import norm_cdf, norm_inv_cdf

# Fewest samples worth a worker process of their own.
MIN_SAMPLES_PER_WORKER = 512


def substream(seed: int, index: int) -> np.random.Generator:
    """Dedicated generator for one sample index under a master seed."""
    bitgen = np.random.Philox(key=np.uint64(seed),
                              counter=[0, 0, 0, np.uint64(index)])
    return np.random.Generator(bitgen)


def _sampler(los: np.ndarray, sqrt_sigma: np.ndarray):
    """``draw(rng)``: H = A + Sigma^(o1/2) .* X with X i.i.d. CN(0, 1/M).

    Box-Muller runs in place on one sample's buffers (the uniforms, one
    real scratch array and H), real and imaginary parts apart.  Each call
    overwrites and returns the same H.
    """
    n, m = los.shape
    u = np.empty((2, n, m))
    amp, phase, part = u[0], u[1], np.empty((n, m))
    h = np.empty((n, m), dtype=complex)
    sides = ((np.cos, h.real, np.ascontiguousarray(los.real)),
             (np.sin, h.imag, np.ascontiguousarray(los.imag)))

    def draw(rng: np.random.Generator) -> np.ndarray:
        rng.random(out=u)
        np.negative(amp, out=amp)
        np.log1p(amp, out=amp)                # 1 - u in (0, 1] avoids log(0)
        np.negative(amp, out=amp)
        np.divide(amp, m, out=amp)
        np.sqrt(amp, out=amp)
        np.multiply(phase, 2.0 * np.pi, out=phase)
        for trig, dest, base in sides:
            trig(phase, out=part)
            np.multiply(part, amp, out=part)
            np.multiply(part, sqrt_sigma, out=part)
            np.add(base, part, out=dest)
        return h

    return draw


def sample_channel(model: ChannelModel, rng: np.random.Generator) -> np.ndarray:
    """One realization H = A + Sigma^(o1/2) .* X with X i.i.d. CN(0, 1/M)."""
    return _sampler(model.los, model.profile.sqrt_entries())(rng)


def _lapack():
    """BLAS zherk and LAPACK zpotrf, loaded on the first MI computation so
    that importing the package (and the CLI) stays scipy-free."""
    from scipy.linalg.blas import zherk
    from scipy.linalg.lapack import zpotrf
    return zherk, zpotrf


def _gram(h, zherk):
    """Lower triangle of the smaller Gram matrix, H^H H or H H^H."""
    n, m = h.shape
    return zherk(1.0, h, trans=2 if m <= n else 0, lower=1)


def _log_det(g, zeta, zpotrf):
    """log det(I + G/zeta) from the lower triangle of G, by Cholesky."""
    c = g / zeta
    c.flat[::c.shape[0] + 1] += 1.0
    c, info = zpotrf(c, lower=1, overwrite_a=1, clean=0)
    if info != 0:
        raise NumericalError(f"Cholesky of I + G/zeta failed (info={info})")
    return 2.0 * float(np.log(c.diagonal().real).sum())


def compute_mi(h: np.ndarray, zeta: float) -> float:
    """Exact MI log det(I_d + zeta^{-1} G) in nats, d the smaller dimension.

    G is H^H H or H H^H, whichever is smaller (the determinant identity
    det(I+AB) = det(I+BA) makes them equal); the log-det goes through a
    Cholesky factorization of the lower triangle of I + G/zeta.  ``run_mc``
    computes every sample through the same two calls.
    """
    check_zeta(zeta)
    zherk, zpotrf = _lapack()
    return _log_det(_gram(np.asarray(h, dtype=complex), zherk), zeta, zpotrf)


def _mi_range(los, sqrt_sigma, zetas, seed, start, stop):
    """MI of samples [start, stop) at every zeta, shape (len(zetas), stop - start)."""
    zherk, zpotrf = _lapack()
    draw = _sampler(los, sqrt_sigma)
    out = np.empty((len(zetas), stop - start))
    for k, index in enumerate(range(start, stop)):
        g = _gram(draw(substream(seed, index)), zherk)
        for z, zeta in enumerate(zetas):
            out[z, k] = _log_det(g, zeta, zpotrf)
    return out


def model_digest(model: ChannelModel) -> str:
    """Hash of (A, Sigma, zeta) identifying the sampled distribution."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(model.los).tobytes())
    h.update(np.ascontiguousarray(model.profile.matrix).tobytes())
    h.update(repr(model.zeta).encode())
    return h.hexdigest()


@dataclass
class MiSampleSet:
    """MI samples with seed provenance and cached order statistics."""

    samples: np.ndarray
    seed: int
    digest: str
    _sorted: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("sample set must be a nonempty vector")
        self._sorted = np.sort(self.samples)

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

    @property
    def sorted_samples(self) -> np.ndarray:
        return self._sorted


def _cpus() -> int:
    """CPUs this process may run on (its affinity set where the platform
    has one, so ``taskset`` limits it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_mc_grid(model: ChannelModel, zetas, samples: int, seed: int,
                start_index: int = 0) -> list[MiSampleSet]:
    """MI samples of one channel at every noise level in ``zetas``.

    Sample i is one draw of H (substream i of ``seed``) shared by every
    zeta, so each set equals ``run_mc(model.at_zeta(zeta), ...)`` exactly.
    ``start_index`` offsets the substream indices so a run can be
    partitioned (indices [0, S/2) plus [S/2, S) reproduce one full run).
    Worker processes: one per CPU this process may use, but no more than
    one per MIN_SAMPLES_PER_WORKER samples; the parent works one index
    range itself and forks a process for each other range.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    models = [model.at_zeta(z) for z in zetas]
    workers = max(1, min(_cpus(), -(-samples // MIN_SAMPLES_PER_WORKER)))
    edges = [start_index + samples * w // workers for w in range(workers + 1)]
    ranges = list(zip(edges, edges[1:]))
    args = (model.los, model.profile.sqrt_entries(),
            [mz.zeta for mz in models], seed)
    if workers == 1:
        mi = _mi_range(*args, *ranges[0])
    else:
        # Imported here: most CLI calls never start a worker.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: a worker starts with numpy and scipy already imported (a
        # spawned one re-imports them, about 0.5 s).  The executor forks
        # all its workers at the first submit, before it starts its
        # management thread.
        _lapack()
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers - 1, mp_context=ctx) as pool:
            futures = [pool.submit(_mi_range, *args, *r) for r in ranges[1:]]
            parts = [_mi_range(*args, *ranges[0])]
            parts += [f.result() for f in futures]
        mi = np.concatenate(parts, axis=1)
    return [MiSampleSet(samples=row, seed=seed, digest=model_digest(mz))
            for row, mz in zip(mi, models)]


def run_mc(model: ChannelModel, samples: int, seed: int,
           start_index: int = 0) -> MiSampleSet:
    """Draw ``samples`` MI realizations with per-index substreams at the
    model's own zeta: the one-zeta case of ``run_mc_grid``."""
    return run_mc_grid(model, [model.zeta], samples, seed,
                       start_index=start_index)[0]


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


def empirical_outage(sample_set: MiSampleSet, rate_nats: float) -> float:
    """Fraction of samples strictly below the rate threshold."""
    idx = np.searchsorted(sample_set.sorted_samples, rate_nats, side="left")
    return idx / sample_set.count
