"""Monte-Carlo sampling of the channel and empirical MI statistics.

Reproducibility contract: sample i of a run with master seed s is drawn
from the Philox counter-based generator keyed by s with the fourth 64-bit
counter word set to i (every sample owns a disjoint counter range, so
parallel generation is order-independent and a run can be split across
processes by index range).  Complex Gaussians come from Box-Muller applied
to the generator's uniforms, which pins the exact sample values across
platforms.
"""

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel, check_zeta
from .normal import norm_cdf, norm_inv_cdf

_CHUNK = 512


def substream(seed: int, index: int) -> np.random.Generator:
    """Dedicated generator for one sample index under a master seed."""
    bitgen = np.random.Philox(key=np.uint64(seed),
                              counter=[0, 0, 0, np.uint64(index)])
    return np.random.Generator(bitgen)


def _gaussian_core(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """i.i.d. CN(0, 1/m) matrix via Box-Muller on the generator's uniforms."""
    u = rng.random(size=(2, n, m))
    amp = np.sqrt(-np.log1p(-u[0]) / m)       # 1 - u in (0, 1] avoids log(0)
    phase = 2.0 * np.pi * u[1]
    return amp * (np.cos(phase) + 1j * np.sin(phase))


def sample_channel(model: ChannelModel, rng: np.random.Generator) -> np.ndarray:
    """One realization H = A + Sigma^(o1/2) .* X with X i.i.d. CN(0, 1/M)."""
    n, m = model.dims
    return model.los + model.profile.sqrt_entries() * _gaussian_core(rng, n, m)


def compute_mi(h: np.ndarray, zeta: float) -> float:
    """Exact MI log det(I_d + zeta^{-1} G) in nats, d the smaller dimension.

    G is H^H H or H H^H, whichever is smaller (the determinant identity
    det(I+AB) = det(I+BA) makes them equal); the log-det goes through a
    Cholesky factorization of the explicitly Hermitian argument.
    """
    check_zeta(zeta)
    return float(_mi_batch(h[None, ...], zeta)[0])


def _mi_batch(hs: np.ndarray, zeta: float) -> np.ndarray:
    _, n, m = hs.shape
    if m <= n:
        g = np.conj(np.swapaxes(hs, 1, 2)) @ hs
    else:
        g = hs @ np.conj(np.swapaxes(hs, 1, 2))
    d = g.shape[-1]
    g = g / zeta
    g[..., range(d), range(d)] += 1.0
    g = 0.5 * (g + np.conj(np.swapaxes(g, 1, 2)))
    chol = np.linalg.cholesky(g)
    diag = np.real(chol[..., range(d), range(d)])
    return 2.0 * np.sum(np.log(diag), axis=-1)


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


def _num_threads() -> int:
    env = os.environ.get("HOLO_RMT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def run_mc(model: ChannelModel, samples: int, seed: int,
           start_index: int = 0, threads: int | None = None) -> MiSampleSet:
    """Draw ``samples`` MI realizations with per-index substreams.

    ``start_index`` offsets the substream indices so a run can be
    partitioned (indices [0, S/2) plus [S/2, S) reproduce one full run).
    Threads (default from HOLO_RMT_THREADS, else 1) parallelize over
    chunks; results land in index order, so the reduction is deterministic.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    n, m = model.dims
    zeta = model.zeta
    sqrt_sigma = model.profile.sqrt_entries()
    los = model.los
    out = np.empty(samples)

    def work(chunk_start):
        count = min(_CHUNK, samples - chunk_start)
        hs = np.empty((count, n, m), dtype=complex)
        for k in range(count):
            rng = substream(seed, start_index + chunk_start + k)
            hs[k] = los + sqrt_sigma * _gaussian_core(rng, n, m)
        out[chunk_start:chunk_start + count] = _mi_batch(hs, zeta)

    starts = range(0, samples, _CHUNK)
    nthreads = threads if threads is not None else _num_threads()
    if nthreads > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            list(pool.map(work, starts))
    else:
        for s in starts:
            work(s)
    return MiSampleSet(samples=out, seed=seed, digest=model_digest(model))


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
