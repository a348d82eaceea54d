"""Similarity search and segmentation-driven sampling curves.

``mass`` computes z-normalized Euclidean distance profiles through
frequency-domain correlation.  ``matrix_profile_index`` finds, for every
subsequence, the start of its nearest non-trivial neighbor.  Arcs from each
subsequence to its neighbor rarely cross a regime boundary, so the corrected
arc count dips at change points; the final probability curve sums per-channel
arc counts, enforces a non-decreasing profile by a reverse running-minimum
pass, and normalizes to a sampling distribution that favors the newest
regime.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import require

logger = logging.getLogger(__name__)

# A subsequence whose std is this small (relative to its mean level) cannot be
# z-normalized; by convention its distance to anything is sqrt(2m).
DEGENERATE_REL_STD = 1e-12


@dataclass(frozen=True)
class DistanceProfile:
    distances: np.ndarray
    query_length: int
    degenerate: np.ndarray  # True where the series subsequence was constant

    def __post_init__(self) -> None:
        require(np.all(self.distances >= 0), "distances must be non-negative")


@dataclass(frozen=True)
class MatrixProfileIndex:
    nn_index: np.ndarray
    m: int
    exclusion_radius: int
    degenerate: np.ndarray

    def __post_init__(self) -> None:
        idx = np.arange(len(self.nn_index))
        require(np.all(np.abs(idx - self.nn_index) > self.exclusion_radius),
                "nearest neighbours must lie outside the exclusion zone")


@dataclass(frozen=True)
class ArcCountCurve:
    cac: np.ndarray

    def __post_init__(self) -> None:
        require(np.all((self.cac >= 0.0) & (self.cac <= 1.0)), "cac must lie in [0, 1]")


@dataclass(frozen=True)
class SamplingCurve:
    p: np.ndarray

    def __post_init__(self) -> None:
        require(np.all(self.p >= 0), "curve probabilities must be non-negative")
        require(abs(self.p.sum() - 1.0) <= 1e-9, "curve probabilities must sum to 1")
        require(np.all(np.diff(self.p) >= -1e-15), "curve must be non-decreasing")


def _window_stats(series: np.ndarray, m: int):
    """Rolling population mean/std of every length-m window, plus degeneracy.

    A window is degenerate when it is exactly constant (detected from its
    range, which is immune to cumulative-sum rounding) or when its std is
    negligible relative to its level.
    """
    n = len(series)
    csum = np.concatenate(([0.0], np.cumsum(series)))
    csq = np.concatenate(([0.0], np.cumsum(series * series)))
    mu = (csum[m:] - csum[:-m]) / m
    var = (csq[m:] - csq[:-m]) / m - mu * mu
    sig = np.sqrt(np.maximum(var, 0.0))
    windows = np.lib.stride_tricks.sliding_window_view(series, m)
    flat = windows.max(axis=1) == windows.min(axis=1)
    degenerate = flat | (sig <= DEGENERATE_REL_STD * np.maximum(1.0, np.abs(mu)))
    require(len(mu) == n - m + 1, "one window stat per subsequence")
    return mu, sig, degenerate


def _sliding_dot(query: np.ndarray, series: np.ndarray) -> np.ndarray:
    """dot(query, series[j:j+m]) for every j, via FFT correlation."""
    n, m = len(series), len(query)
    fs = np.fft.rfft(series, n)
    fq = np.fft.rfft(query, n)
    corr = np.fft.irfft(fs * np.conj(fq), n)
    return corr[: n - m + 1]


def mass(query: np.ndarray, series: np.ndarray) -> DistanceProfile:
    """Distance profile of ``query`` against every subsequence of ``series``.

    Distances are z-normalized Euclidean.  A constant subsequence of the
    series receives the maximal-distance convention sqrt(2m) and is flagged;
    a constant query is an error.
    """
    query = np.asarray(query, dtype=np.float64)
    series = np.asarray(series, dtype=np.float64)
    m, n = len(query), len(series)
    if m > n:
        raise ValueError(f"query length {m} exceeds series length {n}")
    q_mu, q_sig = query.mean(), query.std()
    if q_sig <= DEGENERATE_REL_STD * max(1.0, abs(q_mu)):
        raise ValueError("query has zero variance and cannot be z-normalized")
    center = series.mean()
    shifted = series - center
    mu, sig, degenerate = _window_stats(shifted, m)
    qt = _sliding_dot(query - q_mu, shifted)
    # dist^2 = 2m (1 - corr) with corr = (QT - m mu_q mu_x) / (m sig_q sig_x);
    # the query is already centered so the mu_q term vanishes.
    safe_sig = np.where(degenerate, 1.0, sig)
    corr = (qt - m * 0.0 * mu) / (m * q_sig * safe_sig)
    corr = np.clip(corr, -1.0, 1.0)
    dist = np.sqrt(2 * m * (1.0 - corr))
    dist[degenerate] = math.sqrt(2 * m)
    return DistanceProfile(distances=dist, query_length=m, degenerate=degenerate)


def matrix_profile_index(
    series: np.ndarray, m: int, exclusion_radius: int | None = None
) -> MatrixProfileIndex:
    """Nearest non-trivial neighbor of every length-m subsequence.

    Neighbors within ``exclusion_radius`` (default ceil(m/2)) are ignored as
    trivial self-matches.  Ties break toward the smallest index.  Any pair
    involving a constant subsequence gets the sqrt(2m) convention distance.
    """
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    if n < 2 * m:
        raise ValueError(f"series length {n} must be at least 2*m = {2 * m}")
    if exclusion_radius is None:
        exclusion_radius = math.ceil(m / 2)
    x = series - series.mean()
    mu, sig, degenerate = _window_stats(x, m)
    length = n - m + 1
    qt_first = _sliding_dot(x[:m], x)

    nn = np.empty(length, dtype=np.int64)
    qt = qt_first.copy()
    safe_sig = np.where(degenerate, 1.0, sig)
    head = x[: length - 1]
    tail = x[m : m + length - 1]
    for i in range(length):
        if i > 0:
            qt[1:] = qt[:-1] - head * x[i - 1] + tail * x[i + m - 1]
            qt[0] = qt_first[i]
        # The z-distance is 2m(1 - corr), so argmin(dist) == argmax(corr);
        # the convention distance sqrt(2m) corresponds to corr == 0.
        corr = (qt - (m * mu[i]) * mu) / ((m * safe_sig[i]) * safe_sig)
        np.clip(corr, -1.0, 1.0, out=corr)
        if degenerate[i]:
            corr[:] = 0.0
        else:
            corr[degenerate] = 0.0
        corr[max(0, i - exclusion_radius) : i + exclusion_radius + 1] = -np.inf
        nn[i] = int(np.argmax(corr))
    return MatrixProfileIndex(
        nn_index=nn, m=m, exclusion_radius=exclusion_radius, degenerate=degenerate
    )


def corrected_arc_count(mpi: MatrixProfileIndex) -> ArcCountCurve:
    """Arc crossings divided by the expected parabola, capped at 1.

    The arc for subsequence ``i`` spans (min(i, nn[i]), max(i, nn[i])) and
    counts toward every position strictly inside.  The first and last m
    positions are forced to 1.0.
    """
    nn = mpi.nn_index
    length = len(nn)
    lo = np.minimum(np.arange(length), nn)
    hi = np.maximum(np.arange(length), nn)
    diff = np.zeros(length + 1)
    np.add.at(diff, lo + 1, 1.0)
    np.add.at(diff, hi, -1.0)
    crossings = np.cumsum(diff)[:length]

    cac = np.ones(length)
    interior = slice(mpi.m, max(length - mpi.m, mpi.m))
    t = np.arange(length)[interior]
    expected = 2.0 * t * (length - t) / length
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(expected > 0, crossings[interior] / expected, 1.0)
    cac[interior] = np.minimum(ratio, 1.0)
    return ArcCountCurve(cac=cac)


def summed_arc_curve(series: np.ndarray, m: int) -> np.ndarray:
    """Sum of per-channel corrected arc counts; constant channels are skipped."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim == 1:
        series = series[:, None]
    tau, d = series.shape
    length = tau - m + 1
    total = np.zeros(length)
    used = 0
    for j in range(d):
        col = series[:, j]
        if col.std() <= DEGENERATE_REL_STD * max(1.0, abs(col.mean())):
            logger.warning("segmentation: skipping constant channel %d", j)
            continue
        mpi = matrix_profile_index(col, m)
        total += corrected_arc_count(mpi).cac
        used += 1
    if used == 0:
        logger.warning("segmentation: all channels constant, using a flat curve")
        total[:] = 1.0
    return total


def fluss_probability(series: np.ndarray, m: int) -> SamplingCurve:
    """Sampling probability per subsequence start, favoring the newest regime."""
    return curve_from_arc_sum(summed_arc_curve(series, m))


def curve_from_arc_sum(total: np.ndarray) -> SamplingCurve:
    """The sampling curve of a ``summed_arc_curve``.

    The sum is replaced by its suffix minimum (a reverse scan clamping any
    earlier value down to the smallest value seen after it), and the result
    is normalized to sum 1.
    """
    clamped = np.minimum.accumulate(total[::-1])[::-1]
    s = clamped.sum()
    if s <= 0:
        p = np.full(len(clamped), 1.0 / len(clamped))
    else:
        p = clamped / s
    return SamplingCurve(p=p)
