"""Similarity search and segmentation-driven sampling curves.

``mass`` computes z-normalized Euclidean distance profiles through
frequency-domain correlation.  ``matrix_profile_index`` finds, for every
subsequence, the start of its nearest non-trivial neighbor; it is
``extend_profile`` started from an empty index, and ``extend_profile`` grows
the index of a prefix by the windows appended since (STAMPI, FLOSS), each
block of new windows correlated with all windows by one GEMM.  Arcs from each
subsequence to its neighbor rarely cross a regime boundary, so the corrected
arc count dips at change points.  A ``SamplingCurve`` holds the per-channel
neighbour indices of one or more series; its curve, derived when first
read, sums the per-channel arc counts, enforces a non-decreasing profile by
a reverse running-minimum pass, and normalizes to a sampling distribution
that favors the newest regime.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import require

logger = logging.getLogger(__name__)

# A subsequence whose std is this small (relative to its mean level) cannot be
# z-normalized; by convention its distance to anything is sqrt(2m).
DEGENERATE_REL_STD = 1e-12

# New windows per block of correlations in ``extend_profile``: a block holds
# MP_CHUNK x L doubles, L the number of windows.
MP_CHUNK = 128


@dataclass(frozen=True)
class DistanceProfile:
    distances: np.ndarray
    degenerate: np.ndarray  # True where the series subsequence was constant

    def __post_init__(self) -> None:
        require(np.all(self.distances >= 0), "distances must be non-negative")


@dataclass(frozen=True)
class MatrixProfileIndex:
    nn_index: np.ndarray
    exclusion_radius: int
    degenerate: np.ndarray

    def __post_init__(self) -> None:
        idx = np.arange(len(self.nn_index))
        require(np.all(np.abs(idx - self.nn_index) > self.exclusion_radius),
                "nearest neighbours must lie outside the exclusion zone")


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
    corr = qt / (m * q_sig * safe_sig)
    corr = np.clip(corr, -1.0, 1.0)
    dist = np.sqrt(2 * m * (1.0 - corr))
    dist[degenerate] = math.sqrt(2 * m)
    return DistanceProfile(distances=dist, degenerate=degenerate)


def _unit_windows(series: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every length-m window, centred and scaled to unit norm, as a column.

    Returns the (m, L) array whose column j is window j and the degeneracy
    flags.  Mean and norm come from the window's own values, in two passes,
    so a window's column does not depend on the rest of the series.  A
    degenerate window (exactly flat, or with a std negligible relative to
    its level) gets a zero column: its correlation with anything is 0.
    """
    cols = np.lib.stride_tricks.sliding_window_view(series, len(series) - m + 1)
    mu = cols.sum(axis=0) / m
    z = cols - mu
    norm = np.sqrt(np.einsum("kj,kj->j", z, z))
    steps = np.concatenate(([0], np.cumsum(series[1:] != series[:-1])))
    flat = steps[m - 1 :] == steps[: len(norm)]
    degenerate = flat | (norm <= DEGENERATE_REL_STD * math.sqrt(m) * np.maximum(1.0, np.abs(mu)))
    with np.errstate(divide="ignore"):
        z *= np.where(degenerate, 0.0, 1.0 / norm)
    return z, degenerate


def extend_profile(
    nn: np.ndarray, series: np.ndarray, m: int, radius: int
) -> MatrixProfileIndex:
    """Nearest non-trivial neighbour of every length-m window of ``series``.

    ``nn`` is this function's index of a prefix of ``series`` (empty for
    none; an index longer than the series is ignored).  Only the windows
    after the prefix are compared with the rest, MP_CHUNK rows of
    correlations at a time, so a day of new windows costs O(24 L m).  An
    earlier window takes a new neighbour only when that one is strictly
    more correlated than its incumbent, whose correlation is recomputed
    here, so ties keep the smallest index, as in a scan from scratch.
    """
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    # the middle window needs a neighbour more than ``radius`` windows away
    shortest = max(2 * m, m + 2 * radius + 1)
    if n < shortest:
        raise ValueError(
            f"series length {n} must be at least {shortest} for m = {m} and exclusion "
            f"radius {radius}, so that every window has a neighbour outside its zone"
        )
    length = n - m + 1
    z, degenerate = _unit_windows(series, m)
    done = len(nn) if len(nn) <= length else 0
    out = np.empty(length, dtype=np.int32)
    out[:done] = nn[:done]
    if done and not 0 <= out[:done].min() <= out[:done].max() < done:
        raise ValueError("a prefix's neighbour index must point inside the prefix")
    best = np.empty(length)
    best[:done] = np.einsum("kj,kj->j", z[:, :done], np.take(z, out[:done], axis=1))
    np.minimum(best, 1.0, out=best)
    rows = min(MP_CHUNK, length - done)
    block = np.empty(rows * length)
    # trivial[r, k]: window lo + r matches window lo - radius + k trivially
    trivial = np.tri(rows, rows + radius, 2 * radius, dtype=bool)
    trivial &= ~np.tri(rows, rows + radius, -1, dtype=bool)
    for lo in range(done, length, MP_CHUNK):
        hi = min(lo + MP_CHUNK, length)
        corr = np.matmul(z[:, lo:hi].T, z[:, :hi], out=block[: (hi - lo) * hi].reshape(-1, hi))
        np.minimum(corr, 1.0, out=corr)
        first = max(0, lo - radius)
        np.copyto(corr[:, first:], -np.inf,
                  where=trivial[: hi - lo, first - lo + radius : hi - lo + radius])
        out[lo:hi] = corr.argmax(axis=1)
        best[lo:hi] = corr[np.arange(hi - lo), out[lo:hi]]
        if lo:
            top = corr[:, :lo].max(axis=0)
            won = np.flatnonzero(top > best[:lo])
            out[won] = lo + corr[:, won].argmax(axis=0)
            best[won] = top[won]
    return MatrixProfileIndex(nn_index=out, exclusion_radius=radius, degenerate=degenerate)


def matrix_profile_index(
    series: np.ndarray, m: int, exclusion_radius: int | None = None
) -> MatrixProfileIndex:
    """Nearest non-trivial neighbor of every length-m subsequence.

    Neighbors within ``exclusion_radius`` (default ceil(m/2)) are ignored as
    trivial self-matches.  Ties break toward the smallest index.  Any pair
    involving a constant subsequence gets the sqrt(2m) convention distance.
    """
    if exclusion_radius is None:
        exclusion_radius = math.ceil(m / 2)
    return extend_profile(np.empty(0, dtype=np.int32), series, m, exclusion_radius)


def channel_index(
    series: np.ndarray, m: int, nn: np.ndarray | None = None
) -> np.ndarray:
    """(..., channels, L) int32 neighbour index of every channel of ``series``.

    ``series`` is (..., time, channels), a leading axis per series (an
    entity), or 1-D for one channel.  ``nn`` is this function's result on a
    prefix of ``series``, or None; each of its rows is extended.  A constant
    channel is skipped and gets a row of -1; a channel that was skipped on
    the prefix is built from scratch.  The curve of an index whose rows are
    all -1 is flat.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim == 1:
        series = series[:, None]
    *lead, tau, d = series.shape
    if nn is not None and nn.shape[:-1] != (*lead, d):
        raise ValueError(
            f"index of shape {nn.shape} does not fit series of shape {series.shape}"
        )
    out = np.full((*lead, d, tau - m + 1), -1, dtype=np.int32)
    for *e, j in np.ndindex(*lead, d):
        col = series[(*e, slice(None), j)]
        if col.std() <= DEGENERATE_REL_STD * max(1.0, abs(col.mean())):
            logger.warning("segmentation: skipping constant channel %d of series %s",
                           j, tuple(e))
        elif nn is None or nn[(*e, j, 0)] < 0:
            out[(*e, j)] = matrix_profile_index(col, m).nn_index
        else:
            out[(*e, j)] = extend_profile(nn[(*e, j)], col, m, math.ceil(m / 2)).nn_index
    if (out[..., 0] < 0).all(axis=-1).any():
        logger.warning("segmentation: all channels of a series constant, using a flat curve")
    return out


def _arc_counts(nn: np.ndarray, m: int) -> np.ndarray:
    """Corrected arc counts of the (R, L) neighbour indices, one row each.

    The arc for subsequence ``i`` spans (min(i, nn[i]), max(i, nn[i])) and
    counts toward every position strictly inside.  Crossings are divided by
    the expected parabola and capped at 1; the first and last m positions
    are forced to 1.0.
    """
    rows, length = nn.shape
    stride = length + 1
    pos = np.arange(length)
    # arc i adds 1 at lo+1 and -1 at hi of its row's stretch of the histogram
    lo = np.minimum(pos, nn)
    hi = np.maximum(pos, nn)
    base = np.arange(0, rows * stride, stride)[:, None]
    lo += base + 1
    hi += base
    diff = np.bincount(lo.ravel(), minlength=rows * stride)
    diff -= np.bincount(hi.ravel(), minlength=rows * stride)
    crossings = np.cumsum(diff.reshape(rows, stride)[:, :length], axis=1)

    cac = np.ones((rows, length))
    interior = slice(m, max(length - m, m))
    t = pos[interior]
    expected = 2.0 * t * (length - t) / length  # > 0: the interior skips both ends
    np.divide(crossings[:, interior], expected, out=cac[:, interior])
    np.minimum(cac, 1.0, out=cac)
    require(0.0 <= cac.min() <= cac.max() <= 1.0, "cac must lie in [0, 1]")
    return cac


@dataclass(frozen=True)
class SamplingCurve:
    """Segmentation of one or more series: the neighbour index it is derived from.

    ``nn_index`` is (..., channels, L) as ``channel_index`` gives it and
    ``m`` its window length.  ``arc_sum`` and ``p`` are (..., L), one row per
    series.  ``p`` is derived on first read and kept; ``arc_sum`` is derived
    on every read, so a kept segmentation holds no second (..., L) array.
    """

    nn_index: np.ndarray
    m: int

    def __post_init__(self) -> None:
        length = self.nn_index.shape[-1]
        if self.nn_index.size and not -1 <= self.nn_index.min() <= self.nn_index.max() < length:
            raise ValueError(f"neighbour index outside -1..{length - 1}")

    @property
    def arc_sum(self) -> np.ndarray:
        """Per-channel corrected arc counts summed.

        Rows of -1 (skipped channels) add nothing; where every channel of a
        series was skipped its sum is 1 everywhere.
        """
        nn = self.nn_index
        *lead, d, length = nn.shape
        cac = _arc_counts(nn.reshape(-1, length), self.m).reshape(*lead, d, length)
        used = nn[..., 0] >= 0
        cac[~used] = 0.0
        total = cac[..., 0, :].copy()
        for j in range(1, d):
            total += cac[..., j, :]
        total[~used.any(axis=-1)] = 1.0
        return total

    @cached_property
    def p(self) -> np.ndarray:
        """Sampling probability per subsequence start, favoring the newest regime.

        ``arc_sum`` is replaced by its suffix minimum (a reverse scan
        clamping any earlier value down to the smallest value seen after
        it), and the result is normalized to sum 1.
        """
        total = self.arc_sum
        clamped = np.minimum.accumulate(total[..., ::-1], axis=-1)[..., ::-1]
        s = clamped.sum(axis=-1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = clamped / s
        p[(s <= 0)[..., 0]] = 1.0 / total.shape[-1]
        require(p.min() >= 0, "curve probabilities must be non-negative")
        require(np.all(np.abs(p.sum(axis=-1) - 1.0) <= 1e-9),
                "curve probabilities must sum to 1")
        require(np.diff(p).min(initial=0.0) >= -1e-15, "curve must be non-decreasing")
        return p


def fluss_probability(
    series: np.ndarray, m: int, nn: np.ndarray | None = None
) -> SamplingCurve:
    """The segmentation of ``series``, (..., time, channels), by windows of length m.

    ``nn`` is the ``nn_index`` of this function's curve over a prefix of
    ``series``; the profile is extended from it rather than built again.
    """
    return SamplingCurve(channel_index(series, m, nn), m)
