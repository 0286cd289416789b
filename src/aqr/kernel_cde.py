"""Kernel conditional-distribution estimation on a scalar conditioner.

The conditioner is either a raw covariate (p = 1) or the single index X.beta.
Estimates are Nadaraya-Watson ratios with a Gaussian kernel, so denominators
never vanish. Every canonical kernel sum is accumulated with compensated
summation, shard by shard in ascending worker-label order: a multi-shard
computation that exchanges per-shard partial sums reproduces the
single-machine numbers bit for bit because both run the identical reduction.

A whole curve walks the rows once in y order and keeps each shard's running
sum exactly, as the non-overlapping partials that math.fsum itself builds
(Shewchuk 1997), so every level is the real number the masked compensated sum
rounds. Bandwidth cross-validation sorts the rows by y, which turns the
indicator matrix into a staircase: the kernel-weighted CDF of a block of rows
is a cumulative sum along each row, and memory stays O(block * n).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, EmptyGrid, KernelUnderflow, ShapeMismatch)

SQRT_2PI = math.sqrt(2.0 * math.pi)
# rows per kernel block in cv_bandwidth; a block holds a few block x n arrays
_CV_BLOCK_ROWS = 128


def _phi(t):
    return np.exp(-0.5 * t * t) / SQRT_2PI


def _dphi(t):
    return -t * np.exp(-0.5 * t * t) / SQRT_2PI


@dataclass
class Dataset:
    """Observations (y_i, X_i) with an optional worker-shard label per row."""
    y: np.ndarray
    X: np.ndarray
    shard_of: np.ndarray = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        X = np.asarray(self.X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        self.X = X
        if self.y.ndim != 1:
            raise ShapeMismatch("y must be one-dimensional")
        if self.X.ndim != 2 or self.X.shape[0] != self.y.size:
            raise ShapeMismatch(
                f"X must be n x p with n = {self.y.size}, got {self.X.shape}")
        if self.y.size < 2:
            raise DomainError("need at least two observations")
        if self.X.shape[1] < 1:
            raise DomainError("need at least one covariate")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.X))):
            raise DomainError("observations must be finite")
        if self.shard_of is None:
            self.shard_of = np.zeros(self.y.size, dtype=int)
        else:
            self.shard_of = np.asarray(self.shard_of, dtype=int)
            if self.shard_of.shape != self.y.shape:
                raise ShapeMismatch("shard_of must have one label per row")

    @property
    def n(self):
        return self.y.size

    @property
    def p(self):
        return self.X.shape[1]

    def shard_labels(self):
        return np.unique(self.shard_of)

    def shard_slices(self):
        """Row indices per shard, ascending label: the canonical reduce order."""
        return [np.flatnonzero(self.shard_of == k) for k in self.shard_labels()]


@dataclass
class Bandwidth:
    """Kernel bandwidth with the rate exponent it was derived from."""
    h: float
    rate_exponent: float = 0.2

    def __post_init__(self):
        self.h = float(self.h)
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise DomainError(f"bandwidth must be positive, got {self.h!r}")


def _as_bandwidth(h):
    return h if isinstance(h, Bandwidth) else Bandwidth(h)


@dataclass
class StepCDF:
    """Right-continuous step function: level at a knot holds until the next."""
    knots: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        self.levels = np.asarray(self.levels, dtype=float)
        if self.knots.shape != self.levels.shape or self.knots.ndim != 1:
            raise ShapeMismatch("knots and levels must be equal-length vectors")
        if self.knots.size == 0:
            raise DomainError("a step CDF needs at least one knot")
        if np.any(np.diff(self.knots) <= 0.0):
            raise DomainError("knots must be strictly increasing")
        if np.any(np.diff(self.levels) < 0.0):
            raise DomainError("levels must be non-decreasing")
        if self.levels[0] < 0.0 or self.levels[-1] > 1.0:
            raise DomainError("levels must lie in [0, 1]")

    @property
    def mass_deficit(self):
        return 1.0 - float(self.levels[-1])

    def evaluate(self, y):
        y = np.asarray(y, dtype=float)
        idx = np.searchsorted(self.knots, y, side="right")
        padded = np.concatenate(([0.0], self.levels))
        out = padded[idx]
        return float(out) if out.ndim == 0 else out


def reduce_fsum(values, slices):
    """Compensated sum of `values` per shard slice, then across shards."""
    return math.fsum(math.fsum(values[idx]) for idx in slices)


def _kernel_weights(z, z0, h):
    return _phi((z - z0) / h) / h


def _conditioner(data, beta=None):
    if beta is None:
        if data.p != 1:
            raise DomainError(
                "raw-covariate estimation needs p = 1; pass beta for an index")
        return data.X[:, 0], None
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.p,):
        raise ShapeMismatch(f"beta must have length {data.p}, got {beta.shape}")
    return data.X @ beta, beta


def cde_eval(data, h, x0, y0):
    """F-hat(y0 | x0): indicator-weighted kernel ratio, in [0, 1]."""
    h = _as_bandwidth(h)
    z, _ = _conditioner(data)
    w = _kernel_weights(z, float(x0), h.h)
    if not np.any(w >= 1e-300):
        raise KernelUnderflow(
            f"all kernel weights vanished at x0={x0!r} with h={h.h}")
    slices = data.shard_slices()
    den = reduce_fsum(w, slices)
    num = math.fsum(math.fsum(w[idx][data.y[idx] <= y0]) for idx in slices)
    return num / den


def _grow(partials, x):
    """Add x to the exact sum held as non-overlapping partials (math.fsum's
    algorithm): afterwards the partials still sum exactly to the total."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def cde_curve(data, h, x0):
    """F-hat(. | x0) evaluated at every distinct y, as a StepCDF.

    One pass over the rows in y order grows each shard's exact running sum;
    at a knot, a level is the compensated sum of the rounded shard sums in
    ascending label order over the same denominator. Those are the numbers
    cde_eval's masked sums produce, so the two agree exactly at the knots,
    and the top level is exactly 1.
    """
    h = _as_bandwidth(h)
    z, _ = _conditioner(data)
    w = _kernel_weights(z, float(x0), h.h)
    if not np.any(w >= 1e-300):
        raise KernelUnderflow(
            f"all kernel weights vanished at x0={x0!r} with h={h.h}")
    den = reduce_fsum(w, data.shard_slices())
    labels, shard = np.unique(data.shard_of, return_inverse=True)
    order = np.argsort(data.y, kind="stable")
    y = data.y[order]
    knots = np.unique(y)
    ends = np.searchsorted(y, knots, side="right").tolist()
    w, shard = w[order].tolist(), shard[order].tolist()
    partials = [[] for _ in labels]
    sums = [0.0] * len(labels)
    levels = np.empty(knots.size)
    start = 0
    for j, end in enumerate(ends):
        for i in range(start, end):
            k = shard[i]
            _grow(partials[k], w[i])
            sums[k] = math.fsum(partials[k])
        levels[j] = math.fsum(sums) / den
        start = end
    return StepCDF(knots=knots, levels=levels)


def index_cde_eval(data, beta, h, x0, y0):
    """F-hat(y0 | x0.beta) on the projected data."""
    h = _as_bandwidth(h)
    z, beta = _conditioner(data, beta)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (data.p,):
        raise ShapeMismatch(f"x0 must have length {data.p}, got {x0.shape}")
    proj = Dataset(data.y, z[:, None], shard_of=data.shard_of)
    return cde_eval(proj, h, float(x0 @ beta), y0)


def index_cde_grad(data, beta, h, x0, y0):
    """Gradient in beta of index_cde_eval: S3/S2 - S1*S4/S2^2."""
    h = _as_bandwidth(h)
    z, beta = _conditioner(data, beta)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (data.p,):
        raise ShapeMismatch(f"x0 must have length {data.p}, got {x0.shape}")
    t = (z - float(x0 @ beta)) / h.h
    w = _phi(t) / h.h
    if not np.any(w >= 1e-300):
        raise KernelUnderflow(
            f"all kernel weights vanished at x0.beta with h={h.h}")
    dw = _dphi(t) / (h.h * h.h)
    Xc = data.X - x0
    slices = data.shard_slices()
    mask = data.y <= y0
    s1 = math.fsum(math.fsum(w[idx][mask[idx]]) for idx in slices)
    s2 = reduce_fsum(w, slices)
    grad = np.empty(data.p)
    for m in range(data.p):
        col = dw * Xc[:, m]
        s4 = reduce_fsum(col, slices)
        s3 = math.fsum(math.fsum(col[idx][mask[idx]]) for idx in slices)
        grad[m] = s3 / s2 - s1 * s4 / (s2 * s2)
    return grad


def rule_bandwidth(values, rate_exponent=0.2):
    """Scale-times-rate default: std(values) * n^(-rate_exponent)."""
    values = np.asarray(values, dtype=float)
    scale = float(np.std(values))
    if scale <= 0.0:
        raise DomainError("conditioning values are constant; no scale")
    return Bandwidth(scale * values.size ** (-rate_exponent), rate_exponent)


def default_bandwidth_grid(values, size=12):
    """Log-spaced grid spanning [c/2, 2c] around the rule-of-thumb c."""
    c = rule_bandwidth(values).h
    return [Bandwidth(h) for h in np.geomspace(0.5 * c, 2.0 * c, size)]


def cv_bandwidth(data, beta=None, grid=None):
    """Pick the grid bandwidth minimizing the leave-one-out CDE loss.

    CV(h) = n^-2 sum_i sum_l {I(Y_i <= Y_l) - F-hat_{-i}(Y_l | x_i)}^2,
    the leave-one-out form of the squared-distribution loss the index
    estimator minimizes. Ties resolve to the smallest h, and a bandwidth
    whose leave-one-out weights vanish for some row is skipped.

    The rows are sorted by y once, so I(Y_j <= Y_l) holds exactly for the
    sorted positions j up to the last one tied with Y_l. Blocks of rows then
    take the numerator of every F-hat_{-i}(Y_l) from a cumulative sum of
    their kernel weights, and a run of tied Y_l is scored once, weighted by
    its length: O(n^2) work per bandwidth and O(block * n) memory.
    """
    z, _ = _conditioner(data, beta)
    if grid is None:
        grid = default_bandwidth_grid(z)
    grid = [_as_bandwidth(h) for h in grid]
    if len(grid) == 0:
        raise EmptyGrid("bandwidth grid is empty")
    grid = sorted(grid, key=lambda b: b.h)
    order = np.argsort(data.y, kind="stable")
    y, z = data.y[order], z[order]
    n = y.size
    # sorted position of the last row in each run of tied y, and run lengths
    ends = np.flatnonzero(np.diff(y, append=math.inf))
    count = np.diff(ends, prepend=-1).astype(float)
    ties = ends.size < n
    totals = np.zeros(len(grid))
    for start in range(0, n, _CV_BLOCK_ROWS):
        rows = np.arange(start, min(start + _CV_BLOCK_ROWS, n))
        diff = z[None, :] - z[rows, None]
        ind = rows[:, None] <= ends[None, :]
        w = np.empty_like(diff)
        for g, bw in enumerate(grid):
            if math.isnan(totals[g]):
                continue
            # _phi(diff / h) / h, computed in place: the same weights
            np.divide(diff, bw.h, out=w)
            np.multiply(w, w, out=w)
            w *= -0.5
            np.exp(w, out=w)
            w /= SQRT_2PI
            w /= bw.h
            w[rows - start, rows] = 0.0
            np.cumsum(w, axis=1, out=w)
            s2 = w[:, -1:].copy()
            if not np.all(s2 > 0.0):
                totals[g] = math.nan
                continue
            # rows tied in y share one column value: read each run once
            err = w[:, ends] if ties else w
            err /= s2
            err -= ind
            np.square(err, out=err)
            totals[g] += float(np.sum(err @ count))
    best = None
    best_score = math.inf
    for bw, score in zip(grid, totals.tolist()):
        if math.isfinite(score) and score < best_score:
            best = bw
            best_score = score
    if best is None:
        raise KernelUnderflow(
            "every grid bandwidth produced a degenerate leave-one-out fit")
    return best
