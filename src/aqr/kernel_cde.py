"""Kernel conditional-distribution estimation on a scalar conditioner.

The conditioner is either a raw covariate (p = 1) or the single index X.beta.
Estimates are Nadaraya-Watson ratios with a Gaussian kernel, so denominators
never vanish. Every canonical kernel sum is accumulated with compensated
summation, shard by shard in ascending worker-label order: a multi-shard
computation that exchanges per-shard partial sums reproduces the
single-machine numbers bit for bit because both run the identical reduction.

_YSorted owns the y order: it is the one place that sorts y, finds its tie
runs and cuts the rows into blocks. Sorted by y, the indicator matrix
I(y_l <= y_j) is a staircase, so the kernel-weighted CDF of a block of rows at
every y_j is a cumulative sum along each row, read at the last position of
each tie run, and memory stays O(block * n). Bandwidth cross-validation, the
average-estimate table and the single-index pair sums all run on its blocks,
each with its own per-block arithmetic. A whole curve walks the rows once in
its y order and keeps each shard's running sums exactly, as integer prefix
sums of the weights scaled by 2^1074, so every level is the real number the
masked compensated sum rounds.
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, EmptyGrid, KernelUnderflow, ShapeMismatch)

SQRT_2PI = math.sqrt(2.0 * math.pi)
# kernel cells (rows x n) per row block in cv_bandwidth, which holds a few
# such arrays per block: the fastest size measured at n = 500 to 4000
_CV_BLOCK_CELLS = 1 << 16
# kernel cells (evaluation rows x n) per row block elsewhere: 128 KiB per
# float array, which stays in cache and below malloc's default mmap
# threshold, so temporaries are not page-faulted in afresh on every block
_BLOCK_CELLS = 1 << 14
_ULP_SCALE = 1 << 1074


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
    """Scaled distances t = (z - z0)/h and weights phi(t)/h; raises
    KernelUnderflow when every weight vanishes."""
    t = (z - z0) / h
    w = _phi(t) / h
    if not np.any(w >= 1e-300):
        raise KernelUnderflow(
            f"all kernel weights vanished at z0={z0!r} with h={h}")
    return t, w


class _YSorted:
    """The observations in stable y order, with their tie runs.

    In this order I(y_l <= y_j) holds exactly for the sorted positions l up
    to `ends[r]`, the last position of the tie run r that holds y_j. A pair
    sum against the indicator is then a cumulative sum along the sorted rows
    read at the run ends, and a run of tied y is scored once, weighted by its
    length.
    """

    def __init__(self, y, z):
        self.order = np.argsort(y, kind="stable")
        y = y[self.order]
        self.z = z
        self.zs = z[self.order]
        self.rank = np.empty(y.size, dtype=int)
        self.rank[self.order] = np.arange(y.size)
        self.ends = np.flatnonzero(np.diff(y, append=math.inf))
        self.knots = y[self.ends]
        runs = np.diff(self.ends, prepend=-1)
        self.count = runs.astype(float)
        self.ties = self.ends.size < y.size
        # tie run of each sorted position
        self.run = np.repeat(np.arange(self.ends.size), runs)

    def blocks(self, idx, size=None):
        """The evaluation rows `idx` in consecutive blocks of `size` rows,
        by default _BLOCK_CELLS kernel cells."""
        if size is None:
            size = max(1, _BLOCK_CELLS // self.zs.size)
        return [idx[s:s + size] for s in range(0, idx.size, size)]

    def diff(self, rows):
        """z_l - z_i for the rows i against the sorted rows l."""
        return self.zs[None, :] - self.z[rows, None]

    def staircase(self, k):
        """Cumulative sums of k along the sorted rows, read at the last
        position of each tie run; the last column holds the row totals."""
        stairs = np.cumsum(k, axis=-1)
        return stairs[..., self.ends] if self.ties else stairs

    def indicator(self, rows):
        """I(y_i <= y_j) for the rows i against the tie runs j."""
        return self.rank[rows, None] <= self.ends[None, :]

    def runs(self, a):
        """Weight a per-run array by the run lengths."""
        return a * self.count if self.ties else a

    def reach(self, a):
        """sum_j a[:, j] I(y_l <= y_j) at every sorted row l: a reverse
        cumulative sum over the runs, read at each row's run."""
        tail = np.cumsum(a[:, ::-1], axis=1)[:, ::-1]
        return tail[:, self.run] if self.ties else tail


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
    w = _kernel_weights(z, float(x0), h.h)[1]
    slices = data.shard_slices()
    den = reduce_fsum(w, slices)
    num = math.fsum(math.fsum(w[idx][data.y[idx] <= y0]) for idx in slices)
    return num / den


def cde_curve(data, h, x0):
    """F-hat(. | x0) evaluated at every distinct y, as a StepCDF.

    Every double is an integer multiple of 2^-1074, so each weight scales to
    a Python int, and one pass over the rows in y order keeps each shard's
    running sums exactly as integer prefix sums. Dividing such a sum by
    2^1074 rounds it correctly, as math.fsum rounds the masked sum; at a
    knot, a level is the compensated sum of those shard sums in ascending
    label order over the same denominator. Those are the numbers cde_eval's
    masked sums produce, so the two agree exactly at the knots, and the top
    level is exactly 1.
    """
    h = _as_bandwidth(h)
    z, _ = _conditioner(data)
    w = _kernel_weights(z, float(x0), h.h)[1]
    labels, shard = np.unique(data.shard_of, return_inverse=True)
    ys = _YSorted(data.y, z)
    # w = mantissa * 2^(exponent - 1075) for a normal double, and
    # fraction * 2^-1074 for a subnormal one (biased exponent 0)
    bits = w[ys.order].view(np.uint64)
    biased = bits >> np.uint64(52)
    mantissa = ((bits & np.uint64((1 << 52) - 1))
                | ((biased > 0) << np.uint64(52)))
    shift = np.maximum(biased, np.uint64(1)) - np.uint64(1)
    scaled = list(map(operator.lshift, mantissa.tolist(), shift.tolist()))
    member = shard[ys.order] == np.arange(labels.size)[:, None]
    # rows of each shard up to each knot
    taken = ys.staircase(member)
    sums = []
    for k in range(labels.size):
        part = itertools.compress(scaled, member[k].tolist())
        prefix = [0.0] + [s / _ULP_SCALE for s in itertools.accumulate(part)]
        sums.append(np.array(prefix)[taken[k]].tolist())
    den = math.fsum(s[-1] for s in sums)
    levels = np.array(list(map(math.fsum, zip(*sums)))) / den
    return StepCDF(knots=ys.knots, levels=levels)


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
    t, w = _kernel_weights(z, float(x0 @ beta), h.h)
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


def _cv_scores(data, beta, grid):
    """n^2 CV(h) for each grid bandwidth, in grid order; nan where some
    row's leave-one-out weights vanish."""
    z, _ = _conditioner(data, beta)
    ys = _YSorted(data.y, z)
    count = ys.count
    # D_i = sum_j c_j I(y_i <= y_j) at each sorted row: no bandwidth in it
    above = ys.reach(count[None, :])[0]
    totals = np.zeros(len(grid))
    size = max(1, _CV_BLOCK_CELLS // data.n)
    for pos in ys.blocks(np.arange(data.n), size):
        sq = np.square(ys.diff(ys.order[pos]))
        # leave one out: a row's own weight is exp(-inf) = 0
        sq[np.arange(pos.size), pos] = math.inf
        nearest = sq.min(axis=1)
        sq -= nearest[:, None]
        w = np.empty_like(sq)
        # I(y_i <= y_j) is 0 for runs j < first and 1 for runs j >= last
        first, last = ys.run[pos[0]], ys.run[pos[-1]]
        band = (pos[:, None] <= ys.ends[None, first:last]) * count[first:last]
        tail = count[last:]
        for g, bw in enumerate(grid):
            if math.isnan(totals[g]):
                continue
            scale = -0.5 / (bw.h * bw.h)
            # each row's largest weight, _phi(d_i / h) / h
            if not np.all(np.exp(nearest * scale) / (SQRT_2PI * bw.h) > 0.0):
                totals[g] = math.nan
                continue
            np.multiply(sq, scale, out=w)
            np.exp(w, out=w)
            np.cumsum(w, axis=1, out=w)
            s2 = w[:, -1].copy()
            # rows tied in y share one column value: read each run once
            stairs = w[:, ys.ends] if ys.ties else w
            cross = (np.einsum("ij,ij->i", stairs[:, first:last], band)
                     + stairs[:, last:] @ tail)
            power = np.square(stairs, out=stairs) @ count
            totals[g] += float(np.sum(
                (power / s2 - 2.0 * cross) / s2 + above[pos]))
    return totals


def cv_bandwidth(data, beta=None, grid=None):
    """Pick the grid bandwidth minimizing the leave-one-out CDE loss.

    CV(h) = n^-2 sum_i sum_l {I(Y_i <= Y_l) - F-hat_{-i}(Y_l | x_i)}^2,
    the leave-one-out form of the squared-distribution loss the index
    estimator minimizes. Ties resolve to the smallest h, and a bandwidth
    whose leave-one-out weights vanish for some row is skipped.

    Blocks of rows, taken in y order, read the numerator C_il of every
    F-hat_{-i}(Y_l) = C_il / s2_i from the _YSorted staircase of their kernel
    weights, and a run of tied Y_l is scored once, weighted by its length
    c_l. Each row's loss is read in expanded form,
    sum_l c_l (C_il / s2_i - I_il)^2 = A_i / s2_i^2 - 2 B_i / s2_i + D_i,
    with A_i = sum_l c_l C_il^2, B_i = sum_l c_l C_il I_il, D_i =
    sum_l c_l I_il and I_il = I(Y_i <= Y_l). D_i is free of h. The block's
    rows are consecutive in y order, so I_il is 0 before the block's first
    tie run and 1 from its last on: B_i is a sum over that tail plus a band
    at most a block wide, and no indicator matrix is built.

    F-hat does not change when a row's weights are all scaled alike, so each
    row's weights are taken over its largest one, from the squared distances
    less the nearest one, which every bandwidth shares. Then s2_i >= 1, so
    a C_il^2 underflows only where it is negligible against A_i >= 1, and
    each bandwidth costs one scaled exp, one cumulative sum and the
    reductions for A_i and B_i. A row's weights vanish when its largest,
    _phi(d_i / h) / h at the nearest distance d_i, does. O(n^2) work per
    bandwidth and O(block * n) memory.
    """
    z, _ = _conditioner(data, beta)
    if grid is None:
        grid = default_bandwidth_grid(z)
    grid = [_as_bandwidth(h) for h in grid]
    if len(grid) == 0:
        raise EmptyGrid("bandwidth grid is empty")
    grid = sorted(grid, key=lambda b: b.h)
    best = None
    best_score = math.inf
    for bw, score in zip(grid, _cv_scores(data, beta, grid).tolist()):
        if math.isfinite(score) and score < best_score:
            best = bw
            best_score = score
    if best is None:
        raise KernelUnderflow(
            "every grid bandwidth produced a degenerate leave-one-out fit")
    return best
