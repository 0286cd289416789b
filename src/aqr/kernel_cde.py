"""Kernel conditional-distribution estimation on a scalar conditioner.

The conditioner is either a raw covariate (p = 1) or the single index X.beta.
Estimates are Nadaraya-Watson ratios with a Gaussian kernel, so denominators
never vanish. They sum over all rows at once; only the index criterion in
single_index folds by shard.

_YSorted owns the y order: it is the one place that sorts y, finds its tie
runs and cuts the rows into blocks. Sorted by y, the indicator matrix
I(y_l <= y_j) is a staircase, so the kernel-weighted CDF of a block of rows at
every y_j is a cumulative sum along each row, read at the last position of
each tie run, and memory stays O(block * n). Three paths compute that CDF,
each for its own use:

* _YSorted.kernel and levels: every row's CDF at every knot, for the
  average-estimate table and the single-index pair sums.
* cde_eval and cde_curve: the exact reference at an arbitrary probe, with
  phi(t)/h weights. A curve keeps its running sums exactly, as integer
  prefix sums of the weights scaled by 2^1074, so every level is the real
  number the masked compensated sum rounds.
* _cv_scores: leave-one-out, with each row's weights shifted by its nearest
  distance so that every bandwidth shares the squared distances; a
  bandwidth stops once its running total over the blocks exceeds a
  completed total by more than rounding can take back.
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, EmptyGrid, KernelUnderflow, ShapeMismatch,
                     _count)

SQRT_2PI = math.sqrt(2.0 * math.pi)
# kernel cells (rows x n) per row block in cv_bandwidth: 512 KiB per float
# array, in one workspace per call. Of 1 << 14 ... 1 << 18, the fastest for
# sim1's nine CV calls at n = 1000 (0.46, 0.42, 0.38, 0.42, 0.48 s)
_CV_BLOCK_CELLS = 1 << 16
# kernel cells (evaluation rows x n) per row block elsewhere: 128 KiB per
# float array, which stays in cache. That is glibc's default mmap threshold,
# not below it, but the first such array freed raises the threshold past it
# and the trim threshold to twice that, so the few temporaries a block holds
# come back from the heap rather than being page-faulted in afresh (five
# held at once would be)
_BLOCK_CELLS = 1 << 14
# per row still to score, times n (n + 4): what rounding can take off a CV
# running total before it completes (derived in cv_bandwidth)
_CV_ROW_SLACK = 16 * 2.0**-53
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


def _bandwidth(h):
    """Return h as a positive finite float, or raise DomainError."""
    v = float(h)
    if not (math.isfinite(v) and v > 0.0):
        raise DomainError(f"bandwidth must be positive, got {v!r}")
    return v


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
        if not (np.all(np.isfinite(self.knots))
                and np.all(np.isfinite(self.levels))):
            raise DomainError("knots and levels must be finite")
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
        if np.isnan(y).any():
            raise DomainError("a step CDF has no value at nan")
        idx = np.searchsorted(self.knots, y, side="right")
        padded = np.concatenate(([0.0], self.levels))
        out = padded[idx]
        return float(out) if out.ndim == 0 else out


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

    def blocks(self, idx, size=None, depth=1):
        """The evaluation rows `idx` in consecutive blocks of `size` rows,
        by default _BLOCK_CELLS cells of a (depth, rows, n) array."""
        if size is None:
            size = max(1, _BLOCK_CELLS // (depth * self.zs.size))
        return [idx[s:s + size] for s in range(0, idx.size, size)]

    def diff(self, rows, out=None):
        """z_l - z_i for the rows i against the sorted rows l."""
        return np.subtract(self.zs[None, :], self.z[rows, None], out=out)

    def kernel(self, rows, h):
        """u = (z_l - z_i)/h for the rows i against the sorted rows l, and
        exp(-u^2/2), the weight phi(u)/h times sqrt(2 pi) h."""
        u = self.diff(rows) / h
        return u, np.exp(-0.5 * u * u)

    def all_isolated(self, h):
        """Whether every row's only positive kernel weight at bandwidth h is
        its own: exp(-u^2/2) underflows to 0 across every gap between
        neighbours in sorted z. Each row's CDF is then its own indicator,
        and every pair residual is 0. O(n log n)."""
        with np.errstate(over="ignore"):
            u = np.diff(np.sort(self.z)) / h
            return bool(np.all(np.exp(-0.5 * u * u) == 0.0))

    def staircase(self, k):
        """Cumulative sums of k along the sorted rows, read at the last
        position of each tie run; the last column holds the row totals."""
        stairs = np.cumsum(k, axis=-1)
        return stairs[..., self.ends] if self.ties else stairs

    def levels(self, e):
        """The staircase num of weights e, row totals s2 and levels num/s2."""
        num = self.staircase(e)
        s2 = num[:, -1]
        return num, s2, num / s2[:, None]

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


def _x0(x0, p=None):
    """The probe x0 as a float, or as a vector of length p; a probe that is
    not finite raises DomainError rather than vanishing kernel weights."""
    if p is None:
        x0 = float(x0)
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (p,):
            raise ShapeMismatch(f"x0 must have length {p}, got {x0.shape}")
    if not np.isfinite(x0).all():
        raise DomainError(f"x0 must be finite, got {x0!r}")
    return x0


def _y0(y0):
    """The level probe y0 as a float: -inf and inf are fine, where F-hat is
    0 and 1, and nan raises DomainError."""
    y0 = float(y0)
    if math.isnan(y0):
        raise DomainError("y0 must be a number, got nan")
    return y0


def cde_eval(data, h, x0, y0):
    """F-hat(y0 | x0): indicator-weighted kernel ratio, in [0, 1]."""
    h = _bandwidth(h)
    z, _ = _conditioner(data)
    y0 = _y0(y0)
    w = _kernel_weights(z, _x0(x0), h)[1]
    return math.fsum(w[data.y <= y0]) / math.fsum(w)


def cde_curve(data, h, x0):
    """F-hat(. | x0) evaluated at every distinct y, as a StepCDF.

    Every double is an integer multiple of 2^-1074, so each weight scales to
    a Python int, and one pass over the rows in y order keeps the running
    sums exactly as integer prefix sums. Dividing such a sum by 2^1074
    rounds it correctly, as math.fsum rounds the masked sum, and a level is
    the prefix at its knot over the total. Those are the numbers cde_eval's
    masked sums produce, so the two agree exactly at the knots, and the top
    level is exactly 1.
    """
    h = _bandwidth(h)
    z, _ = _conditioner(data)
    w = _kernel_weights(z, _x0(x0), h)[1]
    ys = _YSorted(data.y, z)
    # w = mantissa * 2^(exponent - 1075) for a normal double, and
    # fraction * 2^-1074 for a subnormal one (biased exponent 0)
    bits = w[ys.order].view(np.uint64)
    biased = bits >> np.uint64(52)
    mantissa = ((bits & np.uint64((1 << 52) - 1))
                | ((biased > 0) << np.uint64(52)))
    shift = np.maximum(biased, np.uint64(1)) - np.uint64(1)
    scaled = map(operator.lshift, mantissa.tolist(), shift.tolist())
    prefix = np.array([s / _ULP_SCALE for s in itertools.accumulate(scaled)])
    return StepCDF(knots=ys.knots, levels=prefix[ys.ends] / prefix[-1])


def index_cde_eval(data, beta, h, x0, y0):
    """F-hat(y0 | x0.beta) on the projected data."""
    h = _bandwidth(h)
    z, beta = _conditioner(data, beta)
    x0 = _x0(x0, data.p)
    proj = Dataset(data.y, z[:, None])
    return cde_eval(proj, h, float(x0 @ beta), y0)


def index_cde_grad(data, beta, h, x0, y0):
    """Gradient in beta of index_cde_eval: S3/S2 - S1*S4/S2^2."""
    h = _bandwidth(h)
    z, beta = _conditioner(data, beta)
    x0 = _x0(x0, data.p)
    y0 = _y0(y0)
    t, w = _kernel_weights(z, float(x0 @ beta), h)
    dw = _dphi(t) / (h * h)
    Xc = data.X - x0
    mask = data.y <= y0
    s1 = math.fsum(w[mask])
    s2 = math.fsum(w)
    grad = np.empty(data.p)
    for m in range(data.p):
        col = dw * Xc[:, m]
        s3 = math.fsum(col[mask])
        s4 = math.fsum(col)
        grad[m] = s3 / s2 - s1 * s4 / (s2 * s2)
    return grad


def rule_bandwidth(values, rate_exponent=0.2):
    """Scale-times-rate default: std(values) * n^(-rate_exponent)."""
    values = np.asarray(values, dtype=float)
    scale = float(np.std(values))
    if scale <= 0.0:
        raise DomainError("conditioning values are constant; no scale")
    return _bandwidth(scale * values.size ** (-rate_exponent))


def default_bandwidth_grid(values, size=12):
    """Log-spaced grid spanning [c/2, 2c] around the rule-of-thumb c; its
    size is a count of at least 1."""
    size = _count(size, 1, "a bandwidth grid needs at least one entry, "
                  "counted by an int; got size")
    c = rule_bandwidth(values)
    return [_bandwidth(h) for h in np.geomspace(0.5 * c, 2.0 * c, size)]


def _cv_scores(data, grid):
    """n^2 CV(h) for each grid bandwidth, in grid order: nan where some
    row's leave-one-out weights vanish, and inf where the bandwidth was
    stopped because it cannot be the pick (see cv_bandwidth)."""
    z, _ = _conditioner(data)
    n = data.n
    ys = _YSorted(data.y, z)
    count = ys.count
    # D_i = sum_j c_j I(y_i <= y_j) at each sorted row: no bandwidth in it
    above = ys.reach(count[None, :])[0]
    # each row's squared distance to its nearest other row, at each sorted
    # row: rounding keeps z_l - z_i monotone in z_l, so the nearest is a
    # neighbour in z order, and the value is the one the blocks' own
    # squared distances hold
    by_z = np.argsort(z, kind="stable")
    gap = np.square(np.diff(z[by_z]))
    nearest = np.empty(n)
    nearest[by_z] = np.minimum(np.append(gap, math.inf),
                               np.insert(gap, 0, math.inf))
    nearest = nearest[ys.order]

    totals = np.full(len(grid), math.nan)
    # one workspace per call, sized to the largest block (see cv_bandwidth),
    # in one allocation rather than two: freed, it lifts glibc's dynamic mmap
    # and trim thresholds far enough that the row blocks of the calls that
    # follow (airquality's average estimates) do not page-fault either
    rows = min(n, max(1, _CV_BLOCK_CELLS // n))
    sq_buf, w_buf = np.empty((2, rows, n))

    def add(pos, members):
        """Add the block of sorted rows pos to the running totals of the
        grid entries `members`, which share its squared distances."""
        sq, w = sq_buf[:pos.size], w_buf[:pos.size]
        np.square(ys.diff(ys.order[pos], out=sq), out=sq)
        # leave one out: a row's own weight is exp(-inf) = 0
        sq[np.arange(pos.size), pos] = math.inf
        sq -= nearest[pos, None]
        # I(y_i <= y_j) is 0 for runs j < first and 1 for runs j >= last
        first, last = ys.run[pos[0]], ys.run[pos[-1]]
        band = (pos[:, None] <= ys.ends[None, first:last]) * count[first:last]
        tail = count[last:]
        for g in members:
            np.multiply(sq, -0.5 / (grid[g] * grid[g]), out=w)
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

    # each row's largest weight, _phi(d_i / h) / h, must not vanish
    live = [g for g, h in enumerate(grid)
            if np.all(np.exp(nearest * (-0.5 / (h * h))) / (SQRT_2PI * h)
                      > 0.0)]
    if not live:
        return totals
    totals[live] = 0.0
    blocks = ys.blocks(np.arange(n), rows)
    add(blocks[0], live)
    lead = min(live, key=lambda g: (totals[g], grid[g]))
    for pos in blocks[1:]:
        add(pos, [lead])
    racing = [g for g in live if g != lead]
    left = n - blocks[0].size
    for pos in blocks[1:]:
        bound = totals[lead] + left * _CV_ROW_SLACK * n * (n + 4)
        for g in racing:
            if totals[g] > bound:
                totals[g] = math.inf
        racing = [g for g in racing if totals[g] <= bound]
        if not racing:
            break
        add(pos, racing)
        left -= pos.size
    return totals


def cv_bandwidth(data, *, grid=None):
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
    _phi(d_i / h) / h at the nearest distance d_i, does; that is known
    before any block is scored. Memory is O(block * n), in one workspace
    per call that every block reuses: fresh block arrays sit above glibc's
    mmap and trim thresholds, so each block would hand them back to the
    system and page-fault them in again.

    A bandwidth stops once it cannot win. Every row's loss is a sum of
    squares, so a running total over the blocks only grows. The first block
    is scored at every bandwidth, and the one with the smallest loss there
    (ties to the smaller h) leads: it is scored over every block. The others
    then race block by block, sharing each block's squared distances, and
    one stops, reading inf, once its running total exceeds the lead's total
    plus a rounding allowance for the rows still to come. A total that
    completes is the one a full pass computes, bit for bit, so the pick is
    the same. The allowance, per row left, is 16 n (n + 4) u with u =
    2^-53. With gamma = n u, the cumulative sums give every C_il and s2_i
    to within gamma s2_i, so each ratio C_il / s2_i is within about
    2 gamma. A_i / s2_i^2 <= n and 2 B_i / s2_i <= 2n then carry about
    4 n gamma each from those ratios and 3 n gamma together from their own
    sums, and the last four operations about 12 n u: about 11 n^2 u +
    12 n u for a row's loss, whose exact value is >= 0. The pairwise sum
    over a block's rows adds about 17 n u per row. Adding a block to a
    running total, and forming the bound itself, each cost at most n^2 u,
    as a total is at most n^2, and a block holds at least one row.
    """
    z, _ = _conditioner(data)
    if grid is None:
        grid = default_bandwidth_grid(z)
    grid = sorted(_bandwidth(h) for h in grid)
    if len(grid) == 0:
        raise EmptyGrid("bandwidth grid is empty")
    best = None
    best_score = math.inf
    for h, score in zip(grid, _cv_scores(data, grid).tolist()):
        if math.isfinite(score) and score < best_score:
            best = h
            best_score = score
    if best is None:
        raise KernelUnderflow(
            "every grid bandwidth produced a degenerate leave-one-out fit")
    return best
