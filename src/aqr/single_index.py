"""Single-index direction estimation by pseudo sums of integrated squares.

The direction beta enters only through the kernel CDE of y given the scalar
index X.beta. The criterion averages, over all ordered observation pairs
(i, j), the squared gap between the indicator I(y_i <= y_j) and the estimated
conditional CDF of y_j at the index of observation i. Objective, gradient,
and Hessian are analytic in beta.

No pair sum forms the n x n indicator. kernel_cde._YSorted owns the y order,
the tie runs, the row blocks, the kernel and the in-sample CDF levels, and
turns the indicator into a staircase of cumulative kernel sums; this module
adds only the index: beta, the bandwidth and the y-sorted covariate
offsets. On the staircase, sum_j r_ij I(y_l <= y_j) is a reverse cumulative
sum over the runs. The evaluation rows go in blocks of a fixed number of
cells, so memory is O(block * n * p) and work O(n^2 p) per call; a
derivative block's (p, rows, n) tensors hold half as many cells as an
objective block's (rows, n) arrays (see _fold_by_shard).

Each fit_full iterate takes the gradient and the Hessian at one beta from
one walk over the blocks, _derivatives, so the kernel, the staircase, the
residuals and mix are built once per block and iterate. Its gradient is
psis_gradient's bit for bit: both form each row's sum with _gradient_sums.

_fold_by_shard is the package's only shard-ordered reduction: the objective
and gradient pair sums are grouped by shard and combined in ascending
worker-label order with compensated summation. Each row's sums are numpy
reductions along that row alone, and a shard's part is the compensated sum
of its rows, so it depends neither on the blocks nor, for untied y, on the
row order within the shard. A distributed run that ships per-shard partials
to a central machine therefore reproduces the pooled numbers bit for bit,
because both paths call the identical helpers in the identical order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, IdentificationFail, IllConditioned,
                     KernelUnderflow, LineSearchFail, ShapeMismatch,
                     ZeroVector)
from .kernel_cde import _YSorted, _bandwidth

MAX_NEWTON_ITER = 100
MAX_HALVINGS = 30
STATIONARY_TOL = 1e-10
RIDGE_FLOOR = 1e-8
# longest first line-search trial; a tangent step of length 1 turns beta
# by 45 degrees
MAX_STEP = 1.0


@dataclass
class IndexModel:
    """Fitted index direction (unit norm, positive first entry) and bandwidth."""
    beta: np.ndarray
    h: float

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.h = _bandwidth(self.h)
        if self.beta.ndim != 1 or self.beta.size < 1:
            raise ShapeMismatch("beta must be a non-empty vector")
        if not abs(float(np.linalg.norm(self.beta)) - 1.0) <= 1e-12:
            raise DomainError("beta must have unit Euclidean norm")
        if not self.beta[0] > 0.0:
            raise DomainError("first component of beta must be positive")

    def to_json(self):
        return {"beta": [float(b) for b in self.beta], "h": self.h}


def normalize_beta(beta):
    """Project onto the identification set: unit norm, positive first entry."""
    beta = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(beta)):
        raise DomainError("beta must be finite")
    norm = float(np.linalg.norm(beta))
    if norm == 0.0:
        raise ZeroVector("cannot normalize a zero direction")
    out = beta / norm
    first = float(out[0])
    if first == 0.0:
        raise IdentificationFail("first component of beta is zero")
    return -out if first < 0.0 else out


class _IndexSorted(_YSorted):
    """The y-sorted observations at one beta, with the bandwidth and the
    covariate offsets.

    The kernel weights drop phi's factor 1/(sqrt(2 pi) h), which cancels
    from every ratio in the criterion, so the derivatives are taken on the
    same scale: -u exp(-u^2/2)/h and (u^2 - 1) exp(-u^2/2)/h^2.
    """

    def __init__(self, data, beta, h):
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (data.p,):
            raise ShapeMismatch(
                f"beta must have length {data.p}, got {beta.shape}")
        super().__init__(data.y, data.X @ beta)
        self.h = _bandwidth(h)
        self.X = data.X
        self.xs = np.ascontiguousarray(data.X[self.order].T)

    def offsets(self, rows):
        """x_lm - x_im, shape (p, rows, n): the chain-rule factor of beta_m."""
        return self.xs[:, None, :] - self.X[rows].T[:, :, None]


def _residuals(ys, rows, e):
    """Level sums, their totals s2 and the pair residuals of the rows."""
    num, s2, levels = ys.levels(e)
    return num, s2, ys.indicator(rows) - levels


def _objective_rows(ys, rows):
    """Each row's sum over j of its squared pair residual."""
    _, e = ys.kernel(rows, ys.h)
    resid = _residuals(ys, rows, e)[2]
    return ys.runs(resid * resid).sum(axis=1)


def _row_terms(ys, rows):
    """The rows' kernel pieces that every derivative sum shares: u, the
    weights e = exp(-u^2/2), their slopes in the index -u e/h, the level
    staircase num with its totals s2, the run-weighted pair residuals r and
    mix_il = sum_j r_ij I(y_l <= y_j)."""
    u, e = ys.kernel(rows, ys.h)
    num, s2, resid = _residuals(ys, rows, e)
    resid = ys.runs(resid)
    return u, e, e * u / -ys.h, num, s2, resid, ys.reach(resid)


def _gradient_sums(terms, dx):
    """Each row's gradient sum (unscaled), shape (p, rows), from its
    _row_terms and offsets dx.

    sum_j r_ij dF_ij/dbeta with F_ij = num_ij/s2_i regroups by kernel pair:
    sum_l dw_il/dbeta (mix_il/s2_i - sum_j r_ij num_ij/s2_i^2).
    """
    _, _, slope, num, s2, resid, mix = terms
    psi = mix / s2[:, None] - ((resid * num).sum(axis=1) / (s2 * s2))[:, None]
    return ((slope * psi) * dx).sum(axis=2)


def _gradient_rows(ys, rows):
    return _gradient_sums(_row_terms(ys, rows), ys.offsets(rows))


def _fold_by_shard(data, beta, h, row_sums, depth):
    """Compensated sums of row_sums(ys, rows), whose last axis runs over the
    rows, per shard in ascending label order: one list per shard, one sum
    per leading entry. A shard's sums depend neither on the row blocks nor,
    for untied y, on the row order. row_sums is called exactly once per
    block, shards in ascending label order and blocks in order within each,
    so a caller may accumulate other sums in it.

    A block holds _BLOCK_CELLS cells of a (depth, rows, n) array. The
    objective's block arrays are (rows, n), and its depth is 1. A
    derivative block keeps many (p, rows, n) tensors alive at once, and its
    depth is 2p, so each tensor holds half of _BLOCK_CELLS: measured with
    glibc at n = 270 to 2000, from about 12,000 cells a tensor on the
    allocator can return the freed temporaries to the system, and then
    every block page-faults them in afresh.
    """
    ys = _IndexSorted(data, beta, h)
    parts = []
    for idx in data.shard_slices():
        sums = np.concatenate([row_sums(ys, b)
                               for b in ys.blocks(idx, depth=depth)], axis=-1)
        parts.append([math.fsum(s) for s in sums.reshape(-1, idx.size)
                      .tolist()])
    return parts


def _objective_parts(data, beta, h):
    """Raw per-shard sums of squared pair residuals, ascending shard label."""
    return [part[0]
            for part in _fold_by_shard(data, beta, h, _objective_rows, 1)]


def _gradient_parts(data, beta, h):
    """Raw per-shard gradient sums (unscaled), ascending shard label."""
    return [np.array(part) for part in
            _fold_by_shard(data, beta, h, _gradient_rows, 2 * data.p)]


def _reduce_objective(parts, n):
    return math.fsum(parts) / (n * n)


def _reduce_gradient(parts, n, p):
    raw = np.array([math.fsum(part[m] for part in parts) for m in range(p)])
    return (-2.0 / (n * n)) * raw


def psis_objective(data, beta, h):
    """Mean squared pair residual; zero iff the CDE reproduces all indicators."""
    return _reduce_objective(_objective_parts(data, beta, h), data.n)


def psis_gradient(data, beta, h):
    """Analytic gradient of psis_objective with respect to beta."""
    return _reduce_gradient(_gradient_parts(data, beta, h), data.n, data.p)


def _derivatives(data, beta, h):
    """Gradient and Hessian of psis_objective from one walk over the row
    blocks, shards in ascending label order.

    The gradient is psis_gradient's, bit for bit: each row's
    _gradient_sums, folded by shard. The Hessian of sum r_ij^2 is
    2 sum dF dF^T (the Gauss-Newton term) minus 2 sum r_ij d2F_ij; the
    second sum is regrouped by kernel pair (i, l) through mix_il. Each block
    of rows adds p x p terms, so memory is O(block * n * p). The Hessian is
    returned exactly symmetric.
    """
    p = data.p
    gauss = np.zeros((p, p))
    curv = np.zeros((p, p))
    mixed = np.zeros((p, p))

    def row_sums(ys, rows):
        nonlocal gauss, curv, mixed
        terms = _row_terms(ys, rows)
        u, e, slope, num, s2, _, mix = terms
        ss = s2 * s2
        dx = ys.offsets(rows)
        slopes = slope * dx
        dnum = ys.staircase(slopes)
        dden = dnum[..., -1]
        grad_f = dnum / s2[:, None] - num * (dden / ss)[..., None]
        gauss += ys.runs(grad_f).reshape(p, -1) @ grad_f.reshape(p, -1).T
        ci = (e * mix).sum(axis=1)
        mixed += ((slopes * mix).sum(axis=2) / ss) @ dden.T
        curv += (dden * (2.0 * ci / (ss * s2))) @ dden.T
        # second derivative of the weights: phi'' (x_l - x_i)(x_l - x_i)^T
        omega = (u * u - 1.0) * e / (ys.h * ys.h) \
            * (mix / s2[:, None] - (ci / ss)[:, None])
        curv += (omega * dx).reshape(p, -1) @ dx.reshape(p, -1).T
        return _gradient_sums(terms, dx)

    grad = _reduce_gradient(_fold_by_shard(data, beta, h, row_sums, 2 * p),
                            data.n, p)
    hess = 2.0 * gauss - 2.0 * (curv - mixed - mixed.T)
    hess /= data.n * data.n
    return grad, (hess + hess.T) / 2.0


def psis_hessian(data, beta, h):
    """Analytic Hessian of psis_objective; returned exactly symmetric."""
    return _derivatives(data, beta, h)[1]


def _newton_step(hessian, gradient):
    """Solve for the Newton step after the eigenvalue ridge repair."""
    try:
        lam_min = float(np.linalg.eigvalsh(hessian)[0])
        ridge = max(0.0, RIDGE_FLOOR - lam_min)
        if ridge > 0.0:
            hessian = hessian + ridge * np.eye(hessian.shape[0])
        step = np.linalg.solve(hessian, gradient)
    except np.linalg.LinAlgError:
        raise IllConditioned("Hessian is singular even after ridge repair")
    if not np.all(np.isfinite(step)):
        raise IllConditioned("Newton step is not finite")
    return step


def _tangent_step(hessian, gradient, beta):
    """Riemannian Newton direction Q s, orthogonal to unit `beta`.

    Q is an orthonormal tangent basis at beta and s solves the ridge-repaired
    (Q'HQ - (beta'g) I) s = Q'g (Absil, Mahony & Sepulchre 2008, ch. 6).
    """
    q = np.linalg.qr(beta[:, None], mode="complete")[0][:, 1:]
    riemann = q.T @ hessian @ q - float(beta @ gradient) * np.eye(q.shape[1])
    return q @ _newton_step(riemann, q.T @ gradient)


def _backtrack(data, h, beta, value, direction):
    """Halve the step along `direction` until the objective strictly drops.

    The first trial is the largest 2^-k step (k >= 0) no longer than
    MAX_STEP. The retraction turns beta by atan(|step|), so all steps much
    longer than that land within about 1/|step| rad of the same quarter
    turn, and halving through them only spends objective evaluations. A
    direction no longer than MAX_STEP is tried in full. MAX_HALVINGS counts
    from the first trial.
    """
    scale = 1.0
    length = float(np.linalg.norm(direction))
    while scale * length > MAX_STEP:
        scale *= 0.5
    for _ in range(MAX_HALVINGS + 1):
        try:
            candidate = normalize_beta(beta - scale * direction)
        except (IdentificationFail, ZeroVector):
            # a trial that lands on the identification boundary is rejected,
            # not fatal; shrink and retry
            scale *= 0.5
            continue
        trial = psis_objective(data, candidate, h)
        if trial < value:
            return candidate, trial
        scale *= 0.5
    return None


def fit_full(data, h, init):
    """Riemannian Newton minimization of psis_objective over unit directions.

    Each iterate takes the ridge-repaired Newton step in the tangent space,
    first cut by halvings to a tangent length of at most MAX_STEP, halves it
    until the objective strictly drops (at most MAX_HALVINGS times, else
    LineSearchFail) and retracts with normalize_beta. Stops when the
    largest tangential-gradient entry is below STATIONARY_TOL, when the
    Newton decrement is within a few ulps of the objective, or after
    MAX_NEWTON_ITER iterations.
    """
    h = _bandwidth(h)
    if data.p == 1:
        return IndexModel(np.array([1.0]), h)
    beta = normalize_beta(init)
    ys = _IndexSorted(data, beta, h)
    if float(np.ptp(ys.z)) == 0.0:
        raise IllConditioned("index has no variation at the initial direction")
    if ys.all_isolated(ys.h):
        raise KernelUnderflow(
            f"bandwidth {ys.h!r} leaves every row no kernel weight but its "
            "own at the initial direction")
    value = psis_objective(data, beta, h)
    for _ in range(MAX_NEWTON_ITER):
        grad, hess = _derivatives(data, beta, h)
        tangential = grad - (grad @ beta) * beta
        if float(np.max(np.abs(tangential))) < STATIONARY_TOL:
            break
        step = _tangent_step(hess, grad, beta)
        # the objective's own rounding hides any smaller predicted decrease
        if 0.5 * float(grad @ step) <= 4.0 * math.ulp(value):
            break
        accepted = _backtrack(data, h, beta, value, step)
        if accepted is None:
            raise LineSearchFail(
                f"no objective decrease after {MAX_HALVINGS} halvings")
        beta, value = accepted
    return IndexModel(beta, h)
