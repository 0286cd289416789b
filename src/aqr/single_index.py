"""Single-index direction estimation by pseudo sums of integrated squares.

The direction beta enters only through the kernel CDE of y given the scalar
index X.beta. The criterion averages, over all ordered observation pairs
(i, j), the squared gap between the indicator I(y_i <= y_j) and the estimated
conditional CDF of y_j at the index of observation i. Objective, gradient,
and Hessian are analytic in beta.

No pair sum forms the n x n indicator. Sorted by y, it is a staircase: the
kernel-weighted CDF of row i at every y_j is a cumulative sum along row i of
its kernel weights, read at the last position of each run of tied y, and
sum_j r_ij I(y_l <= y_j) is a reverse cumulative sum over the runs. The
evaluation rows go in blocks of a fixed number of kernel cells, so memory is
O(block * n * p) and work O(n^2 p) per call.

Pair sums are grouped by shard and combined in ascending worker-label order
with compensated summation. Each row's sums are numpy reductions along that
row alone, and a shard's part is the compensated sum of its rows, so it
depends neither on the blocks nor, for untied y, on the row order within the
shard. A distributed run that ships per-shard partials to a central machine
therefore reproduces the pooled numbers bit for bit, because both paths call
the identical helpers in the identical order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, IdentificationFail, IllConditioned,
                     LineSearchFail, ShapeMismatch, ZeroVector)
from .kernel_cde import Bandwidth, _as_bandwidth

MAX_NEWTON_ITER = 100
MAX_HALVINGS = 30
STATIONARY_TOL = 1e-10
RIDGE_FLOOR = 1e-8
# longest first line-search trial; a tangent step of length 1 turns beta
# by 45 degrees
MAX_STEP = 1.0
# kernel cells (evaluation rows x n) per row block: 128 KiB per float array,
# which stays in cache and below malloc's default mmap threshold, so
# temporaries are not page-faulted in afresh on every block
_BLOCK_CELLS = 1 << 14


@dataclass
class IndexModel:
    """Fitted index direction (unit norm, positive first entry) and bandwidth."""
    beta: np.ndarray
    h: Bandwidth

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.h = _as_bandwidth(self.h)
        if self.beta.ndim != 1 or self.beta.size < 1:
            raise ShapeMismatch("beta must be a non-empty vector")
        if abs(float(np.linalg.norm(self.beta)) - 1.0) > 1e-12:
            raise DomainError("beta must have unit Euclidean norm")
        if not self.beta[0] > 0.0:
            raise DomainError("first component of beta must be positive")

    def to_json(self):
        return {"beta": [float(b) for b in self.beta], "h": self.h.h}


def normalize_beta(beta):
    """Project onto the identification set: unit norm, positive first entry."""
    beta = np.asarray(beta, dtype=float)
    norm = float(np.linalg.norm(beta))
    if norm == 0.0:
        raise ZeroVector("cannot normalize a zero direction")
    out = beta / norm
    first = float(out[0])
    if first == 0.0:
        raise IdentificationFail("first component of beta is zero")
    return -out if first < 0.0 else out


class _YSorted:
    """The observations in stable y order, with their tie runs, at one beta.

    In this order I(y_l <= y_j) holds exactly for the sorted positions l up
    to `ends[r]`, the last position of the tie run r that holds y_j. A pair
    sum against the indicator is then a cumulative sum along the sorted rows
    read at the run ends, and a run of tied y is scored once, weighted by its
    length.
    """

    def __init__(self, data, beta, h):
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (data.p,):
            raise ShapeMismatch(
                f"beta must have length {data.p}, got {beta.shape}")
        self.h = _as_bandwidth(h).h
        self.X = data.X
        self.z = data.X @ beta
        order = np.argsort(data.y, kind="stable")
        y = data.y[order]
        self.zs = self.z[order]
        self.xs = np.ascontiguousarray(data.X[order].T)
        self.rank = np.empty(data.n, dtype=int)
        self.rank[order] = np.arange(data.n)
        self.ends = np.flatnonzero(np.diff(y, append=math.inf))
        runs = np.diff(self.ends, prepend=-1)
        self.count = runs.astype(float)
        self.ties = self.ends.size < data.n
        # tie run of each sorted position
        self.run = np.repeat(np.arange(self.ends.size), runs)

    def blocks(self, idx):
        """The evaluation rows `idx` in consecutive blocks."""
        size = max(1, _BLOCK_CELLS // self.zs.size)
        return [idx[s:s + size] for s in range(0, idx.size, size)]

    def kernel(self, rows):
        """u_il = (z_l - z_i)/h for the rows i against the sorted rows l,
        and exp(-u^2/2).

        exp(-u^2/2) is the weight phi(u)/h times sqrt(2 pi) h. The factor
        cancels from every ratio in the criterion, so the derivatives are
        taken on the same scale: -u exp(-u^2/2)/h and
        (u^2 - 1) exp(-u^2/2)/h^2.
        """
        u = (self.zs[None, :] - self.z[rows, None]) / self.h
        return u, np.exp(-0.5 * u * u)

    def offsets(self, rows):
        """x_lm - x_im, shape (p, rows, n): the chain-rule factor of beta_m."""
        return self.xs[:, None, :] - self.X[rows].T[:, :, None]

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


def _residuals(ys, rows, e):
    """Level sums, their totals s2 and the pair residuals of the rows."""
    num = ys.staircase(e)
    s2 = num[:, -1]
    return num, s2, ys.indicator(rows) - num / s2[:, None]


def _objective_rows(ys, rows):
    """Each row's sum over j of its squared pair residual."""
    _, e = ys.kernel(rows)
    resid = _residuals(ys, rows, e)[2]
    return ys.runs(resid * resid).sum(axis=1)


def _gradient_rows(ys, rows):
    """Each row's gradient sum (unscaled), shape (p, rows).

    sum_j r_ij dF_ij/dbeta with F_ij = num_ij/s2_i regroups by kernel pair:
    sum_l dw_il/dbeta (mix_il/s2_i - sum_j r_ij num_ij/s2_i^2), where
    mix_il = sum_j r_ij I(y_l <= y_j).
    """
    u, e = ys.kernel(rows)
    num, s2, resid = _residuals(ys, rows, e)
    resid = ys.runs(resid)
    psi = ys.reach(resid) / s2[:, None] \
        - ((resid * num).sum(axis=1) / (s2 * s2))[:, None]
    return (((e * u / -ys.h) * psi) * ys.offsets(rows)).sum(axis=2)


def _objective_parts(data, beta, h):
    """Raw per-shard sums of squared pair residuals, ascending shard label.

    A shard's part is the compensated sum of its rows' sums, so it depends
    neither on the row blocks nor, for untied y, on the row order.
    """
    ys = _YSorted(data, beta, h)
    parts = []
    for idx in data.shard_slices():
        rows = [_objective_rows(ys, b) for b in ys.blocks(idx)]
        parts.append(math.fsum(np.concatenate(rows).tolist()))
    return parts


def _gradient_parts(data, beta, h):
    """Raw per-shard gradient sums (unscaled), ascending shard label."""
    ys = _YSorted(data, beta, h)
    parts = []
    for idx in data.shard_slices():
        rows = np.concatenate([_gradient_rows(ys, b) for b in ys.blocks(idx)],
                              axis=1)
        parts.append(np.array([math.fsum(m) for m in rows.tolist()]))
    return parts


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


def psis_hessian(data, beta, h):
    """Analytic Hessian of psis_objective; returned exactly symmetric.

    The Hessian of sum r_ij^2 is 2 sum dF dF^T (the Gauss-Newton term) minus
    2 sum r_ij d2F_ij; the second sum is regrouped by kernel pair (i, l)
    through mix_il = sum_j r_ij I(y_l <= y_j). Each block of rows adds p x p
    terms, so memory is O(block * n * p).
    """
    ys = _YSorted(data, beta, h)
    p = data.p
    gauss = np.zeros((p, p))
    curv = np.zeros((p, p))
    mixed = np.zeros((p, p))
    for rows in ys.blocks(np.arange(data.n)):
        u, e = ys.kernel(rows)
        num, s2, resid = _residuals(ys, rows, e)
        ss = s2 * s2
        dx = ys.offsets(rows)
        slopes = (e * u / -ys.h) * dx
        dnum = ys.staircase(slopes)
        dden = dnum[..., -1]
        grad_f = dnum / s2[:, None] - num * (dden / ss)[..., None]
        gauss += ys.runs(grad_f).reshape(p, -1) @ grad_f.reshape(p, -1).T
        mix = ys.reach(ys.runs(resid))
        ci = (e * mix).sum(axis=1)
        mixed += ((slopes * mix).sum(axis=2) / ss) @ dden.T
        curv += (dden * (2.0 * ci / (ss * s2))) @ dden.T
        # second derivative of the weights: phi'' (x_l - x_i)(x_l - x_i)^T
        omega = (u * u - 1.0) * e / (ys.h * ys.h) \
            * (mix / s2[:, None] - (ci / ss)[:, None])
        curv += (omega * dx).reshape(p, -1) @ dx.reshape(p, -1).T
    hess = 2.0 * gauss - 2.0 * (curv - mixed - mixed.T)
    hess /= data.n * data.n
    return (hess + hess.T) / 2.0


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
    h = _as_bandwidth(h)
    if data.p == 1:
        return IndexModel(np.array([1.0]), h)
    beta = normalize_beta(init)
    z = data.X @ beta
    if float(np.ptp(z)) == 0.0:
        raise IllConditioned("index has no variation at the initial direction")
    value = psis_objective(data, beta, h)
    for _ in range(MAX_NEWTON_ITER):
        grad = psis_gradient(data, beta, h)
        tangential = grad - (grad @ beta) * beta
        if float(np.max(np.abs(tangential))) < STATIONARY_TOL:
            break
        step = _tangent_step(psis_hessian(data, beta, h), grad, beta)
        # the objective's own rounding hides any smaller predicted decrease
        if 0.5 * float(grad @ step) <= 4.0 * math.ulp(value):
            break
        accepted = _backtrack(data, h, beta, value, step)
        if accepted is None:
            raise LineSearchFail(
                f"no objective decrease after {MAX_HALVINGS} halvings")
        beta, value = accepted
    return IndexModel(beta, h)
