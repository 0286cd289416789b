"""Single-index direction estimation by pseudo sums of integrated squares.

The direction beta enters only through the kernel CDE of y given the scalar
index X.beta. The criterion averages, over all ordered observation pairs
(i, j), the squared gap between the indicator I(y_i <= y_j) and the estimated
conditional CDF of y_j at the index of observation i. Objective, gradient,
and Hessian are analytic in beta.

Pair sums are grouped by shard and combined in ascending worker-label order
with compensated summation. A distributed run that ships per-shard partials
to a central machine therefore reproduces the pooled numbers bit for bit,
because both paths call the identical helpers in the identical order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, IdentificationFail, IllConditioned,
                     LineSearchFail, ShapeMismatch, ZeroVector)
from .kernel_cde import SQRT_2PI, Bandwidth, _as_bandwidth, _dphi, _phi

MAX_NEWTON_ITER = 100
MAX_HALVINGS = 30
STATIONARY_TOL = 1e-10
RIDGE_FLOOR = 1e-8
# longest first line-search trial; a tangent step of length 1 turns beta
# by 45 degrees
MAX_STEP = 1.0


def _ddphi(t):
    return (t * t - 1.0) * np.exp(-0.5 * t * t) / SQRT_2PI


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


def _index_and_indicators(data, beta):
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.p,):
        raise ShapeMismatch(f"beta must have length {data.p}, got {beta.shape}")
    z = data.X @ beta
    ind = (data.y[:, None] <= data.y[None, :]).astype(float)
    return z, ind


def _objective_parts(data, beta, h):
    """Raw per-shard sums of squared pair residuals, ascending shard label."""
    h = _as_bandwidth(h).h
    z, ind = _index_and_indicators(data, beta)
    parts = []
    for idx in data.shard_slices():
        u = (z[None, :] - z[idx, None]) / h
        w = _phi(u) / h
        s2 = w.sum(axis=1)
        resid = ind[idx, :] - (w @ ind) / s2[:, None]
        parts.append(float((resid * resid).sum()))
    return parts


def _gradient_parts(data, beta, h):
    """Raw per-shard gradient sums (unscaled), ascending shard label."""
    h = _as_bandwidth(h).h
    hh = h * h
    z, ind = _index_and_indicators(data, beta)
    x = data.X
    parts = []
    for idx in data.shard_slices():
        u = (z[None, :] - z[idx, None]) / h
        w = _phi(u) / h
        d = _dphi(u) / hh
        s2 = w.sum(axis=1)
        num = w @ ind
        resid = ind[idx, :] - num / s2[:, None]
        dnum0 = d @ ind
        dden = d @ x - d.sum(axis=1)[:, None] * x[idx]
        resid_s2 = resid / s2[:, None]
        part = np.empty(data.p)
        for m in range(data.p):
            dnum_m = (d * x[:, m][None, :]) @ ind - x[idx, m][:, None] * dnum0
            part[m] = float((resid_s2 * dnum_m).sum())
        part -= ((resid * num).sum(axis=1) / (s2 * s2)) @ dden
        parts.append(part)
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
    """Analytic Hessian of psis_objective; returned exactly symmetric."""
    hb = _as_bandwidth(h).h
    hh = hb * hb
    n, p, x = data.n, data.p, data.X
    z, ind = _index_and_indicators(data, beta)
    u = (z[None, :] - z[:, None]) / hb
    w = _phi(u) / hb
    d = _dphi(u) / hh
    dd = _ddphi(u) / (hh * hb)
    s2 = w.sum(axis=1)
    num = w @ ind
    resid = ind - num / s2[:, None]
    dnum0 = d @ ind
    dden = d @ x - d.sum(axis=1)[:, None] * x

    def cross(omega):
        # sum_{i,l} omega[i,l] (x_l - x_i)(x_l - x_i)^T without forming pairs
        col = omega.sum(axis=0)
        row = omega.sum(axis=1)
        xox = x.T @ omega @ x
        return (x.T * col) @ x + (x.T * row) @ x - xox - xox.T

    grad_f = np.empty((n, n, p))
    for m in range(p):
        dnum_m = (d * x[:, m][None, :]) @ ind - x[:, m][:, None] * dnum0
        grad_f[:, :, m] = dnum_m / s2[:, None] \
            - num * (dden[:, m] / (s2 * s2))[:, None]
    flat = grad_f.reshape(n * n, p)
    hess = 2.0 * flat.T @ flat

    mix = resid @ ind.T
    t1 = cross(dd * mix / s2[:, None])
    dmix = d * mix
    b = dmix @ x - dmix.sum(axis=1)[:, None] * x
    bs = b / (s2 * s2)[:, None]
    t2 = bs.T @ dden + dden.T @ bs
    ci = (w * mix).sum(axis=1)
    t3 = cross(dd * (ci / (s2 * s2))[:, None])
    t4 = (dden.T * (2.0 * ci / (s2 ** 3))) @ dden
    hess -= 2.0 * (t1 - t2 - t3 + t4)
    hess /= n * n
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
