"""Risk-minimizing long-only portfolio weights on the probability simplex.

The objective is the signed sample risk of the portfolio return series,
which is convex in the weights for every coherent weight family (positive
homogeneity plus subadditivity). Minimization runs a projected subgradient
method with diminishing steps from several starts, all advanced together as
the columns of one weight matrix, so each iteration is a few matrix products
and one row-wise sort. The subgradient uses the order-statistic weights of
the sample estimator (sample_risk.order_weights), averaging within blocks of
tied portfolio returns so the choice of sorting permutation cannot matter.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeries, DomainError, ShapeMismatch
from .families import omega
from .sample_risk import order_weights, risk_sample

DEFAULT_STARTS = 20
DEFAULT_ITERATIONS = 2000


@dataclass
class ReturnsMatrix:
    """Daily log returns, one column per asset; no label names two."""
    R: np.ndarray
    labels: tuple = None

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=float)
        if self.R.ndim != 2:
            raise ShapeMismatch("returns must be a days-by-assets matrix")
        if self.R.shape[0] < 2:
            raise DomainError("need at least two days of returns")
        if self.R.shape[1] < 1:
            raise DomainError("need at least one asset")
        if not np.all(np.isfinite(self.R)):
            raise DomainError("returns must be finite")
        if self.labels is None:
            self.labels = tuple(f"asset{i + 1}" for i in range(self.d))
        else:
            self.labels = tuple(str(name) for name in self.labels)
            if len(self.labels) != self.d:
                raise ShapeMismatch("need one label per asset")
            repeated = [name for i, name in enumerate(self.labels)
                        if name in self.labels[:i]]
            if repeated:
                raise DomainError(
                    f"asset label {repeated[0]!r} is given twice")

    @property
    def days(self):
        return self.R.shape[0]

    @property
    def d(self):
        return self.R.shape[1]


@dataclass
class PortfolioWeights:
    """Long-only weights summing to one; may carry the achieved risk."""
    alpha: np.ndarray
    risk: float = None
    diagnostics: dict = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.alpha.ndim != 1 or self.alpha.size < 1:
            raise ShapeMismatch("alpha must be a non-empty vector")
        if not np.all(np.isfinite(self.alpha)):
            raise DomainError("weights must be finite")
        if float(self.alpha.min()) < -1e-12:
            raise DomainError("weights must be non-negative")
        self.alpha = np.maximum(self.alpha, 0.0)
        if abs(float(self.alpha.sum()) - 1.0) > 1e-10:
            raise DomainError("weights must sum to one")

    def to_json(self, labels=None):
        if labels is None:
            labels = tuple(f"asset{i + 1}" for i in range(self.alpha.size))
        return {
            "alpha": {name: float(a) for name, a in zip(labels, self.alpha)},
            "risk": None if self.risk is None else float(self.risk),
        }


def portfolio_risk(returns, weights, family, tau, mode="normalized"):
    """Signed sample risk of the weighted return series."""
    return risk_sample(returns.R @ weights.alpha, family, tau, mode=mode)


def project_simplex(v):
    """Euclidean projection onto the probability simplex (sort-threshold).

    A vector is projected as one point; a d x S matrix is projected column
    by column, each column exactly as it would be on its own.
    """
    v = np.asarray(v, dtype=float)
    u = np.sort(v, axis=0)[::-1]
    cumulative = np.cumsum(u, axis=0) - 1.0
    ranks = np.arange(1, u.shape[0] + 1).reshape((-1,) + (1,) * (v.ndim - 1))
    positive = u - cumulative / ranks > 0.0
    support = u.shape[0] - 1 - np.argmax(positive[::-1], axis=0)
    theta = (np.take_along_axis(cumulative, support[np.newaxis], axis=0)[0]
             / (support + 1.0))
    return np.maximum(v - theta, 0.0)


def _tie_averaged_rows(ordered, w):
    """Estimator weights for each row of `ordered` (rows sorted ascending),
    averaged over every block of tied values, so any sorting permutation of
    a row gives the same day weights."""
    changes = np.ones(ordered.shape, dtype=bool)
    changes[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    if changes.all():
        return np.broadcast_to(w, ordered.shape)
    # number the blocks of all rows in one sequence: each row opens a block
    block = np.cumsum(changes.ravel()) - 1
    sums = np.bincount(block, weights=np.tile(w, ordered.shape[0]))
    return (sums / np.bincount(block))[block].reshape(ordered.shape)


def optimize_weights(returns, family, tau, starts=DEFAULT_STARTS,
                     iterations=DEFAULT_ITERATIONS, seed=0,
                     mode="normalized"):
    """Projected subgradient minimization of the portfolio risk.

    Runs from every vertex plus seeded Dirichlet draws (`starts` total, or
    d if larger), takes diminishing steps sqrt(2/(t+1)) along the normalized
    subgradient, and keeps the best iterate ever visited. The starts advance
    together as the columns of one d x S weight matrix: each iteration sorts
    every start's return series once, and that sort serves both the
    objective and the next subgradient. A start whose subgradient vanishes
    stops there while the others go on. The winner is the lexicographically
    first (objective, start index) pair, so reruns with the same seed
    reproduce the same weights. `diagnostics` records each start's initial
    objective and the iteration at which it found its best iterate.
    """
    d = returns.d
    sign = omega(tau)
    if returns.days <= d:
        warnings.warn(
            f"only {returns.days} days for {d} assets; the sample risk "
            "surface is weakly determined", stacklevel=2)
    if d == 1:
        best = PortfolioWeights(np.ones(1))
        best.risk = portfolio_risk(returns, best, family, tau, mode=mode)
        best.diagnostics = {"starts": 1, "improved": False, "best_start": 0,
                            "start_objectives": [best.risk],
                            "best_iteration": [0]}
        return best

    R = returns.R
    n = returns.days
    w, divisor = order_weights(family, tau, n, mode)
    w = w / divisor

    def sorted_series(alpha):
        """Objectives of the columns of alpha, their return series sorted
        ascending, one start per row, and each sorted entry's flat position
        in the start-by-day layout."""
        series = alpha.T @ R.T
        at = (np.argsort(series, axis=1)
              + n * np.arange(series.shape[0])[:, np.newaxis])
        ordered = series.ravel()[at]
        return sign * (ordered @ w), at, ordered

    rng = np.random.default_rng(seed)
    points = [np.eye(d)[k] for k in range(d)]
    while len(points) < max(starts, d):
        points.append(rng.dirichlet(np.ones(d)))

    alpha = project_simplex(np.column_stack(points))
    values, at, ordered = sorted_series(alpha)
    start_objectives = values.copy()
    best_alpha, best_values = alpha.copy(), values.copy()
    best_iteration = np.zeros(len(points), dtype=int)
    live = np.arange(len(points))
    for t in range(iterations):
        # back to day order, so the sum cannot depend on how ties were sorted
        day_rows = np.empty(ordered.size)
        day_rows[at] = _tie_averaged_rows(ordered, w)
        g = sign * (day_rows.reshape(ordered.shape) @ R)
        norm = np.linalg.norm(g, axis=1)
        moving = norm != 0.0
        if not moving.all():
            live, g, norm, alpha = (live[moving], g[moving], norm[moving],
                                    alpha[:, moving])
            if live.size == 0:
                break
        alpha = project_simplex(alpha - (math.sqrt(2.0 / (t + 1.0)) * g
                                         / norm[:, np.newaxis]).T)
        values, at, ordered = sorted_series(alpha)
        better = values < best_values[live]
        improved_starts = live[better]
        best_alpha[:, improved_starts] = alpha[:, better]
        best_values[improved_starts] = values[better]
        best_iteration[improved_starts] = t + 1

    best_start = int(np.argmin(best_values))
    out = PortfolioWeights(best_alpha[:, best_start])
    out.risk = portfolio_risk(returns, out, family, tau, mode=mode)
    out.diagnostics = {
        "starts": len(points),
        "improved": bool(np.any(best_values < start_objectives)),
        "best_start": best_start,
        "start_objectives": start_objectives.tolist(),
        "best_iteration": best_iteration.tolist(),
    }
    return out


def evaluate(returns_test, weights, bench):
    """Annualized Sharpe ratio and percentage of days beating the benchmark."""
    bench = np.asarray(bench, dtype=float)
    if bench.shape != (returns_test.days,):
        raise ShapeMismatch("benchmark must have one return per test day")
    if not np.all(np.isfinite(bench)):
        raise DomainError("benchmark returns must be finite")
    if returns_test.d != weights.alpha.size:
        raise ShapeMismatch(f"test window has {returns_test.d} assets, the "
                            f"weights {weights.alpha.size}")
    series = returns_test.R @ weights.alpha
    spread = float(np.std(series, ddof=1))
    if spread == 0.0:
        raise DegenerateSeries("portfolio returns have zero variance")
    sharpe = (float(series.mean()) * 252.0) / (spread * math.sqrt(252.0))
    beat = 100.0 * float(np.mean(series > bench))
    return {"SR": sharpe, "PD": beat}
