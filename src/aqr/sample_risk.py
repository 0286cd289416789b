"""Sample version of the weighted quantile average and a coherence harness.

The estimator is an L-statistic: order the sample, weight the i-th order
statistic by the density value at the plotting position i/(n+1). Raw mode is
the literal n^{-1} sum; normalized mode divides by the summed weights so they
add to one, which makes translation invariance and comonotone additivity hold
exactly at finite n instead of only in the limit. The quantile family puts
its Weibull interpolation at tau(n+1) on two order statistics. order_weights
is the one source of the weights, for aqr_sample and the portfolio alike.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DegenerateWeights, DomainError, EmptyInput,
                     ShapeMismatch)
from .families import _tau, j_value, omega


def _as_sample(values):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ShapeMismatch(f"sample must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyInput("sample is empty")
    if not np.all(np.isfinite(arr)):
        raise DomainError("sample values must all be finite")
    return arr


def order_weights(family, tau, n, mode):
    """Weights of the n ascending order statistics, and their divisor.

    The estimator is (sorted sample @ weights) / divisor. A density family
    weights the i-th order statistic by j_value at i/(n+1); the divisor is n
    in raw mode and the summed weights in normalized mode. The Dirac family
    puts the Weibull interpolation of the quantile at tau(n+1) on the two
    neighbouring order statistics, with divisor 1.
    """
    if mode not in ("raw", "normalized"):
        raise DomainError(f"mode must be 'raw' or 'normalized', got {mode!r}")
    t = _tau(tau)
    if family.kind == "qr-dirac":
        w = np.zeros(n)
        position = t * (n + 1)
        if position <= 1.0:
            w[0] = 1.0
        elif position >= n:
            w[-1] = 1.0
        else:
            k = int(position)
            w[k - 1] = 1.0 - (position - k)
            w[k] = position - k
        return w, 1.0
    w = j_value(family, t, np.arange(1, n + 1) / (n + 1))
    total = float(w.sum())
    if total <= 0.0:
        raise DegenerateWeights(
            f"all plotting positions fall outside the weight support "
            f"(n={n}, tau={t}); increase n or move tau inward")
    return w, (n if mode == "raw" else total)


def aqr_sample(values, family, tau, mode="normalized"):
    """Weighted average of order statistics at plotting positions i/(n+1)."""
    arr = _as_sample(values)
    w, divisor = order_weights(family, tau, arr.size, mode)
    return float(np.sort(arr) @ w) / divisor


def risk_sample(values, family, tau, mode="normalized"):
    """Signed risk: lower-tail levels flip the sign so larger means riskier."""
    return omega(tau) * aqr_sample(values, family, tau, mode=mode)


def comonotone_with(x, y):
    """True when y is sorted by x's stable (value, index) order."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    perm = np.lexsort((np.arange(x.size), x))
    return bool(np.all(np.diff(y[perm]) >= 0.0))


@dataclass
class CoherenceReport:
    """Residuals of the four coherence axioms on one sample pair."""
    n: int
    tau: float
    comonotone: bool
    homogeneity_residual: float
    translation_residual: float
    additivity_residual: Optional[float]
    subadditivity_slack: float

    def passes(self, eq_tol=1e-12, sub_tol=1e-10):
        ok = (abs(self.homogeneity_residual) <= eq_tol
              and abs(self.translation_residual) <= eq_tol
              and self.subadditivity_slack >= -sub_tol)
        if self.comonotone:
            ok = ok and abs(self.additivity_residual) <= eq_tol
        return ok


def coherence_check(x, y, family, tau):
    """Evaluate the coherence axioms on the pair (x, y) in normalized mode.

    Homogeneity scales x by 2.0 and translation shifts it by 1.0.
    """
    x = _as_sample(x)
    y = _as_sample(y)
    if x.size != y.size:
        raise ShapeMismatch(f"paired samples differ in length: {x.size} vs {y.size}")
    t = _tau(tau)
    w = omega(t)
    rx = aqr_sample(x, family, t)
    ry = aqr_sample(y, family, t)
    rsum = aqr_sample(x + y, family, t)
    como = comonotone_with(x, y)
    report = CoherenceReport(
        n=x.size, tau=t, comonotone=como,
        homogeneity_residual=aqr_sample(2.0 * x, family, t) - 2.0 * rx,
        translation_residual=aqr_sample(x + 1.0, family, t) - (rx + 1.0),
        additivity_residual=(rsum - rx - ry) if como else None,
        subadditivity_slack=w * rx + w * ry - w * rsum,
    )
    return report
