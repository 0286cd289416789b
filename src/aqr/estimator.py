"""Plug-in conditional estimates from a step CDF, and the RPAD metric.

Because the estimated conditional distribution is a step function, the
defining pair of y-integrals telescopes into an exact finite sum: the value
is sum_i knot_i * [G(level_i) - G(level_{i-1})]. No quadrature, no grid.
_telescope is that reduction for aqr_conditional's one CDF and for
experiments.average_aqr_values' blocks of CDFs on shared knots alike.
"""

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DomainError, ZeroTruth
from .families import _g_inner, _tau


@dataclass
class AqrEstimate:
    """One conditional estimate with the diagnostics of its reduction."""
    value: float
    tau: float
    family: Any
    g_mass: float
    mass_deficit: float


def _check_ends(levels):
    """A row is non-decreasing by construction (StepCDF checks it, and
    _YSorted.levels divides a cumulative sum of non-negative weights by its
    last entry), so only its end levels are checked against [0, 1]."""
    if np.any(levels[..., 0] < 0.0) or np.any(levels[..., -1] > 1.0):
        raise DomainError("levels must lie in [0, 1]")


def _telescope(knots, levels, family, tau, dg=None):
    """Telescoped values and G masses of the step CDFs in `levels`.

    Each row along the last axis of `levels` is one CDF's non-decreasing
    levels at the shared `knots`. The quantile family takes the first knot
    whose level reaches tau, or the top knot with mass 0 when the CDF never
    reaches it; every other family weighs each knot by its G increment.
    Without `dg`, the end levels are checked here. A caller that reduces
    one block under many families and levels checks them once with
    _check_ends and passes `dg`, np.empty_like(levels), which takes each
    call's G increments in turn. It shares the memory order of `levels`
    and of G, which decides how the matrix product sums each row.
    """
    if family.kind == "qr-dirac":
        i = (levels < tau).sum(axis=-1)
        return knots[np.minimum(i, knots.size - 1)], (i < knots.size) * 1.0
    if dg is None:
        _check_ends(levels)
        dg = np.empty_like(levels)
    g = _g_inner(family, tau, levels)
    dg[..., 0] = g[..., 0]
    np.subtract(g[..., 1:], g[..., :-1], out=dg[..., 1:])
    return dg @ knots, g[..., -1]


def aqr_conditional(F, family, tau):
    """Exact telescoped reduction of the step CDF under the weight family.

    A final level below 1 is integrated as-is; the shortfall is recorded in
    the estimate's mass_deficit instead of being silently renormalized.
    """
    t = _tau(tau)
    value, mass = _telescope(F.knots, F.levels, family, t)
    return AqrEstimate(value=float(value), tau=t, family=family,
                       g_mass=float(mass), mass_deficit=F.mass_deficit)


def aqr_profile(F, family, taus):
    """aqr_conditional across a tau grid; non-decreasing for valid families."""
    return [aqr_conditional(F, family, t) for t in taus]


def rpad(estimate, truth):
    """Relative percentage absolute deviation: |estimate-truth|/|truth|*100."""
    if truth == 0.0:
        raise ZeroTruth("RPAD is undefined for a zero truth value")
    return abs(estimate - truth) / abs(truth) * 100.0
