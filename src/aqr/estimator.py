"""Plug-in conditional estimates from a step CDF, and the RPAD metric.

Because the estimated conditional distribution is a step function, the
defining pair of y-integrals telescopes into an exact finite sum: the value
is sum_i knot_i * [G(level_i) - G(level_{i-1})]. No quadrature, no grid.
"""

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ZeroTruth
from .families import _tau, g_value


@dataclass
class AqrEstimate:
    """One conditional estimate with the diagnostics of its reduction."""
    value: float
    tau: float
    family: Any
    x0: Any
    n_knots: int
    g_mass: float
    mass_deficit: float

    def to_json(self):
        x0 = self.x0
        if isinstance(x0, np.ndarray):
            x0 = x0.tolist()
        return {
            "value": self.value, "tau": self.tau,
            "family": self.family.to_json(), "x0": x0,
            "n_knots": self.n_knots, "g_mass": self.g_mass,
            "mass_deficit": self.mass_deficit,
        }


def aqr_conditional(F, family, tau, x0=None):
    """Exact telescoped reduction of the step CDF under the weight family.

    A final level below 1 is integrated as-is; the shortfall is recorded in
    the estimate's mass_deficit instead of being silently renormalized.
    """
    t = _tau(tau)
    knots = F.knots
    levels = F.levels
    if family.kind == "qr-dirac":
        i = int(np.searchsorted(levels, t, side="left"))
        if i == levels.size:
            # the CDF never reaches tau; report the top knot with zero mass
            value, mass = float(knots[-1]), 0.0
        else:
            value, mass = float(knots[i]), 1.0
    else:
        g = g_value(family, t, levels)
        value = float(knots @ np.diff(g, prepend=0.0))
        mass = float(g[-1])
    return AqrEstimate(value=value, tau=t, family=family, x0=x0,
                       n_knots=int(knots.size), g_mass=mass,
                       mass_deficit=F.mass_deficit)


def aqr_profile(F, family, taus, x0=None):
    """aqr_conditional across a tau grid; non-decreasing for valid families."""
    return [aqr_conditional(F, family, t, x0=x0) for t in taus]


def rpad(estimate, truth):
    """Relative percentage absolute deviation: |estimate-truth|/|truth|*100."""
    if truth == 0.0:
        raise ZeroTruth("RPAD is undefined for a zero truth value")
    return abs(estimate - truth) / abs(truth) * 100.0
