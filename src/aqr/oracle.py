"""Analytic distributions and exact population values of the weighted-quantile
functional.

The population value xi_tau = int_0^1 Q(s) J_tau(s) ds is computed through the
change of variable v = G_tau(s): xi_tau = int_0^1 Q(G_tau^{-1}(v)) dv, with
the closed-form inverse families.level_maps, whose complementary forms keep
the quantile argument precise in either tail. The unit integral is split at
1/2 and each half is integrated from its own endpoint inward, which keeps
the small coordinate exact and lets the extrapolating quadrature absorb the
integrable endpoint singularities of heavy-tailed quantile functions.

Each distribution kind is one Law record in _DIST_KINDS. The normal,
Student t and beta quantiles call the scipy.special ufuncs directly on the
scalar levels the quadrature asks for. They return what scipy.stats' ppf
and isf return at levels down to 1e-300, without its argument handling.

scipy is imported inside the functions that call it, so that importing the
package, and every command that never asks for a population value, does not
pay scipy's import.
"""

import math
import warnings
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, QuadratureFail
from .families import KINDS, _tau, level_maps


class Law(NamedTuple):
    """One distribution kind: its parameters and their defaults (None for
    one without), the rule they meet, the quantile function from the level
    and its complement, a point mass's value, the sampler and the Frechet
    tail index. The callables take the parameters by name."""
    params: dict
    valid: Callable         # parameters -> bool
    needs: str
    quantiles: Callable     # (scipy.special, parameters) -> (ppf, isf)
    constant: Callable = None
    sample: Callable = None  # (rng, n, parameters) -> n draws
    gamma: Callable = None   # parameters -> Frechet tail index


_DIST_KINDS = {
    "normal": Law(
        {"mu": 0.0, "sigma": 1.0}, lambda mu, sigma: sigma > 0, "sigma > 0",
        lambda sp, mu, sigma: (lambda s: mu + sigma * sp.ndtri(s),
                               lambda c: mu + sigma * -sp.ndtri(c)),
        sample=lambda rng, n, mu, sigma: rng.normal(mu, sigma, n)),
    "studentT": Law(
        {"df": None}, lambda df=0.0: df > 1.0, "df > 1 (finite mean)",
        lambda sp, df: (lambda s: sp.stdtrit(df, s),
                        lambda c: -sp.stdtrit(df, c)),
        sample=lambda rng, n, df: rng.standard_t(df, n),
        gamma=lambda df: 1 / df),
    "exponential": Law(
        {"rate": None}, lambda rate=0.0: rate > 0, "rate > 0",
        lambda sp, rate: (lambda s: -np.log1p(-s) / rate,
                          lambda c: -np.log(c) / rate),
        sample=lambda rng, n, rate: rng.exponential(1 / rate, n)),
    "uniform": Law(
        {"a": 0.0, "b": 1.0}, lambda a, b: b > a, "b > a",
        lambda sp, a, b: (lambda s: a + (b - a) * s,
                          lambda c: b - (b - a) * c)),
    "beta": Law(
        {"p": None, "q": None}, lambda p=0.0, q=0.0: p > 0 and q > 0,
        "p, q > 0",
        lambda sp, p, q: (lambda s: sp.betaincinv(p, q, s),
                          lambda c: sp.betainccinv(p, q, c))),
    "frechet": Law(
        {"gamma": None}, lambda gamma=0.0: 0.0 < gamma < 1.0,
        "tail index gamma in (0,1)",
        lambda sp, gamma: (lambda s: (-np.log(s)) ** -gamma,
                           lambda c: (-np.log1p(-c)) ** -gamma),
        gamma=lambda gamma: gamma),
    "pointMass": Law(
        {"c": None}, lambda c=math.nan: math.isfinite(c),
        "a finite location c", lambda sp, c: (lambda s: c, lambda _: c),
        constant=lambda c: c),
}


class AnalyticDistribution:
    """A distribution with exact (or scipy-precision) quantile function."""

    def __init__(self, kind, **params):
        law = _DIST_KINDS.get(kind) if isinstance(kind, str) else None
        if law is None:
            raise DomainError(f"unknown distribution kind {kind!r}")
        self.kind = kind
        self.params = {**{key: value for key, value in law.params.items()
                          if value is not None}, **params}
        if set(params) - set(law.params) or not law.valid(**self.params):
            raise DomainError(f"{kind} takes {', '.join(law.params)} and "
                              f"needs {law.needs}")

    def __repr__(self):
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.kind}({inner})"


def normal(mu=0.0, sigma=1.0):
    return AnalyticDistribution("normal", mu=mu, sigma=sigma)


def student_t(df):
    return AnalyticDistribution("studentT", df=df)


def exponential(rate=1.0):
    return AnalyticDistribution("exponential", rate=rate)


def uniform(a=0.0, b=1.0):
    return AnalyticDistribution("uniform", a=a, b=b)


def beta_dist(p, q):
    return AnalyticDistribution("beta", p=p, q=q)


def frechet(gamma):
    return AnalyticDistribution("frechet", gamma=gamma)


def point_mass(c):
    return AnalyticDistribution("pointMass", c=c)


def draw(dist, rng, n):
    """n draws of dist from the numpy Generator rng."""
    sample = _DIST_KINDS[dist.kind].sample
    if sample is None:
        raise DomainError(f"no sampler for {dist.kind}")
    return sample(rng, n, **dist.params)


def tail_index(dist):
    """The Frechet tail index gamma of dist; None outside that domain."""
    gamma = _DIST_KINDS[dist.kind].gamma
    return None if gamma is None else gamma(**dist.params)


def _ppf_isf(dist):
    """Quantile function in two forms: from the level and from its complement."""
    from scipy import special
    return _DIST_KINDS[dist.kind].quantiles(special, **dist.params)


def quantile(dist, s):
    """Inverse CDF at level s in (0,1)."""
    s = float(s)
    if not (0.0 < s < 1.0):
        raise DomainError(f"quantile level must lie in (0,1), got {s!r}")
    ppf, isf = _ppf_isf(dist)
    value = float(ppf(s) if s <= 0.5 else isf(1.0 - s))
    if math.isnan(value):
        raise DomainError(f"{dist!r} has no computable quantile at {s!r}")
    return value


def population_aqr(dist, family, tau):
    """Population value of the weighted quantile average.

    QR-Dirac returns the plain quantile; everything else integrates
    Q(G^{-1}(v)) exactly as described in the module docstring.
    """
    from scipy import integrate
    t = _tau(tau)
    constant = _DIST_KINDS[dist.kind].constant
    if constant is not None:
        return constant(**dist.params)
    if family.singular:
        return quantile(dist, t)
    s_from_v, c_from_u, s_comp = level_maps(family, t)
    lower = t <= 0.5
    ppf, isf = _ppf_isf(dist)

    def q_at(v, u):
        # v + u = 1; the small one carries full precision
        S = s_from_v(v) if lower else c_from_u(v)
        if S <= 0.5:
            return ppf(S) if S > 0.0 else 0.0
        C = c_from_u(u) if lower else s_comp(v)
        if C <= 0.0:
            return 0.0
        return isf(C)

    with warnings.catch_warnings():
        # the returned estimates are gated below; quadpack's advisory
        # warnings would otherwise leak to callers
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        i1, e1 = integrate.quad(lambda v: q_at(v, 1.0 - v), 0.0, 0.5,
                                limit=300, epsabs=1e-10, epsrel=1e-10)
        i2, e2 = integrate.quad(lambda u: q_at(1.0 - u, u), 0.0, 0.5,
                                limit=300, epsabs=1e-10, epsrel=1e-10)
    value = i1 + i2
    err = e1 + e2
    # a nan from the quantile ufuncs would slip past the error gate below
    if not (math.isfinite(value) and math.isfinite(err)):
        raise QuadratureFail(
            f"population integral is not finite (value={value:g}, "
            f"err={err:g})", estimate=err)
    if err > max(1e-8, 1e-8 * abs(value)):
        raise QuadratureFail(
            f"population integral did not converge (err={err:g})", estimate=err)
    return value


def frechet_limit_ratio(kind, gamma, a=None, A=None):
    """Closed-form limit of xi_tau / Q(tau) as tau -> 1 under a frechet tail:
    GES in its shape a >= 0, GE and TCRM in the limit A > 0 of their
    alpha * (1-tau)."""
    from scipy import special
    if not 0.0 < gamma < 1.0:
        raise DomainError("gamma must lie in (0,1)")
    limit = KINDS[kind].limit if kind in KINDS else None
    if limit is None:
        raise DomainError(f"no tail limit for kind {kind!r}")
    shape, rule = (a, "a >= 0") if "a" in KINDS[kind].takes else (A, "A > 0")
    if shape is None or not shape >= 0 or shape == 0 and rule == "A > 0":
        raise DomainError(f"{kind} limit needs {rule}")
    return limit(special, gamma, shape)
