"""Analytic distributions and exact population values of the weighted-quantile
functional.

The population value xi_tau = int_0^1 Q(s) J_tau(s) ds is computed through the
change of variable v = G_tau(s): xi_tau = int_0^1 Q(G_tau^{-1}(v)) dv. Every
built-in family has a closed-form inverse, kept in complementary forms --
level from v (accurate near v = 0) and complement-of-level from 1-v (accurate
near v = 1) -- so the quantile argument never loses precision in either tail.
The unit integral is split at 1/2 and each half is integrated from its own
endpoint inward, which keeps the small coordinate exact and lets the
extrapolating quadrature absorb the integrable endpoint singularities that
heavy-tailed quantile functions produce.

The normal, Student t and beta quantiles call the scipy.special ufuncs
(ndtri, stdtrit, betaincinv and betainccinv) directly on the scalar levels
the quadrature asks for. They return what scipy.stats' ppf and isf return at
levels down to 1e-300, without its per-call argument handling.

scipy is imported inside the functions that call it, so that importing the
package, and every command that never asks for a population value, does not
pay scipy's import.
"""

import math
import warnings

import numpy as np

from .errors import DomainError, QuadratureFail
from .families import ALPHA_LIMIT, _tau, resolve_alpha

_DIST_KINDS = ("normal", "studentT", "exponential", "uniform", "beta",
               "frechet", "pointMass")


class AnalyticDistribution:
    """A distribution with exact (or scipy-precision) quantile function."""

    def __init__(self, kind, **params):
        if kind not in _DIST_KINDS:
            raise DomainError(f"unknown distribution kind {kind!r}")
        self.kind = kind
        self.params = dict(params)
        p = self.params
        if kind == "normal":
            if not p.get("sigma", 1.0) > 0:
                raise DomainError("normal needs sigma > 0")
            p.setdefault("mu", 0.0)
            p.setdefault("sigma", 1.0)
        elif kind == "studentT":
            if not p.get("df", 0.0) > 1.0:
                raise DomainError("studentT needs df > 1 (finite mean)")
        elif kind == "exponential":
            if not p.get("rate", 0.0) > 0:
                raise DomainError("exponential needs rate > 0")
        elif kind == "uniform":
            p.setdefault("a", 0.0)
            p.setdefault("b", 1.0)
            if not p["b"] > p["a"]:
                raise DomainError("uniform needs b > a")
        elif kind == "beta":
            if not (p.get("p", 0.0) > 0 and p.get("q", 0.0) > 0):
                raise DomainError("beta needs p, q > 0")
        elif kind == "frechet":
            if not 0.0 < p.get("gamma", 0.0) < 1.0:
                raise DomainError("frechet needs tail index gamma in (0,1)")
        elif kind == "pointMass":
            if "c" not in p or not math.isfinite(p["c"]):
                raise DomainError("pointMass needs a finite location c")

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


def _ppf_isf(dist):
    """Quantile function in two forms: from the level and from its complement."""
    from scipy import special
    k, p = dist.kind, dist.params
    if k == "normal":
        mu, sg = p["mu"], p["sigma"]
        return (lambda s: mu + sg * special.ndtri(s),
                lambda c: mu + sg * -special.ndtri(c))
    if k == "studentT":
        df = p["df"]
        return (lambda s: special.stdtrit(df, s),
                lambda c: -special.stdtrit(df, c))
    if k == "exponential":
        r = p["rate"]
        return (lambda s: -np.log1p(-s) / r, lambda c: -np.log(c) / r)
    if k == "uniform":
        a, b = p["a"], p["b"]
        return (lambda s: a + (b - a) * s, lambda c: b - (b - a) * c)
    if k == "beta":
        pp, qq = p["p"], p["q"]
        return (lambda s: special.betaincinv(pp, qq, s),
                lambda c: special.betainccinv(pp, qq, c))
    if k == "frechet":
        g = p["gamma"]
        return (lambda s: (-np.log(s)) ** -g,
                lambda c: (-np.log1p(-c)) ** -g)
    # pointMass
    c0 = p["c"]
    return (lambda s: c0, lambda c: c0)


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


def _base_level_maps(kind, tau_b, a=None, alpha=None):
    """Closed-form inverse of the base-side cumulative G.

    Returns three forms chosen to avoid catastrophic cancellation:
    s_from_v(v)  = G^{-1}(v), accurate for small v;
    c_from_u(u)  = 1 - G^{-1}(1-u), accurate for small u;
    s_comp(v)    = G^{-1}(1-v), accurate for small v (never forms 1-v).
    """
    if kind == "es":
        return (lambda v: tau_b * v,
                lambda u: 1.0 - tau_b * (1.0 - u),
                lambda v: tau_b * (1.0 - v))
    if kind == "ges":
        k = 1.0 / (1.0 + a)
        return (lambda v: tau_b if v >= 1.0 else
                -tau_b * math.expm1(math.log1p(-v) * k),
                lambda u: (1.0 - tau_b) + tau_b * u ** k,
                lambda v: -tau_b * math.expm1(k * math.log(v)))
    if kind == "ge":
        k = 1.0 / (1.0 + alpha)
        return (lambda v: 1.0 if v >= 1.0 else
                -math.expm1(math.log1p(-v) * k),
                lambda u: u ** k,
                lambda v: -math.expm1(k * math.log(v)))
    if kind == "tcrm":
        at = math.atan(alpha)

        def s_from_v(v):
            return math.tan(v * at) / alpha

        def c_from_u(u):
            td = math.tan(u * at)
            return td * (1.0 + alpha * alpha) / (alpha * (1.0 + alpha * td))

        def s_comp(v):
            # tan(at - v*at)/alpha via the tangent difference identity
            td = math.tan(v * at)
            return (alpha - td) / (alpha * (1.0 + alpha * td))

        return s_from_v, c_from_u, s_comp
    if kind == "expspectral":
        b = 2.0 * tau_b
        lb = math.log(b)
        return (lambda v: math.log1p(v * (b - 1.0)) / lb,
                lambda u: -math.log1p(-u * (b - 1.0) / b) / lb,
                lambda v: 1.0 + math.log1p(-v * (b - 1.0) / b) / lb)
    raise DomainError(f"no inverse-level map for {kind}")


def _level_maps(family, tau):
    """(s_from_v, c_from_u, s_comp) for the base side of `family` at `tau`."""
    tau_b = min(tau, 1.0 - tau)
    kind = family.kind
    ident = (lambda v: v, lambda u: u, lambda v: 1.0 - v)
    if kind in ("ge", "tcrm", "extremile"):
        alpha = resolve_alpha(family, tau)
        if abs(alpha) < ALPHA_LIMIT:
            return ident
        return _base_level_maps("ge" if kind == "extremile" else kind,
                                tau_b, alpha=alpha)
    if kind == "expspectral":
        if abs(2.0 * tau_b - 1.0) < ALPHA_LIMIT:
            return ident
        return _base_level_maps(kind, tau_b)
    if kind in ("es", "ges"):
        return _base_level_maps(kind, tau_b, a=family.a)
    raise DomainError(f"population value not defined for {kind}")


def population_aqr(dist, family, tau):
    """Population value of the weighted quantile average.

    QR-Dirac returns the plain quantile; everything else integrates
    Q(G^{-1}(v)) exactly as described in the module docstring.
    """
    from scipy import integrate
    t = _tau(tau)
    if dist.kind == "pointMass":
        return dist.params["c"]
    if family.kind == "qr-dirac":
        return quantile(dist, t)
    s_from_v, c_from_u, s_comp = _level_maps(family, t)
    lower = t <= 0.5
    ppf, isf = _ppf_isf(dist)

    def q_at(v, u):
        # v + u = 1; the small one carries full precision
        if lower:
            S = s_from_v(v)
            if S <= 0.5:
                return ppf(S) if S > 0.0 else 0.0
            C = c_from_u(u)
        else:
            S = c_from_u(v)
            if S <= 0.5:
                return ppf(S) if S > 0.0 else 0.0
            C = s_comp(v)
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
    """Closed-form limit of xi_tau / Q(tau) as tau -> 1 under a frechet tail."""
    from scipy import special
    if not 0.0 < gamma < 1.0:
        raise DomainError("gamma must lie in (0,1)")
    if kind == "ges":
        if a is None or a < 0:
            raise DomainError("GES limit needs shape a >= 0")
        return (1.0 + a) * special.beta(1.0 - gamma, 1.0 + a)
    if kind == "ge":
        if A is None or A <= 0:
            raise DomainError("GE limit needs A > 0")
        return A ** gamma * special.gamma(1.0 - gamma)
    if kind == "tcrm":
        if A is None or A <= 0:
            raise DomainError("TCRM limit needs A > 0")
        return A ** gamma / math.cos(gamma * math.pi / 2.0)
    raise DomainError(f"no tail limit for kind {kind!r}")
