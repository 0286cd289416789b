"""Weight families over quantile levels.

Each family is a tau-indexed probability density J over [0,1] (the weight put
on each quantile level) together with its cumulative G. Estimators consume G;
J is exposed for direct L-estimator weighting and for validation. Families
defined on tau <= 1/2 extend to tau > 1/2 through the reverse rule
J_tau(s) = J_{1-tau}(1-s), equivalently G_tau(u) = 1 - G_{1-tau}((1-u)-).

A spectral risk measure is fixed by its spectrum J (Acerbi 2002), so each
kind of family is written down once, as one Kind record in KINDS. The
functions below read the records and never branch on a kind.

scipy is imported inside the check that integrates J, so that importing the
package, and every command that never validates a family, does not pay
scipy's import.
"""

import math
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, ScheduleDomain, SingularDensity

# Below this size an alpha shape parameter is treated as its analytic limit
# (J == 1), covering the removable singularities of the cotangent schedule at
# tau = 1/2 and of the truncated-Cauchy density at alpha = 0.
ALPHA_LIMIT = 1e-8

# The alpha schedules of GE and TCRM: alpha at base level t, and the limit A
# of alpha * t as t -> 0, which fixes the Frechet tail limit.
SCHEDULES = {
    "half-inverse": (lambda t: 0.5 / t - 1.0, 0.5),
    "cotangent": (lambda t: 0.5 * math.pi / math.tan(math.pi * t), 0.5),
    "extremile-equivalent": (
        lambda t: -math.log(2.0 - 2.0 * t) / math.log1p(-t), math.log(2.0)),
}


def _tau(tau):
    """Return tau as a float strictly inside (0,1), or raise DomainError."""
    v = float(tau)
    if not (0.0 < v < 1.0):
        raise DomainError(f"tau must lie in (0,1), got {tau!r}")
    return v


# ---------------------------------------------------------------------------
# Parts of the kinds, in the kind's shape at the base level tb. The level
# maps invert the base side's G in three forms that avoid cancellation:
# s_from_v(v) = G^{-1}(v), accurate for small v;
# c_from_u(u) = 1 - G^{-1}(1-u), accurate for small u;
# s_comp(v)   = G^{-1}(1-v), accurate for small v (never forms 1-v).

def _ges_a(family):
    a = 1.0 if family.a is None else float(family.a)
    if not (a >= 0.0 and math.isfinite(a)):
        raise DomainError(f"GES shape a must be >= 0, got {family.a!r}")
    return {"a": a}


def _ges_j(a, tb, sb):
    # for a large a at a small tb the peak (1+a)/tb^(1+a) is no float
    try:
        peak = (1.0 + a) * tb ** (-1.0 - a)
    except OverflowError:
        peak = math.inf
    if math.isinf(peak):
        raise DomainError(f"GES density with a={a:g} overflows at base "
                          f"level {tb:g}; take a smaller shape a")
    return np.where(sb <= tb, peak * np.maximum(tb - sb, 0.0) ** a, 0.0)


def _ges_g(a, t, tb, u):
    if t <= 0.5:
        with np.errstate(divide="ignore"):
            return np.where(u < tb,
                            -np.expm1((1.0 + a)
                                      * np.log1p(-np.minimum(u, tb) / tb)),
                            1.0)
    return np.where(u > t, ((np.maximum(u, t) - t) / tb) ** (1.0 + a), 0.0)


def _ges_maps(a, tb):
    k = 1.0 / (1.0 + a)
    return (lambda v: tb if v >= 1.0 else
            -tb * math.expm1(math.log1p(-v) * k),
            lambda u: (1.0 - tb) + tb * u ** k,
            lambda v: -tb * math.expm1(k * math.log(v)))


def _schedule(family):
    sched = family.schedule if family.schedule is not None else "half-inverse"
    if isinstance(sched, str) and sched not in SCHEDULES:
        raise DomainError(f"unknown schedule {sched!r}")
    if not isinstance(sched, str) and not callable(sched):
        raise DomainError("schedule must be a name or a callable")
    return {"schedule": sched}


def _scheduled_alpha(family, tb):
    fn = family.schedule
    alpha = float((SCHEDULES[fn][0] if isinstance(fn, str) else fn)(tb))
    if not math.isfinite(alpha) or alpha <= -1.0:
        raise ScheduleDomain(f"schedule gives alpha={alpha!r} at base level "
                             f"{tb} (needs alpha > -1)")
    return alpha


def _extremile_alpha(family, tb):
    alpha = math.log(0.5) / math.log1p(-tb) - 1.0
    if math.isinf(alpha):
        raise DomainError(f"extremile shape overflows at base level {tb:g}; "
                          "move tau inward")
    return alpha


def _tcrm_j(alpha, tb, sb):
    # the denominator (1 + t^2) atan(alpha), t = alpha sb, passes the float
    # range only where t > about 1e154; 1 + t^2 is t^2 there to the bit, so
    # J = 1/(t sb atan alpha)
    t = alpha * sb
    with np.errstate(over="ignore", divide="ignore"):
        den = (1.0 + t ** 2) * math.atan(alpha)
        return np.where(np.isinf(den), 1.0 / (t * sb * math.atan(alpha)),
                        alpha / den)


def _ge_g(alpha, t, tb, u):
    if t <= 0.5:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            raw = -np.expm1((alpha + 1.0) * np.log1p(-np.minimum(u, 1.0)))
        return np.where(u >= 1.0, 1.0, raw)
    return u ** (alpha + 1.0)


def _ge_maps(alpha, tb):
    k = 1.0 / (1.0 + alpha)
    return (lambda v: 1.0 if v >= 1.0 else -math.expm1(math.log1p(-v) * k),
            lambda u: u ** k,
            lambda v: -math.expm1(k * math.log(v)))


def _tcrm_maps(alpha, tb):
    at = math.atan(alpha)

    def c_from_u(u):
        td = math.tan(u * at)
        return td * (1.0 + alpha * alpha) / (alpha * (1.0 + alpha * td))

    def s_comp(v):
        # tan(at - v*at)/alpha via the tangent difference identity
        td = math.tan(v * at)
        return (alpha - td) / (alpha * (1.0 + alpha * td))

    return lambda v: math.tan(v * at) / alpha, c_from_u, s_comp


def _exp_g(b, t, tb, u):
    lb = math.log(b)
    if t <= 0.5:
        raw = np.expm1(u * lb) / (b - 1.0)
    else:
        raw = 1.0 - np.expm1((1.0 - u) * lb) / (b - 1.0)
    return np.where(u <= 0.0, 0.0, np.where(u >= 1.0, 1.0, raw))


def _exp_maps(b, tb):
    lb = math.log(b)
    return (lambda v: math.log1p(v * (b - 1.0)) / lb,
            lambda u: -math.log1p(-u * (b - 1.0) / b) / lb,
            lambda v: 1.0 + math.log1p(-v * (b - 1.0) / b) / lb)


def _grids(family):
    gs = np.asarray(family.grid_s, dtype=float)
    gj = np.asarray(family.grid_j, dtype=float)
    if gs.ndim != 1 or gs.shape != gj.shape or gs.size < 2:
        raise DomainError("tabulated family needs matching 1-d grids")
    if gs[0] != 0.0 or gs[-1] != 1.0 or np.any(np.diff(gs) <= 0):
        raise DomainError("tabulated s-grid must increase from 0 to 1")
    return {"grid_s": tuple(gs), "grid_j": tuple(gj)}


def _tabulated_cumulative(family):
    gs = np.asarray(family.grid_s)
    gj = np.asarray(family.grid_j)
    seg = 0.5 * (gj[1:] + gj[:-1]) * np.diff(gs)
    return gs, np.concatenate(([0.0], np.cumsum(seg)))


class Kind(NamedTuple):
    """One kind of weight family. Its shape at a base level tb = min(tau,
    1-tau) is resolved once per (family, tau); a shape whose offset from the
    uniform weight is below ALPHA_LIMIT answers as _UNIFORM."""
    takes: tuple = ()         # the parameters beside kind
    check: Callable = None    # family -> {parameter: stored value}
    label: Callable = lambda family: family.kind
    shape: Callable = None    # (family, tb) -> shape; None: the family
    offset: Callable = None   # shape -> its distance from J == 1
    j: Callable = None        # (shape, tb, s) -> J_t(s); None: no density
    reflect: bool = True      # j is the base side's; reflect s for t > 1/2
    g: Callable = None        # (shape, t, tb, u) -> G_t(u)
    maps: Callable = None     # (shape, tb) -> (s_from_v, c_from_u, s_comp)
    mass: Callable = None     # family -> exact integral of J, if it has one
    limit: Callable = None    # (scipy.special, gamma, a or A) -> tail limit
    tail: Callable = None     # family -> (kind, limit arguments) of its tail
    config: bool = True       # a config file can name the kind


_UNIFORM = Kind(
    j=lambda _, tb, s: np.ones_like(s), reflect=False,
    g=lambda _, t, tb, u: u.copy() if isinstance(u, np.ndarray) else u,
    maps=lambda _, tb: (lambda v: v, lambda u: u, lambda v: 1.0 - v))
_GE = dict(offset=abs, g=_ge_g, maps=_ge_maps,
           j=lambda alpha, tb, sb: (1.0 + alpha) * (1.0 - sb) ** alpha)
_SCHEDULED = dict(
    takes=("schedule",), check=_schedule, shape=_scheduled_alpha,
    label=lambda f: "{}({})".format(
        f.kind, f.schedule if isinstance(f.schedule, str) else "custom"),
    tail=lambda f: (f.kind, {"A": SCHEDULES[f.schedule][1]
                             if isinstance(f.schedule, str) else None}))

KINDS = {
    "qr-dirac": Kind(g=lambda _, t, tb, u: (u >= t).astype(float)),
    "es": Kind(
        j=lambda _, tb, sb: np.where(sb <= tb, 1.0 / tb, 0.0),
        g=lambda _, t, tb, u: (np.minimum(u, tb) / tb if t <= 0.5
                               else np.maximum(0.0, (u - t) / tb)),
        maps=lambda _, tb: (lambda v: tb * v,
                            lambda u: 1.0 - tb * (1.0 - u),
                            lambda v: tb * (1.0 - v)),
        tail=lambda f: ("ges", {"a": 0.0})),
    "ges": Kind(takes=("a",), check=_ges_a, shape=lambda f, tb: f.a,
                label=lambda f: f"ges(a={f.a:g})", j=_ges_j,
                g=_ges_g, maps=_ges_maps, tail=lambda f: ("ges", {"a": f.a}),
                limit=lambda sp, gamma, a: (1.0 + a)
                * sp.beta(1.0 - gamma, 1.0 + a)),
    "extremile": Kind(
        **_GE, shape=_extremile_alpha,
        tail=lambda f: ("ge", {"A": math.log(2.0)})),
    "ge": Kind(**_GE, **_SCHEDULED,
               limit=lambda sp, gamma, A: A ** gamma * sp.gamma(1.0 - gamma)),
    "tcrm": Kind(
        **_SCHEDULED, offset=abs,
        limit=lambda sp, gamma, A: (A ** gamma
                                    / math.cos(gamma * math.pi / 2.0)),
        j=_tcrm_j,
        g=lambda alpha, t, tb, u: (
            np.arctan(alpha * u) / math.atan(alpha) if t <= 0.5
            else 1.0 - np.arctan(alpha * (1.0 - u)) / math.atan(alpha)),
        maps=_tcrm_maps),
    "expspectral": Kind(shape=lambda f, tb: 2.0 * tb,
                        offset=lambda b: b - 1.0, g=_exp_g, maps=_exp_maps,
                        j=lambda b, tb, sb: np.exp(sb * math.log(b))
                        * math.log(b) / (b - 1.0)),
    "tabulated": Kind(takes=("grid_s", "grid_j"), check=_grids,
                      j=lambda f, tb, s: np.interp(s, f.grid_s, f.grid_j),
                      reflect=False,
                      g=lambda f, t, tb, u: np.interp(
                          u, *_tabulated_cumulative(f)),
                      # J is the piecewise-linear interpolant, whose exact
                      # integral is the trapezoid sum on its own grid
                      mass=lambda f: float(_tabulated_cumulative(f)[1][-1]),
                      config=False),
}
_CONFIG_FIELDS = {"kind"}.union(*(k.takes for k in KINDS.values() if k.config))


def _at(family, t):
    """The family's kind record, its shape at t and the base level."""
    kind = KINDS[family.kind]
    tb = min(t, 1.0 - t)
    shape = family if kind.shape is None else kind.shape(family, tb)
    if kind.offset is not None and abs(kind.offset(shape)) < ALPHA_LIMIT:
        kind = _UNIFORM
    return kind, shape, tb


@dataclass(frozen=True)
class WeightFamily:
    """Descriptor of one weight family.

    kind : a name in KINDS; its record says which other fields it takes.
    a : shape parameter, GES only (a >= 0, default 1).
    schedule : alpha schedule for GE/TCRM; a name from SCHEDULES or, as a
        test-only escape hatch, a callable tau -> alpha.
    grid_s, grid_j : tabulated density values (test-only escape hatch);
        J is the piecewise-linear interpolant, independent of tau.
    """

    kind: str
    a: float = None
    schedule: object = None
    grid_s: tuple = None
    grid_j: tuple = None

    def __post_init__(self):
        kind = KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if kind is None:
            raise DomainError(f"unknown family kind {self.kind!r}")
        for field in fields(self)[1:]:
            if field.name not in kind.takes \
                    and getattr(self, field.name) is not None:
                raise DomainError(f"{self.kind} takes no {field.name}")
        for name, value in (kind.check(self) if kind.check else {}).items():
            object.__setattr__(self, name, value)

    @property
    def singular(self):
        """True for the pure-quantile family, whose weight has no density."""
        return KINDS[self.kind].j is None

    def label(self):
        """Short human-readable identifier used in reports and CSV output."""
        return KINDS[self.kind].label(self)

    @classmethod
    def from_json(cls, obj):
        extra = set(obj) - _CONFIG_FIELDS
        if extra:
            raise DomainError(f"unknown family fields {sorted(extra)}")
        return cls(**{"kind": None, **obj})  # no kind is an unknown kind


def qr_dirac():
    return WeightFamily("qr-dirac")


def es():
    return WeightFamily("es")


def ges(a=1.0):
    return WeightFamily("ges", a=a)


def extremile():
    return WeightFamily("extremile")


def ge(schedule="half-inverse"):
    return WeightFamily("ge", schedule=schedule)


def tcrm(schedule="half-inverse"):
    return WeightFamily("tcrm", schedule=schedule)


def exp_spectral():
    return WeightFamily("expspectral")


def tabulated(grid_s, grid_j):
    return WeightFamily("tabulated", grid_s=tuple(grid_s), grid_j=tuple(grid_j))


def omega(tau):
    """Sign turning the weighted quantile average into a risk measure."""
    return -1 if _tau(tau) <= 0.5 else +1


def level_maps(family, t):
    """(s_from_v, c_from_u, s_comp) for the base side of `family` at t."""
    kind, shape, tb = _at(family, t)
    if kind.maps is None:
        raise DomainError(f"population value not defined for {family.kind}")
    return kind.maps(shape, tb)


def _on_unit_interval(fn, x, name):
    """fn at x checked and clipped into [0,1]; a float for a scalar x."""
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.min(arr) < -1e-12 or np.max(arr) > 1.0 + 1e-12):
        raise DomainError(f"{name} must lie in [0,1]")
    out = fn(np.clip(arr, 0.0, 1.0))
    return float(out) if np.isscalar(x) or getattr(x, "ndim", 1) == 0 else out


def _density(family, t):
    """J_t on [0,1] with the shape at t resolved once; it checks nothing."""
    kind, shape, tb = _at(family, t)
    if kind.j is None:
        raise SingularDensity("the pure-quantile family has no density")
    if t <= 0.5 or not kind.reflect:
        return partial(kind.j, shape, tb)
    return lambda s: kind.j(shape, tb, 1.0 - s)  # the reverse rule


def j_value(family, tau, s):
    """Weight density J_tau(s); vectorized over s.

    The density indicator of the truncated families is closed at the
    boundary (J_tau(tau) = 1/tau for ES) so that discrete plotting-position
    weights at the boundary are well-defined.
    """
    return _on_unit_interval(_density(family, _tau(tau)), s, "s")


def g_value(family, tau, u):
    """Cumulative weight G_tau(u) = integral of J_tau over [0,u]; vectorized.

    G(0) = 0 and G(1) = 1 exactly; QR-Dirac returns the unit step I(u >= tau).
    """
    return _on_unit_interval(partial(_g_inner, family, _tau(tau)), u, "u")


def _g_inner(family, t, u):
    kind, shape, tb = _at(family, t)
    return kind.g(shape, t, tb, u)


def default_tau_grid():
    """99 levels, 0.01 steps."""
    return [i / 100.0 for i in range(1, 100)]


def default_s_grid():
    """513 dyadic points in [0,1]: reflection 1-s is exact in floats."""
    return [i / 512.0 for i in range(513)]


@dataclass
class CheckResult:
    passed: bool
    witness: dict = None
    detail: str = ""


@dataclass
class ValidationReport:
    family: str
    passed: bool
    singular_exempt: bool
    checks: dict

    def to_json(self):
        return asdict(self)


def _check_positivity_normalization(family, tau_grid, s_grid):
    from scipy import integrate
    s = np.asarray(s_grid)
    for t in tau_grid:
        j = j_value(family, t, s)
        bad = np.flatnonzero(j < -1e-15)
        if bad.size:
            k = bad[0]
            return CheckResult(False, {"tau": t, "s": float(s[k]),
                                       "j": float(j[k])},
                               "negative density value")
    mass = KINDS[family.kind].mass
    for t in tau_grid:
        tb = min(t, 1.0 - t)
        if mass is not None:
            total = mass(family)
        else:
            pts = sorted({tb, 1.0 - tb})
            density = _density(family, t)  # quad's nodes need no checks
            total, _ = integrate.quad(
                lambda x: float(density(np.float64(x))),
                0.0, 1.0, points=pts, limit=200, epsabs=1e-12, epsrel=1e-12)
        if abs(total - 1.0) >= 1e-10:
            return CheckResult(False, {"tau": t, "integral": total},
                               "density does not integrate to 1")
    return CheckResult(True, detail="non-negative, integrates to 1 on grid")


def _check_symmetry_monotonicity(family, tau_grid, s_grid):
    s = np.asarray(s_grid)
    r = 1.0 - s
    for t in tau_grid:
        if t >= 0.5:
            continue
        ja = j_value(family, t, s)
        jb = j_value(family, 1.0 - t, r)
        gap = np.abs(ja - jb)
        k = int(np.argmax(gap))
        if gap[k] > 1e-12:
            return CheckResult(False, {"tau": t, "s": float(s[k]),
                                       "gap": float(gap[k])},
                               "reverse symmetry J_tau(s) = J_{1-tau}(1-s) fails")
    for t in tau_grid:
        j = j_value(family, t, s)
        d = np.diff(j)
        if t <= 0.5:
            bad = np.flatnonzero(d > 1e-12)
            direction = "non-increasing"
        else:
            bad = np.flatnonzero(d < -1e-12)
            direction = "non-decreasing"
        if bad.size:
            k = bad[0]
            return CheckResult(False, {"tau": t, "s": float(s[k + 1]),
                                       "step": float(d[k])},
                               f"density not {direction} in s")
    return CheckResult(True, detail="reverse-symmetric, monotone in s")


def _check_g_tau_monotone(family, tau_grid, s_grid):
    u = np.asarray(s_grid)
    prev_t = None
    prev_g = None
    for t in tau_grid:
        g = g_value(family, t, u)
        if prev_g is not None:
            bad = np.flatnonzero(g > prev_g + 1e-12)
            if bad.size:
                k = bad[0]
                return CheckResult(
                    False,
                    {"tau_from": prev_t, "tau_to": t, "u": float(u[k]),
                     "increase": float(g[k] - prev_g[k])},
                    "G increases in tau at fixed u")
        prev_t, prev_g = t, g
    return CheckResult(True, detail="G non-increasing in tau at each u")


def validate_c1(family, tau_grid=None, s_grid=None):
    """Machine check of the weight-density regularity conditions.

    Sub-conditions: (i) positivity + unit normalization of J, (ii) reverse
    symmetry across tau and monotonicity of J in s, (iii) monotonicity of G
    in tau at fixed u. The Dirac family has no density; it is exempted from
    (i) and (ii) with the exemption recorded, and only (iii) is evaluated.
    Failures are reported with the witnessing grid point, not raised.
    """
    tau_grid = sorted(_tau(t) for t in (tau_grid or default_tau_grid()))
    s_grid = list(s_grid if s_grid is not None else default_s_grid())
    if not tau_grid or not s_grid:
        raise DomainError("validation grids must be non-empty")

    checks = {}
    if family.singular:
        exempt = CheckResult(True, detail="exempt: Dirac weight has no density")
        checks["positivity_normalization"] = exempt
        checks["symmetry_monotonicity"] = exempt
    else:
        checks["positivity_normalization"] = \
            _check_positivity_normalization(family, tau_grid, s_grid)
        checks["symmetry_monotonicity"] = \
            _check_symmetry_monotonicity(family, tau_grid, s_grid)
    checks["g_tau_monotonicity"] = _check_g_tau_monotone(family, tau_grid, s_grid)

    return ValidationReport(
        family=family.label(),
        passed=all(c.passed for c in checks.values()),
        singular_exempt=family.singular,
        checks=checks,
    )
