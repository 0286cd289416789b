"""Weight families over quantile levels.

Each family is a tau-indexed probability density J over [0,1] (the weight put
on each quantile level) together with its cumulative G. Estimators consume G;
J is exposed for direct L-estimator weighting and for validation. Families
defined on tau <= 1/2 extend to tau > 1/2 through the reverse rule
J_tau(s) = J_{1-tau}(1-s), equivalently G_tau(u) = 1 - G_{1-tau}((1-u)-).

scipy's quadrature is imported inside the one check that integrates J, so
that importing the package, and every command that never validates a family,
does not pay scipy's import.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ScheduleDomain, SingularDensity

KINDS = ("qr-dirac", "es", "ges", "extremile", "ge", "tcrm", "expspectral",
         "tabulated")
SCHEDULES = ("half-inverse", "cotangent", "extremile-equivalent")

# Below this size an alpha shape parameter is treated as its analytic limit
# (J == 1), covering the removable singularities of the cotangent schedule at
# tau = 1/2 and of the truncated-Cauchy density at alpha = 0.
ALPHA_LIMIT = 1e-8


def half_inverse_alpha(t):
    return 0.5 / t - 1.0


def cotangent_alpha(t):
    return 0.5 * math.pi / math.tan(math.pi * t)


def extremile_equivalent_alpha(t):
    return -math.log(2.0 - 2.0 * t) / math.log1p(-t)


def extremile_alpha(t):
    """Exponent of the extremile weight density at base level t."""
    return math.log(0.5) / math.log1p(-t) - 1.0


_SCHEDULE_FUNCS = {
    "half-inverse": half_inverse_alpha,
    "cotangent": cotangent_alpha,
    "extremile-equivalent": extremile_equivalent_alpha,
}


def _tau(tau):
    """Return tau as a float strictly inside (0,1), or raise DomainError."""
    v = float(tau)
    if not (0.0 < v < 1.0):
        raise DomainError(f"tau must lie in (0,1), got {tau!r}")
    return v


@dataclass(frozen=True)
class WeightFamily:
    """Descriptor of one weight family.

    kind : one of KINDS.
    a : shape parameter, GES only (a >= 0).
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
        if self.kind not in KINDS:
            raise DomainError(f"unknown family kind {self.kind!r}")
        if self.kind == "ges":
            a = 1.0 if self.a is None else float(self.a)
            if not (a >= 0.0 and math.isfinite(a)):
                raise DomainError(f"GES shape a must be >= 0, got {self.a!r}")
            object.__setattr__(self, "a", a)
        elif self.a is not None:
            raise DomainError(f"shape a applies to GES only, not {self.kind}")
        if self.kind in ("ge", "tcrm"):
            sched = self.schedule if self.schedule is not None else "half-inverse"
            if isinstance(sched, str) and sched not in SCHEDULES:
                raise DomainError(f"unknown schedule {sched!r}")
            if not isinstance(sched, str) and not callable(sched):
                raise DomainError("schedule must be a name or a callable")
            object.__setattr__(self, "schedule", sched)
        elif self.schedule is not None:
            raise DomainError(f"schedule applies to GE/TCRM only, not {self.kind}")
        if self.kind == "tabulated":
            gs = np.asarray(self.grid_s, dtype=float)
            gj = np.asarray(self.grid_j, dtype=float)
            if gs.ndim != 1 or gs.shape != gj.shape or gs.size < 2:
                raise DomainError("tabulated family needs matching 1-d grids")
            if gs[0] != 0.0 or gs[-1] != 1.0 or np.any(np.diff(gs) <= 0):
                raise DomainError("tabulated s-grid must increase from 0 to 1")
            object.__setattr__(self, "grid_s", tuple(gs))
            object.__setattr__(self, "grid_j", tuple(gj))
        elif self.grid_s is not None or self.grid_j is not None:
            raise DomainError("density grids apply to tabulated families only")

    @property
    def singular(self):
        return self.kind == "qr-dirac"

    def label(self):
        """Short human-readable identifier used in reports and CSV output."""
        if self.kind == "ges":
            return f"ges(a={self.a:g})"
        if self.kind in ("ge", "tcrm"):
            sched = self.schedule if isinstance(self.schedule, str) else "custom"
            return f"{self.kind}({sched})"
        return self.kind

    @classmethod
    def from_json(cls, obj):
        allowed = {"kind", "a", "schedule"}
        extra = set(obj) - allowed
        if extra:
            raise DomainError(f"unknown family fields {sorted(extra)}")
        return cls(kind=obj.get("kind"), a=obj.get("a"),
                   schedule=obj.get("schedule"))


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


def resolve_alpha(family, tau):
    """Shape exponent alpha at the base level min(tau, 1-tau).

    Applies to GE, TCRM and Extremile; returns the exact schedule value
    (callers apply the ALPHA_LIMIT rule themselves where relevant).
    """
    t = _tau(tau)
    tb = min(t, 1.0 - t)
    if family.kind == "extremile":
        return extremile_alpha(tb)
    if family.kind not in ("ge", "tcrm"):
        raise DomainError(f"{family.kind} has no alpha schedule")
    fn = _SCHEDULE_FUNCS[family.schedule] if isinstance(family.schedule, str) \
        else family.schedule
    alpha = float(fn(tb))
    if not math.isfinite(alpha) or alpha <= -1.0:
        raise ScheduleDomain(
            f"schedule gives alpha={alpha!r} at tau={t} (needs alpha > -1)")
    return alpha


def _as_unit_interval(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.min(arr) < -1e-12 or np.max(arr) > 1.0 + 1e-12):
        raise DomainError(f"{name} must lie in [0,1]")
    return np.clip(arr, 0.0, 1.0)


def _tabulated_cumulative(family):
    gs = np.asarray(family.grid_s)
    gj = np.asarray(family.grid_j)
    seg = 0.5 * (gj[1:] + gj[:-1]) * np.diff(gs)
    return gs, np.concatenate(([0.0], np.cumsum(seg)))


def j_value(family, tau, s):
    """Weight density J_tau(s); vectorized over s.

    The density indicator of the truncated families is closed at the
    boundary (J_tau(tau) = 1/tau for ES) so that discrete plotting-position
    weights at the boundary are well-defined.
    """
    t = _tau(tau)
    if family.kind == "qr-dirac":
        raise SingularDensity("the pure-quantile family has no density")
    s_arr = _as_unit_interval(s, "s")
    scalar = np.isscalar(s) or getattr(s, "ndim", 1) == 0
    out = _j_inner(family, t, s_arr)
    return float(out) if scalar else out


def _j_inner(family, t, s):
    if family.kind == "tabulated":
        return np.interp(s, family.grid_s, family.grid_j)

    tb = min(t, 1.0 - t)
    sb = s if t <= 0.5 else 1.0 - s
    if family.kind == "es":
        return np.where(sb <= tb, 1.0 / tb, 0.0)
    if family.kind == "ges":
        a = family.a
        return np.where(sb <= tb,
                        (1.0 + a) * tb ** (-1.0 - a)
                        * np.maximum(tb - sb, 0.0) ** a,
                        0.0)
    if family.kind == "expspectral":
        b = 2.0 * tb
        if abs(b - 1.0) < ALPHA_LIMIT:
            return np.ones_like(sb)
        lb = math.log(b)
        return np.exp(sb * lb) * lb / (b - 1.0)
    alpha = resolve_alpha(family, t)
    if abs(alpha) < ALPHA_LIMIT:
        return np.ones_like(sb)
    if family.kind == "tcrm":
        return alpha / ((1.0 + (alpha * sb) ** 2) * math.atan(alpha))
    # ge, extremile
    return (1.0 + alpha) * (1.0 - sb) ** alpha


def g_value(family, tau, u):
    """Cumulative weight G_tau(u) = integral of J_tau over [0,u]; vectorized.

    G(0) = 0 and G(1) = 1 exactly; QR-Dirac returns the unit step I(u >= tau).
    """
    t = _tau(tau)
    u_arr = _as_unit_interval(u, "u")
    scalar = np.isscalar(u) or getattr(u, "ndim", 1) == 0
    out = _g_inner(family, t, u_arr)
    return float(out) if scalar else out


def _g_inner(family, t, u):
    if family.kind == "qr-dirac":
        return (u >= t).astype(float)
    if family.kind == "tabulated":
        gs, cum = _tabulated_cumulative(family)
        return np.interp(u, gs, cum)

    tb = min(t, 1.0 - t)
    lower = t <= 0.5

    if family.kind == "es":
        if lower:
            return np.minimum(u / tb, 1.0)
        return np.maximum(0.0, (u - t) / tb)
    if family.kind == "ges":
        a = family.a
        if lower:
            with np.errstate(divide="ignore"):
                return np.where(u < tb,
                                -np.expm1((1.0 + a)
                                          * np.log1p(-np.minimum(u, tb) / tb)),
                                1.0)
        return np.where(u > t,
                        ((np.maximum(u, t) - t) / tb) ** (1.0 + a),
                        0.0)
    if family.kind == "expspectral":
        b = 2.0 * tb
        if abs(b - 1.0) < ALPHA_LIMIT:
            return u.copy() if isinstance(u, np.ndarray) else u
        lb = math.log(b)
        if lower:
            raw = np.expm1(u * lb) / (b - 1.0)
        else:
            raw = 1.0 - np.expm1((1.0 - u) * lb) / (b - 1.0)
        return np.where(u <= 0.0, 0.0, np.where(u >= 1.0, 1.0, raw))

    alpha = resolve_alpha(family, t)
    if abs(alpha) < ALPHA_LIMIT:
        return u.copy() if isinstance(u, np.ndarray) else u
    if family.kind == "tcrm":
        at = math.atan(alpha)
        if lower:
            return np.arctan(alpha * u) / at
        return 1.0 - np.arctan(alpha * (1.0 - u)) / at
    # ge, extremile
    if lower:
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = -np.expm1((alpha + 1.0) * np.log1p(-np.minimum(u, 1.0)))
        return np.where(u >= 1.0, 1.0, raw)
    return u ** (alpha + 1.0)


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
        return {
            "family": self.family,
            "passed": self.passed,
            "singular_exempt": self.singular_exempt,
            "checks": {
                name: {"passed": c.passed, "witness": c.witness,
                       "detail": c.detail}
                for name, c in self.checks.items()
            },
        }


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
    for t in tau_grid:
        tb = min(t, 1.0 - t)
        if family.kind == "tabulated":
            # The tabulated J *is* the piecewise-linear interpolant, whose
            # exact integral is the trapezoid sum on its own grid.
            total = float(_tabulated_cumulative(family)[1][-1])
        else:
            pts = sorted({tb, 1.0 - tb})
            # quad's nodes lie in [0,1]: skip j_value's argument checks, but
            # hand _j_inner the float64 scalar they would have made
            total, _ = integrate.quad(
                lambda x: float(_j_inner(family, t, np.float64(x))),
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
