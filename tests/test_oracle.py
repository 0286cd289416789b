import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from aqr.errors import DomainError, QuadratureFail
from aqr.families import (WeightFamily, _tau, es, exp_spectral, extremile, ge,
                          ges, level_maps, qr_dirac, tabulated)
from aqr.oracle import (AnalyticDistribution, _ppf_isf,
                        beta_dist, draw, exponential, frechet,
                        frechet_limit_ratio, normal, point_mass,
                        population_aqr, quantile, student_t, tail_index,
                        uniform)

tcrm_hi = WeightFamily("tcrm", schedule="half-inverse")
FAMILIES = [es(), ges(1.0), extremile(), ge("half-inverse"), tcrm_hi,
            exp_spectral()]


# ---------------------------------------------------------------------------
# distribution plumbing

def test_distribution_validation():
    for bad in (lambda: normal(sigma=0.0), lambda: student_t(1.0),
                lambda: exponential(0.0), lambda: uniform(2.0, 1.0),
                lambda: beta_dist(0.0, 1.0), lambda: frechet(1.0),
                lambda: frechet(0.0), lambda: point_mass(math.inf),
                lambda: AnalyticDistribution("gamma", k=2.0)):
        with pytest.raises(DomainError):
            bad()


@pytest.mark.parametrize("dist, call", [
    (normal(1.5, 2.0), lambda rng: rng.normal(1.5, 2.0, 50)),
    (student_t(4.5), lambda rng: rng.standard_t(4.5, 50)),
    (exponential(2.0), lambda rng: rng.exponential(0.5, 50)),
])
def test_draw_makes_the_kinds_own_generator_call(dist, call):
    for seed in range(3):
        got = draw(dist, np.random.default_rng(seed), 50)
        assert got.tobytes() == call(np.random.default_rng(seed)).tobytes()


@pytest.mark.parametrize("dist", [uniform(), beta_dist(2.0, 3.0),
                                  frechet(0.5), point_mass(1.0)])
def test_draw_from_a_kind_without_a_sampler_raises(dist):
    with pytest.raises(DomainError, match="no sampler"):
        draw(dist, np.random.default_rng(0), 5)


def test_tail_index_is_the_frechet_gamma_or_none():
    assert tail_index(student_t(3.0)) == 1.0 / 3.0
    assert tail_index(student_t(1.2)) == 1.0 / 1.2
    assert tail_index(frechet(0.25)) == 0.25
    for dist in (normal(), exponential(), uniform(), beta_dist(2.0, 3.0),
                 point_mass(0.0)):
        assert tail_index(dist) is None


def test_quantile_values():
    assert quantile(normal(), 0.5) == pytest.approx(0.0, abs=1e-15)
    assert quantile(normal(1.0, 2.0), 0.975) == pytest.approx(
        1.0 + 2.0 * stats.norm.ppf(0.975), rel=1e-12)
    assert quantile(exponential(2.0), 0.5) == pytest.approx(math.log(2) / 2)
    assert quantile(uniform(-1.0, 3.0), 0.25) == pytest.approx(0.0)
    # frechet: Q(s) = (-ln s)^{-gamma}
    assert quantile(frechet(0.5), math.exp(-4.0)) == pytest.approx(0.5)
    assert quantile(point_mass(3.0), 0.9) == 3.0
    with pytest.raises(DomainError):
        quantile(normal(), 1.0)


# ---------------------------------------------------------------------------
# closed-form population values, derived independently per family

def test_es_normal_closed_form():
    # lower-tail mean of a normal: -phi(Phi^{-1}(tau))/tau
    for tau in (0.05, 0.1, 0.25):
        want = -stats.norm.pdf(stats.norm.ppf(tau)) / tau
        assert population_aqr(normal(), es(), tau) == pytest.approx(want, rel=1e-10)
    # upper tail by reflection
    want = stats.norm.pdf(stats.norm.ppf(0.95)) / 0.05
    assert population_aqr(normal(), es(), 0.95) == pytest.approx(want, rel=1e-10)


def test_es_exponential_closed_form():
    # int_0^tau -log(1-s) ds = (1-tau)log(1-tau) + tau
    for tau in (0.1, 0.4):
        want = 1.0 + (1.0 - tau) * math.log(1.0 - tau) / tau
        assert population_aqr(exponential(1.0), es(), tau) == pytest.approx(
            want, rel=1e-10)


def test_uniform_closed_forms():
    # every family has an elementary first moment against U(0,1)
    assert population_aqr(uniform(), es(), 0.2) == pytest.approx(0.1, rel=1e-10)
    for a in (0.0, 1.0, 2.0):
        assert population_aqr(uniform(), ges(a), 0.1) == pytest.approx(
            0.1 / (a + 2.0), rel=1e-10)
    # half-inverse alpha at tau' = 0.25 is exactly 1
    assert population_aqr(uniform(), ge("half-inverse"), 0.25) == pytest.approx(
        1.0 / 3.0, rel=1e-10)
    assert population_aqr(uniform(), ge("half-inverse"), 0.75) == pytest.approx(
        2.0 / 3.0, rel=1e-10)
    # int_0^1 s * alpha/((1+alpha^2 s^2) atan alpha) ds, alpha = 1
    want = math.log(2.0) / (2.0 * math.atan(1.0))
    assert population_aqr(uniform(), tcrm_hi, 0.25) == pytest.approx(want, rel=1e-10)
    # int_0^1 s b^s ln(b)/(b-1) ds = b/(b-1) - 1/ln(b), b = 0.5
    want = -1.0 + 1.0 / math.log(2.0)
    assert population_aqr(uniform(), exp_spectral(), 0.25) == pytest.approx(
        want, rel=1e-10)
    assert population_aqr(uniform(), exp_spectral(), 0.75) == pytest.approx(
        1.0 - want, rel=1e-10)


def test_extremile_equals_ge_with_matching_schedule():
    for tau in (0.1, 0.5, 0.9):
        assert population_aqr(normal(), extremile(), tau) == population_aqr(
            normal(), ge("extremile-equivalent"), tau)


def test_qr_dirac_and_point_mass():
    assert population_aqr(normal(), qr_dirac(), 0.3) == quantile(normal(), 0.3)
    for fam in FAMILIES + [qr_dirac()]:
        assert population_aqr(point_mass(2.5), fam, 0.1) == 2.5


def test_midpoint_degenerates_to_mean():
    # alpha_{1/2} = 0 and b = 1 make every weight uniform: the value is E[Y]
    for fam in (extremile(), ge("cotangent"), tcrm_hi, exp_spectral()):
        assert population_aqr(exponential(1.0), fam, 0.5) == pytest.approx(
            1.0, rel=1e-9)
        assert population_aqr(beta_dist(2.0, 3.0), fam, 0.5) == pytest.approx(
            0.4, rel=1e-9)


# ---------------------------------------------------------------------------
# structural properties

def test_symmetric_distribution_antisymmetry():
    # Y symmetric about 0 gives xi_tau + xi_{1-tau} = 0
    for dist in (normal(), student_t(3.0), uniform(-1.0, 1.0)):
        for fam in FAMILIES:
            for tau in (0.05, 0.2, 0.4):
                lo = population_aqr(dist, fam, tau)
                hi = population_aqr(dist, fam, 1.0 - tau)
                assert lo + hi == pytest.approx(0.0, abs=1e-9)


def test_location_scale_equivariance():
    for fam in FAMILIES:
        for tau in (0.1, 0.9):
            base = population_aqr(normal(), fam, tau)
            shifted = population_aqr(normal(3.0, 2.0), fam, tau)
            assert shifted == pytest.approx(3.0 + 2.0 * base, rel=1e-9)


def test_tau_monotonicity():
    taus = np.linspace(0.05, 0.95, 19)
    for dist in (normal(), exponential(1.0)):
        for fam in FAMILIES:
            vals = [population_aqr(dist, fam, t) for t in taus]
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


def test_upper_tail_ordering_student_t3():
    # heavier tail emphasis gives larger upper-tail values
    vals = [population_aqr(student_t(3.0), fam, 0.95)
            for fam in (ges(1.0), es(), extremile(), ge("half-inverse"), tcrm_hi)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_gumbel_and_weibull_ordering_spot_checks():
    tau = 0.95
    q = quantile(normal(), tau)
    ext = population_aqr(normal(), extremile(), tau)
    gev = population_aqr(normal(), ge("half-inverse"), tau)
    assert ext > q > gev
    q = quantile(uniform(), tau)
    ext = population_aqr(uniform(), extremile(), tau)
    assert q > ext


def test_heavy_tail_extreme_levels_converge():
    # t(1.2) at tau = 0.98 stresses the tail transform; the integral must
    # still converge cleanly
    v = population_aqr(student_t(1.2), es(), 0.98)
    assert v > quantile(student_t(1.2), 0.98) > 0


def test_nan_quantile_raises_instead_of_returning_nan():
    # betaincinv(5, 1.5, s) is nan for s below ~2e-144
    dist = beta_dist(5.0, 1.5)
    with pytest.raises(DomainError):
        quantile(dist, 1e-150)
    with pytest.raises(QuadratureFail):
        population_aqr(dist, es(), 1e-150)
    with pytest.raises(DomainError):
        population_aqr(dist, qr_dirac(), 1e-150)
    assert math.isfinite(population_aqr(dist, es(), 1e-100))


def test_tabulated_family_has_no_population_rule():
    fam = tabulated(np.linspace(0.0, 1.0, 11), np.ones(11))
    with pytest.raises(DomainError):
        population_aqr(normal(), fam, 0.3)


# ---------------------------------------------------------------------------
# frechet tail limits

def test_frechet_limit_ratio_frozen_values():
    assert frechet_limit_ratio("ges", 0.5, a=0.0) == pytest.approx(2.0, rel=1e-12)
    assert frechet_limit_ratio("tcrm", 0.5, A=0.5) == pytest.approx(1.0, rel=1e-12)
    assert frechet_limit_ratio("ge", 0.5, A=math.log(2.0)) == pytest.approx(
        math.sqrt(math.pi * math.log(2.0)), rel=1e-12)


def test_frechet_limit_ratio_validation():
    with pytest.raises(DomainError):
        frechet_limit_ratio("ges", 1.5, a=1.0)
    with pytest.raises(DomainError):
        frechet_limit_ratio("ge", 0.5)
    with pytest.raises(DomainError):
        frechet_limit_ratio("es", 0.5)
    for kind, shape in (("ges", {"a": math.nan}), ("ge", {"A": math.nan}),
                        ("tcrm", {"A": 0.0})):
        with pytest.raises(DomainError):
            frechet_limit_ratio(kind, 0.5, **shape)


def test_population_ratio_approaches_limit():
    tau = 1.0 - 1e-5
    dist = frechet(0.5)
    got = population_aqr(dist, ges(1.0), tau) / quantile(dist, tau)
    want = frechet_limit_ratio("ges", 0.5, a=1.0)
    assert abs(got / want - 1.0) < 0.1


# ---------------------------------------------------------------------------
# the quantile ufuncs are the ones scipy.stats evaluates underneath

STATS_TWINS = [(normal(), stats.norm()), (student_t(1.2), stats.t(1.2)),
               (student_t(3.0), stats.t(3.0)),
               (beta_dist(2.0, 3.0), stats.beta(2.0, 3.0))]


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(1e-300, 0.5), st.floats(-300.0, 0.0).map(
    lambda e: 0.5 * 10.0 ** e)))
def test_ppf_isf_equal_scipy_stats(level):
    for dist, twin in STATS_TWINS:
        ppf, isf = _ppf_isf(dist)
        assert ppf(level) == twin.ppf(level)
        assert isf(level) == twin.isf(level)


def test_import_leaves_scipy_stats_unloaded():
    # scipy is imported by the functions that call it, not by the package
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import aqr, aqr.cli, sys\n"
            "assert 'scipy.stats' not in sys.modules\n"
            "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
            "assert loaded == [], loaded\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# Monte Carlo cross-check of the quadrature path

def sample_transformed(dist, family, tau, size, rng):
    """Monte Carlo draws of the transformed variable whose mean is xi_tau.

    Inverse-transform sampling through the weight cumulative: a uniform v is
    mapped to the quantile level G_tau^{-1}(v).
    """
    t = _tau(tau)
    if dist.kind == "pointMass":
        return np.full(size, dist.params["c"])
    if family.kind == "qr-dirac":
        return np.full(size, quantile(dist, t))
    s_from_v, c_from_u, s_comp = level_maps(family, t)
    lower = t <= 0.5
    ppf, isf = _ppf_isf(dist)
    v = rng.uniform(0.0, 1.0, size)
    tiny = np.nextafter(0.0, 1.0)
    S = np.array([s_from_v(vi) if lower else c_from_u(vi) for vi in v])
    C = np.array([c_from_u(1.0 - vi) if lower else s_comp(vi) for vi in v])
    use_low = S <= 0.5
    out = np.empty(size)
    out[use_low] = ppf(np.maximum(S[use_low], tiny))
    out[~use_low] = isf(np.maximum(C[~use_low], tiny))
    return out


def test_monte_carlo_agrees_with_quadrature():
    rng = np.random.default_rng(7)
    for dist, fam, tau in ((normal(), ges(1.0), 0.1),
                           (exponential(1.0), extremile(), 0.9),
                           (uniform(), tcrm_hi, 0.75)):
        draws = sample_transformed(dist, fam, tau, 200_000, rng)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert draws.mean() == pytest.approx(
            population_aqr(dist, fam, tau), abs=4.5 * se)
