import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aqr.errors import DomainError, ZeroTruth
from aqr.estimator import _telescope, aqr_conditional, aqr_profile, rpad
from aqr.experiments import builtin_families
from aqr.families import (WeightFamily, es, exp_spectral, extremile, g_value,
                          ge, ges, qr_dirac)
from aqr.kernel_cde import StepCDF

tcrm_hi = WeightFamily("tcrm", schedule="half-inverse")
FAMILIES = [es(), ges(1.0), extremile(), ge("half-inverse"), tcrm_hi,
            exp_spectral()]


def random_step_cdf(rng, n_knots=20, reach_one=True):
    knots = np.sort(rng.normal(scale=2.0, size=n_knots))
    knots += np.arange(n_knots) * 1e-9  # break exact ties
    raw = np.sort(rng.uniform(0.0, 1.0, size=n_knots))
    if reach_one:
        raw[-1] = 1.0
    return StepCDF(knots=knots, levels=raw)


def oracle_integral(F, family, tau, points=1_000_000):
    """Trapezoid integration of the defining y-integrals on a dense grid.

    The grid is refined with points just left of each knot so the step
    discontinuities contribute at most ~1e-9 each to the trapezoid error.
    """
    lo = min(float(F.knots[0]), 0.0)
    hi = max(float(F.knots[-1]), 0.0)
    eps = 1e-9 * (hi - lo + 1.0)
    # refine just left of every discontinuity: each knot, and y = 0 where
    # the integrand switches between its two defining branches
    grid = np.union1d(np.linspace(lo, hi, points),
                      np.concatenate((F.knots, F.knots - eps, [-eps, 0.0])))
    grid = grid[(grid >= lo) & (grid <= hi)]
    gf = g_value(family, tau, F.evaluate(grid))
    integrand = np.where(grid >= 0.0, 1.0 - gf, -gf)
    return float(np.trapezoid(integrand, grid))


def test_single_knot_returns_it_exactly():
    F = StepCDF(np.array([3.7]), np.array([1.0]))
    for fam in FAMILIES + [qr_dirac()]:
        for tau in (0.05, 0.5, 0.95):
            est = aqr_conditional(F, fam, tau)
            assert est.value == 3.7
            assert est.g_mass == 1.0
            assert est.mass_deficit == 0.0


def test_two_knot_es_hand_case():
    F = StepCDF(np.array([0.0, 1.0]), np.array([0.5, 1.0]))
    est = aqr_conditional(F, es(), 0.25)
    assert est.value == 0.0
    assert est.g_mass == 1.0


def test_matches_dense_grid_oracle():
    rng = np.random.default_rng(20)
    for _ in range(10):
        F = random_step_cdf(rng)
        for fam in (es(), ges(2.0), extremile(), tcrm_hi):
            for tau in (0.1, 0.5, 0.9):
                est = aqr_conditional(F, fam, tau)
                want = oracle_integral(F, fam, tau, points=200_000)
                assert est.value == pytest.approx(want, rel=1e-6, abs=1e-6)


def test_qr_dirac_picks_first_knot_at_level():
    F = StepCDF(np.array([-1.0, 2.0, 5.0]), np.array([0.3, 0.6, 1.0]))
    assert aqr_conditional(F, qr_dirac(), 0.3).value == -1.0
    assert aqr_conditional(F, qr_dirac(), 0.31).value == 2.0
    assert aqr_conditional(F, qr_dirac(), 0.61).value == 5.0
    # generic telescoped path gives the same answer through the G indicator
    g = g_value(qr_dirac(), 0.31, F.levels)
    assert float(F.knots @ np.diff(g, prepend=0.0)) == 2.0


def test_mass_deficit_flagged_not_rescaled():
    F = StepCDF(np.array([1.0, 2.0]), np.array([0.4, 0.9]))
    est = aqr_conditional(F, es(), 0.95)
    assert est.mass_deficit == pytest.approx(0.1)
    assert est.g_mass < 1.0
    # QR-Dirac above the reachable level reports the top knot, zero mass
    est = aqr_conditional(F, qr_dirac(), 0.95)
    assert est.value == 2.0
    assert est.g_mass == 0.0


def test_profile_monotone_in_tau_exactly():
    rng = np.random.default_rng(21)
    taus = np.linspace(0.05, 0.95, 13)
    for _ in range(20):
        F = random_step_cdf(rng)
        for fam in FAMILIES + [qr_dirac()]:
            vals = [e.value for e in aqr_profile(F, fam, taus)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_profile_singleton_matches_conditional():
    F = StepCDF(np.array([0.0, 1.0]), np.array([0.5, 1.0]))
    prof = aqr_profile(F, ges(1.0), [0.3])
    assert len(prof) == 1
    assert prof[0].value == aqr_conditional(F, ges(1.0), 0.3).value


def test_rpad():
    assert rpad(5.0, 5.0) == 0.0
    assert rpad(1.1, 1.0) == pytest.approx(10.0)
    assert rpad(-2.1, -2.0) == pytest.approx(5.0)
    with pytest.raises(ZeroTruth):
        rpad(1.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 25),
       st.floats(0.01, 0.99))
def test_telescope_block_matches_conditional_row_by_row(seed, rows, n_knots,
                                                        tau):
    """A block of CDFs on shared knots telescopes row by row as one CDF does.

    Some rows top out below 1, some below tau, so the quantile family meets
    CDFs that never reach its level: it must report the top knot with mass
    0, and otherwise the first knot whose level reaches tau with mass 1.
    Masses and quantile-family values are selections and must match
    exactly. A density family's value is a dot product, which the block
    takes as one matrix-vector product: its summation order may differ from
    a single row's, so each must lie within the rounding bound of an m-term
    dot product (in any order) of the exactly summed terms.
    """
    rng = np.random.default_rng(seed)
    knots = np.cumsum(rng.uniform(0.1, 1.0, n_knots)) - 0.5 * n_knots
    top = np.where(rng.random(rows) < 0.5, 1.0,
                   rng.uniform(0.0, 1.0, rows))
    levels = np.sort(rng.uniform(0.0, 1.0, (rows, n_knots)), axis=1)
    levels *= top[:, None]
    levels[:, -1] = top
    eps = np.finfo(float).eps
    for _, fam in builtin_families():
        values, masses = _telescope(knots, levels, fam, tau)
        for r in range(rows):
            est = aqr_conditional(StepCDF(knots, levels[r]), fam, tau)
            if fam.kind == "qr-dirac":
                reach = np.flatnonzero(levels[r] >= tau)
                want = ((knots[reach[0]], 1.0) if reach.size
                        else (knots[-1], 0.0))
                assert (values[r], masses[r]) == want
                assert (est.value, est.g_mass) == want
                continue
            g = g_value(fam, tau, levels[r])
            assert masses[r] == est.g_mass == g[-1]
            terms = knots * np.diff(g, prepend=0.0)
            exact = math.fsum(terms)
            bound = (n_knots + 1) * eps * float(np.sum(np.abs(terms)))
            assert abs(values[r] - exact) <= bound
            assert abs(est.value - exact) <= bound


@pytest.mark.parametrize("end, level", [(0, -1e-3), (-1, 1.001)])
def test_telescope_rejects_an_end_level_outside_the_unit_interval(end, level):
    knots = np.array([0.0, 1.0, 2.0])
    levels = np.array([[0.2, 0.5, 1.0], [0.0, 0.5, 1.0]])
    levels[1, end] = level
    for fam in FAMILIES:
        with pytest.raises(DomainError):
            _telescope(knots, levels, fam, 0.3)
