import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from aqr.errors import DomainError, ScheduleDomain, SingularDensity
from aqr.sample_risk import aqr_sample
from aqr.families import (ALPHA_LIMIT, WeightFamily, _at, _density,
                          default_s_grid, es, exp_spectral, extremile,
                          g_value, ge, ges, j_value, omega, qr_dirac,
                          tabulated, tcrm, validate_c1)

ALL_BUILTINS = [es(), ges(0.0), ges(1.0), ges(2.0), extremile(),
                ge("half-inverse"), ge("cotangent"),
                tcrm_hi := WeightFamily("tcrm", schedule="half-inverse"),
                WeightFamily("tcrm", schedule="cotangent"),
                WeightFamily("tcrm", schedule="extremile-equivalent"),
                exp_spectral()]
TAUS = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95]


def test_tau_level_bounds():
    assert g_value(es(), 0.3, 0.3) == 1.0
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(DomainError):
            g_value(es(), bad, 0.5)
    with pytest.raises(DomainError):
        j_value(es(), 0.0, 0.5)


def test_density_closed_forms():
    assert j_value(ges(0.0), 0.2, 0.1) == pytest.approx(5.0, abs=1e-14)
    assert j_value(ge("half-inverse"), 0.25, 0.5) == pytest.approx(1.0, abs=1e-14)
    # alpha_{0.5} = 0 for every schedule: the density degenerates to uniform
    for fam in (tcrm_hi, WeightFamily("tcrm", schedule="cotangent"), extremile()):
        for s in (0.0, 0.3, 0.97):
            assert j_value(fam, 0.5, s) == pytest.approx(1.0, abs=1e-12)


def test_density_boundary_is_closed():
    # the truncation indicator keeps the boundary point, so plotting-position
    # weights at s = tau stay well-defined
    assert j_value(es(), 0.25, 0.25) == pytest.approx(4.0)
    assert j_value(ges(2.0), 0.25, 0.25) == 0.0
    assert j_value(es(), 0.25, 0.2500001) == 0.0


def test_cumulative_closed_forms():
    assert g_value(ges(1.0), 0.2, 0.1) == pytest.approx(0.75, abs=1e-14)
    assert g_value(ge("half-inverse"), 0.25, 0.5) == pytest.approx(0.75, abs=1e-14)
    assert g_value(qr_dirac(), 0.3, 0.2) == 0.0
    assert g_value(qr_dirac(), 0.3, 0.3) == 1.0


def test_omega_sign():
    assert omega(0.3) == -1
    assert omega(0.5) == -1
    assert omega(0.7) == +1


def test_qr_dirac_density_is_singular():
    with pytest.raises(SingularDensity):
        j_value(qr_dirac(), 0.3, 0.2)


def test_g_endpoints_exact():
    for fam in ALL_BUILTINS:
        for t in TAUS:
            assert g_value(fam, t, 0.0) == 0.0, fam.label()
            assert g_value(fam, t, 1.0) == 1.0, fam.label()


def test_g_matches_density_integral():
    rng = np.random.default_rng(42)
    for fam in ALL_BUILTINS:
        for _ in range(4):
            t = float(rng.uniform(0.02, 0.98))
            u = float(rng.uniform(0.0, 1.0))
            tb = min(t, 1.0 - t)
            pts = sorted({p for p in (tb, 1.0 - tb, t) if 0 < p < u})
            val, _ = integrate.quad(lambda x: j_value(fam, t, x), 0.0, u,
                                    points=pts or None, limit=200)
            assert g_value(fam, t, u) == pytest.approx(val, abs=1e-8), \
                (fam.label(), t, u)


def test_density_normalizes():
    for fam in ALL_BUILTINS:
        for t in (0.05, 0.37, 0.5, 0.81):
            tb = min(t, 1.0 - t)
            val, _ = integrate.quad(lambda x: j_value(fam, t, x), 0.0, 1.0,
                                    points=sorted({tb, 1.0 - tb}), limit=200,
                                    epsabs=1e-12, epsrel=1e-12)
            assert abs(val - 1.0) < 1e-10, (fam.label(), t, val)


def test_check_free_density_integrates_bit_identically():
    # validate_c1 integrates _density, J with its shape resolved once per
    # tau and without j_value's argument checks; quad must see the same
    # values, so integral and error are unchanged
    families = ALL_BUILTINS + [ge("extremile-equivalent")]
    s = np.concatenate([default_s_grid(),
                        np.random.default_rng(3).uniform(0.0, 1.0, 200)])
    for fam in families:
        for t in (0.01, 0.05, 0.2, 0.45, 0.5, 0.55, 0.8, 0.95, 0.99):
            tb = min(t, 1.0 - t)
            quad = dict(points=sorted({tb, 1.0 - tb}), limit=200,
                        epsabs=1e-12, epsrel=1e-12)
            checked = integrate.quad(lambda x: j_value(fam, t, x),
                                     0.0, 1.0, **quad)
            density = _density(fam, t)
            free = integrate.quad(lambda x: float(density(np.float64(x))),
                                  0.0, 1.0, **quad)
            assert free == checked, (fam.label(), t)
            assert np.array_equal(density(s), j_value(fam, t, s))


def test_reverse_symmetry():
    s = np.arange(513) / 512.0
    for fam in ALL_BUILTINS:
        for t in (0.05, 0.2, 0.45):
            ja = j_value(fam, t, s)
            jb = j_value(fam, 1.0 - t, 1.0 - s)
            assert np.max(np.abs(ja - jb)) < 1e-12, fam.label()


def test_ges_saturates_above_tau():
    for a in (0.0, 1.0, 2.0):
        for u in (0.2, 0.5, 0.99):
            assert g_value(ges(a), 0.2, u) == 1.0
        # mirrored side saturates at 0 below tau
        for u in (0.0, 0.3, 0.8):
            assert g_value(ges(a), 0.8, u) == 0.0


def test_half_inverse_copies_at_quarter():
    # 1 + alpha doubles the effective sample weight at tau = 1/4
    assert _at(ge("half-inverse"), 0.25)[1] == pytest.approx(1.0)
    # extremile exponent reproduces its defining 1/2-quantile identity:
    # (1-t)^{1+alpha} = 1/2 at the base level
    r1 = _at(extremile(), 0.25)[1] + 1.0
    assert (1 - 0.25) ** r1 == pytest.approx(0.5, abs=1e-14)


def test_ges_density_past_the_float_range_is_a_domain_error():
    # the peak (1+a)/tb^(1+a) at tb = 0.05 is finite up to a = 234
    s = np.arange(1, 100) / 100.0
    assert np.all(np.isfinite(j_value(ges(234.0), 0.05, s)))
    assert np.all(np.isfinite(j_value(ges(234.0), 0.95, s)))
    for a in (235.0, 300.0):
        for tau in (0.05, 0.95):
            with pytest.raises(DomainError, match="overflows"):
                j_value(ges(a), tau, s)
        # G takes no power of tb and stays finite
        assert np.all(np.isfinite(g_value(ges(a), 0.05, s)))


def test_schedule_domain_guard():
    fam = WeightFamily("ge", schedule=lambda t: -2.0)
    with pytest.raises(ScheduleDomain):
        j_value(fam, 0.3, 0.5)


def test_vectorized_matches_scalar():
    # scalar and vector code paths may differ by one ulp in pow
    s = np.linspace(0.0, 1.0, 17)
    for fam in ALL_BUILTINS:
        jv = j_value(fam, 0.3, s)
        gv = g_value(fam, 0.3, s)
        for k, sk in enumerate(s):
            assert math.isclose(jv[k], j_value(fam, 0.3, float(sk)),
                                rel_tol=1e-14, abs_tol=0.0)
            assert math.isclose(gv[k], g_value(fam, 0.3, float(sk)),
                                rel_tol=1e-14, abs_tol=0.0)


def test_validate_c1_builtin_families_pass():
    taus = [i / 20.0 for i in range(1, 20)]
    s = [i / 128.0 for i in range(129)]
    for fam in ALL_BUILTINS + [qr_dirac()]:
        rep = validate_c1(fam, tau_grid=taus, s_grid=s)
        assert rep.passed, (fam.label(), rep.to_json())
    rep = validate_c1(qr_dirac(), tau_grid=taus, s_grid=s)
    assert rep.singular_exempt
    assert "exempt" in rep.checks["positivity_normalization"].detail


def test_validate_c1_increasing_schedule_fails_g_monotonicity():
    rep = validate_c1(WeightFamily("ge", schedule=lambda t: t),
                      tau_grid=[i / 20.0 for i in range(1, 20)],
                      s_grid=[i / 128.0 for i in range(129)])
    assert not rep.passed
    assert not rep.checks["g_tau_monotonicity"].passed
    assert rep.checks["g_tau_monotonicity"].witness["u"] > 0
    assert rep.checks["positivity_normalization"].passed


def test_validate_c1_negative_density_fails_positivity():
    s = np.arange(513) / 512.0
    rep = validate_c1(tabulated(s, 2 * s - 0.5))
    assert not rep.passed
    chk = rep.checks["positivity_normalization"]
    assert not chk.passed
    assert chk.witness["s"] < 0.25 and chk.witness["j"] < 0


def test_validate_c1_hump_density_fails_s_monotonicity():
    s = np.arange(513) / 512.0
    j = 6 * s * (1 - s)
    j = j / np.sum(0.5 * (j[1:] + j[:-1]) * np.diff(s))
    rep = validate_c1(tabulated(s, j))
    assert not rep.passed
    assert rep.checks["positivity_normalization"].passed
    chk = rep.checks["symmetry_monotonicity"]
    assert not chk.passed and "increasing" in chk.detail


def test_family_constructor_validation():
    with pytest.raises(DomainError):
        WeightFamily("nope")
    with pytest.raises(DomainError):
        ges(-1.0)
    with pytest.raises(DomainError):
        WeightFamily("es", a=1.0)
    with pytest.raises(DomainError):
        ge("sideways")
    with pytest.raises(DomainError):
        WeightFamily("extremile", schedule="half-inverse")
    with pytest.raises(DomainError):
        tabulated([0.0, 0.4], [1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        tabulated([0.1, 1.0], [1.0, 1.0])


def test_serialization_roundtrip():
    # the config dicts risk and portfolio read, one per serializable kind
    cases = [
        ({"kind": "es"}, es()),
        ({"kind": "ges", "a": 2.0}, ges(2.0)),
        ({"kind": "extremile"}, extremile()),
        ({"kind": "ge", "schedule": "cotangent"}, ge("cotangent")),
        ({"kind": "tcrm", "schedule": "half-inverse"}, tcrm_hi),
        ({"kind": "expspectral"}, exp_spectral()),
        ({"kind": "qr-dirac"}, qr_dirac()),
    ]
    for obj, fam in cases:
        assert WeightFamily.from_json(obj) == fam
    with pytest.raises(DomainError):
        WeightFamily.from_json({"kind": "es", "color": "red"})


def test_alpha_limit_uniformizes():
    # tiny alpha collapses GE/TCRM to the uniform weight exactly
    fam = WeightFamily("tcrm", schedule=lambda t: ALPHA_LIMIT / 2)
    u = np.linspace(0, 1, 9)
    assert np.array_equal(g_value(fam, 0.3, u), u)
    assert np.all(j_value(fam, 0.3, u) == 1.0)


def test_levels_next_to_zero_evaluate_without_overflow_warnings():
    # the suite turns warnings into errors, so each call below must neither
    # overflow unchecked nor return a nan
    u = np.linspace(0.0, 1.0, 11)
    assert g_value(es(), 5e-324, u).tolist() == [0.0] + [1.0] * 10
    assert g_value(es(), 1.0 - 2.0**-53, u).tolist() == [0.0] * 10 + [1.0]
    tiny = 2.2250738585072014e-308  # extremile's alpha is finite, near 3e307
    assert g_value(extremile(), tiny, u).tolist() == [0.0] + [1.0] * 10
    assert np.all(np.isfinite(j_value(tcrm(), 1e-300, u)))
    for tau in (5e-324, 1e-310):
        with pytest.raises(DomainError, match="extremile shape overflows"):
            j_value(extremile(), tau, u)


def test_tcrm_density_stays_positive_where_its_square_overflows():
    # at tau = 1e-300 the shape is near 5e299, so (1 + (alpha s)^2) atan
    # alpha passes the float range for every s above about 2.1e-146, and
    # (alpha s)^2 itself above about 2.7e-146
    alpha = _at(tcrm(), 1e-300)[1]
    s = np.array([0.0, 1e-300, 1e-160, 2e-146, 2.5e-146, 2.7e-146, 1e-100,
                  1e-10, 0.3, 1.0])
    got = j_value(tcrm(), 1e-300, s)
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        for point, value in zip(s.tolist(), got.tolist()):
            want = a / ((1 + (a * point) ** 2) * mpmath.atan(a))
            assert value == pytest.approx(float(want), rel=1e-12)
    # every plotting position keeps a positive weight
    draws = np.random.default_rng(0).normal(size=200)
    assert math.isfinite(aqr_sample(draws, tcrm(), 1e-300))
