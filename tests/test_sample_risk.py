import numpy as np
import pytest

from aqr.errors import (DegenerateWeights, DomainError, EmptyInput,
                        ShapeMismatch)
from aqr.families import WeightFamily, es, exp_spectral, extremile, ge, ges, qr_dirac
from aqr.oracle import normal, population_aqr
from aqr.sample_risk import (CoherenceReport, aqr_sample, coherence_check,
                             comonotone_with, order_weights, risk_sample)

tcrm_hi = WeightFamily("tcrm", schedule="half-inverse")
FAMILIES = [es(), ges(1.0), extremile(), ge("half-inverse"), tcrm_hi]


def test_uniform_weights_give_mean():
    rng = np.random.default_rng(0)
    x = rng.normal(size=37)
    for mode in ("raw", "normalized"):
        assert aqr_sample(x, ge("half-inverse"), 0.5, mode=mode) == pytest.approx(
            x.mean(), rel=1e-14)


def test_three_point_es_by_hand():
    # positions 1/4, 2/4, 3/4; ES tau=.25 weights are [4, 0, 0]
    x = [1.0, 2.0, 3.0]
    assert aqr_sample(x, es(), 0.25) == pytest.approx(1.0)
    assert aqr_sample(x, es(), 0.25, mode="raw") == pytest.approx(4.0 / 3.0)
    # GES(1) tau=.5: weights 2*(tau-s)/tau^2 = [2, 0, 0] at s=[.25,.5,.75]
    assert aqr_sample(x, ges(1.0), 0.5) == pytest.approx(1.0)
    assert aqr_sample(x, ges(1.0), 0.5, mode="raw") == pytest.approx(2.0 / 3.0)


def test_positive_homogeneity_exact_for_power_of_two():
    rng = np.random.default_rng(1)
    x = rng.standard_t(3, size=101)
    for fam in FAMILIES:
        assert aqr_sample(2.0 * x, fam, 0.1) == 2.0 * aqr_sample(x, fam, 0.1)


def test_qr_dirac_matches_plotting_position_interpolation():
    x = np.array([10.0, 20.0, 30.0])
    # n=3: positions .25/.5/.75; tau=.3 interpolates 1/5 of the way 10 -> 20
    assert aqr_sample(x, qr_dirac(), 0.5) == pytest.approx(20.0)
    assert aqr_sample(x, qr_dirac(), 0.3) == pytest.approx(12.0)
    rng = np.random.default_rng(2)
    y = rng.normal(size=50)
    for tau in (0.05, 0.3, 0.77):
        assert aqr_sample(y, qr_dirac(), tau) == pytest.approx(
            np.quantile(y, tau, method="weibull"), rel=1e-14)


def test_degenerate_weights():
    # GES(2) at tau=.05 with n=3 puts every position beyond the support
    with pytest.raises(DegenerateWeights):
        aqr_sample([1.0, 2.0, 3.0], ges(2.0), 0.05)


def test_input_validation():
    with pytest.raises(EmptyInput):
        aqr_sample([], es(), 0.1)
    with pytest.raises(DomainError):
        aqr_sample([1.0, np.nan], es(), 0.1)
    with pytest.raises(ShapeMismatch):
        aqr_sample(np.ones((3, 2)), es(), 0.1)
    with pytest.raises(DomainError):
        aqr_sample([1.0, 2.0], es(), 0.1, mode="weird")
    # the mode is checked before the weights, which are degenerate here
    with pytest.raises(DomainError):
        order_weights(es(), 0.1, 2, "weird")
    with pytest.raises(ShapeMismatch):
        coherence_check([1.0, 2.0], [1.0], es(), 0.1)


def test_risk_sign_flip():
    x = np.linspace(-1.0, 1.0, 21)
    assert risk_sample(x, es(), 0.1) == -aqr_sample(x, es(), 0.1)
    assert risk_sample(x, es(), 0.9) == aqr_sample(x, es(), 0.9)


def test_monotone_in_sample_values():
    rng = np.random.default_rng(3)
    for fam in FAMILIES:
        for _ in range(20):
            x = rng.normal(size=60)
            y = x + rng.uniform(0.0, 1.0, size=60)
            assert aqr_sample(x, fam, 0.2) <= aqr_sample(y, fam, 0.2) + 1e-12


def test_monotone_in_tau():
    rng = np.random.default_rng(4)
    x = rng.standard_t(3, size=200)
    taus = np.linspace(0.05, 0.95, 13)
    for fam in FAMILIES + [qr_dirac(), exp_spectral()]:
        vals = [aqr_sample(x, fam, t) for t in taus]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_consistency_toward_population():
    # root-n scaling: RMSE shrinks with n, and the large sample beats the
    # small one per replication at roughly the (2/pi)atan(4) ~ 84% rate the
    # error-ratio distribution implies; 150/200 is ~4 sigma below that
    pop = population_aqr(normal(), es(), 0.1)
    rng = np.random.default_rng(5)
    sizes = (250, 1000, 4000)
    errs = {n: [] for n in sizes}
    wins = 0
    for _ in range(200):
        z = rng.normal(size=4000)
        for n in sizes:
            errs[n].append(aqr_sample(z[:n], es(), 0.1) - pop)
        wins += abs(errs[4000][-1]) < abs(errs[250][-1])
    rmse = {n: np.sqrt(np.mean(np.square(errs[n]))) for n in sizes}
    assert rmse[4000] < rmse[1000] < rmse[250]
    assert rmse[4000] < 0.55 * rmse[250]
    assert wins >= 150


def test_comonotone_detection():
    x = np.array([3.0, 1.0, 2.0])
    assert comonotone_with(x, np.exp(x))
    assert comonotone_with(x, np.array([5.0, 5.0, 5.0]))
    assert not comonotone_with(x, -x)
    # ties on x broken by original index: y must follow that exact order
    x = np.array([1.0, 1.0])
    assert comonotone_with(x, np.array([0.0, 2.0]))
    assert not comonotone_with(x, np.array([2.0, 0.0]))


def test_coherence_comonotone_pair():
    rng = np.random.default_rng(6)
    x = rng.normal(size=151)
    rep = coherence_check(x, np.exp(x), es(), 0.1)
    assert rep.comonotone
    assert abs(rep.additivity_residual) < 1e-12
    assert abs(rep.homogeneity_residual) == 0.0
    assert abs(rep.translation_residual) < 1e-12
    assert rep.subadditivity_slack >= -1e-10
    assert rep.passes()


def test_coherence_antithetic_pair_has_strict_slack():
    rng = np.random.default_rng(7)
    x = rng.normal(size=151)
    rep = coherence_check(x, -x, es(), 0.1)
    assert not rep.comonotone
    assert rep.additivity_residual is None
    assert rep.subadditivity_slack > 1e-3
    assert rep.passes()


def test_subadditivity_random_pairs():
    rng = np.random.default_rng(8)
    draws = {"normal": lambda n: rng.normal(size=n),
             "t3": lambda n: rng.standard_t(3, size=n),
             "exp": lambda n: rng.exponential(size=n)}
    for fam in FAMILIES:
        for tau in (0.05, 0.9):
            for make in draws.values():
                rep = coherence_check(make(80), make(80), fam, tau)
                assert rep.subadditivity_slack >= -1e-10
                assert rep.passes()


def test_report_serialization():
    rep = coherence_check([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], es(), 0.25)
    assert rep.comonotone is True
