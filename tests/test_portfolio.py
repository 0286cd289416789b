import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from aqr.errors import DegenerateSeries, DomainError, ShapeMismatch
from aqr.families import _tau, es, extremile, ges, j_value, omega, qr_dirac
from aqr.portfolio import (PortfolioWeights, ReturnsMatrix, evaluate,
                           optimize_weights, portfolio_risk, project_simplex)
from aqr.sample_risk import risk_sample


def sample_returns(seed, days=250, d=3):
    rng = np.random.default_rng(seed)
    means = rng.uniform(-0.001, 0.002, d)
    return ReturnsMatrix(rng.normal(means, 0.01, (days, d)))


def grid_risk_curve(returns, family, tau, step=1e-3):
    """Exhaustive 2-asset oracle: risk along alpha = (a, 1-a)."""
    grid = np.arange(0.0, 1.0 + step / 2.0, step)
    vals = [risk_sample(returns.R @ np.array([a, 1.0 - a]), family, tau)
            for a in grid]
    return grid, np.asarray(vals)


def test_returns_matrix_validation():
    with pytest.raises(ShapeMismatch):
        ReturnsMatrix(np.zeros(5))
    with pytest.raises(DomainError):
        ReturnsMatrix(np.zeros((1, 3)))
    with pytest.raises(DomainError):
        ReturnsMatrix(np.full((5, 2), np.nan))
    with pytest.raises(ShapeMismatch):
        ReturnsMatrix(np.zeros((5, 2)), labels=("just-one",))
    r = ReturnsMatrix(np.zeros((5, 2)))
    assert r.labels == ("asset1", "asset2")
    assert (r.days, r.d) == (5, 2)


def test_weights_validation_and_clipping():
    with pytest.raises(DomainError):
        PortfolioWeights(np.array([0.7, 0.2]))
    with pytest.raises(DomainError):
        PortfolioWeights(np.array([1.2, -0.2]))
    w = PortfolioWeights(np.array([1.0 + 5e-13, -5e-13]))
    assert w.alpha[1] == 0.0


def test_single_asset_risk_matches_sample_estimator():
    returns = sample_returns(0, d=1)
    w = PortfolioWeights(np.ones(1))
    got = portfolio_risk(returns, w, es(), 0.1)
    assert got == risk_sample(returns.R[:, 0], es(), 0.1)


def test_risk_additive_for_comonotone_columns():
    rng = np.random.default_rng(1)
    base = rng.normal(0.0, 0.01, 300)
    returns = ReturnsMatrix(np.column_stack([base, 2.0 * base + 0.003]))
    e1 = PortfolioWeights(np.array([1.0, 0.0]))
    e2 = PortfolioWeights(np.array([0.0, 1.0]))
    mix = PortfolioWeights(np.array([0.3, 0.7]))
    for tau in (0.1, 0.9):
        want = 0.3 * portfolio_risk(returns, e1, es(), tau) \
            + 0.7 * portfolio_risk(returns, e2, es(), tau)
        got = portfolio_risk(returns, mix, es(), tau)
        assert got == pytest.approx(want, abs=1e-12)


def test_uniform_shift_lowers_lower_tail_risk_by_shift():
    returns = sample_returns(2)
    w = PortfolioWeights(np.array([0.5, 0.25, 0.25]))
    base = portfolio_risk(returns, w, extremile(), 0.1)
    shifted = ReturnsMatrix(returns.R + 0.004)
    got = portfolio_risk(shifted, w, extremile(), 0.1)
    assert got == pytest.approx(base - 0.004, abs=1e-12)


def test_project_simplex():
    out = project_simplex(np.array([0.9, 0.6, -0.4]))
    assert out.min() >= 0.0
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    keep = project_simplex(np.array([0.2, 0.5, 0.3]))
    assert np.allclose(keep, [0.2, 0.5, 0.3], atol=1e-15)


@pytest.mark.filterwarnings("error")
def test_project_simplex_needs_a_finite_point():
    for v in (np.array([]), np.empty((0, 3)), np.float64(1.0)):
        with pytest.raises(ShapeMismatch):
            project_simplex(v)
    # nan and inf would give nan weights, with RuntimeWarnings
    for v in ([np.nan, 1.0], [np.inf, 1.0], [[1.0, -np.inf], [0.0, 0.0]]):
        with pytest.raises(DomainError, match="finite"):
            project_simplex(np.array(v))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: arrays(
    float, st.tuples(st.just(d), st.integers(1, 6)),
    elements=st.one_of(st.floats(-10.0, 10.0),
                       st.sampled_from([-1.0, 0.0, 0.5, 1.0])))))
def test_project_simplex_matrix_is_its_columns(v):
    # the batched optimizer projects all starts as one d x S matrix; each
    # column must come out exactly as the vector projection would give it
    out = project_simplex(v)
    want = np.column_stack([project_simplex(v[:, s])
                            for s in range(v.shape[1])])
    assert np.array_equal(out, want)
    assert out.min() >= 0.0
    assert np.allclose(out.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)


def test_optimize_single_asset():
    returns = sample_returns(3, d=1)
    out = optimize_weights(returns, es(), 0.1)
    assert np.array_equal(out.alpha, np.ones(1))
    assert out.risk == portfolio_risk(returns, out, es(), 0.1)
    assert out.diagnostics == {"starts": 1, "improved": False,
                               "best_start": 0,
                               "start_objectives": [out.risk],
                               "best_iteration": [0]}


def _reference_optimize(returns, family, tau, starts, iterations, seed):
    """The optimizer as one projected-subgradient loop per start, each
    iterate sorted once for the objective and again for the subgradient.
    Returns the winning start, its weights, and each start's initial and
    best objective with the iteration that reached the best."""
    R = returns.R
    n, d = R.shape
    sign = omega(tau)
    t_ = _tau(tau)
    if family.kind == "qr-dirac":
        w = np.zeros(n)
        position = t_ * (n + 1)
        k = int(math.floor(position))
        w[k - 1], w[k] = 1.0 - (position - k), position - k
    else:
        w = j_value(family, t_, np.arange(1, n + 1) / (n + 1.0))
        w = w / w.sum()

    def project(v):
        u = np.sort(v)[::-1]
        cumulative = np.cumsum(u) - 1.0
        support = np.flatnonzero(
            u - cumulative / np.arange(1, v.size + 1) > 0.0)[-1]
        return np.maximum(v - cumulative[support] / (support + 1.0), 0.0)

    def objective(alpha):
        series = R @ alpha
        return sign * float(series[np.argsort(series, kind="stable")] @ w)

    def subgradient(alpha):
        series = R @ alpha
        order = np.argsort(series, kind="stable")
        changes = np.diff(series[order]) != 0.0
        rows = w
        if not changes.all():
            block_starts = np.concatenate(([0], np.flatnonzero(changes) + 1))
            counts = np.diff(np.concatenate((block_starts, [n])))
            rows = np.repeat(np.add.reduceat(w, block_starts) / counts,
                             counts)
        return sign * (rows @ R[order])

    rng = np.random.default_rng(seed)
    points = [np.eye(d)[k] for k in range(d)]
    while len(points) < max(starts, d):
        points.append(rng.dirichlet(np.ones(d)))
    first, best, best_at, alphas = [], [], [], []
    for start in points:
        alpha = project(start)
        value = objective(alpha)
        first.append(value)
        run_alpha, run_value, run_at = alpha, value, 0
        for t in range(iterations):
            g = subgradient(alpha)
            norm = float(np.linalg.norm(g))
            if norm == 0.0:
                break
            alpha = project(alpha - math.sqrt(2.0 / (t + 1.0)) * g / norm)
            value = objective(alpha)
            if value < run_value:
                run_alpha, run_value, run_at = alpha, value, t + 1
        best.append(run_value)
        best_at.append(run_at)
        alphas.append(run_alpha)
    winner = min(range(len(points)), key=lambda i: (best[i], i))
    return winner, alphas[winner], np.array(first), np.array(best), best_at


def _exchangeable_returns(seed):
    # each day stacked with its swap: the series at equal weights tie in
    # pairs, so the subgradient must average tied blocks
    half = np.random.default_rng(seed).normal(0.0, 0.01, (60, 2))
    return ReturnsMatrix(np.vstack([half, half[:, ::-1]]))


def _rounded_returns(seed):
    # returns on a 0.1 % grid: every vertex series is full of ties
    rng = np.random.default_rng(seed)
    return ReturnsMatrix(np.round(rng.normal(0.001, 0.01, (120, 4)), 3))


def _stalling_returns():
    # every column sums to exactly zero in any order, so at the first
    # vertex (a zero series, one tied block) the subgradient vanishes and
    # that start stops while the others go on
    R = np.zeros((40, 3))
    R[3, 1], R[10, 1] = 0.004, -0.004
    R[5, 2], R[20, 2] = 0.006, -0.006
    return ReturnsMatrix(R)


@pytest.mark.parametrize("returns, family, tau", [
    (sample_returns(20, days=120), es(), 0.1),
    (sample_returns(21, days=150, d=6), extremile(), 0.9),
    (sample_returns(22, days=100, d=4), qr_dirac(), 0.1),
    (_exchangeable_returns(23), es(), 0.1),
    (_exchangeable_returns(24), ges(1.0), 0.9),
    (_rounded_returns(25), es(), 0.05),
    (_rounded_returns(26), ges(1.0), 0.1),
    (_stalling_returns(), es(), 0.1),
], ids=["gaussian-es", "six-assets-extremile", "qr-dirac",
        "exchangeable-es", "exchangeable-ges", "rounded-es", "rounded-ges",
        "stalling-start"])
def test_batched_starts_match_per_start_loop(returns, family, tau):
    winner, alpha, first, best, best_at = _reference_optimize(
        returns, family, tau, starts=6, iterations=25, seed=3)
    out = optimize_weights(returns, family, tau, starts=6, iterations=25,
                           seed=3)
    diag = out.diagnostics
    assert diag["starts"] == first.size
    got = np.array(diag["start_objectives"])
    assert np.all(np.abs(got - first) <= 1e-14 * np.abs(first))
    want_risk = portfolio_risk(returns, PortfolioWeights(alpha), family, tau)
    assert abs(out.risk - want_risk) <= 1e-12 * abs(want_risk)
    # the winner is the first start reaching the least objective; starts
    # whose best objectives agree to rounding are tied, and matrix products
    # round in the last bit differently from vector products, so among
    # tied starts either may come first
    tied = np.flatnonzero(np.abs(best - best[winner])
                          <= 1e-12 * abs(best[winner]))
    if tied.size == 1:
        assert diag["best_start"] == winner
        # away from ties the trajectories agree iterate for iterate
        assert diag["best_iteration"] == best_at
    else:
        assert diag["best_start"] in tied
    assert diag["improved"] == bool(np.any(best < first))
    assert len(diag["best_iteration"]) == first.size


def test_optimize_prefers_dominating_asset():
    rng = np.random.default_rng(4)
    b = rng.normal(0.0, 0.01, 400)
    returns = ReturnsMatrix(np.column_stack([b + 0.001, b]))
    grid, vals = grid_risk_curve(returns, es(), 0.1)
    assert grid[int(np.argmin(vals))] == 1.0
    out = optimize_weights(returns, es(), 0.1)
    assert out.alpha[1] < 0.01


def test_optimize_balances_exchangeable_assets():
    # stacking each pair with its swap makes the empirical law of the two
    # columns exactly exchangeable, so the objective is swap-symmetric
    rng = np.random.default_rng(5)
    half = rng.normal(0.0, 0.01, (200, 2))
    returns = ReturnsMatrix(np.vstack([half, half[:, ::-1]]))
    out = optimize_weights(returns, es(), 0.1)
    assert abs(out.alpha[0] - out.alpha[1]) < 0.05
    grid, vals = grid_risk_curve(returns, es(), 0.1)
    sym_gap = np.abs(vals - vals[::-1]).max()
    assert sym_gap < 1e-12


def test_objective_convex_on_random_pairs():
    returns = sample_returns(6, d=4)
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = PortfolioWeights(rng.dirichlet(np.ones(4)))
        b = PortfolioWeights(rng.dirichlet(np.ones(4)))
        mid = PortfolioWeights((a.alpha + b.alpha) / 2.0)
        for tau in (0.1, 0.9):
            lhs = portfolio_risk(returns, mid, ges(1.0), tau)
            rhs = (portfolio_risk(returns, a, ges(1.0), tau)
                   + portfolio_risk(returns, b, ges(1.0), tau)) / 2.0
            assert lhs <= rhs + 1e-10


def test_optimizer_beats_every_vertex():
    returns = sample_returns(8, d=5)
    for tau in (0.1, 0.9):
        out = optimize_weights(returns, es(), tau)
        for k in range(5):
            vertex = PortfolioWeights(np.eye(5)[k])
            assert out.risk <= portfolio_risk(returns, vertex, es(), tau) \
                + 1e-12


def test_optimizer_scale_equivariant():
    returns = sample_returns(9)
    lam = 3.5
    scaled = ReturnsMatrix(lam * returns.R)
    base = optimize_weights(returns, es(), 0.1)
    scaled_out = optimize_weights(scaled, es(), 0.1)
    assert abs(scaled_out.risk - lam * base.risk) <= 1e-6 * lam


def test_optimizer_supports_quantile_family():
    returns = sample_returns(10)
    out = optimize_weights(returns, qr_dirac(), 0.1)
    assert out.alpha.min() >= 0.0
    assert out.alpha.sum() == pytest.approx(1.0, abs=1e-10)
    assert out.risk <= max(
        portfolio_risk(returns, PortfolioWeights(np.eye(3)[k]),
                       qr_dirac(), 0.1)
        for k in range(3)) + 1e-12


def test_optimizer_warns_when_days_scarce():
    returns = ReturnsMatrix(np.random.default_rng(11).normal(size=(4, 4)))
    with pytest.warns(UserWarning):
        optimize_weights(returns, es(), 0.5, starts=4, iterations=10)


def test_order_weights_degenerate_for_tiny_samples():
    from aqr.errors import DegenerateWeights
    returns = ReturnsMatrix(np.random.default_rng(14).normal(size=(4, 2)))
    with pytest.raises(DegenerateWeights):
        # four plotting positions all sit above tau = 0.1, so the lower
        # tail carries no estimator weight at all
        optimize_weights(returns, es(), 0.1, starts=2, iterations=5)


def test_optimizer_deterministic_across_calls():
    returns = sample_returns(12)
    a = optimize_weights(returns, es(), 0.9)
    b = optimize_weights(returns, es(), 0.9)
    assert np.array_equal(a.alpha, b.alpha)
    assert a.risk == b.risk


def test_evaluate_sharpe_and_beat_rate():
    rng = np.random.default_rng(13)
    series = rng.normal(0.001, 0.02, 252)
    returns = ReturnsMatrix(series[:, None])
    w = PortfolioWeights(np.ones(1))
    got = evaluate(returns, w, np.zeros(252))
    want_sr = (series.mean() * 252.0) / (series.std(ddof=1)
                                         * math.sqrt(252.0))
    assert got["SR"] == pytest.approx(want_sr, abs=1e-10)
    assert got["PD"] == pytest.approx(100.0 * np.mean(series > 0.0))
    # identical benchmark: strict inequality means no winning days
    assert evaluate(returns, w, series)["PD"] == 0.0
    with pytest.raises(DegenerateSeries):
        evaluate(ReturnsMatrix(np.full((5, 1), 0.01)), w, np.zeros(5))
    with pytest.raises(ShapeMismatch):
        evaluate(returns, w, np.zeros(10))
    # weights for another asset count: numpy would raise its own error
    for d in (2, 3):
        wider = ReturnsMatrix(np.tile(series[:, None], (1, d)))
        with pytest.raises(ShapeMismatch, match=f"has {d} assets, the "
                           "weights 1$"):
            evaluate(wider, w, np.zeros(252))
    # a non-finite benchmark day cannot be beaten or lost
    for bad in (np.nan, np.inf, -np.inf):
        bench = np.zeros(252)
        bench[7] = bad
        with pytest.raises(DomainError):
            evaluate(returns, w, bench)


def test_bad_mode_fails_before_the_first_iteration():
    # the mode is checked where the order-statistic weights are made, so
    # no start is projected before the error
    returns = sample_returns(21, days=300, d=4)
    with mock.patch("aqr.portfolio.project_simplex",
                    side_effect=AssertionError("iterated")):
        with pytest.raises(DomainError, match="mode must be"):
            optimize_weights(returns, es(), 0.05, mode="bogus")


def test_weights_serialization():
    w = PortfolioWeights(np.array([0.25, 0.75]))
    w.risk = 0.012
    payload = w.to_json(("AA", "BB"))
    assert payload == {"alpha": {"AA": 0.25, "BB": 0.75}, "risk": 0.012}


def test_exact_ties_go_to_the_first_start():
    # several starts reach the zero series exactly; the first of them wins,
    # and the first start, whose subgradient vanishes at once, never moves
    returns = _stalling_returns()
    best = _reference_optimize(returns, es(), 0.1, starts=6, iterations=25,
                               seed=3)[3]
    assert np.count_nonzero(best == 0.0) > 1
    out = optimize_weights(returns, es(), 0.1, starts=6, iterations=25,
                           seed=3)
    assert out.diagnostics["best_start"] == 0
    assert out.diagnostics["best_iteration"][0] == 0
    assert out.risk == 0.0
