import math
import os
import pathlib
import platform
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from aqr.errors import (DomainError, EmptyGrid, KernelUnderflow,
                        ShapeMismatch)
from aqr.kernel_cde import (_CV_BLOCK_CELLS, Dataset, StepCDF,
                            _YSorted, _cv_scores, cde_curve, cde_eval,
                            cv_bandwidth, default_bandwidth_grid,
                            index_cde_eval, index_cde_grad, rule_bandwidth)
from aqr.distributed import (CommReport, ShardPlan, default_rounds,
                             local_init, newton_round, partition,
                             run_distributed)
from aqr.experiments import (average_aqr_values, fit_pooled, fit_sharded,
                             run_sim1, run_sim2)
from aqr.families import es
from aqr.portfolio import ReturnsMatrix, optimize_weights
from aqr.single_index import (IndexModel, fit_full, normalize_beta,
                              psis_gradient, psis_hessian, psis_objective)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def make_data(rng, n=40, p=1):
    X = rng.normal(size=(n, p))
    y = X.sum(axis=1) + rng.normal(size=n)
    return Dataset(y, X)


def brute_index_cde(y, X, beta, h, x0, y0):
    z0 = float(np.dot(x0, beta))
    num = den = 0.0
    for i in range(len(y)):
        zi = float(np.dot(X[i], beta))
        w = math.exp(-0.5 * ((zi - z0) / h) ** 2) / (SQRT_2PI * h)
        den += w
        if y[i] <= y0:
            num += w
    return num / den


def test_dataset_validation():
    with pytest.raises(DomainError):
        Dataset([1.0], [[1.0]])
    with pytest.raises(ShapeMismatch):
        Dataset([1.0, 2.0], [[1.0]])
    with pytest.raises(DomainError):
        Dataset([1.0, np.inf], [[1.0], [2.0]])
    with pytest.raises(ShapeMismatch):
        Dataset([1.0, 2.0], [[1.0], [2.0]], shard_of=[0])
    d = Dataset([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], shard_of=[1, 0, 1])
    assert d.p == 1
    assert list(d.shard_labels()) == [0, 1]
    assert [list(s) for s in d.shard_slices()] == [[1], [0, 2]]


# every public call that takes a bandwidth, called with the bandwidth h on
# small valid data
_X2 = np.random.default_rng(3).normal(size=(40, 2))
_Y2 = _X2.sum(axis=1) + np.random.default_rng(4).normal(size=40)
_DATA1 = Dataset(_Y2, _X2[:, :1])
_DATA2 = Dataset(_Y2, _X2)
_SHARDED = Dataset(_Y2, _X2, shard_of=np.repeat([0, 1], 20))
_BETA = normalize_beta(np.ones(2))
_TAKES_A_BANDWIDTH = {
    "cde_eval": lambda h: cde_eval(_DATA1, h, 0.0, 0.0),
    "cde_curve": lambda h: cde_curve(_DATA1, h, 0.0),
    "index_cde_eval": lambda h: index_cde_eval(_DATA2, _BETA, h, _BETA, 0.0),
    "index_cde_grad": lambda h: index_cde_grad(_DATA2, _BETA, h, _BETA, 0.0),
    "cv_bandwidth": lambda h: cv_bandwidth(_DATA1, grid=[0.5, h]),
    "IndexModel": lambda h: IndexModel(_BETA, h),
    "psis_objective": lambda h: psis_objective(_DATA2, _BETA, h),
    "psis_gradient": lambda h: psis_gradient(_DATA2, _BETA, h),
    "psis_hessian": lambda h: psis_hessian(_DATA2, _BETA, h),
    "fit_full": lambda h: fit_full(_DATA2, h, _BETA),
    "fit_full p=1": lambda h: fit_full(_DATA1, h, np.ones(1)),
    "fit_pooled": lambda h: fit_pooled(_DATA2, bandwidth=h),
    "local_init": lambda h: local_init(_SHARDED, h),
    "newton_round": lambda h: newton_round(
        _SHARDED, IndexModel(_BETA, 0.5), h, CommReport()),
    "run_distributed h": lambda h: run_distributed(
        _SHARDED, 1, h, 0.5, _BETA),
    "run_distributed h1": lambda h: run_distributed(
        _SHARDED, None, 0.5, h, _BETA),
    "default_rounds": lambda h: default_rounds(40, 20, h),
    "average_aqr_values": lambda h: average_aqr_values(
        _Y2, _X2[:, 0], h, [es()], [0.5]),
}


def test_bandwidth_validation():
    # a bandwidth is a float, checked where it enters like tau; one that is
    # not positive and finite is a DomainError at every entry point
    for name, call in _TAKES_A_BANDWIDTH.items():
        call(0.5)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="bandwidth must be "
                               "positive"):
                call(bad)
                pytest.fail(f"{name} accepted the bandwidth {bad!r}")


# every public call that takes a count, as (call, least value, a good value);
# each call runs on small valid data
_RETURNS = ReturnsMatrix(np.random.default_rng(5).normal(0.0, 0.01, (30, 2)))
_TAKES_A_COUNT = {
    "ShardPlan size": (lambda c: ShardPlan((c, 2)), 2, 2),
    "ShardPlan.even n": (lambda c: ShardPlan.even(c, 1), 2, 2),
    "ShardPlan.even K": (lambda c: ShardPlan.even(40, c), 1, 2),
    "partition seed": (lambda c: partition(_DATA2, ShardPlan((20, 20)), c),
                       0, 0),
    "default_rounds n": (lambda c: default_rounds(c, 20, 0.5), 20, 40),
    "default_rounds n1": (lambda c: default_rounds(40, c, 0.5), 2, 20),
    "run_distributed rounds": (lambda c: run_distributed(
        _SHARDED, c, 0.5, 0.5, _BETA), 1, 1),
    "fit_sharded rounds": (lambda c: fit_sharded(_SHARDED, rounds=c), 1, 1),
    "default_bandwidth_grid size": (lambda c: default_bandwidth_grid(
        _X2[:, 0], size=c), 1, 3),
    "optimize_weights starts": (lambda c: optimize_weights(
        _RETURNS, es(), 0.1, starts=c, iterations=2), 1, 1),
    "optimize_weights iterations": (lambda c: optimize_weights(
        _RETURNS, es(), 0.1, starts=1, iterations=c), 1, 1),
    "optimize_weights seed": (lambda c: optimize_weights(
        _RETURNS, es(), 0.1, starts=1, iterations=2, seed=c), 0, 0),
    **{f"run_sim1 {key}": (
        lambda c, key=key: run_sim1(**{"reps": 1, "n": 20, "taus": (0.1,),
                                       key: c}), least, good)
       for key, least, good in [("master_seed", 0, 0), ("reps", 1, 1),
                                ("n", 2, 20), ("threads", 1, 1)]},
    **{f"run_sim2 {key}": (
        lambda c, key=key: run_sim2(**{"reps": 1, "n": 40, "K": 2,
                                       "taus": (0.1,), key: c}), least, good)
       for key, least, good in [("master_seed", 0, 0), ("reps", 1, 1),
                                ("n", 2, 40), ("K", 1, 2), ("threads", 1, 1)]},
}


def test_count_validation():
    # a count is an int or a numpy integer, not a bool, of at least its
    # least value; anything else is a DomainError naming it, at every entry
    # point, rather than a count rounded down, a repeat or a bare TypeError
    for name, (call, least, good) in _TAKES_A_COUNT.items():
        call(np.int64(good))
        for bad in (least - 1, least + 0.5, float(good), np.float64(good),
                    True, str(good)):
            with pytest.raises(DomainError) as caught:
                call(bad)
                pytest.fail(f"{name} accepted the count {bad!r}")
            assert str(caught.value).endswith(repr(bad)), name


def test_bandwidths_come_back_as_floats():
    x = _X2[:, 0]
    assert type(rule_bandwidth(x)) is float
    assert {type(h) for h in default_bandwidth_grid(x)} == {float}
    assert type(cv_bandwidth(_DATA1)) is float
    assert type(cv_bandwidth(_DATA1, grid=[np.float64(0.5)])) is float
    assert type(fit_pooled(_DATA2).h) is float
    assert type(IndexModel(_BETA, np.float64(0.5)).h) is float
    assert type(fit_sharded(_SHARDED)[3]) is float


@pytest.mark.parametrize("size", [0, -1, 2.5, math.nan, 3.0, "3", True])
def test_default_bandwidth_grid_needs_at_least_one_entry(size):
    with pytest.raises(DomainError, match="at least one entry") as caught:
        default_bandwidth_grid(_X2[:, 0], size=size)
    assert str(caught.value).endswith(f"got size {size!r}")
    assert len(default_bandwidth_grid(_X2[:, 0], size=1)) == 1


def test_step_cdf_validation_and_evaluate():
    with pytest.raises(DomainError):
        StepCDF(np.array([1.0, 1.0]), np.array([0.5, 1.0]))
    with pytest.raises(DomainError):
        StepCDF(np.array([1.0, 2.0]), np.array([0.8, 0.5]))
    with pytest.raises(DomainError):
        StepCDF(np.array([1.0, 2.0]), np.array([0.5, 1.2]))
    for knots, levels in (([0.0, 1.0], [np.nan, 1.0]),
                          ([0.0, np.nan], [0.5, 1.0]),
                          ([0.0, np.inf], [0.5, 1.0]),
                          ([np.nan], [0.5])):
        with pytest.raises(DomainError):
            StepCDF(np.array(knots), np.array(levels))
    f = StepCDF(np.array([0.0, 1.0, 2.0]), np.array([0.2, 0.7, 1.0]))
    assert f.mass_deficit == 0.0
    assert f.evaluate(-0.5) == 0.0
    assert f.evaluate(0.0) == 0.2
    assert f.evaluate(0.999) == 0.2
    assert f.evaluate(1.0) == 0.7
    assert list(f.evaluate(np.array([1.5, 2.0, 9.0]))) == [0.7, 1.0, 1.0]
    g = StepCDF(np.array([3.0]), np.array([0.9]))
    assert g.mass_deficit == pytest.approx(0.1)


def test_probes_must_be_numbers():
    # y0 = -inf and inf are fine, where F-hat is 0 and 1
    f = StepCDF(np.array([0.0, 1.0]), np.array([0.2, 1.0]))
    assert f.evaluate(-math.inf) == 0.0 and f.evaluate(math.inf) == 1.0
    assert cde_eval(_DATA1, 0.5, 0.0, -math.inf) == 0.0
    assert cde_eval(_DATA1, 0.5, 0.0, math.inf) == 1.0
    assert index_cde_eval(_DATA2, _BETA, 0.5, _BETA, math.inf) == 1.0
    # a nan y0 is no level: it would read as 0
    for call in (lambda: cde_eval(_DATA1, 0.5, 0.0, math.nan),
                 lambda: index_cde_eval(_DATA2, _BETA, 0.5, _BETA, math.nan),
                 lambda: index_cde_grad(_DATA2, _BETA, 0.5, _BETA, math.nan)):
        with pytest.raises(DomainError, match="y0"):
            call()
    # searchsorted puts nan past the last knot, which would read as 1
    for y in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(DomainError, match="nan"):
            f.evaluate(y)
    # a probe x0 that is not finite is no point: it would read as vanished
    # kernel weights, which blame the bandwidth
    for bad in (math.nan, math.inf, -math.inf):
        for call in (lambda: cde_eval(_DATA1, 0.5, bad, 0.0),
                     lambda: cde_curve(_DATA1, 0.5, bad),
                     lambda: index_cde_eval(_DATA2, _BETA, 0.5,
                                            np.array([bad, 0.0]), 0.0),
                     lambda: index_cde_grad(_DATA2, _BETA, 0.5,
                                            np.array([0.0, bad]), 0.0)):
            with pytest.raises(DomainError, match="x0"):
                call()


def test_constant_x_gives_empirical_cdf():
    y = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
    data = Dataset(y, np.full((5, 1), 0.7))
    for y0, want in ((0.0, 0.0), (1.0, 0.2), (2.5, 0.4), (5.0, 1.0), (9.0, 1.0)):
        assert cde_eval(data, 0.4, 0.7, y0) == pytest.approx(want, abs=1e-15)


def test_cde_eval_range_and_monotone_in_y():
    rng = np.random.default_rng(10)
    for _ in range(10):
        data = make_data(rng)
        h = rule_bandwidth(data.X[:, 0])
        x0 = float(rng.normal())
        ys = np.linspace(data.y.min() - 1, data.y.max() + 1, 31)
        vals = [cde_eval(data, h, x0, y0) for y0 in ys]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0 and vals[-1] == 1.0


def test_cde_curve_matches_pointwise_exactly():
    rng = np.random.default_rng(11)
    data = make_data(rng, n=60)
    h = rule_bandwidth(data.X[:, 0])
    curve = cde_curve(data, h, 0.3)
    for knot, level in zip(curve.knots, curve.levels):
        assert cde_eval(data, h, 0.3, knot) == level
    assert curve.levels[-1] == 1.0
    # between knots the step holds the previous level, same arithmetic path
    mid = 0.5 * (curve.knots[3] + curve.knots[4])
    assert cde_eval(data, h, 0.3, mid) == curve.levels[3]


def test_cde_curve_collapses_duplicate_y():
    data = Dataset([2.0, 2.0, 2.0], [[0.1], [0.2], [0.3]])
    curve = cde_curve(data, 0.5, 0.2)
    assert list(curve.knots) == [2.0]
    assert list(curve.levels) == [1.0]


def test_kernel_underflow():
    data = Dataset([1.0, 2.0], [[0.0], [1.0]])
    with pytest.raises(KernelUnderflow):
        cde_eval(data, 0.01, 1e9, 1.0)
    with pytest.raises(KernelUnderflow):
        cde_curve(data, 0.01, 1e9)


def test_index_p1_equals_raw():
    rng = np.random.default_rng(12)
    data = make_data(rng, n=30)
    h = rule_bandwidth(data.X[:, 0])
    for y0 in (-0.5, 0.4):
        assert index_cde_eval(data, np.array([1.0]), h, np.array([0.2]), y0) == \
            cde_eval(data, h, 0.2, y0)


def test_index_matches_brute_force():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    data = Dataset(y, X)
    beta = np.array([0.6, -0.3, 0.5])
    x0 = np.array([0.1, 0.2, -0.4])
    for y0 in (-1.0, 0.0, 0.8):
        want = brute_index_cde(y, X, beta, 0.35, x0, y0)
        got = index_cde_eval(data, beta, 0.35, x0, y0)
        assert got == pytest.approx(want, rel=1e-12)


def test_index_depends_only_on_projections():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(25, 2))
    y = rng.normal(size=25)
    beta = np.array([0.8, 0.6])
    x0 = np.array([0.3, -0.2])
    th = 0.7
    Q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    a = index_cde_eval(Dataset(y, X), beta, 0.4, x0, 0.1)
    b = index_cde_eval(Dataset(y, X @ Q), Q.T @ beta, 0.4, Q.T @ x0, 0.1)
    assert b == pytest.approx(a, rel=1e-12)


def test_grad_zero_for_identical_rows_displacement():
    X = np.tile([0.4, -0.1], (6, 1))
    y = np.arange(6.0)
    g = index_cde_grad(Dataset(y, X), np.array([1.0, 0.0]), 0.5,
                       np.array([0.4, -0.1]), 3.0)
    assert list(g) == [0.0, 0.0]


def test_grad_zero_for_symmetric_configuration():
    # equal-magnitude x pairs around x0 with a mirror-symmetric indicator
    # pattern: the two quotient-rule terms cancel
    X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    y = np.array([1.0, 2.0, 2.0, 1.0])
    g = index_cde_grad(Dataset(y, X), np.array([1.0]), 0.8,
                       np.array([0.0]), 1.5)
    assert abs(g[0]) < 1e-12


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(15)
    step = 1e-5
    for _ in range(10):
        n = int(rng.integers(20, 31))
        p = int(rng.integers(2, 6))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        data = Dataset(y, X)
        beta = rng.normal(size=p)
        x0 = rng.normal(size=p)
        y0 = float(np.median(y))
        h = 0.5
        g = index_cde_grad(data, beta, h, x0, y0)
        for m in range(p):
            e = np.zeros(p)
            e[m] = step
            fd = (index_cde_eval(data, beta + e, h, x0, y0)
                  - index_cde_eval(data, beta - e, h, x0, y0)) / (2 * step)
            assert g[m] == pytest.approx(fd, rel=1e-4, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_shard_partials_reduce_bit_for_bit(n_labels, decimals, seed):
    # the estimators sum over all rows at once: on any shard labels they
    # give their unlabelled numbers bit for bit, and those are the single
    # compensated sums of the library's exact kernel expressions
    rng = np.random.default_rng(seed)
    n, p = 30, 2
    X = rng.normal(size=(n, p))
    y = np.round(rng.normal(size=n), decimals)
    labels = rng.choice(rng.permutation(20)[:n_labels], size=n)
    single = Dataset(y, X)
    full = Dataset(y, X, shard_of=labels)
    beta = np.array([0.8, -0.6])
    x0 = rng.normal(size=p)
    h = 0.45
    y0 = float(rng.choice(y))

    z = X @ beta
    t = (z - float(x0 @ beta)) / h
    w = (np.exp(-0.5 * t * t) / SQRT_2PI) / h
    dw = (-t * np.exp(-0.5 * t * t) / SQRT_2PI) / (h * h)
    mask = y <= y0
    s1, s2 = math.fsum(w[mask]), math.fsum(w)
    num_grad = []
    for m in range(p):
        col = dw * (X[:, m] - x0[m])
        num_grad.append(math.fsum(col[mask]) / s2
                        - s1 * math.fsum(col) / (s2 * s2))

    assert index_cde_eval(single, beta, h, x0, y0) == s1 / s2
    assert list(index_cde_grad(single, beta, h, x0, y0)) == num_grad
    assert index_cde_eval(full, beta, h, x0, y0) == s1 / s2
    assert list(index_cde_grad(full, beta, h, x0, y0)) == num_grad

    raw = Dataset(y, X[:, 0])
    raw_full = Dataset(y, X[:, 0], shard_of=labels)
    assert cde_eval(raw_full, h, x0[0], y0) == cde_eval(raw, h, x0[0], y0)
    curve, want = cde_curve(raw_full, h, x0[0]), cde_curve(raw, h, x0[0])
    assert np.array_equal(curve.knots, want.knots)
    assert np.array_equal(curve.levels, want.levels)


@st.composite
def sorted_rows(draw, log_h):
    """Up to 40 rows: y untied or from four values, z on a 0.01 grid (ties
    included), and h log-uniform over `log_h`."""
    n = draw(st.integers(2, 40))
    top = draw(st.sampled_from([3, 10**6]))
    y = np.array(draw(st.lists(st.integers(0, top), min_size=n,
                               max_size=n)), dtype=float)
    z = np.array(draw(st.lists(st.integers(-1000, 1000), min_size=n,
                               max_size=n))) / 100.0
    return _YSorted(y, z), 10.0 ** draw(st.floats(*log_h))


@settings(max_examples=200, deadline=None)
@given(sorted_rows((-8.0, 8.0)))
def test_levels_are_monotone_cdfs_in_the_unit_interval(problem):
    # _telescope checks only the end levels, relying on this
    ys, h = problem
    levels = ys.levels(ys.kernel(np.arange(ys.z.size), h)[1])[2]
    assert np.all(np.diff(levels, axis=1) >= 0.0)
    assert np.all(levels[:, 0] >= 0.0)
    assert np.all(levels[:, -1] == 1.0)


def _all_isolated_dense(ys, h):
    """Every row's only positive weight is its own, from every weight."""
    e = ys.kernel(np.arange(ys.z.size), h)[1]
    return bool(np.all((e > 0.0).sum(axis=1) == 1))


@settings(max_examples=300, deadline=None)
@given(sorted_rows((-5.0, 0.0)))
def test_all_isolated_matches_the_dense_kernel(problem):
    ys, h = problem
    assert ys.all_isolated(h) == _all_isolated_dense(ys, h)


def test_all_isolated_at_the_underflow_edge():
    # exp(-u^2/2) underflows near u = 38.6: scan h across that edge for
    # the gaps 1 and 2; between the two edges only the last row is isolated
    ys = _YSorted(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 3.0]))
    grid = np.geomspace(1.0 / 45, 2.0 / 30, 400)
    flags = [ys.all_isolated(h) for h in grid]
    assert flags == [_all_isolated_dense(ys, h) for h in grid]
    assert flags[0] and not flags[-1]
    one = ys.kernel(np.arange(3), 1.5 / 38.6)[1]
    assert (one > 0.0).sum(axis=1).tolist() == [2, 2, 1]
    assert not ys.all_isolated(1.5 / 38.6)


def test_cv_bandwidth_basics():
    rng = np.random.default_rng(17)
    data = make_data(rng, n=50)
    only = 0.33
    assert cv_bandwidth(data, grid=[only]) == only
    with pytest.raises(EmptyGrid):
        cv_bandwidth(data, grid=[])
    grid = default_bandwidth_grid(data.X[:, 0])
    pick = cv_bandwidth(data, grid=grid)
    shifted = Dataset(data.y + 5.0, data.X)
    assert cv_bandwidth(shifted, grid=grid) == pick
    # duplicated entries: ties resolve to the first (smallest) instance
    twice = [pick, pick]
    assert cv_bandwidth(data, grid=twice) == pick


def test_cv_bandwidth_sine_model_snapshot():
    # regression snapshot on the nonparametric simulation design: the
    # selected bandwidth stays within a broad plausible window
    rng = np.random.default_rng(18)
    n = 300
    x = rng.normal(size=n)
    y = 20.0 * np.sin(math.pi * x) + rng.normal(size=n)
    data = Dataset(y, x)
    pick = cv_bandwidth(data)
    sx = float(np.std(x))
    assert 0.05 * sx <= pick <= 1.0 * sx


def test_cv_bandwidth_memory_is_bounded_by_row_blocks():
    # a dense n x n pass would hold several 128 MB arrays at this size
    rng = np.random.default_rng(19)
    n = 4000
    x = rng.normal(size=n)
    data = Dataset(x + rng.normal(size=n), x)
    tracemalloc.start()
    try:
        cv_bandwidth(data, grid=[0.2, 0.4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


CV_FAULTS = """
import resource
import numpy as np
from aqr.kernel_cde import Dataset, cv_bandwidth
rng = np.random.default_rng(23)
x = rng.uniform(0.0, 1.0, 1000)
data = Dataset(np.sin(2.0 * np.pi * x) + rng.normal(size=1000), x)
cv_bandwidth(data)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
cv_bandwidth(data)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's allocator")
def test_cv_bandwidth_does_not_fault_its_blocks_in_afresh():
    # a fresh array per block, each above malloc's mmap and trim thresholds,
    # went back to the system when the block ended and was faulted in again
    # by the next one: 6,438 minor faults for this call, against about 200
    # with one workspace per call. A count of faults, not a timing.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", CV_FAULTS],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 1000


@st.composite
def tied_sharded_data(draw):
    """Up to 300 rows, y rounded to force ties, 1-5 shard labels."""
    n = draw(st.integers(2, 300))
    decimals = draw(st.integers(0, 2))
    n_labels = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n)
    y = np.round(x + rng.normal(size=n), decimals)
    labels = rng.choice(rng.permutation(10)[:n_labels], size=n)
    return Dataset(y, x, shard_of=labels), rng


@settings(max_examples=60, deadline=None)
@given(tied_sharded_data())
def test_cde_curve_equals_cde_eval_at_every_knot(case):
    data, rng = case
    h = rule_bandwidth(data.X[:, 0])
    x0 = float(rng.choice(data.X[:, 0]) + 0.5 * h * rng.normal())
    curve = cde_curve(data, h, x0)
    assert list(curve.knots) == list(np.unique(data.y))
    for knot, level in zip(curve.knots, curve.levels):
        assert cde_eval(data, h, x0, knot) == level
    assert np.all(np.diff(curve.levels) >= 0.0)
    assert curve.levels[-1] == 1.0


def test_cde_curve_is_exact_down_to_subnormal_weights():
    # phi(t) at t from 37 to 38.6 falls from ~1e-298 through the subnormal
    # range to zero, across shards and tied y
    x = np.array([38.6, 37.0, 38.5, 37.2, 38.3, 37.5, 38.45, 38.0, 38.55])
    y = np.array([2.0, 1.0, 2.0, 3.0, 1.0, 2.0, 0.0, 3.0, 1.0])
    w = np.exp(-0.5 * x * x) / SQRT_2PI
    assert np.any((w > 0.0) & (w < np.finfo(float).tiny)) and np.any(w == 0.0)
    for labels in ([0] * 9, [2, 0, 1, 2, 0, 1, 2, 0, 1]):
        data = Dataset(y, x, shard_of=labels)
        curve = cde_curve(data, 1.0, 0.0)
        for knot, level in zip(curve.knots, curve.levels):
            assert cde_eval(data, 1.0, 0.0, knot) == level
        assert curve.levels[-1] == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 200), st.integers(0, 2), st.integers(1, 10),
       st.floats(-3.0, 1.0), st.floats(0.0, 40.0), st.integers(0, 2**32 - 1))
def test_cde_curve_equals_cde_eval_across_binades(n, decimals, n_labels,
                                                  log_h, reach, seed):
    # weights from h = 1e-3 to 10 at x0 up to 40 bandwidths past the last x
    # span normal, subnormal and vanished doubles, on 1-10 shards
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = np.round(x + rng.normal(size=n), decimals)
    labels = rng.choice(rng.permutation(20)[:n_labels], size=n)
    data = Dataset(y, x, shard_of=labels)
    h = 10.0 ** log_h
    x0 = float(x.max() + reach * h)
    try:
        curve = cde_curve(data, h, x0)
    except KernelUnderflow:
        with pytest.raises(KernelUnderflow):
            cde_eval(data, h, x0, float(y.max()))
        return
    assert list(curve.knots) == list(np.unique(y))
    for knot, level in zip(curve.knots, curve.levels):
        assert cde_eval(data, h, x0, knot) == level
    assert np.all(np.diff(curve.levels) >= 0.0)
    assert curve.levels[-1] == 1.0


def dense_row_losses(data, bw):
    """Each row's leave-one-out loss sum_l (I(y_i <= y_l) - fhat_il)^2 from
    the dense n x n formula fhat = w @ ind; inf where the row's leave-one-out
    weight sum vanishes."""
    z, y = data.X[:, 0], data.y
    ind = y[:, None] <= y[None, :]
    w = np.exp(-0.5 * ((z[None, :] - z[:, None]) / bw) ** 2)
    w /= SQRT_2PI * bw
    np.fill_diagonal(w, 0.0)
    s2 = w.sum(axis=1)
    ok = s2 > 0.0
    losses = np.full(data.n, math.inf)
    fhat = (w[ok] @ ind) / s2[ok, None]
    losses[ok] = np.square(ind[ok] - fhat).sum(axis=1)
    return losses


def dense_cv_scores(data, grid):
    """CV(h) per grid bandwidth from dense_row_losses; inf where some
    leave-one-out weight sum vanishes."""
    return [float(np.sum(dense_row_losses(data, bw))) / data.n**2
            for bw in grid]


@settings(max_examples=40, deadline=None)
@given(tied_sharded_data())
def test_cv_bandwidth_matches_dense_reference(case):
    data, rng = case
    grid = default_bandwidth_grid(data.X[:, 0])
    scores = dense_cv_scores(data, grid)
    best, second = sorted(scores)[:2]
    # two scores equal to rounding may be ordered either way by either sum
    assume(math.isfinite(best) and second - best > 1e-9 * best)
    want = grid[scores.index(best)]
    assert cv_bandwidth(data, grid=grid) == want
    perm = rng.permutation(data.n)
    shuffled = Dataset(data.y[perm], data.X[perm], shard_of=data.shard_of[perm])
    assert cv_bandwidth(shuffled, grid=grid) == want


def test_rule_bandwidth_guard():
    with pytest.raises(DomainError):
        rule_bandwidth(np.ones(10))


@settings(max_examples=40, deadline=None)
@given(tied_sharded_data(), st.sampled_from([1, 7, None]))
def test_cv_scores_match_dense_reference(case, rows):
    data, _ = case
    grid = default_bandwidth_grid(data.X[:, 0])
    # a bandwidth far below the nearest-neighbour spacing leaves some rows
    # without leave-one-out weight, so it must be skipped as in the reference
    grid.append(1e-3 * grid[0])
    cells = _CV_BLOCK_CELLS if rows is None else rows * data.n
    with mock.patch("aqr.kernel_cde._CV_BLOCK_CELLS", cells):
        totals = _cv_scores(data, grid)
    want = dense_cv_scores(data, grid)
    # a bandwidth stopped because it cannot be the pick reads inf
    floor = min(ref for ref in want if math.isfinite(ref))
    for got, ref in zip((totals / data.n**2).tolist(), want):
        if math.isinf(ref):
            assert math.isnan(got)
        elif math.isinf(got):
            assert ref > floor
        else:
            assert got == pytest.approx(ref, rel=1e-12)


def one_entry_pick(data, grid):
    """The argmin, ties to the smallest h, of the one-entry totals
    _cv_scores(data, [h]): a one-entry grid has nothing to race, so each is
    the total of a full pass. None when every total is nan."""
    totals = [(float(_cv_scores(data, [h])[0]), h) for h in grid]
    finite = [pair for pair in totals if math.isfinite(pair[0])]
    return min(finite)[1] if finite else None


def assert_pick_is_one_entry_argmin(data, grid):
    want = one_entry_pick(data, grid)
    if want is None:
        with pytest.raises(KernelUnderflow):
            cv_bandwidth(data, grid=grid)
    else:
        assert cv_bandwidth(data, grid=grid) == want


@settings(max_examples=60, deadline=None)
@given(tied_sharded_data(), st.sampled_from([1, 7, None]), st.data())
def test_cv_bandwidth_is_the_argmin_of_one_entry_totals(case, rows, draw):
    data, _ = case
    base = default_bandwidth_grid(data.X[:, 0])
    # unsorted, with repeats, and with a bandwidth far below the spacing
    grid = draw.draw(st.lists(st.sampled_from(base + [1e-3 * base[0]]),
                              min_size=1, max_size=16))
    cells = _CV_BLOCK_CELLS if rows is None else rows * data.n
    with mock.patch("aqr.kernel_cde._CV_BLOCK_CELLS", cells):
        assert_pick_is_one_entry_argmin(data, grid)


def _sine_case(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    return Dataset(np.sin(2.0 * x) + rng.normal(size=n), x)


def _isolated_outlier_case():
    # y = x on an even 59-point comb, and one row 0.6 past it at the top y:
    # h = 0.012 scores best on the lowest rows, but the top row's nearest
    # distance is 50 bandwidths, so its leave-one-out weights vanish
    x = np.append(np.linspace(0.0, 1.0, 59), 1.6)
    y = np.append(np.linspace(0.0, 1.0, 59), 10.0)
    return Dataset(y, x)


def _misleading_cases():
    # the sine draw's first block is best at c/2, the whole data's at the
    # sixth entry; the comb's first block is best at h = 0.012, which
    # vanishes on its last row
    sine = _sine_case(0, 60)
    return [(sine, default_bandwidth_grid(sine.X[:, 0]), 0, False),
            (_isolated_outlier_case(), [0.2, 0.012, 0.05, 0.012], 1, True)]


@pytest.mark.parametrize("data, grid, lead, vanishes", _misleading_cases(),
                         ids=["sine", "outlier"])
def test_cv_bandwidth_keeps_the_pick_when_the_first_block_misleads(
        data, grid, lead, vanishes):
    rows = 7
    first = np.argsort(data.y, kind="stable")[:rows]
    losses = [dense_row_losses(data, h) for h in grid]
    head = [float(np.sum(loss[first])) for loss in losses]
    assert min(range(len(grid)), key=lambda g: (head[g], grid[g])) == lead
    assert math.isinf(float(np.sum(losses[lead]))) == vanishes
    pick = one_entry_pick(data, grid)
    assert pick != grid[lead]
    with mock.patch("aqr.kernel_cde._CV_BLOCK_CELLS", rows * data.n):
        assert cv_bandwidth(data, grid=grid) == pick


def test_cv_scores_stop_bandwidths_that_cannot_win():
    # the sine design at n = 300 and the outlier comb, in 7-row blocks:
    # some bandwidths stop, and each stopped total completes above the pick
    rng = np.random.default_rng(18)
    x = rng.normal(size=300)
    sine = Dataset(20.0 * np.sin(math.pi * x) + rng.normal(size=300), x)
    for data, grid in [(sine, default_bandwidth_grid(x)),
                       (_isolated_outlier_case(), [0.012, 0.05, 0.2])]:
        with mock.patch("aqr.kernel_cde._CV_BLOCK_CELLS", 7 * data.n):
            totals = _cv_scores(data, grid).tolist()
        stopped = [h for h, total in zip(grid, totals) if math.isinf(total)]
        assert stopped
        best = min(t for t in totals if math.isfinite(t))
        for h in stopped:
            assert _cv_scores(data, [h])[0] > best
