import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from aqr.errors import (DomainError, EmptyGrid, KernelUnderflow,
                        ShapeMismatch)
from aqr.kernel_cde import (_CV_BLOCK_CELLS, Bandwidth, Dataset, StepCDF,
                            _cv_scores, cde_curve, cde_eval, cv_bandwidth,
                            default_bandwidth_grid, index_cde_eval,
                            index_cde_grad, rule_bandwidth)

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


def test_bandwidth_validation():
    with pytest.raises(DomainError):
        Bandwidth(0.0)
    with pytest.raises(DomainError):
        Bandwidth(-1.0)
    assert Bandwidth(0.3).rate_exponent == 0.2


def test_step_cdf_validation_and_evaluate():
    with pytest.raises(DomainError):
        StepCDF(np.array([1.0, 1.0]), np.array([0.5, 1.0]))
    with pytest.raises(DomainError):
        StepCDF(np.array([1.0, 2.0]), np.array([0.8, 0.5]))
    with pytest.raises(DomainError):
        StepCDF(np.array([1.0, 2.0]), np.array([0.5, 1.2]))
    f = StepCDF(np.array([0.0, 1.0, 2.0]), np.array([0.2, 0.7, 1.0]))
    assert f.mass_deficit == 0.0
    assert f.evaluate(-0.5) == 0.0
    assert f.evaluate(0.0) == 0.2
    assert f.evaluate(0.999) == 0.2
    assert f.evaluate(1.0) == 0.7
    assert list(f.evaluate(np.array([1.5, 2.0, 9.0]))) == [0.7, 1.0, 1.0]
    g = StepCDF(np.array([3.0]), np.array([0.9]))
    assert g.mass_deficit == pytest.approx(0.1)


def test_constant_x_gives_empirical_cdf():
    y = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
    data = Dataset(y, np.full((5, 1), 0.7))
    for y0, want in ((0.0, 0.0), (1.0, 0.2), (2.5, 0.4), (5.0, 1.0), (9.0, 1.0)):
        assert cde_eval(data, Bandwidth(0.4), 0.7, y0) == pytest.approx(want, abs=1e-15)


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
    curve = cde_curve(data, Bandwidth(0.5), 0.2)
    assert list(curve.knots) == [2.0]
    assert list(curve.levels) == [1.0]


def test_kernel_underflow():
    data = Dataset([1.0, 2.0], [[0.0], [1.0]])
    with pytest.raises(KernelUnderflow):
        cde_eval(data, Bandwidth(0.01), 1e9, 1.0)
    with pytest.raises(KernelUnderflow):
        cde_curve(data, Bandwidth(0.01), 1e9)


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
        got = index_cde_eval(data, beta, Bandwidth(0.35), x0, y0)
        assert got == pytest.approx(want, rel=1e-12)


def test_index_depends_only_on_projections():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(25, 2))
    y = rng.normal(size=25)
    beta = np.array([0.8, 0.6])
    x0 = np.array([0.3, -0.2])
    th = 0.7
    Q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    a = index_cde_eval(Dataset(y, X), beta, Bandwidth(0.4), x0, 0.1)
    b = index_cde_eval(Dataset(y, X @ Q), Q.T @ beta, Bandwidth(0.4), Q.T @ x0, 0.1)
    assert b == pytest.approx(a, rel=1e-12)


def test_grad_zero_for_identical_rows_displacement():
    X = np.tile([0.4, -0.1], (6, 1))
    y = np.arange(6.0)
    g = index_cde_grad(Dataset(y, X), np.array([1.0, 0.0]), Bandwidth(0.5),
                       np.array([0.4, -0.1]), 3.0)
    assert list(g) == [0.0, 0.0]


def test_grad_zero_for_symmetric_configuration():
    # equal-magnitude x pairs around x0 with a mirror-symmetric indicator
    # pattern: the two quotient-rule terms cancel
    X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    y = np.array([1.0, 2.0, 2.0, 1.0])
    g = index_cde_grad(Dataset(y, X), np.array([1.0]), Bandwidth(0.8),
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
        h = Bandwidth(0.5)
        g = index_cde_grad(data, beta, h, x0, y0)
        for m in range(p):
            e = np.zeros(p)
            e[m] = step
            fd = (index_cde_eval(data, beta + e, h, x0, y0)
                  - index_cde_eval(data, beta - e, h, x0, y0)) / (2 * step)
            assert g[m] == pytest.approx(fd, rel=1e-4, abs=1e-10)


def test_shard_partials_reduce_bit_for_bit():
    rng = np.random.default_rng(16)
    n, p = 30, 2
    X = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    labels = rng.integers(0, 3, size=n)
    full = Dataset(y, X, shard_of=labels)
    beta = np.array([0.8, -0.6])
    x0 = np.array([0.1, 0.4])
    h = Bandwidth(0.45)
    y0 = 0.2

    # worker-side arithmetic: each shard computes compensated partial sums on
    # its own rows with the library's exact kernel expressions; the
    # coordinator folds them in ascending label order
    z = X @ beta
    z0 = float(x0 @ beta)
    t = (z - z0) / h.h
    w = (np.exp(-0.5 * t * t) / SQRT_2PI) / h.h
    dw = (-t * np.exp(-0.5 * t * t) / SQRT_2PI) / (h.h * h.h)
    Xc = X - x0
    mask = y <= y0
    parts = {k: np.flatnonzero(labels == k) for k in (0, 1, 2)}
    s1 = math.fsum(math.fsum(w[idx][mask[idx]]) for idx in parts.values())
    s2 = math.fsum(math.fsum(w[idx]) for idx in parts.values())
    num_grad = []
    for m in range(p):
        col = dw * Xc[:, m]
        s4 = math.fsum(math.fsum(col[idx]) for idx in parts.values())
        s3 = math.fsum(math.fsum(col[idx][mask[idx]]) for idx in parts.values())
        num_grad.append(s3 / s2 - s1 * s4 / (s2 * s2))

    assert index_cde_eval(full, beta, h, x0, y0) == s1 / s2
    assert list(index_cde_grad(full, beta, h, x0, y0)) == num_grad

    # and identically on the unsharded dataset: one shard is a single fold
    single = Dataset(y, X)
    assert index_cde_eval(single, beta, h, x0, y0) == math.fsum(w[mask]) / math.fsum(w)


def test_cv_bandwidth_basics():
    rng = np.random.default_rng(17)
    data = make_data(rng, n=50)
    only = Bandwidth(0.33)
    assert cv_bandwidth(data, grid=[only]) is only
    with pytest.raises(EmptyGrid):
        cv_bandwidth(data, grid=[])
    grid = default_bandwidth_grid(data.X[:, 0])
    pick = cv_bandwidth(data, grid=grid)
    shifted = Dataset(data.y + 5.0, data.X)
    assert cv_bandwidth(shifted, grid=grid).h == pick.h
    # duplicated entries: ties resolve to the first (smallest) instance
    twice = [Bandwidth(pick.h), Bandwidth(pick.h)]
    assert cv_bandwidth(data, grid=twice) is twice[0]


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
    assert 0.05 * sx <= pick.h <= 1.0 * sx


def test_cv_bandwidth_memory_is_bounded_by_row_blocks():
    # a dense n x n pass would hold several 128 MB arrays at this size
    rng = np.random.default_rng(19)
    n = 4000
    x = rng.normal(size=n)
    data = Dataset(x + rng.normal(size=n), x)
    tracemalloc.start()
    try:
        cv_bandwidth(data, grid=[Bandwidth(0.2), Bandwidth(0.4)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


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
    x0 = float(rng.choice(data.X[:, 0]) + 0.5 * h.h * rng.normal())
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
        curve = cde_curve(data, Bandwidth(1.0), 0.0)
        for knot, level in zip(curve.knots, curve.levels):
            assert cde_eval(data, Bandwidth(1.0), 0.0, knot) == level
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
    h = Bandwidth(10.0 ** log_h)
    x0 = float(x.max() + reach * h.h)
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


def dense_cv_scores(data, grid):
    """CV(h) per grid bandwidth from the dense n x n formula fhat = w @ ind;
    inf where some leave-one-out weight sum vanishes."""
    z, y = data.X[:, 0], data.y
    ind = y[:, None] <= y[None, :]
    scores = []
    for bw in grid:
        w = np.exp(-0.5 * ((z[None, :] - z[:, None]) / bw.h) ** 2)
        w /= SQRT_2PI * bw.h
        np.fill_diagonal(w, 0.0)
        s2 = w.sum(axis=1)
        if not np.all(s2 > 0.0):
            scores.append(math.inf)
            continue
        fhat = (w @ ind) / s2[:, None]
        scores.append(float(np.mean(np.square(ind - fhat))))
    return scores


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
    assert cv_bandwidth(data, grid=grid) is want
    perm = rng.permutation(data.n)
    shuffled = Dataset(data.y[perm], data.X[perm], shard_of=data.shard_of[perm])
    assert cv_bandwidth(shuffled, grid=grid) is want


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
    grid.append(Bandwidth(1e-3 * grid[0].h))
    cells = _CV_BLOCK_CELLS if rows is None else rows * data.n
    with mock.patch("aqr.kernel_cde._CV_BLOCK_CELLS", cells):
        totals = _cv_scores(data, None, grid)
    want = dense_cv_scores(data, grid)
    for got, ref in zip((totals / data.n**2).tolist(), want):
        if math.isinf(ref):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(ref, rel=1e-12)
