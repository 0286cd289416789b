import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from aqr.errors import (DomainError, IdentificationFail, IllConditioned,
                        KernelUnderflow, ZeroVector)
from aqr.experiments import (PILOT_MIN_ROWS, _PILOT_SEED, _rep_seed,
                             _sim2_draw, fit_pooled)
from aqr.kernel_cde import _BLOCK_CELLS, SQRT_2PI, Dataset, rule_bandwidth
from aqr.single_index import (MAX_HALVINGS, MAX_STEP,
                              IndexModel, _backtrack, _derivatives,
                              _gradient_parts, _objective_parts,
                              _tangent_step, fit_full,
                              normalize_beta, psis_gradient, psis_hessian,
                              psis_objective)


def quadratic_model(rng, n, p=2):
    beta0 = np.arange(1.0, p + 1.0)
    beta0 /= np.linalg.norm(beta0)
    x = rng.normal(2.0, 1.0, (n, p))
    y = (x @ beta0) ** 2 + rng.normal(size=n)
    return Dataset(y, x), beta0


def brute_objective(data, beta, h):
    y, x, n = data.y, data.X, data.n
    z = x @ np.asarray(beta, dtype=float)
    tot = 0.0
    for i in range(n):
        for j in range(n):
            num = 0.0
            den = 0.0
            for l in range(n):
                t = (z[l] - z[i]) / h
                k = (math.exp(-0.5 * t * t) / SQRT_2PI) / h
                den += k
                if y[l] <= y[j]:
                    num += k
            r = float(y[i] <= y[j]) - num / den
            tot += r * r
    return tot / (n * n)


def fd_gradient(data, beta, h, step=1e-5):
    out = np.empty(data.p)
    for m in range(data.p):
        e = np.zeros(data.p)
        e[m] = step
        out[m] = (psis_objective(data, beta + e, h)
                  - psis_objective(data, beta - e, h)) / (2.0 * step)
    return out


def fd_hessian(data, beta, h, step=1e-5):
    out = np.empty((data.p, data.p))
    for m in range(data.p):
        e = np.zeros(data.p)
        e[m] = step
        out[:, m] = (psis_gradient(data, beta + e, h)
                     - psis_gradient(data, beta - e, h)) / (2.0 * step)
    return out


def test_objective_matches_double_loop():
    # independent code paths agree to accumulation noise; the engine sums
    # the kernel weights cumulatively in y order, the loop in row order, so
    # exact bit equality is not attainable here
    for seed in range(5):
        rng = np.random.default_rng(seed)
        data, _ = quadratic_model(rng, n=10)
        beta = np.array([1.0, 1.0]) / math.sqrt(2.0)
        got = psis_objective(data, beta, 0.6)
        want = brute_objective(data, beta, 0.6)
        assert got == pytest.approx(want, rel=5e-15)
        assert got >= 0.0


def test_objective_zero_on_separated_clusters():
    # two index clusters far apart with constant y each: the CDE reproduces
    # every indicator exactly, so the criterion vanishes
    x = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])[:, None]
    y = np.array([1.0, 1.0, 1.0, 5.0, 5.0, 5.0])
    data = Dataset(y, x)
    assert psis_objective(data, np.array([1.0]), 0.1) == 0.0


def test_objective_permutation_invariant():
    rng = np.random.default_rng(3)
    data, _ = quadratic_model(rng, n=40)
    beta = np.array([0.6, 0.8])
    base = psis_objective(data, beta, 0.5)
    perm = rng.permutation(data.n)
    shuffled = Dataset(data.y[perm], data.X[perm])
    assert psis_objective(shuffled, beta, 0.5) == pytest.approx(base, rel=1e-12)


def test_gradient_matches_finite_differences():
    for seed in range(30):
        rng = np.random.default_rng(100 + seed)
        p = 2 + seed % 2
        data, _ = quadratic_model(rng, n=20, p=p)
        beta = normalize_beta(rng.normal(size=p) + 0.1)
        grad = psis_gradient(data, beta, 0.6)
        want = fd_gradient(data, beta, 0.6)
        assert np.linalg.norm(grad - want) <= 1e-4 * np.linalg.norm(want)


def test_gradient_zero_when_rows_identical():
    x = np.ones((8, 2))
    y = np.arange(8.0)
    data = Dataset(y, x)
    grad = psis_gradient(data, np.array([0.6, 0.8]), 0.4)
    assert np.array_equal(grad, np.zeros(2))


def test_gradient_permutation_invariant():
    rng = np.random.default_rng(9)
    data, _ = quadratic_model(rng, n=30)
    beta = np.array([0.8, 0.6])
    base = psis_gradient(data, beta, 0.5)
    perm = rng.permutation(data.n)
    shuffled = Dataset(data.y[perm], data.X[perm])
    got = psis_gradient(shuffled, beta, 0.5)
    assert np.allclose(got, base, rtol=1e-12, atol=1e-15)


def test_hessian_exactly_symmetric():
    rng = np.random.default_rng(4)
    data, _ = quadratic_model(rng, n=25, p=3)
    hess = psis_hessian(data, normalize_beta([1.0, 1.0, 1.0]), 0.5)
    assert np.array_equal(hess, hess.T)


def test_hessian_matches_finite_differences():
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        p = 2 + seed % 2
        data, _ = quadratic_model(rng, n=20, p=p)
        beta = normalize_beta(rng.normal(size=p) + 0.1)
        hess = psis_hessian(data, beta, 0.6)
        want = fd_hessian(data, beta, 0.6)
        assert np.abs(hess - want).max() <= 1e-3 * np.abs(want).max()


def test_hessian_positive_in_one_dimension_near_minimum():
    rng = np.random.default_rng(11)
    x = rng.normal(2.0, 1.0, (120, 1))
    y = x[:, 0] ** 2 + rng.normal(size=120)
    data = Dataset(y, x)
    hess = psis_hessian(data, np.array([1.0]), rule_bandwidth(x[:, 0], 0.15))
    assert hess.shape == (1, 1)
    assert hess[0, 0] > 0.0


def test_normalize_beta_cases():
    assert np.allclose(normalize_beta([3.0, 4.0]), [0.6, 0.8])
    assert np.allclose(normalize_beta([-3.0, -4.0]), [0.6, 0.8])
    with pytest.raises(IdentificationFail):
        normalize_beta([0.0, 1.0])
    with pytest.raises(ZeroVector):
        normalize_beta([0.0, 0.0])
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
        with pytest.raises(DomainError):
            normalize_beta(bad)


def test_index_model_invariants():
    model = IndexModel(np.array([0.6, 0.8]), 0.3)
    assert model.to_json() == {"beta": [0.6, 0.8], "h": 0.3}
    with pytest.raises(DomainError):
        IndexModel(np.array([1.0, 1.0]), 0.3)
    with pytest.raises(DomainError):
        IndexModel(np.array([-0.6, 0.8]), 0.3)
    for bad in ([1.0, np.nan], [np.nan], [np.inf, 0.0]):
        with pytest.raises(DomainError):
            IndexModel(np.array(bad), 0.3)


def test_fit_single_covariate_short_circuits():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 1))
    data = Dataset(x[:, 0] * 2.0 + rng.normal(size=30), x)
    model = fit_full(data, 0.4, np.array([-3.0]))
    assert np.array_equal(model.beta, np.array([1.0]))


def test_fit_rejects_constant_index():
    data = Dataset(np.arange(8.0), np.ones((8, 2)))
    with pytest.raises(IllConditioned):
        fit_full(data, 0.4, np.array([1.0, 1.0]))


def test_fit_rejects_a_bandwidth_that_isolates_every_row():
    # each row keeps only its own kernel weight, so its CDF is its own
    # indicator: the objective is exactly 0 and every start looks stationary
    data, _ = quadratic_model(np.random.default_rng(2), n=300)
    init = normalize_beta(np.ones(2))
    assert psis_objective(data, init, 1e-8) == 0.0
    with pytest.raises(KernelUnderflow):
        fit_full(data, 1e-8, init)


def test_fit_keeps_going_when_one_row_is_isolated():
    # a far covariate outlier keeps only its own kernel weight at the rule
    # bandwidth; it adds 0 to its own row's terms while the other rows
    # still drive the fit, which is the one this data gave before the
    # isolation rule
    rng = np.random.default_rng(3)
    n = 400
    X = rng.normal(size=(n, 2))
    X[-1] = [200.0, 200.0]
    y = np.tanh(X @ np.array([1.0, 2.0]) / math.sqrt(5.0)) \
        + 0.3 * rng.standard_normal(n)
    data = Dataset(y, X)
    z = X @ normalize_beta(np.ones(2))
    h = rule_bandwidth(z, 0.15)
    weights = np.exp(-0.5 * ((z[:, None] - z[None, :]) / h) ** 2)
    assert (weights[-1] > 0.0).sum() == 1
    direct = fit_full(data, h, normalize_beta(np.ones(2)))
    np.testing.assert_allclose(
        direct.beta, [0.5133381002334925, 0.8581864569245247], rtol=1e-12)
    # n = 400 takes fit_pooled's pilot start, which reaches the same point
    model = fit_pooled(data)
    assert model.h == h
    assert np.max(np.abs(model.beta - direct.beta)) < 1e-6


def test_fit_invariant_to_init_scaling():
    rng = np.random.default_rng(21)
    data, _ = quadratic_model(rng, n=120)
    init = np.array([1.0, 1.0])
    h = rule_bandwidth(data.X @ normalize_beta(init), 0.15)
    a = fit_full(data, h, init)
    b = fit_full(data, h, 7.3 * init)
    assert np.max(np.abs(a.beta - b.beta)) < 1e-6


def test_fit_never_increases_objective():
    rng = np.random.default_rng(22)
    data, _ = quadratic_model(rng, n=120)
    init = normalize_beta(rng.normal(size=2) + 0.2)
    h = rule_bandwidth(data.X @ init, 0.15)
    model = fit_full(data, h, init)
    assert psis_objective(data, model.beta, h) \
        <= psis_objective(data, init, h)


def test_fit_started_at_truth_stays_near_truth():
    rng = np.random.default_rng(23)
    data, beta0 = quadratic_model(rng, n=400)
    h = rule_bandwidth(data.X @ beta0, 0.15)
    model = fit_full(data, h, beta0)
    assert np.mean(np.abs(model.beta - beta0)) <= 0.02


def test_fit_recovers_direction_over_replications():
    errs = []
    for seed in range(3):
        rng = np.random.default_rng(300 + seed)
        data, beta0 = quadratic_model(rng, n=500)
        init = normalize_beta(np.ones(2))
        h = rule_bandwidth(data.X @ init, 0.15)
        model = fit_full(data, h, init)
        errs.append(np.mean(np.abs(model.beta - beta0)))
    assert float(np.mean(errs)) <= 0.05


@pytest.mark.parametrize("master", [3, 5, 6])
def test_fit_is_stationary_on_sim2_design(master):
    y, X = _sim2_draw(np.random.default_rng(_rep_seed(master, 0, 0)), 500)
    data = Dataset(y, X)
    init = normalize_beta(np.ones(2))
    h = rule_bandwidth(X @ init, 0.15)
    beta = fit_full(data, h, init).beta
    grad = psis_gradient(data, beta, h)
    assert np.max(np.abs(grad - (grad @ beta) * beta)) < 1e-7


def _direct_fit(data):
    init = normalize_beta(np.ones(data.p))
    return fit_full(data, rule_bandwidth(data.X @ init, 0.15), init)


@pytest.mark.parametrize("draw", [("sim2", rep) for rep in range(5)]
                         + [("quadratic", seed) for seed in (0, 6, 9)])
def test_pilot_start_reaches_the_direct_fit(draw):
    design, seed = draw
    if design == "sim2":
        y, X = _sim2_draw(np.random.default_rng(_rep_seed(1, 0, seed)), 500)
        data = Dataset(y, X)
    else:
        data, _ = quadratic_model(np.random.default_rng(seed), n=500)
    direct = _direct_fit(data)
    model = fit_pooled(data)
    assert model.h == direct.h
    assert np.max(np.abs(model.beta - direct.beta)) < 1e-6
    want = psis_objective(data, direct.beta, direct.h)
    assert psis_objective(data, model.beta, model.h) \
        <= want + 4.0 * math.ulp(want)


@pytest.mark.parametrize("n", [4 * PILOT_MIN_ROWS - 1, 300])
def test_below_the_pilot_floor_the_fit_is_the_direct_fit(n):
    data, _ = quadratic_model(np.random.default_rng(31), n=n)
    with mock.patch("aqr.experiments.fit_full", wraps=fit_full) as spy:
        model = fit_pooled(data)
    assert spy.call_count == 1
    assert np.array_equal(model.beta, _direct_fit(data).beta)


def test_a_fixed_bandwidth_fit_takes_no_pilot():
    data, _ = quadratic_model(np.random.default_rng(33), n=4 * PILOT_MIN_ROWS)
    init = normalize_beta(np.ones(data.p))
    for h in (0.8, 4.0 * rule_bandwidth(data.X @ init, 0.15)):
        with mock.patch("aqr.experiments.fit_full", wraps=fit_full) as spy:
            model = fit_pooled(data, None, h)
        assert spy.call_count == 1
        assert model.h == h
        assert np.array_equal(model.beta, fit_full(data, h, init).beta)


def test_a_failed_pilot_leaves_the_all_ones_start():
    data, _ = quadratic_model(np.random.default_rng(32), n=4 * PILOT_MIN_ROWS)
    direct = _direct_fit(data)
    with mock.patch("aqr.experiments.fit_pooled",
                    side_effect=IllConditioned("pilot failed")) as pilot:
        model = fit_pooled(data)
    assert pilot.call_count == 1
    assert np.array_equal(model.beta, direct.beta)
    # errors of the full fit still propagate
    with pytest.raises(KernelUnderflow):
        fit_pooled(data, bandwidth=1e-8)
    # the pilot subsample on the line x1 + x2 = 4 has an all-ones index
    # constant up to rounding, and its fit fails; the full fit still
    # starts from all-ones
    rows = np.random.default_rng(_PILOT_SEED).permutation(data.n)[:100]
    X = data.X.copy()
    X[rows, 1] = 4.0 - X[rows, 0]
    data = Dataset(data.y, X)
    assert np.array_equal(fit_pooled(data).beta, _direct_fit(data).beta)


# a grid on [-10, 10]: exact zeros occur, and no entry is so small that a
# norm or product underflows
entries = st.integers(-1000, 1000).map(lambda k: k / 100.0)


@st.composite
def tangent_problems(draw):
    p = draw(st.integers(2, 5))
    raw = draw(arrays(float, p, elements=entries))
    assume(raw[0] > 0.0)
    a = draw(arrays(float, (p, p), elements=entries))
    grad = draw(arrays(float, p, elements=entries))
    return normalize_beta(raw), (a + a.T) / 2.0, grad


@settings(max_examples=300, deadline=None)
@given(tangent_problems())
def test_tangent_step_is_orthogonal_descent_direction(problem):
    beta, hess, grad = problem
    step = _tangent_step(hess, grad, beta)
    assert abs(step @ beta) <= 1e-12 * np.linalg.norm(step)
    # below this size the rounding of grad's radial part (|beta'g| <= 23
    # times ulps of |step| <= |g| / RIDGE_FLOOR) can outweigh the true g'Qs
    tangential = grad - (grad @ beta) * beta
    if np.linalg.norm(tangential) > 1e-3:
        assert grad @ step > 0.0


@st.composite
def line_searches(draw):
    p = draw(st.integers(2, 5))
    raw = draw(arrays(float, p, elements=entries))
    assume(raw[0] > 0.0)
    beta = normalize_beta(raw)
    tangent = draw(arrays(float, p, elements=entries))
    tangent = tangent - (tangent @ beta) * beta
    assume(np.linalg.norm(tangent) > 1e-3)
    length = 10.0 ** draw(st.floats(-3.0, 9.0))
    accept_at = draw(st.one_of(st.none(), st.integers(0, MAX_HALVINGS)))
    return beta, length * tangent / np.linalg.norm(tangent), accept_at


@settings(max_examples=300, deadline=None)
@given(line_searches())
def test_backtrack_starts_at_a_resolvable_step(problem):
    beta, direction, accept_at = problem
    value = 0.5
    steps, trials = [], []

    def retract(point):
        # every trial step, also one rejected on the identification boundary
        steps.append(float(np.linalg.norm(beta - point)))
        return normalize_beta(point)

    def objective(data, candidate, h):
        trials.append(candidate)
        return value - 1.0 if len(trials) - 1 == accept_at else value

    with mock.patch("aqr.single_index.normalize_beta", retract), \
            mock.patch("aqr.single_index.psis_objective", objective):
        accepted = _backtrack(None, 1.0, beta, value, direction)
    length = float(np.linalg.norm(direction))
    assert steps[0] <= MAX_STEP * (1.0 + 1e-12)
    if length <= MAX_STEP:
        assert steps[0] == pytest.approx(length, rel=1e-12)
    else:
        # the largest halving within the cap: the next larger one exceeds it
        assert 2.0 * steps[0] > MAX_STEP * (1.0 - 1e-12)
    assert len(trials) <= len(steps) <= MAX_HALVINGS + 1
    if accept_at is None or accept_at >= len(trials):
        assert accepted is None
    else:
        assert len(trials) == accept_at + 1
        assert accepted[0] is trials[-1] and accepted[1] == value - 1.0


def test_fit_skips_unresolvable_halvings_on_quadratic_index():
    # an even link in four centred covariates: the Hessian at the start is
    # indefinite and the ridge-repaired step is 1e6-1e7 long; starting every
    # search at the full step took 55 objective evaluations on this design
    rng = np.random.default_rng(0)
    direction = rng.normal(size=4)
    direction /= np.linalg.norm(direction)
    X = rng.normal(size=(150, 4))
    y = (X @ direction) ** 2 + 0.2 * rng.standard_normal(150)
    data = Dataset(y, X)
    init = normalize_beta(np.ones(4))
    h = rule_bandwidth(X @ init, 0.15)
    calls = []

    def counted(*args):
        calls.append(None)
        return psis_objective(*args)

    with mock.patch("aqr.single_index.psis_objective", counted):
        beta = fit_full(data, h, init).beta
    assert len(calls) <= 12
    grad = psis_gradient(data, beta, h)
    assert np.max(np.abs(grad - (grad @ beta) * beta)) < 1e-7


@st.composite
def sharded_problems(draw):
    """Up to 60 rows in 1-4 shards; y untied or drawn from four values."""
    n = draw(st.integers(2, 60))
    p = draw(st.integers(1, 3))
    if draw(st.booleans()):
        ints = draw(st.lists(st.integers(-10**6, 10**6), min_size=n,
                             max_size=n, unique=True))
        y = np.array(ints) / 1000.0
    else:
        y = np.array(draw(st.lists(st.integers(0, 3), min_size=n,
                                   max_size=n)), dtype=float)
    x = draw(arrays(float, (n, p), elements=entries))
    shard_of = np.array(draw(st.lists(st.integers(0, 3), min_size=n,
                                      max_size=n)))
    raw = draw(arrays(float, p, elements=entries))
    assume(raw[0] > 0.0)
    h = draw(st.sampled_from([0.3, 1.0, 4.0]))
    perm = np.array(draw(st.permutations(range(n))))
    return Dataset(y, x, shard_of), normalize_beta(raw), h, perm


def _parts(data, beta, h):
    return (np.array(_objective_parts(data, beta, h)),
            np.array(_gradient_parts(data, beta, h)),
            _derivatives(data, beta, h)[0])


@settings(max_examples=200, deadline=None)
@given(sharded_problems())
def test_shard_parts_invariant_to_row_order(problem):
    data, beta, h, perm = problem
    moved = Dataset(data.y[perm], data.X[perm], data.shard_of[perm])
    for got, want in zip(_parts(moved, beta, h), _parts(data, beta, h)):
        if np.unique(data.y).size == data.n:
            assert np.array_equal(got, want)
        else:
            # the stable sort orders each tie run by row, and the kernel
            # sums follow that order
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(sharded_problems())
def test_shard_parts_independent_of_row_blocks(problem):
    data, beta, h, _ = problem
    want = _parts(data, beta, h)
    # the default puts every shard of up to 60 rows in one block; the
    # patches give the objective blocks of 1, 7 and 14p rows, the
    # derivatives blocks of 1, max(1, 7 // 2p) and 7
    assert _BLOCK_CELLS // (2 * data.p * data.n) > 7
    for cells in (data.n, 7 * data.n, 14 * data.p * data.n):
        with mock.patch("aqr.kernel_cde._BLOCK_CELLS", cells):
            got = _parts(data, beta, h)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@settings(max_examples=100, deadline=None)
@given(sharded_problems())
def test_fused_gradient_is_psis_gradient_bit_for_bit(problem):
    # the one derivative walk forms each row's gradient sum with the
    # expression the gradient-only walk uses, and folds it the same way,
    # on sharded, pooled and tied-y data alike
    data, beta, h, _ = problem
    for d in (data, Dataset(data.y, data.X)):
        grad, hess = _derivatives(d, beta, h)
        assert np.array_equal(grad, psis_gradient(d, beta, h))
        assert np.array_equal(hess, hess.T)


@pytest.mark.parametrize("derivative",
                         [psis_gradient, psis_hessian, _derivatives])
def test_derivative_memory_is_bounded_by_row_blocks(derivative):
    # the dense n x n x p products peaked at 756 MiB (gradient) and
    # 1167 MiB (Hessian) here
    rng = np.random.default_rng(5)
    n, p = 3000, 4
    X = rng.normal(size=(n, p))
    data = Dataset(X @ np.ones(p) + rng.normal(size=n), X)
    tracemalloc.start()
    try:
        derivative(data, np.full(p, 0.5), 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
