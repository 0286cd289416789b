import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aqr.distributed import (CommReport, ShardPlan, aae, default_rounds,
                             local_init, newton_round, partition,
                             run_distributed)
from aqr.errors import DomainError, IllConditioned, PlanMismatch, ShapeMismatch
from aqr.experiments import (SIM2_K, SIM2_N, _rep_seed, _sim2_draw,
                             fit_sharded)
from aqr.kernel_cde import SQRT_2PI, Dataset, rule_bandwidth
from aqr.single_index import (IndexModel, _gradient_parts, _newton_step,
                              _objective_parts, fit_full, normalize_beta,
                              psis_gradient, psis_hessian, psis_objective)

BETA0 = np.array([1.0, 2.0]) / math.sqrt(5.0)


def quadratic_data(seed, n=500):
    rng = np.random.default_rng(seed)
    x = rng.normal(2.0, 1.0, (n, 2))
    y = (x @ BETA0) ** 2 + rng.normal(size=n)
    return Dataset(y, x)


def even_plan(n, k):
    return ShardPlan((n // k,) * k)


def pilot_setup(seed, n=500, k=10):
    """Partitioned data plus the bandwidth pair used by the experiments."""
    data = partition(quadratic_data(seed, n), even_plan(n, k), seed)
    sub_idx = np.flatnonzero(data.shard_of == 0)
    z1 = data.X[sub_idx] @ normalize_beta(np.ones(2))
    h1 = rule_bandwidth(z1, 0.15)
    beta0_hat = local_init(data, h1)
    h = rule_bandwidth(data.X @ beta0_hat, 0.15)
    return data, beta0_hat, h, h1


def test_shard_plan_validation():
    with pytest.raises(DomainError):
        ShardPlan(())
    with pytest.raises(DomainError):
        ShardPlan((1, 5))
    # a size is a whole number: 2.7 is not read as 2, nor True as 1
    for sizes in [(2.7, 3), (3, 2.5), (True, 3), (3, np.float64("nan"))]:
        with pytest.raises(DomainError, match="whole numbers"):
            ShardPlan(sizes)
    assert ShardPlan((50.0, np.int64(3))).sizes == (50, 3)
    plan = even_plan(500, 10)
    assert plan.n == 500 and plan.K == 10


@given(st.integers(min_value=2, max_value=10_000), st.integers(1, 200))
def test_even_plan_splits_rows_evenly_larger_first(n, k):
    if n < 2 * k:
        with pytest.raises(DomainError):
            ShardPlan.even(n, k)
        return
    plan = ShardPlan.even(n, k)
    assert plan.K == k and plan.n == n
    assert max(plan.sizes) - min(plan.sizes) <= 1
    assert list(plan.sizes) == sorted(plan.sizes, reverse=True)
    base, extra = divmod(n, k)
    assert plan.sizes == tuple(base + (1 if j < extra else 0)
                               for j in range(k))


def test_partition_is_deterministic_and_exact():
    data = quadratic_data(0, n=500)
    plan = even_plan(500, 10)
    a = partition(data, plan, seed=42)
    b = partition(data, plan, seed=42)
    assert np.array_equal(a.shard_of, b.shard_of)
    assert np.bincount(a.shard_of).tolist() == [50] * 10
    single = partition(data, ShardPlan((500,)), seed=7)
    assert np.array_equal(single.shard_of, np.zeros(500, dtype=int))
    with pytest.raises(PlanMismatch):
        partition(data, even_plan(400, 8), seed=0)


def test_aae_cases():
    assert aae(BETA0, BETA0) == 0.0
    assert aae(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    with pytest.raises(ShapeMismatch):
        aae(np.ones(3), np.ones(2))


def test_default_rounds_formula():
    # the guideline value at the benchmark scale is a small positive integer
    q = default_rounds(500, 50, 50 ** -0.15)
    assert isinstance(q, int) and q >= 1
    # tiny pilot bandwidth drives the raw value negative; floored at one
    assert default_rounds(500, 50, 1e-3) == 1
    assert default_rounds(500, 500, 0.5) == 1


def test_local_init_k1_equals_full_fit():
    data = quadratic_data(3, n=120)
    labeled = partition(data, ShardPlan((120,)), seed=0)
    h1 = rule_bandwidth(data.X @ normalize_beta(np.ones(2)), 0.15)
    got = local_init(labeled, h1)
    want = fit_full(Dataset(data.y, data.X), h1,
                    normalize_beta(np.ones(2))).beta
    assert np.array_equal(got, want)


def test_local_init_quality_on_small_shard():
    data, beta0_hat, _, _ = pilot_setup(5)
    assert np.linalg.norm(beta0_hat - BETA0) < 0.25


def test_local_init_degenerate_shard_raises():
    y = np.arange(8.0)
    x = np.ones((8, 2))
    data = Dataset(y, x, np.repeat([0, 1], 4))
    with pytest.raises(IllConditioned):
        local_init(data, 0.4)


def test_distributed_gradient_matches_pooled_bit_for_bit():
    # independent row-by-row transcription of the per-worker partial sums,
    # reduced in ascending worker order with fsum, reproduces psis_gradient
    # exactly; y is untied here, so every indicator column is its own run
    for k in (2, 3, 5):
        data = partition(quadratic_data(10 + k, n=90), even_plan(90, k),
                         seed=k)
        beta = normalize_beta(np.array([1.0, 1.0]))
        h = 0.5
        z = data.X @ beta
        order = np.argsort(data.y, kind="stable")
        ys, zs, xs = data.y[order], z[order], data.X[order]
        parts = []
        for label in range(k):
            rows = []
            for i in np.flatnonzero(data.shard_of == label):
                u = (zs - z[i]) / h
                e = np.exp(-0.5 * u * u)
                cum = np.cumsum(e)
                s2 = cum[-1]
                resid = (data.y[i] <= ys) - cum / s2
                mix = np.cumsum(resid[::-1])[::-1]
                psi = mix / s2 - (resid * cum).sum() / (s2 * s2)
                slope = (e * u / -h) * psi
                rows.append([(slope * (xs[:, m] - data.X[i, m])).sum()
                             for m in range(2)])
            parts.append([math.fsum(r[m] for r in rows) for m in range(2)])
        want = (-2.0 / (data.n * data.n)) \
            * np.array([math.fsum(p[m] for p in parts) for m in range(2)])
        got = psis_gradient(data, beta, h)
        assert np.array_equal(got, want)


def matmul_reference(data, beta, h):
    """The dense pair sums the row-blocked engine replaced: n x n indicator
    and kernel matrices multiplied together, per-shard objective and
    gradient parts, and the pooled Hessian with its n x n x p tensor."""
    n, p, x = data.n, data.p, data.X
    hh = h * h
    z = x @ beta
    ind = (data.y[:, None] <= data.y[None, :]).astype(float)
    u = (z[None, :] - z[:, None]) / h
    w = (np.exp(-0.5 * u * u) / SQRT_2PI) / h
    d = (-u * np.exp(-0.5 * u * u) / SQRT_2PI) / hh
    dd = ((u * u - 1.0) * np.exp(-0.5 * u * u) / SQRT_2PI) / (hh * h)
    s2 = w.sum(axis=1)
    num = w @ ind
    resid = ind - num / s2[:, None]
    dnum0 = d @ ind
    dden = d @ x - d.sum(axis=1)[:, None] * x
    grad_f = np.empty((n, n, p))
    for m in range(p):
        dnum_m = (d * x[:, m][None, :]) @ ind - x[:, m][:, None] * dnum0
        grad_f[:, :, m] = dnum_m / s2[:, None] \
            - num * (dden[:, m] / (s2 * s2))[:, None]
    slices = data.shard_slices()
    objective_parts = [float((resid[idx] ** 2).sum()) for idx in slices]
    gradient_parts = [np.einsum("ij,ijm->m", resid[idx], grad_f[idx])
                      for idx in slices]

    def cross(omega):
        col = omega.sum(axis=0)
        row = omega.sum(axis=1)
        xox = x.T @ omega @ x
        return (x.T * col) @ x + (x.T * row) @ x - xox - xox.T

    flat = grad_f.reshape(n * n, p)
    hess = 2.0 * flat.T @ flat
    mix = resid @ ind.T
    t1 = cross(dd * mix / s2[:, None])
    dmix = d * mix
    b = dmix @ x - dmix.sum(axis=1)[:, None] * x
    bs = b / (s2 * s2)[:, None]
    t2 = bs.T @ dden + dden.T @ bs
    ci = (w * mix).sum(axis=1)
    t3 = cross(dd * (ci / (s2 * s2))[:, None])
    t4 = (dden.T * (2.0 * ci / (s2 ** 3))) @ dden
    hess -= 2.0 * (t1 - t2 - t3 + t4)
    hess /= n * n
    return objective_parts, gradient_parts, (hess + hess.T) / 2.0


@pytest.mark.parametrize("k", [1, 6, 10])
def test_pair_sums_match_matmul_reference(k):
    # coarse y forces tie runs; the engine regroups the same sums, so only
    # rounding separates it from the dense products
    rng = np.random.default_rng(40 + k)
    n, p = 120, 3
    x = rng.normal(2.0, 1.0, (n, p))
    y = np.round((x @ np.ones(p)) ** 2 / 10.0 + rng.normal(size=n))
    assert np.unique(y).size < n // 4
    data = partition(Dataset(y, x), even_plan(n, k), seed=k)
    beta = normalize_beta(rng.normal(size=p) + 0.5)
    h = 0.6
    obj_parts, grad_parts, hess = matmul_reference(data, beta, h)

    def close(got, want):
        got, want = np.asarray(got), np.asarray(want)
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    assert close(_objective_parts(data, beta, h), obj_parts)
    assert close(_gradient_parts(data, beta, h), grad_parts)
    assert close(psis_objective(data, beta, h),
                 math.fsum(obj_parts) / (n * n))
    assert close(psis_gradient(data, beta, h),
                 -2.0 / (n * n) * np.sum(grad_parts, axis=0))
    assert close(psis_hessian(data, beta, h), hess)


def test_newton_round_k1_is_undamped_full_step():
    data = partition(quadratic_data(8, n=150), ShardPlan((150,)), seed=1)
    h = rule_bandwidth(data.X @ normalize_beta(np.ones(2)), 0.15)
    beta = normalize_beta(np.array([1.0, 0.8]))
    comm = CommReport()
    out = newton_round(data, IndexModel(beta, h), h, comm)
    grad = psis_gradient(data, beta, h)
    hess = psis_hessian(Dataset(data.y, data.X), beta, h)
    want = normalize_beta(beta - _newton_step(hess, grad))
    assert np.array_equal(out.beta, want)
    assert out.h == h
    assert len(comm.rounds) == 1


def test_newton_round_usually_improves_pilot():
    # long-run win rate of the undamped round is about two thirds: the only
    # losses come from pilots already below the one-round noise floor, so the
    # mean error still drops sharply
    wins = 0
    before = []
    after = []
    for seed in range(30):
        data, beta0_hat, h, h1 = pilot_setup(seed)
        out = newton_round(data, IndexModel(beta0_hat, h), h1, CommReport())
        before.append(aae(beta0_hat, BETA0))
        after.append(aae(out.beta, BETA0))
        wins += after[-1] < before[-1]
    assert wins >= 20
    assert np.mean(after) < 0.75 * np.mean(before)


def test_run_distributed_tracks_full_fit():
    data, beta0_hat, h, h1 = pilot_setup(2)
    model, comm = run_distributed(data, None, h, h1, beta0_hat)
    full = fit_full(Dataset(data.y, data.X), h, normalize_beta(np.ones(2)))
    assert np.linalg.norm(model.beta - full.beta) < 0.05
    assert len(comm.rounds) == default_rounds(500, 50, h1)


def test_fit_sharded_is_the_pilot_setup_recipe():
    data, beta0_hat, h, h1 = pilot_setup(4)
    want, want_comm = run_distributed(data, None, h, h1, beta0_hat)
    model, comm, pilot, got_h1 = fit_sharded(data)
    assert np.array_equal(model.beta, want.beta)
    assert np.array_equal(pilot, beta0_hat)
    assert got_h1 == h1
    assert model.h == h
    assert comm.to_json() == want_comm.to_json()


def test_run_distributed_k1_reproduces_manual_rounds():
    n, rounds = 150, 3
    data = partition(quadratic_data(9, n=n), ShardPlan((n,)), seed=0)
    h1 = rule_bandwidth(data.X @ normalize_beta(np.ones(2)), 0.15)
    model, comm = run_distributed(data, rounds, h1, h1, local_init(data, h1))
    beta = local_init(data, h1)
    sub = Dataset(data.y, data.X)
    for _ in range(rounds):
        grad = psis_gradient(data, beta, h1)
        beta = normalize_beta(beta - _newton_step(
            psis_hessian(sub, beta, h1), grad))
    assert np.array_equal(model.beta, beta)
    assert len(comm.rounds) == rounds


def test_comm_accounting_is_gradient_sized():
    n, k, p = 200, 4, 2
    data = partition(quadratic_data(11, n=n), even_plan(n, k), seed=3)
    h = rule_bandwidth(data.X @ normalize_beta(np.ones(2)), 0.15)
    model, comm = run_distributed(data, 2, h, h, local_init(data, h))
    per_round = k * p + p + 2 * k
    for entry in comm.rounds:
        assert entry.scalars_sent == per_round
        assert entry.scalars_sent != p * p
        assert entry.messages == 3 * k + 1
        assert entry.sstat_scalars > 0
    assert comm.total == 2 * per_round
    payload = comm.to_json()
    assert sorted(payload) == ["rounds", "setup_scalars", "total"]
    assert all(sorted(r) == ["messages", "scalars_sent"]
               for r in payload["rounds"])
    assert payload["total"] == comm.total
    assert payload["setup_scalars"] == (k - 1) * n


def test_comm_tally_on_sim2_design():
    # the benchmark's message check on sim2's first fit: the tally is
    # rounds * (K*p + p + 2K), with K counted from the labels
    rng = np.random.default_rng(_rep_seed(1, 0, 0))
    y, X = _sim2_draw(rng, SIM2_N)
    data = partition(Dataset(y, X), ShardPlan.even(SIM2_N, SIM2_K),
                     seed=_rep_seed(1, 1, 0))
    _, comm, _, _ = fit_sharded(data)
    K, p = np.unique(data.shard_of).size, data.p
    assert K == SIM2_K
    assert comm.total == len(comm.rounds) * (K * p + p + 2 * K)
    assert comm.setup_scalars == (K - 1) * data.n


@pytest.mark.parametrize("labels", [
    [0] + [1] * 9,             # central shard with one row
    [1] * 10,                  # no central shard
    [-1] * 2 + [0] * 8,        # a label below the central one
    [0] * 5 + [1] * 4 + [2],   # a worker shard with one row
])
def test_shard_labels_need_central_shard_and_two_rows_each(labels):
    data = quadratic_data(1, n=10)
    data = Dataset(data.y, data.X, labels)
    h = 0.5
    with pytest.raises(DomainError):
        local_init(data, h)
    with pytest.raises(DomainError):
        newton_round(data, IndexModel(BETA0, h), h, CommReport())
    with pytest.raises(DomainError):
        run_distributed(data, 1, h, h, BETA0)


def test_unlabelled_data_runs_as_one_shard():
    data = quadratic_data(12, n=120)
    model, comm, pilot, h1 = fit_sharded(data)
    want, want_comm, want_pilot, want_h1 = fit_sharded(
        partition(data, ShardPlan((data.n,)), seed=5))
    assert np.array_equal(model.beta, want.beta)
    assert np.array_equal(pilot, want_pilot)
    assert model.h == want.h and h1 == want_h1
    assert comm == want_comm
    # K = 1: no setup traffic, and K*p + p + 2K scalars a round
    assert comm.setup_scalars == 0
    assert all(r.scalars_sent == 2 * data.p + 2 for r in comm.rounds)


def test_run_distributed_validates_pilot_direction():
    data = partition(quadratic_data(1, n=100), even_plan(100, 4), seed=0)
    for pilot in (np.array([1.0, 1.0]), np.array([-1.0, 0.0])):
        with pytest.raises(DomainError):
            run_distributed(data, 1, 0.5, 0.5, pilot)
