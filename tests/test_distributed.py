import math

import numpy as np
import pytest

from aqr.distributed import (CommReport, DistFitState, ShardPlan, aae,
                             default_rounds, local_init, newton_round,
                             partition, run_distributed)
from aqr.errors import DomainError, IllConditioned, PlanMismatch, ShapeMismatch
from aqr.kernel_cde import SQRT_2PI, Dataset, rule_bandwidth
from aqr.single_index import (fit_full, normalize_beta, psis_gradient,
                              psis_hessian, _newton_step)

BETA0 = np.array([1.0, 2.0]) / math.sqrt(5.0)


def quadratic_data(seed, n=500):
    rng = np.random.default_rng(seed)
    x = rng.normal(2.0, 1.0, (n, 2))
    y = (x @ BETA0) ** 2 + rng.normal(size=n)
    return Dataset(y, x)


def even_plan(n, k):
    return ShardPlan(k, (n // k,) * k)


def pilot_setup(seed, n=500, k=10):
    """Partitioned data plus the bandwidth pair used by the experiments."""
    data = partition(quadratic_data(seed, n), even_plan(n, k), seed)
    sub_idx = np.flatnonzero(data.shard_of == 0)
    z1 = data.X[sub_idx] @ normalize_beta(np.ones(2))
    h1 = rule_bandwidth(z1, 0.15)
    beta0_hat = local_init(data, even_plan(n, k), h1)
    h = rule_bandwidth(data.X @ beta0_hat, 0.15)
    return data, beta0_hat, h, h1


def test_shard_plan_validation():
    with pytest.raises(DomainError):
        ShardPlan(2, (3,))
    with pytest.raises(DomainError):
        ShardPlan(2, (1, 5))
    with pytest.raises(DomainError):
        ShardPlan(2, (3, 3), central=1)
    assert even_plan(500, 10).n == 500


def test_partition_is_deterministic_and_exact():
    data = quadratic_data(0, n=500)
    plan = even_plan(500, 10)
    a = partition(data, plan, seed=42)
    b = partition(data, plan, seed=42)
    assert np.array_equal(a.shard_of, b.shard_of)
    assert np.bincount(a.shard_of).tolist() == [50] * 10
    single = partition(data, ShardPlan(1, (500,)), seed=7)
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
    plan = ShardPlan(1, (120,))
    labeled = partition(data, plan, seed=0)
    h1 = rule_bandwidth(data.X @ normalize_beta(np.ones(2)), 0.15)
    got = local_init(labeled, plan, h1)
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
        local_init(data, ShardPlan(2, (4, 4)), 0.4)


def test_distributed_gradient_matches_pooled_bit_for_bit():
    # independent transcription of the per-worker partial sums, reduced in
    # ascending worker order with fsum, reproduces psis_gradient exactly
    for k in (2, 3, 5):
        data = partition(quadratic_data(10 + k, n=90), even_plan(90, k),
                         seed=k)
        beta = normalize_beta(np.array([1.0, 1.0]))
        h = 0.5
        z = data.X @ beta
        ind = (data.y[:, None] <= data.y[None, :]).astype(float)
        hh = h * h
        parts = []
        for label in range(k):
            idx = np.flatnonzero(data.shard_of == label)
            u = (z[None, :] - z[idx, None]) / h
            w = (np.exp(-0.5 * u * u) / SQRT_2PI) / h
            d = (-u * np.exp(-0.5 * u * u) / SQRT_2PI) / hh
            s2 = w.sum(axis=1)
            num = w @ ind
            resid = ind[idx, :] - num / s2[:, None]
            dnum0 = d @ ind
            dden = d @ data.X - d.sum(axis=1)[:, None] * data.X[idx]
            part = np.empty(2)
            for m in range(2):
                dnum_m = (d * data.X[:, m][None, :]) @ ind \
                    - data.X[idx, m][:, None] * dnum0
                part[m] = float((resid / s2[:, None] * dnum_m).sum())
            part -= ((resid * num).sum(axis=1) / (s2 * s2)) @ dden
            parts.append(part)
        want = (-2.0 / (data.n * data.n)) \
            * np.array([math.fsum(p[m] for p in parts) for m in range(2)])
        got = psis_gradient(data, beta, h)
        assert np.array_equal(got, want)


def test_newton_round_k1_is_undamped_full_step():
    data = partition(quadratic_data(8, n=150), ShardPlan(1, (150,)), seed=1)
    h = rule_bandwidth(data.X @ normalize_beta(np.ones(2)), 0.15)
    beta = normalize_beta(np.array([1.0, 0.8]))
    state = DistFitState(beta, 0, h, h, CommReport())
    out = newton_round(data, ShardPlan(1, (150,)), state)
    grad = psis_gradient(data, beta, h)
    hess = psis_hessian(Dataset(data.y, data.X), beta, h)
    want = normalize_beta(beta - _newton_step(hess, grad))
    assert np.array_equal(out.beta_q, want)
    assert out.q == 1


def test_newton_round_usually_improves_pilot():
    # long-run win rate of the undamped round is about two thirds: the only
    # losses come from pilots already below the one-round noise floor, so the
    # mean error still drops sharply
    wins = 0
    before = []
    after = []
    for seed in range(30):
        data, beta0_hat, h, h1 = pilot_setup(seed)
        state = DistFitState(beta0_hat, 0, h, h1, CommReport())
        out = newton_round(data, even_plan(500, 10), state)
        before.append(aae(beta0_hat, BETA0))
        after.append(aae(out.beta_q, BETA0))
        wins += after[-1] < before[-1]
    assert wins >= 20
    assert np.mean(after) < 0.75 * np.mean(before)


def test_run_distributed_tracks_full_fit():
    data, beta0_hat, h, h1 = pilot_setup(2)
    model, comm = run_distributed(data, even_plan(500, 10), None, h, h1,
                                  beta0_hat)
    full = fit_full(Dataset(data.y, data.X), h, normalize_beta(np.ones(2)))
    assert np.linalg.norm(model.beta - full.beta) < 0.05
    assert len(comm.rounds) == default_rounds(500, 50, h1.h)


def test_run_distributed_k1_reproduces_manual_rounds():
    n, rounds = 150, 3
    plan = ShardPlan(1, (n,))
    data = partition(quadratic_data(9, n=n), plan, seed=0)
    h1 = rule_bandwidth(data.X @ normalize_beta(np.ones(2)), 0.15)
    model, comm = run_distributed(data, plan, rounds, h1, h1,
                                  local_init(data, plan, h1))
    beta = local_init(data, plan, h1)
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
    model, comm = run_distributed(data, even_plan(n, k), 2, h, h,
                                  local_init(data, even_plan(n, k), h))
    per_round = k * p + p + 2 * k
    for entry in comm.rounds:
        assert entry.scalars_sent == per_round
        assert entry.scalars_sent != p * p
        assert entry.messages == 3 * k + 1
        assert entry.sstat_scalars > 0
    assert comm.total == 2 * per_round
    payload = comm.to_json()
    assert sorted(payload) == ["rounds", "total"]
    assert all(sorted(r) == ["messages", "scalars_sent"]
               for r in payload["rounds"])
    assert payload["total"] == comm.total


def test_run_distributed_rejects_unpartitioned_data():
    data = quadratic_data(1, n=100)
    with pytest.raises(PlanMismatch):
        run_distributed(data, even_plan(100, 4), 1, 0.5, 0.5, BETA0)


def test_state_validates_direction():
    with pytest.raises(DomainError):
        DistFitState(np.array([1.0, 1.0]), 0, 0.5, 0.5, CommReport())
    with pytest.raises(DomainError):
        DistFitState(np.array([-1.0, 0.0]), 0, 0.5, 0.5, CommReport())
