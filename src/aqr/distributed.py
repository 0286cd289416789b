"""Simulated K-worker distributed fitting of the single-index direction.

One machine (worker 0) is central: it owns shard M1 and fits the pilot that
callers pass to run_distributed (experiments.fit_sharded owns that recipe).
Each newton_round maps the current IndexModel to the next: the central
machine broadcasts the direction, every worker computes its shard's partial
gradient of the pooled criterion, and the central machine reduces the parts
in ascending worker order with compensated summation, as psis_gradient
does, so the distributed gradient matches the pooled one bit for bit. The
round's Newton step is undamped and Euclidean, unlike fit_full's: the
Hessian comes from shard M1 alone, with the central bandwidth h1, and the
iterate is renormalized.

Communication accounting
------------------------
The simulation computes the exact pair sums in memory but charges the
message layer what the sufficient-statistic protocol would send:

* per-round report (serialized): `scalars_sent = K*p + p + 2K` (each worker
  ships its p-vector gradient part, the direction broadcast costs p, and the
  round handshake two scalars per worker) over `3K + 1` messages. No p-by-p
  matrix ever travels; the Hessian stays on the central machine.
* per-round kernel-statistic exchange (simulation detail, tracked on the
  report but not serialized): for each ordered worker pair the sender ships,
  per receiver row, the partial denominator (1), its derivative pieces
  (1 + p), the numerator row (n), its derivative kernel sums (n and n*p),
  plus the sender's index values once per round.
* one-time setup (also unserialized): every worker ships its responses to
  every other worker so indicator columns can be formed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PlanMismatch, ShapeMismatch
from .kernel_cde import Dataset, _as_bandwidth
from .single_index import (IndexModel, _gradient_parts, _newton_step,
                           _reduce_gradient, fit_full, normalize_beta,
                           psis_hessian)


@dataclass
class ShardPlan:
    """Worker count and per-worker shard sizes; worker 0 is central."""
    K: int
    sizes: tuple
    central: int = 0

    def __post_init__(self):
        self.sizes = tuple(int(s) for s in self.sizes)
        if self.K != len(self.sizes) or self.K < 1:
            raise DomainError("K must match the number of shard sizes")
        if any(s < 2 for s in self.sizes):
            raise DomainError("every shard needs at least two rows")
        if self.central != 0:
            raise DomainError("worker 0 is the central machine by convention")

    @classmethod
    def even(cls, n, K):
        """Even split of n rows: sizes differ by at most one, larger first."""
        n, K = int(n), int(K)
        return cls(K, tuple(n // K + (k < n % K) for k in range(K)))

    @property
    def n(self):
        return sum(self.sizes)


@dataclass
class RoundComm:
    scalars_sent: int
    messages: int
    sstat_scalars: int


@dataclass
class CommReport:
    """Per-round message accounting; only the protocol payload serializes."""
    rounds: list = field(default_factory=list)
    setup_scalars: int = 0

    @property
    def total(self):
        return sum(r.scalars_sent for r in self.rounds)

    def to_json(self):
        return {
            "rounds": [{"scalars_sent": r.scalars_sent, "messages": r.messages}
                       for r in self.rounds],
            "total": self.total,
        }


def partition(data, plan, seed):
    """Assign rows to shards by a seeded random permutation."""
    if plan.n != data.n:
        raise PlanMismatch(
            f"plan covers {plan.n} rows but the data has {data.n}")
    perm = np.random.default_rng(seed).permutation(data.n)
    labels = np.empty(data.n, dtype=int)
    start = 0
    for k, size in enumerate(plan.sizes):
        labels[perm[start:start + size]] = k
        start += size
    return Dataset(data.y, data.X, labels)


def _check_partition(data, plan):
    counts = np.bincount(data.shard_of, minlength=plan.K)
    if counts.size != plan.K or not np.array_equal(counts, plan.sizes):
        raise PlanMismatch(
            f"shard histogram {counts.tolist()} does not match plan "
            f"{list(plan.sizes)}")


def _central_shard(data, plan):
    idx = np.flatnonzero(data.shard_of == plan.central)
    return Dataset(data.y[idx], data.X[idx])


def local_init(data, plan, h1):
    """Pilot direction: the full fit restricted to the central shard."""
    _check_partition(data, plan)
    sub = _central_shard(data, plan)
    init = normalize_beta(np.ones(sub.p))
    return fit_full(sub, h1, init).beta


def _round_comm(plan, n, p):
    scalars = plan.K * p + p + 2 * plan.K
    messages = 3 * plan.K + 1
    per_row = 2 * n + n * p + p + 2
    sstat = (plan.K - 1) * n * (per_row + 1)
    return RoundComm(scalars, messages, sstat)


def newton_round(data, plan, model, h1, comm):
    """One round from `model`: gradient exchange under model.h, central
    Newton update under `h1`; appends the round's tally to `comm`."""
    _check_partition(data, plan)
    parts = _gradient_parts(data, model.beta, model.h)
    grad = _reduce_gradient(parts, data.n, data.p)
    hess = psis_hessian(_central_shard(data, plan), model.beta, h1)
    beta = normalize_beta(model.beta - _newton_step(hess, grad))
    comm.rounds.append(_round_comm(plan, data.n, data.p))
    return IndexModel(beta, model.h)


def default_rounds(n, n1, h1):
    """Round count from the convergence condition, rounded up, floored at 1."""
    inner = n1 * float(h1) ** 5 / math.log(n1)
    if inner <= 0.0:
        return 1
    denom = math.log(inner)
    if denom == 0.0:
        return 1
    return max(1, math.ceil(math.log(n / n1) / denom))


def run_distributed(data, plan, rounds, h, h1, beta0):
    """`rounds` Newton rounds from the caller's pilot direction `beta0`.

    Pass rounds=None to use default_rounds on (n, n1, h1). Returns the fitted
    IndexModel under the global bandwidth and the communication report; a
    pilot off the unit sphere or with first entry <= 0 raises DomainError.
    """
    _check_partition(data, plan)
    h1 = _as_bandwidth(h1)
    if rounds is None:
        rounds = default_rounds(data.n, plan.sizes[plan.central], h1.h)
    rounds = int(rounds)
    if rounds < 1:
        raise DomainError("need at least one round")
    comm = CommReport(setup_scalars=(plan.K - 1) * data.n)
    model = IndexModel(beta0, h)
    for _ in range(rounds):
        model = newton_round(data, plan, model, h1, comm)
    return model, comm


def aae(beta_hat, beta0):
    """Average absolute error between two directions of equal length."""
    a = np.asarray(beta_hat, dtype=float)
    b = np.asarray(beta0, dtype=float)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape {a.shape} does not match {b.shape}")
    return float(np.mean(np.abs(a - b)))
