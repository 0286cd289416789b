"""Simulated K-worker distributed fitting of the single-index direction.

The Dataset's shard labels are the one record of the sharding; ShardPlan
only tells partition how to split rows. K is the number of distinct labels,
none negative, and every shard needs at least two rows. Shard 0 is central:
it owns M1 and fits the pilot that callers pass to run_distributed
(experiments.fit_sharded owns that recipe). Each newton_round maps the
current IndexModel to the next: the central machine broadcasts the
direction, every worker computes its shard's partial gradient of the pooled
criterion, and the central machine reduces the parts in ascending label
order with compensated summation, as psis_gradient does, so the distributed
gradient matches the pooled one bit for bit. The round's Newton step is
undamped and Euclidean, unlike fit_full's: the Hessian comes from shard M1
alone, with the central bandwidth h1, and the iterate is renormalized.

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
* one-time setup (serialized as `setup_scalars`): every worker ships its
  responses to every other worker so indicator columns can be formed,
  (K-1)*n scalars.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PlanMismatch, ShapeMismatch, _count
from .kernel_cde import Dataset, _bandwidth
from .single_index import (IndexModel, _gradient_parts, _newton_step,
                           _reduce_gradient, fit_full, normalize_beta,
                           psis_hessian)


@dataclass
class ShardPlan:
    """How partition splits rows: one size per shard, shard 0 first."""
    sizes: tuple

    def __post_init__(self):
        self.sizes = tuple(_count(s, 2, "shard sizes must be whole numbers "
                                  "of at least 2, got") for s in self.sizes)
        if not self.sizes:
            raise DomainError("need one or more shards of two or more rows")

    @classmethod
    def even(cls, n, K):
        """Even split of n rows: sizes differ by at most one, larger first."""
        n = _count(n, 2, "a row count must be a whole number of at least 2, "
                   "got")
        K = _count(K, 1, "a shard count must be a whole number of at least "
                   "1, got")
        return cls(tuple(n // K + (k < n % K) for k in range(K)))

    @property
    def K(self):
        return len(self.sizes)

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
    """Per-round message accounting; the protocol payload and the setup
    count serialize."""
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
            "setup_scalars": self.setup_scalars,
        }


def partition(data, plan, seed):
    """Assign rows to shards by a seeded random permutation."""
    seed = _count(seed, 0, "a partition seed must be a whole number of at "
                  "least 0, got")
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


def _shard_sizes(data):
    """Rows per shard in ascending label order, central shard 0 first."""
    labels, sizes = np.unique(data.shard_of, return_counts=True)
    if labels[0] != 0 or sizes.min() < 2:
        raise DomainError(f"shard sizes {sizes.tolist()} from label "
                          f"{labels[0]}: need shard 0 and two rows per shard")
    return sizes


def _central_shard(data):
    """Shard 0's rows, once the labels have passed _shard_sizes."""
    _shard_sizes(data)
    idx = np.flatnonzero(data.shard_of == 0)
    return Dataset(data.y[idx], data.X[idx])


def local_init(data, h1):
    """Pilot direction: the full fit restricted to the central shard."""
    sub = _central_shard(data)
    init = normalize_beta(np.ones(sub.p))
    return fit_full(sub, h1, init).beta


def _round_comm(K, n, p):
    scalars = K * p + p + 2 * K
    messages = 3 * K + 1
    per_row = 2 * n + n * p + p + 2
    sstat = (K - 1) * n * (per_row + 1)
    return RoundComm(scalars, messages, sstat)


def newton_round(data, model, h1, comm):
    """One round from `model`: gradient exchange under model.h, central
    Newton update under `h1`; appends the round's tally to `comm`."""
    central = _central_shard(data)
    parts = _gradient_parts(data, model.beta, model.h)
    grad = _reduce_gradient(parts, data.n, data.p)
    hess = psis_hessian(central, model.beta, h1)
    beta = normalize_beta(model.beta - _newton_step(hess, grad))
    comm.rounds.append(_round_comm(data.shard_labels().size, data.n, data.p))
    return IndexModel(beta, model.h)


def default_rounds(n, n1, h1):
    """Round count from the convergence condition, rounded up, floored at 1.
    The central shard holds n1 >= 2 of the n rows."""
    n1 = _count(n1, 2, "the central shard's row count must be a whole number "
                "of at least 2, got")
    n = _count(n, n1, f"the row count must be a whole number of at least "
               f"n1 = {n1}, got")
    inner = n1 * _bandwidth(h1) ** 5 / math.log(n1)
    if inner <= 0.0:  # h1 ** 5 underflows for h1 below about 1.6e-65
        return 1
    denom = math.log(inner)
    if denom == 0.0:
        return 1
    return max(1, math.ceil(math.log(n / n1) / denom))


def run_distributed(data, rounds, h, h1, beta0):
    """`rounds` Newton rounds from the caller's pilot direction `beta0`.

    Pass rounds=None to use default_rounds on (n, n1, h1). Returns the fitted
    IndexModel under the global bandwidth and the communication report; a
    pilot off the unit sphere or with first entry <= 0 raises DomainError.
    """
    sizes = _shard_sizes(data)
    h1 = _bandwidth(h1)
    if rounds is None:
        rounds = default_rounds(data.n, sizes[0], h1)
    rounds = _count(rounds, 1, "a run needs a whole number of rounds, at "
                    "least 1, got")
    comm = CommReport(setup_scalars=(sizes.size - 1) * data.n)
    model = IndexModel(beta0, h)
    for _ in range(rounds):
        model = newton_round(data, model, h1, comm)
    return model, comm


def aae(beta_hat, beta0):
    """Average absolute error between two directions of equal length."""
    a = np.asarray(beta_hat, dtype=float)
    b = np.asarray(beta0, dtype=float)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape {a.shape} does not match {b.shape}")
    return float(np.mean(np.abs(a - b)))
