"""Deterministic experiment engines behind the command line tool.

Every runner returns plain dicts and row lists ready for CSV/JSON dumping;
argument parsing and output files live in the CLI, and _read_input opens
and reads every input file once, the CLI's included. Replication seeds are
spawned from the master seed by counter, so a run is reproducible for any
thread count, and reductions always happen in replication order.
"""

import csv
import io
import math

import numpy as np

from .distributed import (ShardPlan, _central_shard, aae, local_init,
                          partition, run_distributed)
from .errors import AqrError, DomainError, ParseError, ShapeMismatch
from .estimator import _check_ends, _telescope, aqr_conditional, rpad
from .families import (KINDS, WeightFamily, _tau, es, exp_spectral,
                       extremile, ge, ges, qr_dirac, tabulated, tcrm,
                       validate_c1)
from .kernel_cde import (_BLOCK_CELLS, Dataset, _YSorted, _bandwidth,
                         cde_curve, cv_bandwidth, rule_bandwidth)
from .oracle import (beta_dist, draw, exponential, frechet_limit_ratio,
                     normal, population_aqr, quantile, student_t, tail_index,
                     uniform)
from .portfolio import evaluate, optimize_weights
from .single_index import (_newton_step, fit_full, normalize_beta,
                           psis_gradient, psis_hessian)


def _pmap(fn, tasks, threads):
    """Map preserving task order; a process pool when threads > 1."""
    if threads is None or int(threads) <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # imported here: the pool pulls in multiprocessing, which no
    # single-process run needs
    from concurrent.futures import ProcessPoolExecutor
    workers = min(int(threads), len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (4 * workers))
        return list(pool.map(fn, tasks, chunksize=chunk))


def _summary(vals, suffix=""):
    """Mean and sample sd (0 for one replication) of per-rep values."""
    sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
    return {"mean" + suffix: float(np.mean(vals)), "sd" + suffix: sd}


def _rep_seed(master, stream, rep):
    """Counter-derived child seed, stable under any execution order."""
    seq = np.random.SeedSequence([int(master), int(stream), int(rep)])
    return int(seq.generate_state(1)[0])


# ---------------------------------------------------------------------------
# family rosters

def study_families():
    """The five weight families every comparison table reports on."""
    return [
        ("es", es()),
        ("ges", ges(1.0)),
        ("extremile", extremile()),
        ("ge", ge("half-inverse")),
        ("tcrm", tcrm("half-inverse")),
    ]


def builtin_families():
    """Every shipped family, one entry per parameter variant."""
    return [
        ("qr_dirac", qr_dirac()),
        ("es", es()),
        ("ges_a0", ges(0.0)),
        ("ges_a1", ges(1.0)),
        ("ges_a2", ges(2.0)),
        ("extremile", extremile()),
        ("ge_half_inverse", ge("half-inverse")),
        ("ge_cotangent", ge("cotangent")),
        ("tcrm_half_inverse", tcrm("half-inverse")),
        ("tcrm_cotangent", tcrm("cotangent")),
        ("tcrm_extremile_equivalent", tcrm("extremile-equivalent")),
        ("expspectral", exp_spectral()),
    ]


def _increasing_schedule(t):
    return t


def violator_families():
    """Three crafted families, each tripping a different C1 check."""
    s = np.arange(513) / 512.0
    hump = 6.0 * s * (1.0 - s)
    hump = hump / np.sum(0.5 * (hump[1:] + hump[:-1]) * np.diff(s))
    return [
        ("increasing_schedule",
         WeightFamily("ge", schedule=_increasing_schedule)),
        ("negative_density", tabulated(s, 2.0 * s - 0.5)),
        ("hump_density", tabulated(s, hump)),
    ]


def run_validate(violators=()):
    """C1 suite over the built-in roster plus any named crafted violators."""
    registry = dict(violator_families())
    fams = list(builtin_families())
    for name in violators:
        if name not in registry:
            raise DomainError(
                f"unknown violator {name!r}; choose from "
                f"{sorted(registry)}")
        fams.append((name, registry[name]))
    entries = []
    for label, fam in fams:
        report = validate_c1(fam)
        entries.append({"family": label, "kind": fam.kind,
                        "passed": report.passed, "report": report.to_json()})
    return {
        "kinds": sorted({e["kind"] for e in entries}),
        "families": entries,
        "all_passed": all(e["passed"] for e in entries),
    }


# ---------------------------------------------------------------------------
# population comparison table

SIX_DISTRIBUTIONS = [
    ("t3", "frechet", student_t(3.0)),
    ("t1.2", "frechet", student_t(1.2)),
    ("normal", "gumbel", normal(0.0, 1.0)),
    ("exp", "gumbel", exponential(1.0)),
    ("uniform", "weibull", uniform(0.0, 1.0)),
    ("beta23", "weibull", beta_dist(2.0, 3.0)),
]

COMPARE_TAUS = tuple(round(0.90 + 0.01 * i, 2) for i in range(9))


def compare_rows(taus=COMPARE_TAUS):
    """Population value per (distribution, family, tau) plus the quantile.

    Heavy-tailed rows also carry the closed-form tail ratio prediction, so
    the table doubles as a convergence diagnostic at high tau.
    """
    rows = []
    for dist_label, domain, dist in SIX_DISTRIBUTIONS:
        gamma = tail_index(dist)
        for fam_label, fam in study_families():
            kind, args = KINDS[fam.kind].tail(fam)
            ratio = (None if gamma is None
                     else frechet_limit_ratio(kind, gamma, **args))
            for tau in taus:
                rows.append({
                    "distribution": dist_label,
                    "domain": domain,
                    "family": fam_label,
                    "tau": float(tau),
                    "value": population_aqr(dist, fam, tau),
                    "quantile": quantile(dist, float(tau)),
                    "limit_ratio": ratio,
                })
    return rows


def check_compare_ordering(rows):
    """Strict-ordering violations across families at each (distribution, tau).

    Checks the descending chain ges > es > extremile > ge > tcrm everywhere,
    extremile > quantile > ge on light-tailed (gumbel-domain) rows, and
    quantile > extremile on short-tailed (weibull-domain) rows.
    """
    cells = {}
    for row in rows:
        cells.setdefault((row["distribution"], row["tau"]), {})[
            row["family"]] = row
    chain = ["ges", "es", "extremile", "ge", "tcrm"]
    by_domain = {"gumbel": ("extremile", "quantile", "ge"),
                 "weibull": ("quantile", "extremile")}
    violations = []
    for (dist, tau), cell in sorted(cells.items()):
        missing = [f for f in chain if f not in cell]
        if missing:
            violations.append(f"{dist} tau={tau}: missing {missing}")
            continue
        for hi, lo in zip(chain, chain[1:]):
            if not cell[hi]["value"] > cell[lo]["value"]:
                violations.append(
                    f"{dist} tau={tau}: {hi} value {cell[hi]['value']!r} "
                    f"not above {lo} value {cell[lo]['value']!r}")
        values = {f: cell[f]["value"] for f in chain}
        values["quantile"] = cell["extremile"]["quantile"]
        order = by_domain.get(cell["extremile"]["domain"], ())
        for hi, lo in zip(order, order[1:]):
            if not values[hi] > values[lo]:
                violations.append(f"{dist} tau={tau}: {hi} not above {lo}")
    return violations


def run_compare(taus=COMPARE_TAUS):
    rows = compare_rows(taus=taus)
    return {"rows": rows, "violations": check_compare_ordering(rows)}


# ---------------------------------------------------------------------------
# simulation study 1: one covariate, kernel CDF at two probe points

SIM1_N = 300
SIM1_TAUS = (0.05, 0.1, 0.9, 0.95)
SIM1_ERRORS = [
    ("normal", normal(0.0, 1.0)),
    ("t3", student_t(3.0)),
    ("exp", exponential(1.0)),
]


def _sim1_draw(rng, dist, n):
    x = rng.standard_normal(n)
    return x, 20.0 * np.sin(np.pi * x) + draw(dist, rng, n)


def _sim1_probe(tau):
    return -0.5 if float(tau) < 0.5 else 0.5


def _probe_estimates(y, z, x0s, taus):
    """Estimate per (family label, tau) from the CV-bandwidth kernel CDF of y
    given the scalar z, read at x0s[k] for taus[k]; sim1 and sim2 both call
    it. One curve per distinct probe serves every family read there."""
    data = Dataset(y, z[:, None])
    h = cv_bandwidth(data)
    curves = {x0: cde_curve(data, h, x0) for x0 in dict.fromkeys(x0s)}
    return {(fam_label, tau): aqr_conditional(curves[x0], fam, tau).value
            for fam_label, fam in study_families()
            for x0, tau in zip(x0s, taus)}


def _sim1_rep(args):
    master, error_index, rep, n, taus = args
    rng = np.random.default_rng(_rep_seed(master, error_index, rep))
    x, y = _sim1_draw(rng, SIM1_ERRORS[error_index][1], n)
    return _probe_estimates(y, x, [_sim1_probe(t) for t in taus], taus)


def run_sim1(master_seed=1, reps=100, n=SIM1_N, taus=SIM1_TAUS, threads=1):
    """Replicated accuracy study for the one-covariate kernel pipeline.

    Each replication draws the sine model, picks the bandwidth by
    cross-validation, and estimates every (family, tau) cell at the probe
    point for that tail; cells report mean and sd of RPAD against the
    location-shifted population value.
    """
    taus = tuple(float(t) for t in taus)
    tasks = [(master_seed, ei, rep, int(n), taus)
             for ei in range(len(SIM1_ERRORS)) for rep in range(int(reps))]
    results = _pmap(_sim1_rep, tasks, threads)
    cells = []
    for ei, (err_label, err_dist) in enumerate(SIM1_ERRORS):
        per_rep = results[ei * int(reps):(ei + 1) * int(reps)]
        for fam_label, fam in study_families():
            for tau in taus:
                x0 = _sim1_probe(tau)
                truth = 20.0 * math.sin(math.pi * x0) + population_aqr(
                    err_dist, fam, tau)
                vals = [rpad(r[(fam_label, tau)], truth) for r in per_rep]
                cells.append({"error": err_label, "family": fam_label,
                              "tau": tau, "x0": x0, "truth": truth,
                              **_summary(vals, "_rpad")})
    return {"n": int(n), "reps": int(reps), "seed": int(master_seed),
            "cells": cells}


# ---------------------------------------------------------------------------
# index model: the pooled and sharded fits (one recipe for sim2, the
# air-quality study and the CLI) and simulation study 2

INDEX_RATE_EXPONENT = 0.15
# smallest pilot subsample; a pooled fit on n >= 4 * PILOT_MIN_ROWS rows
# starts from a pilot fit on ceil(n/4) of them
PILOT_MIN_ROWS = 100
_PILOT_SEED = 0


def fit_pooled(data, rate_exponent=INDEX_RATE_EXPONENT, bandwidth=None):
    """Pooled index fit at `bandwidth` or, when that is None, at the rule
    bandwidth of the all-ones index.

    A fit at the caller's bandwidth, or on fewer than 4 * PILOT_MIN_ROWS
    rows, starts fit_full from the all-ones direction. A rule-bandwidth fit
    on more rows starts it from a pilot: the pooled fit, by this same recipe
    at its own rule bandwidth, of the first ceil(n/4) rows of a fixed-seed
    permutation, shard labels dropped. The pilot's Newton steps and
    line-search halvings cost a sixteenth of a full-data walk, and the full
    fit keeps its exits, so it still ends at a stationary point of the full
    criterion at this bandwidth. A pilot that fails with an AqrError leaves
    the all-ones start.
    """
    init = normalize_beta(np.ones(data.p))
    if bandwidth is not None:
        return fit_full(data, bandwidth, init)
    bandwidth = rule_bandwidth(data.X @ init, rate_exponent)
    if data.n >= 4 * PILOT_MIN_ROWS:
        rows = np.random.default_rng(_PILOT_SEED).permutation(data.n)
        rows = rows[:(data.n + 3) // 4]
        try:
            init = fit_pooled(Dataset(data.y[rows], data.X[rows]),
                              rate_exponent).beta
        except AqrError:
            pass
    return fit_full(data, bandwidth, init)


def fit_sharded(data, rate_exponent=INDEX_RATE_EXPONENT, rounds=None):
    """Distributed index fit on shard-labelled `data`: h1 is the central
    shard's rule bandwidth at the all-ones direction, the pilot its fit under
    h1, h the rule bandwidth at the pilot index; then run_distributed.
    Returns (model, comm, pilot, h1)."""
    init = normalize_beta(np.ones(data.p))
    h1 = rule_bandwidth(_central_shard(data).X @ init, rate_exponent)
    pilot = local_init(data, h1)
    h = rule_bandwidth(data.X @ pilot, rate_exponent)
    model, comm = run_distributed(data, rounds, h, h1, pilot)
    return model, comm, pilot, h1


SIM2_N = 500
SIM2_K = 10
SIM2_TAUS = (0.1, 0.9)
SIM2_BETA0 = np.array([1.0, 2.0]) / math.sqrt(5.0)
SIM2_X0 = np.array([2.0, 2.0])


def _sim2_draw(rng, n):
    X = rng.normal(2.0, 1.0, size=(n, 2))
    eps = rng.standard_normal(n)
    return (X @ SIM2_BETA0) ** 2 + eps, X


def _sim2_rep(args):
    master, rep, n, K, taus = args
    rng = np.random.default_rng(_rep_seed(master, 0, rep))
    y, X = _sim2_draw(rng, n)
    data = Dataset(y, X)
    model_all = fit_pooled(data)
    pdata = partition(data, ShardPlan.even(n, K),
                      seed=_rep_seed(master, 1, rep))
    model_de, comm, beta0, _ = fit_sharded(pdata)
    return {
        "aae_all": aae(model_all.beta, SIM2_BETA0),
        "aae_de": aae(model_de.beta, SIM2_BETA0),
        "aae_pilot": aae(beta0, SIM2_BETA0),
        "rounds": len(comm.rounds),
        **{f"est_{method}": _probe_estimates(
            y, X @ model.beta, [float(SIM2_X0 @ model.beta)] * len(taus), taus)
           for method, model in (("all", model_all), ("de", model_de))},
    }


def run_sim2(master_seed=1, reps=30, n=SIM2_N, K=SIM2_K, taus=SIM2_TAUS,
             threads=1):
    """Replicated pooled-versus-distributed study on the quadratic index model.

    Reports mean and sd of the absolute parameter error for both fits, the
    per-cell RPAD table on the fitted index at the probe point, and each
    distributed fit's round count. With K=1 the report adds the gap between
    the distributed fit and the same Newton path replayed on pooled data.
    """
    taus = tuple(float(t) for t in taus)
    tasks = [(int(master_seed), rep, int(n), int(K), taus)
             for rep in range(int(reps))]
    results = _pmap(_sim2_rep, tasks, threads)

    rpad_rows = []
    for fam_label, fam in study_families():
        for tau in taus:
            truth = float(SIM2_X0 @ SIM2_BETA0) ** 2 + population_aqr(
                normal(0.0, 1.0), fam, tau)
            for method in ("all", "de"):
                vals = [rpad(r[f"est_{method}"][(fam_label, tau)], truth)
                        for r in results]
                rpad_rows.append({"family": fam_label, "tau": tau,
                                  "method": method, "truth": truth,
                                  **_summary(vals, "_rpad")})
    report = {
        "n": int(n), "K": int(K), "reps": int(reps),
        "seed": int(master_seed),
        "aae": {method: _summary([r[f"aae_{method}"] for r in results])
                for method in ("all", "de", "pilot")},
        "rounds": [r["rounds"] for r in results],
        "rpad": rpad_rows,
    }
    if int(K) == 1:
        report["k1_newton_path_gap"] = k1_newton_gap(master_seed, n=int(n))
    return report


def k1_newton_gap(master_seed=1, n=200):
    """Max gap between the one-machine distributed fit and the identical
    Newton path replayed directly with the pooled-data derivatives."""
    rng = np.random.default_rng(_rep_seed(master_seed, 2, 0))
    y, X = _sim2_draw(rng, n)
    data = Dataset(y, X)
    model, comm, manual, h1 = fit_sharded(data)
    for _ in comm.rounds:
        grad = psis_gradient(data, manual, model.h)
        hess = psis_hessian(data, manual, h1)
        manual = normalize_beta(manual - _newton_step(hess, grad))
    return float(np.max(np.abs(np.asarray(model.beta) - manual)))


# ---------------------------------------------------------------------------
# portfolio run

def run_portfolio(fit_returns, test_returns, bench, family, tau, **options):
    """Optimize on the fit window, score on the test window; the report
    carries the optimizer's deterministic diagnostics. `options` (starts,
    iterations, seed, mode) go to optimize_weights, which owns their
    defaults. The test window must carry the fit window's asset labels in
    the same order."""
    if test_returns.labels != fit_returns.labels:
        raise ShapeMismatch(
            f"test window assets {list(test_returns.labels)} differ from the "
            f"fit window's {list(fit_returns.labels)}")
    weights = optimize_weights(fit_returns, family, tau, **options)
    scores = evaluate(test_returns, weights, bench)
    out = weights.to_json(labels=fit_returns.labels)
    out.update({"SR": scores["SR"], "PD": scores["PD"],
                "family": family.label(), "tau": float(_tau(tau)),
                "fit_days": fit_returns.days,
                "test_days": test_returns.days,
                "diagnostics": weights.diagnostics})
    return out


# ---------------------------------------------------------------------------
# air-quality pipeline

AIRQ_TAUS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5,
             0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
AIRQ_RESPONSE = "PM2.5"
AIRQ_COVARIATES = ("TEMP", "PRES", "DEWP", "WSPM")
AIRQ_DATE = ("year", "month", "day")
AIRQ_WINTER = ((2016, 12), (2017, 1), (2017, 2))
AIRQ_ASSUMPTION = ("hourly records are averaged to one value per site-day "
                   "after dropping hours with missing fields")


def _airq_float(text, row, col):
    """The cell's number; None when it is empty, or NA or NaN in any letter
    case. Any other cell that is not a finite number is a ParseError."""
    text = text.strip()
    if text.lower() in ("", "na", "nan"):
        return None
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"non-numeric value {text!r} in column {col}",
                         row=row, col=col) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {text!r} in column {col}",
                         row=row, col=col)
    return value


def _read_input(path):
    """The bytes of the input file at `path` and the encoding of its text,
    less one leading byte-order mark, which spreadsheets write at the start
    of a UTF-8 CSV file. This is the one place the package opens a file to
    read, and it reads the file once, so a pipe reads like a file."""
    with open(path, newline="") as fh:
        encoding, raw = fh.encoding, fh.buffer.read()
    return raw.removeprefix("\ufeff".encode(encoding, "ignore")), encoding


def _csv_records(raw, encoding):
    """csv.reader over the text of the bytes `raw`; its failures raise
    ParseError."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding,
                                         newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(str(exc), row=reader.line_num) from None
    except UnicodeDecodeError as exc:
        # the offset is into the decoder's chunk; find the one in the bytes
        try:
            raw.decode(encoding)
        except UnicodeDecodeError as whole:
            exc = whole
        raise ParseError(
            f"byte {exc.object[exc.start]:#04x} is not {encoding} text",
            row=exc.object.count(b"\n", 0, exc.start) + 1) from None


def load_airquality(path, winter=True):
    """Read site-day rows from a raw hourly export or a daily file.

    Requires columns PM2.5, TEMP, PRES, DEWP and WSPM, and year, month and
    day when `winter` is true or an `hour` column is present. With `hour`
    the rows are averaged per (station, year, month, day) after dropping
    hours with any missing field; `winter` keeps December through February
    of the 2016/17 season. No header column may be given twice. Blank lines
    are skipped; any other record must have the header's field count.
    Returns (y, X, shard_of, site_names) with shards indexed by sorted site
    name.
    """
    fields = (AIRQ_RESPONSE,) + AIRQ_COVARIATES
    records = _csv_records(*_read_input(path))
    header = next(records, [])
    repeated = [c for i, c in enumerate(header) if c in header[:i]]
    if repeated:
        raise ParseError(f"column {repeated[0]} is given twice", row=1,
                         col=repeated[0])
    for col in fields:
        if col not in header:
            raise ParseError(f"missing required column {col}", row=1, col=col)
    hourly = "hour" in header
    missing = [c for c in AIRQ_DATE if c not in header]
    if missing and (winter or hourly):
        raise ParseError(f"missing date column {missing[0]}",
                         row=1, col=missing[0])
    dates = () if missing else AIRQ_DATE
    groups = {}
    for i, cells in enumerate(records, start=2):
        if not cells:
            continue
        if len(cells) != len(header):
            raise ParseError(f"expected {len(header)} fields, got "
                             f"{len(cells)}", row=i)
        rec = dict(zip(header, cells))
        vals = [_airq_float(rec[col], i, col) for col in fields + dates]
        if None in vals:
            continue
        date = tuple(vals[len(fields):])
        if winter and date[:2] not in AIRQ_WINTER:
            continue
        site = (rec.get("station") or "").strip()
        key = (site,) + date if hourly else (site, i)
        groups.setdefault(key, []).append(vals[:len(fields)])
    if not groups:
        raise ParseError("no usable rows after filtering", row=2, col=None)
    sites = sorted({key[0] for key in groups})
    site_index = {s: k for k, s in enumerate(sites)}
    rows = [np.mean(groups[key], axis=0) for key in sorted(groups)]
    shard_of = np.array([site_index[key[0]] for key in sorted(groups)])
    table = np.array(rows, dtype=float)
    return table[:, 0], table[:, 1:], shard_of, sites


def average_aqr_values(y, z, h, families, taus):
    """Mean over rows of the exact telescoped estimate, per family and level.

    Walks the _YSorted row blocks: each block's kernel CDF levels at every
    distinct y are one staircase, reused for every family in `families` and
    every level in `taus` while the block is in cache, so memory is
    O(block * n). Only the weight transform depends on the family and the
    level, and each row's estimate is computed along that row, so each mean
    is the one a single-family, single-level call gives, bit for bit.
    Returns one list of means (one per level) per family. A block goes
    through estimator._telescope as one CDF does in aqr_conditional; rows
    match it up to the summation order of the block's matrix product.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if y.ndim != 1 or z.shape != y.shape:
        raise ShapeMismatch("y and z must be vectors of equal length")
    Dataset(y, z)  # its other rules: at least two rows, all finite
    ts = [_tau(t) for t in taus]
    h = _bandwidth(h)
    ys = _YSorted(y, z)
    values = np.empty((len(families), len(ts), y.size))
    # _BLOCK_CELLS level cells (rows x knots) per block; on tied y, at most
    # 1 MiB per kernel array (rows x n)
    size = max(1, min(_BLOCK_CELLS // ys.knots.size, (1 << 17) // y.size))
    for rows in ys.blocks(np.arange(y.size), size):
        levels = ys.levels(ys.kernel(rows, h)[1])[2]
        _check_ends(levels)
        dg = np.empty_like(levels)
        for f, family in enumerate(families):
            for k, t in enumerate(ts):
                values[f, k, rows] = _telescope(ys.knots, levels, family, t,
                                                dg)[0]
    return [[float(np.mean(v)) for v in means] for means in values]


def run_airquality(y, X, shard_of, site_names, taus=AIRQ_TAUS):
    """Index fits (pooled and site-sharded) and the average-estimate table.

    Covariates are standardized first. The pooled fit drives the main table;
    the distributed fit, with one shard per site and the first site central,
    drives the absolute-deviation table.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    scale = X.std(axis=0)
    if np.any(scale <= 0.0):
        raise DomainError("a covariate is constant; cannot standardize")
    X = (X - X.mean(axis=0)) / scale
    taus = tuple(float(t) for t in taus)

    model_full = fit_pooled(Dataset(y, X))
    model_de, comm, _, h1 = fit_sharded(Dataset(y, X, shard_of))

    fams = [("qr", qr_dirac())] + study_families()
    tables = {}
    for tag, model in (("full", model_full), ("distributed", model_de)):
        beta = np.asarray(model.beta, dtype=float)
        z = X @ beta
        h_eval = cv_bandwidth(Dataset(y, z[:, None]))
        means = average_aqr_values(y, z, h_eval, [fam for _, fam in fams],
                                   taus)
        tables[tag] = [{"family": fam_label, "values": values}
                       for (fam_label, _), values in zip(fams, means)]
    deviation = [
        {"family": full_row["family"],
         "values": [abs(a - b) for a, b in zip(full_row["values"],
                                               de_row["values"])]}
        for full_row, de_row in zip(tables["full"], tables["distributed"])]
    return {
        "n": int(y.size),
        "sites": list(site_names),
        "K": len(site_names),
        "taus": list(taus),
        "assumption": AIRQ_ASSUMPTION,
        "beta_full": np.asarray(model_full.beta, dtype=float).tolist(),
        "beta_distributed": np.asarray(model_de.beta, dtype=float).tolist(),
        "h_full": model_full.h,
        "h_distributed": model_de.h,
        "h_central": h1,
        "rounds": len(comm.rounds),
        "full": tables["full"],
        "distributed": tables["distributed"],
        "deviation": deviation,
    }
