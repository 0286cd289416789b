"""Deterministic experiment engines behind the command line tool.

Every runner returns plain dicts and row lists ready for CSV/JSON dumping;
argument parsing and file I/O live in the CLI. Replication seeds are spawned
from the master seed by counter, so a run is reproducible for any thread
count, and reductions always happen in replication order.
"""

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .distributed import (ShardPlan, aae, local_init, partition,
                          run_distributed)
from .errors import DomainError, ParseError
from .estimator import aqr_conditional, rpad
from .families import (WeightFamily, _tau, es, exp_spectral, extremile,
                       g_value, ge, ges, qr_dirac, tabulated, tcrm,
                       validate_c1)
from .kernel_cde import (Dataset, _YSorted, _as_bandwidth, cde_curve,
                         cv_bandwidth, rule_bandwidth)
from .oracle import (beta_dist, exponential, frechet_limit_ratio, normal,
                     population_aqr, quantile, student_t, uniform)
from .portfolio import evaluate, optimize_weights
from .single_index import (_newton_step, fit_full, normalize_beta,
                           psis_gradient, psis_hessian)


def _pmap(fn, tasks, threads):
    """Map preserving task order; a process pool when threads > 1."""
    if threads is None or int(threads) <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    workers = min(int(threads), len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (4 * workers))
        return list(pool.map(fn, tasks, chunksize=chunk))


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

_TAIL_GAMMA = {"t3": 1.0 / 3.0, "t1.2": 1.0 / 1.2}


def _limit_ratio(family_label, gamma):
    if family_label == "es":
        return frechet_limit_ratio("ges", gamma, a=0.0)
    if family_label == "ges":
        return frechet_limit_ratio("ges", gamma, a=1.0)
    if family_label == "extremile":
        return frechet_limit_ratio("ge", gamma, A=math.log(2.0))
    if family_label == "ge":
        return frechet_limit_ratio("ge", gamma, A=0.5)
    if family_label == "tcrm":
        return frechet_limit_ratio("tcrm", gamma, A=0.5)
    raise DomainError(f"no tail limit for family {family_label!r}")


def compare_rows(taus=None):
    """Population value per (distribution, family, tau) plus the quantile.

    Heavy-tailed rows also carry the closed-form tail ratio prediction, so
    the table doubles as a convergence diagnostic at high tau.
    """
    if taus is None:
        taus = [round(0.90 + 0.01 * i, 2) for i in range(9)]
    rows = []
    for dist_label, domain, dist in SIX_DISTRIBUTIONS:
        gamma = _TAIL_GAMMA.get(dist_label)
        for fam_label, fam in study_families():
            ratio = _limit_ratio(fam_label, gamma) if gamma else None
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
        q = cell["extremile"]["quantile"]
        domain = cell["extremile"]["domain"]
        if domain == "gumbel":
            if not cell["extremile"]["value"] > q:
                violations.append(
                    f"{dist} tau={tau}: extremile not above quantile")
            if not q > cell["ge"]["value"]:
                violations.append(
                    f"{dist} tau={tau}: quantile not above ge")
        elif domain == "weibull":
            if not q > cell["extremile"]["value"]:
                violations.append(
                    f"{dist} tau={tau}: quantile not above extremile")
    return violations


def run_compare(taus=None):
    rows = compare_rows(taus=taus)
    return {"rows": rows, "violations": check_compare_ordering(rows)}


# ---------------------------------------------------------------------------
# simulation study 1: one covariate, kernel CDF at two probe points

SIM1_ERRORS = [
    ("normal", normal(0.0, 1.0)),
    ("t3", student_t(3.0)),
    ("exp", exponential(1.0)),
]


def _sim1_draw(rng, label, n):
    x = rng.standard_normal(n)
    if label == "normal":
        eps = rng.standard_normal(n)
    elif label == "t3":
        eps = rng.standard_t(3.0, n)
    elif label == "exp":
        eps = rng.exponential(1.0, n)
    else:
        raise DomainError(f"unknown error label {label!r}")
    return x, 20.0 * np.sin(np.pi * x) + eps


def _sim1_probe(tau):
    return -0.5 if float(tau) < 0.5 else 0.5


def _sim1_rep(args):
    master, error_index, rep, n, taus = args
    label = SIM1_ERRORS[error_index][0]
    rng = np.random.default_rng(_rep_seed(master, error_index, rep))
    x, y = _sim1_draw(rng, label, n)
    data = Dataset(y, x[:, None])
    h = cv_bandwidth(data)
    curves = {}
    for tau in taus:
        x0 = _sim1_probe(tau)
        if x0 not in curves:
            curves[x0] = cde_curve(data, h, x0)
    out = {}
    for fam_label, fam in study_families():
        for tau in taus:
            est = aqr_conditional(curves[_sim1_probe(tau)], fam, tau)
            out[(fam_label, tau)] = est.value
    return out


def run_sim1(master_seed=1, reps=100, n=300, taus=(0.05, 0.1, 0.9, 0.95),
             threads=1):
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
                cells.append({
                    "error": err_label, "family": fam_label, "tau": tau,
                    "x0": x0, "truth": truth,
                    "mean_rpad": float(np.mean(vals)),
                    "sd_rpad": (float(np.std(vals, ddof=1))
                                if len(vals) > 1 else 0.0),
                })
    return {"n": int(n), "reps": int(reps), "seed": int(master_seed),
            "cells": cells}


# ---------------------------------------------------------------------------
# index model: the pooled and sharded fits (one recipe for sim2, the
# air-quality study and the CLI) and simulation study 2

INDEX_RATE_EXPONENT = 0.15


def fit_pooled(data, rate_exponent=INDEX_RATE_EXPONENT, bandwidth=None):
    """Pooled index fit from the all-ones direction, at `bandwidth` or, when
    that is None, at the rule bandwidth of the start index."""
    init = normalize_beta(np.ones(data.p))
    if bandwidth is None:
        bandwidth = rule_bandwidth(data.X @ init, rate_exponent)
    return fit_full(data, bandwidth, init)


def fit_sharded(data, plan, rate_exponent=INDEX_RATE_EXPONENT, rounds=None):
    """Distributed index fit on shard-labelled `data`: h1 is the central
    shard's rule bandwidth at the all-ones direction, the pilot its fit under
    h1, h the rule bandwidth at the pilot index; then run_distributed.
    Returns (model, comm, pilot, h1)."""
    init = normalize_beta(np.ones(data.p))
    central = data.X[data.shard_of == plan.central]
    h1 = rule_bandwidth(central @ init, rate_exponent)
    pilot = local_init(data, plan, h1)
    h = rule_bandwidth(data.X @ pilot, rate_exponent)
    model, comm = run_distributed(data, plan, rounds, h, h1, pilot)
    return model, comm, pilot, h1


SIM2_BETA0 = np.array([1.0, 2.0]) / math.sqrt(5.0)
SIM2_X0 = np.array([2.0, 2.0])


def _sim2_draw(rng, n):
    X = rng.normal(2.0, 1.0, size=(n, 2))
    eps = rng.standard_normal(n)
    return (X @ SIM2_BETA0) ** 2 + eps, X


def _index_estimates(y, X, beta, taus):
    """CV-bandwidth kernel CDF on the fitted index, estimates at the probe."""
    beta = np.asarray(beta, dtype=float)
    z = X @ beta
    sub = Dataset(y, z[:, None])
    h = cv_bandwidth(sub)
    F = cde_curve(sub, h, float(SIM2_X0 @ beta))
    return {(fam_label, tau): aqr_conditional(F, fam, tau).value
            for fam_label, fam in study_families() for tau in taus}


def _sim2_rep(args):
    master, rep, n, K, taus = args
    rng = np.random.default_rng(_rep_seed(master, 0, rep))
    y, X = _sim2_draw(rng, n)
    data = Dataset(y, X)
    model_all = fit_pooled(data)
    plan = ShardPlan.even(n, K)
    pdata = partition(data, plan, seed=_rep_seed(master, 1, rep))
    model_de, comm, beta0, _ = fit_sharded(pdata, plan)
    return {
        "aae_all": aae(model_all.beta, SIM2_BETA0),
        "aae_de": aae(model_de.beta, SIM2_BETA0),
        "aae_pilot": aae(beta0, SIM2_BETA0),
        "rounds": len(comm.rounds),
        "scalars": comm.total,
        "est_all": _index_estimates(y, X, model_all.beta, taus),
        "est_de": _index_estimates(y, X, model_de.beta, taus),
    }


def run_sim2(master_seed=1, reps=30, n=500, K=10, taus=(0.1, 0.9), threads=1):
    """Replicated pooled-versus-distributed study on the quadratic index model.

    Reports mean and sd of the absolute parameter error for both fits, the
    per-cell RPAD table on the fitted index at the probe point, and the
    communication totals. With K=1 the report adds the gap between the
    distributed fit and the same Newton path replayed on pooled data.
    """
    taus = tuple(float(t) for t in taus)
    tasks = [(int(master_seed), rep, int(n), int(K), taus)
             for rep in range(int(reps))]
    results = _pmap(_sim2_rep, tasks, threads)

    def _stats(key):
        vals = [r[key] for r in results]
        sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        return {"mean": float(np.mean(vals)), "sd": sd}

    rpad_rows = []
    for fam_label, fam in study_families():
        for tau in taus:
            truth = float(SIM2_X0 @ SIM2_BETA0) ** 2 + population_aqr(
                normal(0.0, 1.0), fam, tau)
            for method in ("all", "de"):
                vals = [rpad(r[f"est_{method}"][(fam_label, tau)], truth)
                        for r in results]
                rpad_rows.append({
                    "family": fam_label, "tau": tau, "method": method,
                    "truth": truth,
                    "mean_rpad": float(np.mean(vals)),
                    "sd_rpad": (float(np.std(vals, ddof=1))
                                if len(vals) > 1 else 0.0),
                })
    report = {
        "n": int(n), "K": int(K), "reps": int(reps),
        "seed": int(master_seed),
        "aae": {"all": _stats("aae_all"), "de": _stats("aae_de"),
                "pilot": _stats("aae_pilot")},
        "rounds": [r["rounds"] for r in results],
        "scalars_per_rep": [r["scalars"] for r in results],
        "rpad": rpad_rows,
    }
    if int(K) == 1:
        report["k1_newton_path_gap"] = k1_newton_gap(master_seed, n=int(n))
    return report


def k1_newton_gap(master_seed=1, n=200, rounds=None):
    """Max gap between the one-machine distributed fit and the identical
    Newton path replayed directly with the pooled-data derivatives."""
    rng = np.random.default_rng(_rep_seed(master_seed, 2, 0))
    y, X = _sim2_draw(rng, n)
    plan = ShardPlan(1, (n,))
    data = partition(Dataset(y, X), plan, seed=0)
    model, comm, manual, h1 = fit_sharded(data, plan, rounds=rounds)
    for _ in comm.rounds:
        grad = psis_gradient(data, manual, model.h)
        hess = psis_hessian(data, manual, h1)
        manual = normalize_beta(manual - _newton_step(hess, grad))
    return float(np.max(np.abs(np.asarray(model.beta) - manual)))


# ---------------------------------------------------------------------------
# portfolio run

def run_portfolio(fit_returns, test_returns, bench, family, tau, starts=20,
                  iterations=2000, seed=0, mode="normalized"):
    """Optimize on the fit window, score on the test window; the report
    carries the optimizer's deterministic diagnostics."""
    weights = optimize_weights(fit_returns, family, tau, starts=starts,
                               iterations=iterations, seed=seed, mode=mode)
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
AIRQ_ASSUMPTION = ("hourly records are averaged to one value per site-day "
                   "after dropping hours with missing fields")


def _airq_float(text, row, col):
    text = text.strip()
    if text in ("", "NA", "NaN", "nan"):
        return None
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"non-numeric value {text!r} in column {col}",
                         row=row, col=col) from None


def load_airquality(path, winter=True):
    """Read site-day rows from a raw hourly export or a daily file.

    Requires columns PM2.5, TEMP, PRES, DEWP and WSPM. When an `hour`
    column is present the rows are averaged per (station, year, month, day)
    after dropping hours with any missing field; `winter` then keeps
    December through February of the 2016/17 season. Returns
    (y, X, shard_of, site_names) with shards indexed by sorted site name.
    """
    import csv

    needed = (AIRQ_RESPONSE,) + AIRQ_COVARIATES
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in needed:
            if col not in header:
                raise ParseError(f"missing required column {col}",
                                 row=1, col=col)
        hourly = "hour" in header
        dated = all(c in header for c in ("year", "month", "day"))
        sited = "station" in header
        groups = {}
        order = []
        for i, rec in enumerate(reader, start=2):
            vals = [_airq_float(rec[col] or "", i, col) for col in needed]
            if any(v is None for v in vals):
                continue
            if winter and dated:
                y_, m_ = int(float(rec["year"])), int(float(rec["month"]))
                if not ((y_ == 2016 and m_ == 12)
                        or (y_ == 2017 and m_ in (1, 2))):
                    continue
            site = rec["station"].strip() if sited else ""
            if hourly and dated:
                key = (site, int(float(rec["year"])),
                       int(float(rec["month"])), int(float(rec["day"])))
            else:
                key = (site, i)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(vals)
    if not order:
        raise ParseError("no usable rows after filtering", row=2, col=None)
    sites = sorted({key[0] for key in order})
    site_index = {s: k for k, s in enumerate(sites)}
    rows = [np.mean(groups[key], axis=0) for key in sorted(order)]
    shard_of = np.array([site_index[key[0]] for key in sorted(order)])
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
    Returns one list of means (one per level) per family. Matches
    aqr_conditional row by row up to summation order.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    ts = [_tau(t) for t in taus]
    h = _as_bandwidth(h).h
    ys = _YSorted(y, z)
    values = np.empty((len(families), len(ts), y.size))
    for rows in ys.blocks(np.arange(y.size)):
        levels = ys.staircase(np.exp(-0.5 * (ys.diff(rows) / h) ** 2))
        levels /= levels[:, -1:]
        for f, family in enumerate(families):
            for k, t in enumerate(ts):
                if family.kind == "qr-dirac":
                    est = ys.knots[np.argmax(levels >= t, axis=1)]
                else:
                    g = g_value(family, t, levels)
                    est = np.diff(g, axis=1, prepend=0.0) @ ys.knots
                values[f, k, rows] = est
    return [[float(np.mean(v)) for v in means] for means in values]


def run_airquality(y, X, shard_of, site_names, taus=AIRQ_TAUS, seed=0):
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
    sizes = np.bincount(shard_of)
    plan = ShardPlan(sizes.size, sizes)
    model_de, comm, _, h1 = fit_sharded(Dataset(y, X, shard_of), plan)

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
        "K": plan.K,
        "taus": list(taus),
        "assumption": AIRQ_ASSUMPTION,
        "beta_full": np.asarray(model_full.beta, dtype=float).tolist(),
        "beta_distributed": np.asarray(model_de.beta, dtype=float).tolist(),
        "h_full": model_full.h.h,
        "h_distributed": model_de.h.h,
        "h_central": h1.h,
        "rounds": len(comm.rounds),
        "full": tables["full"],
        "distributed": tables["distributed"],
        "deviation": deviation,
    }
