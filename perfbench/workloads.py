"""The benchmark's workloads: inputs generated from a seed, the CLI commands
they run, and the correctness checks on what those commands write.

Each workload is a class with three methods:

* ``generate(seed, in_dir)`` writes the input files and returns a dict of
  the values the checks need (nothing here reads the package under test);
* ``commands(in_dir, out_dir)`` lists the argv of every ``aqr`` command one
  pass of the workload runs;
* ``check(inputs, out_dir, captured, facts)`` returns failure messages for
  one pass's outputs (empty when every check passes) and records the
  checked quantities in ``facts``.

The reasons behind each workload and its sizes are in NOTES.md.
"""

import csv
import json
import math
import os

import numpy as np

THREADS = ["--threads", "1"]


def _rng(seed, stream):
    return np.random.default_rng([int(seed), int(stream)])


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _finite(values):
    return all(math.isfinite(float(v)) for v in values)


def _comm_failures(captured, K, p, rounds):
    """Each fit's message tally must equal rounds * (K*p + p + 2K)."""
    fails = []
    if len(captured) != len(rounds):
        return [f"captured {len(captured)} distributed fits, "
                f"report lists {len(rounds)}"]
    for i, (comm, r) in enumerate(zip(captured, rounds)):
        expect = r * (K * p + p + 2 * K)
        if len(comm.rounds) != r or comm.total != expect:
            fails.append(f"fit {i}: comm total {comm.total} over "
                         f"{len(comm.rounds)} rounds, expected {expect} "
                         f"over {r}")
    return fails


def es_order_count(n, tau):
    """How many ascending order statistics carry ES weight at level tau:
    plotting positions i/(n+1) at or below tau (lower tail)."""
    positions = np.arange(1, n + 1) / (n + 1.0)
    return int(np.count_nonzero(positions <= tau))


def es_lower_risk(series, tau):
    """Signed normalized ES risk of a series at a lower-tail level: minus the
    mean of its k smallest values."""
    k = es_order_count(series.size, tau)
    return -float(np.mean(np.sort(series)[:k]))


def es_lp_optimum(R, tau):
    """Minimum ES risk over the probability simplex, by linear programming
    (Rockafellar and Uryasev, 2000).

    -mean(k smallest of R a) = min over t of -t + sum_i (t - R_i a)^+ / k, so
    the portfolio problem is the LP over (a, t, u):
    minimize -t + sum(u)/k  s.t.  u_i >= t - R_i a,  u >= 0,  a >= 0,
    sum(a) = 1.
    """
    from scipy.optimize import linprog
    n, d = R.shape
    k = es_order_count(n, tau)
    c = np.concatenate([np.zeros(d), [-1.0], np.full(n, 1.0 / k)])
    a_ub = np.hstack([-R, np.ones((n, 1)), -np.eye(n)])
    a_eq = np.concatenate([np.ones(d), [0.0], np.zeros(n)])[None, :]
    bounds = [(0, None)] * d + [(None, None)] + [(0, None)] * n
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(res.fun)


class Sim2:
    """The pooled-versus-distributed study on its own design."""

    name = "sim2"
    N, K, P, REPS = 500, 10, 2, 1
    MASTER_SEED = 1
    AAE_BOUND = 0.1
    LOWER_TAUS = (0.05, 0.1, 0.15, 0.2)
    UPPER_TAUS = (0.8, 0.85, 0.9, 0.95)

    def generate(self, seed, in_dir):
        rng = _rng(seed, 2)
        taus = [float(rng.choice(self.LOWER_TAUS)),
                float(rng.choice(self.UPPER_TAUS))]
        _write_json(os.path.join(in_dir, "sim2.json"),
                    {"seed": self.MASTER_SEED, "reps": self.REPS,
                     "n": self.N, "K": self.K, "taus": taus})
        return {"taus": taus}

    def commands(self, in_dir, out_dir):
        return [["sim2", "--config", os.path.join(in_dir, "sim2.json"),
                 "--out", out_dir] + THREADS]

    def check(self, inputs, out_dir, captured, facts):
        fails = []
        report = _read_json(os.path.join(out_dir, "sim2_run.json"))["report"]
        if report["reps"] != self.REPS or len(report["rounds"]) != self.REPS:
            fails.append(f"expected {self.REPS} reps, report has "
                         f"{report['reps']}")
        fails += _comm_failures(captured, self.K, self.P, report["rounds"])
        aae = {row["method"]: float(row["mean_aae"]) for row in
               _read_csv(os.path.join(out_dir, "sim2_aae.csv"))}
        facts["mean_aae"] = aae
        for method in ("all", "de"):
            if not (math.isfinite(aae.get(method, math.nan))
                    and aae[method] < self.AAE_BOUND):
                fails.append(f"mean AAE of {method} is {aae.get(method)}, "
                             f"bound {self.AAE_BOUND}")
        rows = _read_csv(os.path.join(out_dir, "sim2_rpad.csv"))
        if len(rows) != 5 * 2 * 2 or not _finite(r["mean_rpad"] for r in rows):
            fails.append("sim2_rpad.csv needs 20 finite cells")
        return fails


class Sim1:
    """The one-covariate kernel study at n = 1000."""

    name = "sim1"
    N, REPS = 1000, 3
    CELLS = 3 * 5 * 4
    RPAD_BOUND = 50.0

    def generate(self, seed, in_dir):
        master = int(_rng(seed, 1).integers(1, 2**31))
        _write_json(os.path.join(in_dir, "sim1.json"),
                    {"seed": master, "reps": self.REPS, "n": self.N})
        return {"master": master}

    def commands(self, in_dir, out_dir):
        return [["sim1", "--config", os.path.join(in_dir, "sim1.json"),
                 "--out", out_dir] + THREADS]

    def check(self, inputs, out_dir, captured, facts):
        fails = []
        rows = _read_csv(os.path.join(out_dir, "sim1.csv"))
        values = [r[k] for r in rows for k in ("truth", "mean_rpad")]
        if len(rows) != self.CELLS or not _finite(values):
            fails.append(f"sim1.csv needs {self.CELLS} finite cells, "
                         f"has {len(rows)}")
        else:
            worst = max(float(r["mean_rpad"]) for r in rows)
            facts["worst_mean_rpad"] = worst
            if worst >= self.RPAD_BOUND:
                fails.append(f"worst mean RPAD {worst} over {self.RPAD_BOUND}")
        return fails


class PortfolioRisk:
    """ES portfolio on a 500-day x 8-asset window (20 starts x 200
    iterations), then one long risk column."""

    name = "portfolio_risk"
    DAYS, ASSETS, TEST_DAYS, RISK_ROWS = 500, 8, 250, 200_000
    TAU = 0.05
    # A tenth of the CLI's default 2000 iterations per start: a pass then
    # takes under a second, so one run's median is over some twenty passes.
    STARTS, ITERATIONS = 20, 200
    LP_GAP_BOUND = 1e-3

    def generate(self, seed, in_dir):
        rng = _rng(seed, 3)
        days = self.DAYS + self.TEST_DAYS
        # one market factor plus idiosyncratic Student-t(4) noise
        beta = rng.uniform(0.5, 1.5, self.ASSETS)
        drift = rng.uniform(0.0, 6e-4, self.ASSETS)
        vol = rng.uniform(0.006, 0.02, self.ASSETS)
        market = 0.01 * rng.standard_t(4, days) / math.sqrt(2.0)
        noise = rng.standard_t(4, (days, self.ASSETS)) / math.sqrt(2.0)
        R = drift + market[:, None] * beta + noise * vol
        labels = [f"A{i + 1}" for i in range(self.ASSETS)]
        fit, test = R[:self.DAYS], R[self.DAYS:]
        bench = test.mean(axis=1) + 0.002 * rng.standard_normal(self.TEST_DAYS)
        column = 0.01 * rng.standard_t(3, self.RISK_ROWS)
        _write_rows(os.path.join(in_dir, "fit.csv"), labels,
                    [[repr(float(v)) for v in row] for row in fit])
        _write_rows(os.path.join(in_dir, "test.csv"), labels,
                    [[repr(float(v)) for v in row] for row in test])
        _write_rows(os.path.join(in_dir, "bench.csv"), ["bench"],
                    [[repr(float(v))] for v in bench])
        _write_rows(os.path.join(in_dir, "returns.csv"), ["ret"],
                    [[repr(float(v))] for v in column])
        _write_json(os.path.join(in_dir, "portfolio.json"),
                    {"family": {"kind": "es"}, "tau": self.TAU,
                     "starts": self.STARTS, "iterations": self.ITERATIONS})
        _write_json(os.path.join(in_dir, "risk.json"),
                    {"family": {"kind": "es"}, "tau": self.TAU})
        return {"fit": fit, "labels": labels, "column": column}

    def commands(self, in_dir, out_dir):
        join = os.path.join
        return [
            ["portfolio", join(in_dir, "fit.csv"), join(in_dir, "test.csv"),
             join(in_dir, "bench.csv"), "--config",
             join(in_dir, "portfolio.json"), "--out", out_dir] + THREADS,
            ["risk", join(in_dir, "returns.csv"), "--config",
             join(in_dir, "risk.json"), "--out", out_dir] + THREADS,
        ]

    def check(self, inputs, out_dir, captured, facts):
        fails = []
        out = _read_json(os.path.join(out_dir, "portfolio.json"))
        alpha = np.array([out["alpha"][name] for name in inputs["labels"]])
        if alpha.min() < 0.0 or abs(alpha.sum() - 1.0) > 1e-9:
            fails.append(f"weights off the simplex: {alpha.tolist()}")
        risk = out["risk"]
        optimum = es_lp_optimum(inputs["fit"], self.TAU)
        gap = (risk - optimum) / abs(optimum)
        facts.update(risk=risk, lp_optimum=optimum, lp_gap_rel=gap)
        if risk < optimum - 1e-9:
            fails.append(f"risk {risk} below the LP optimum {optimum}")
        if not gap < self.LP_GAP_BOUND:
            fails.append(f"lp_gap_rel {gap} over {self.LP_GAP_BOUND}")
        at_weights = es_lower_risk(inputs["fit"] @ alpha, self.TAU)
        if abs(risk - at_weights) > 1e-10 * abs(at_weights):
            fails.append(f"risk {risk} differs from {at_weights} "
                         f"recomputed at the weights")
        rec = _read_json(os.path.join(out_dir, "risk.json"))
        expect = es_lower_risk(inputs["column"], self.TAU)
        if rec["n"] != self.RISK_ROWS:
            fails.append(f"risk.json n = {rec['n']}")
        for key, want in (("risk", expect), ("value", -expect)):
            if abs(rec[key] - want) > 1e-12 * abs(want):
                fails.append(f"risk.json {key} {rec[key]} != {want}")
        return fails


class AirQuality:
    """Site-sharded index study on generated daily tables (p = 4).

    The tables come from a fixed design seed, like sim2's replicate; the
    benchmark seed draws the thirteen levels tau the study tabulates.
    """

    name = "airquality"
    DESIGN_SEED = 1
    SITES, TABLES, LEVELS = 6, 4, 13
    MIN_DAYS, MAX_DAYS = 35, 55
    FAMILIES = ["qr", "es", "ges", "extremile", "ge", "tcrm"]
    HEADER = ["station", "year", "month", "day", "PM2.5", "TEMP", "PRES",
              "DEWP", "WSPM"]

    def _table(self, rng):
        """Rows of one daily table; returns (rows, kept row count)."""
        direction = rng.normal(size=4)
        direction /= np.linalg.norm(direction)
        rows, kept = [], 0
        start = np.datetime64("2016-11-25")
        for s in range(self.SITES):
            site = f"site{s + 1:02d}"
            days = int(rng.integers(self.MIN_DAYS, self.MAX_DAYS + 1))
            shift = 0.3 * rng.normal(size=4)
            # the first six dates fall in November and are filtered out
            for d in range(days + 6):
                x = rng.normal(size=4) + shift
                pm = 40.0 + 20.0 * float(x @ direction) ** 2 \
                    + 4.0 * rng.standard_normal()
                cov = [-2.0 + 5.0 * x[0], 1025.0 + 8.0 * x[1],
                       -15.0 + 7.0 * x[2], 2.0 + 0.5 * x[3]]
                year, month, day = str(start + d).split("-")
                cells = [repr(float(v)) for v in [pm] + cov]
                if rng.random() < 0.03:
                    cells[int(rng.integers(0, 5))] = "NA"
                elif d >= 6:
                    kept += 1
                rows.append([site, int(year), int(month), int(day)] + cells)
        return rows, kept

    def generate(self, seed, in_dir):
        rng = _rng(self.DESIGN_SEED, 4)
        kept = []
        for t in range(self.TABLES):
            rows, n = self._table(rng)
            _write_rows(os.path.join(in_dir, f"air{t}.csv"), self.HEADER,
                        rows)
            kept.append(n)
        grid = np.arange(1, 100) / 100.0
        taus = sorted(float(t) for t in _rng(seed, 5).choice(
            grid, self.LEVELS, replace=False))
        _write_json(os.path.join(in_dir, "airquality.json"), {"taus": taus})
        return {"rows": kept, "taus": taus}

    def commands(self, in_dir, out_dir):
        cmds = []
        for t in range(self.TABLES):
            out = os.path.join(out_dir, f"air{t}")
            os.makedirs(out, exist_ok=True)
            cmds.append(["airquality", os.path.join(in_dir, f"air{t}.csv"),
                         "--config", os.path.join(in_dir, "airquality.json"),
                         "--out", out] + THREADS)
        return cmds

    def check(self, inputs, out_dir, captured, facts):
        fails = []
        for t in range(self.TABLES):
            out = os.path.join(out_dir, f"air{t}")
            fails += [f"table {t}: {msg}" for msg in self._check_table(
                out, inputs["rows"][t], captured[t:t + 1], facts)]
        return fails

    def _check_table(self, out, n_rows, captured, facts):
        fails = []
        report = _read_json(os.path.join(out, "airquality_run.json"))["report"]
        facts.setdefault("rounds", []).append(report["rounds"])
        if report["n"] != n_rows or report["K"] != self.SITES:
            fails.append(f"n={report['n']} K={report['K']}, expected "
                         f"n={n_rows} K={self.SITES}")
        for key in ("beta_full", "beta_distributed"):
            beta = np.array(report[key])
            if abs(np.linalg.norm(beta) - 1.0) > 1e-9 or not beta[0] > 0.0:
                fails.append(f"{key} {beta.tolist()} is not a unit vector "
                             f"with a positive first entry")
        fails += _comm_failures(captured, self.SITES, 4, [report["rounds"]])
        tables = {}
        for tag in ("full", "distributed", "deviation"):
            rows = _read_csv(os.path.join(out, f"airquality_{tag}.csv"))
            tables[tag] = {r["family"]: [float(v) for k, v in r.items()
                                         if k != "family"] for r in rows}
            if [r["family"] for r in rows] != self.FAMILIES:
                fails.append(f"{tag} families {[r['family'] for r in rows]}")
            if not _finite(v for vals in tables[tag].values() for v in vals):
                fails.append(f"{tag} table has non-finite values")
        for tag in ("full", "distributed"):
            for fam, vals in tables[tag].items():
                slack = 1e-9 * max(1.0, max(abs(v) for v in vals))
                if any(b < a - slack for a, b in zip(vals, vals[1:])):
                    fails.append(f"{tag} row {fam} decreases in tau")
        for fam, dev in tables["deviation"].items():
            full = tables["full"].get(fam, [])
            dist = tables["distributed"].get(fam, [])
            for a, b, d in zip(full, dist, dev):
                if abs(abs(a - b) - d) > 1e-9 * max(1.0, abs(a), abs(b)):
                    fails.append(f"deviation {fam}: {d} != |{a} - {b}|")
                    break
        return fails


WORKLOADS = {w.name: w for w in (Sim2(), Sim1(), PortfolioRisk(),
                                 AirQuality())}

# Workloads whose checks need the CommReport returned by run_distributed.
CAPTURES_COMM = ("sim2", "airquality")
