"""Acceptance gate: one test, and one printed pass line, per criterion.

Every numbered requirement from the build contract runs here at its stated
tolerance and time budget; run `pytest tests/test_acceptance.py -v -s` to
see the measured margins. Criterion 10 needs the public Beijing export and
is skipped unless AQR_BEIJING_CSV points at it.
"""

import os
import time

import numpy as np
import pytest

from aqr.errors import AqrError
from aqr.experiments import (AIRQ_TAUS, check_compare_ordering, compare_rows,
                             k1_newton_gap, load_airquality, run_airquality,
                             run_sim1, run_sim2, run_validate, study_families,
                             violator_families, builtin_families)
from aqr.families import es, exp_spectral, extremile, ge, ges, j_value, tcrm
from aqr.kernel_cde import Dataset, StepCDF, index_cde_eval, index_cde_grad
from aqr.oracle import frechet, frechet_limit_ratio, population_aqr, quantile
from aqr.estimator import aqr_conditional, aqr_profile
from aqr.sample_risk import coherence_check
from aqr.single_index import (normalize_beta, psis_gradient, psis_hessian,
                              psis_objective)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _announce(num, label, started, limit, detail):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, (
        f"criterion {num} ({label}) overran its budget: "
        f"{elapsed:.1f}s >= {limit}s")
    print(f"criterion {num} ({label}): PASS [{elapsed:.1f}s] {detail}")


def test_criterion_1_c1_validation():
    started = time.perf_counter()
    names = [name for name, _ in violator_families()]
    out = run_validate(violators=names)
    by_name = {e["family"]: e for e in out["families"]}

    builtins = [e for e in out["families"] if e["family"] not in names]
    assert len(builtins) == 12
    assert len({e["kind"] for e in builtins}) == 7
    assert all(e["passed"] for e in builtins), [
        e["family"] for e in builtins if not e["passed"]]

    checks = by_name["increasing_schedule"]["report"]["checks"]
    assert not checks["g_tau_monotonicity"]["passed"]
    assert checks["g_tau_monotonicity"]["witness"]["increase"] > 0
    checks = by_name["negative_density"]["report"]["checks"]
    assert not checks["positivity_normalization"]["passed"]
    assert checks["positivity_normalization"]["witness"]["j"] < 0
    checks = by_name["hump_density"]["report"]["checks"]
    assert not checks["symmetry_monotonicity"]["passed"]
    assert checks["symmetry_monotonicity"]["witness"]["step"] > 0
    _announce(1, "C1 validation", started, 10.0,
              "12 built-in variants across 7 kinds pass; "
              "3 violators fail with grid-point witnesses")


def test_criterion_2_population_ordering():
    started = time.perf_counter()
    rows = compare_rows(taus=[0.90, 0.92, 0.94, 0.96, 0.98])
    assert len(rows) == 150
    violations = check_compare_ordering(rows)
    assert violations == []
    _announce(2, "population ordering", started, 30.0,
              "ges>es>extremile>ge>tcrm on 30 cells, plus the "
              "quantile interleavings, zero tolerance")


def test_criterion_3_frechet_tail_limits():
    started = time.perf_counter()
    tau = 1.0 - 1e-5
    worst = 0.0
    for gamma in (0.2, 0.5, 0.8):
        dist = frechet(gamma)
        q = quantile(dist, tau)
        cases = [(ges(a), frechet_limit_ratio("ges", gamma, a=a))
                 for a in (0.0, 1.0, 2.0)]
        cases.append((ge("half-inverse"),
                      frechet_limit_ratio("ge", gamma, A=0.5)))
        cases.append((tcrm("half-inverse"),
                      frechet_limit_ratio("tcrm", gamma, A=0.5)))
        for fam, limit in cases:
            ratio = population_aqr(dist, fam, tau) / q
            rel = abs(ratio - limit) / abs(limit)
            worst = max(worst, rel)
            assert rel <= 0.10, (fam.kind, gamma, ratio, limit)
            if fam.kind == "tcrm" and gamma == 0.5:
                assert abs(ratio - 1.0) <= 0.10, ratio
    _announce(3, "frechet tail limits", started, 60.0,
              f"15 (family, gamma) ratios at tau=1-1e-5, "
              f"worst relative gap {worst:.4f} <= 0.10")


def test_criterion_4_sim1_rpad():
    started = time.perf_counter()
    out = run_sim1(master_seed=1, reps=100, n=300)
    assert len(out["cells"]) == 3 * 5 * 4
    worst = max(out["cells"], key=lambda c: c["mean_rpad"])
    assert worst["mean_rpad"] < 10.0, worst
    _announce(4, "simulation 1 accuracy", started, 600.0,
              f"60 cells at n=300/100 reps, worst mean RPAD "
              f"{worst['mean_rpad']:.2f}% ({worst['error']}, "
              f"{worst['family']}, tau={worst['tau']}) < 10%")


def test_criterion_5_sim2_distributed():
    started = time.perf_counter()
    out = run_sim2(master_seed=1, reps=30, n=500, K=10)
    aae_all = out["aae"]["all"]["mean"]
    aae_de = out["aae"]["de"]["mean"]
    assert aae_all <= 0.05, aae_all
    assert aae_de <= 0.09, aae_de
    de_limits = {0.1: 18.0, 0.9: 16.0}
    worst_de = {}
    for row in out["rpad"]:
        if row["method"] != "de":
            continue
        limit = de_limits[row["tau"]]
        assert row["mean_rpad"] <= limit, row
        key = row["tau"]
        worst_de[key] = max(worst_de.get(key, 0.0), row["mean_rpad"])
    gap = k1_newton_gap(master_seed=1)
    assert gap < 1e-6, gap
    _announce(5, "simulation 2 distributed", started, 900.0,
              f"AAE all {aae_all:.4f} <= 0.05, de {aae_de:.4f} <= 0.09; "
              f"DE RPAD {worst_de[0.1]:.1f}% @0.1, {worst_de[0.9]:.1f}% "
              f"@0.9; K=1 Newton-path gap {gap:.1e} < 1e-6")


def test_criterion_6_coherence_axioms():
    started = time.perf_counter()
    rng = np.random.default_rng(6)
    taus = (0.05, 0.25, 0.75, 0.95)
    fams = [fam for _, fam in study_families()]
    pairs = []
    for i in range(1000):
        # shortest length keeps every plotting position inside the support
        # of the truncated families at the outer tau levels
        n = int(rng.integers(25, 150))
        x = rng.standard_normal(n)
        if i % 3 == 0:
            y = np.exp(x) * 0.5  # increasing transform: comonotone pair
        elif i % 3 == 1:
            y = -x + 0.1 * rng.standard_normal(n)
        else:
            y = rng.lognormal(0.0, 0.5, n) - 1.0
        pairs.append((x, y))
    comonotone_seen = 0
    sub_violations = 0
    for x, y in pairs:
        for fam in fams:
            for tau in taus:
                rep = coherence_check(x, y, fam, tau)
                assert abs(rep.homogeneity_residual) <= 1e-12, rep
                assert abs(rep.translation_residual) <= 1e-12, rep
                if rep.comonotone:
                    comonotone_seen += 1
                    assert abs(rep.additivity_residual) <= 1e-12, rep
                if rep.subadditivity_slack < -1e-10:
                    sub_violations += 1
    assert comonotone_seen > 0
    assert sub_violations == 0
    _announce(6, "coherence axioms", started, 120.0,
              f"1000 pairs x 5 families x 4 taus; "
              f"{comonotone_seen} comonotone checks additive at 1e-12; "
              f"0 subadditivity violations beyond 1e-10")


def _random_psis_instance(rng):
    n = int(rng.integers(10, 40))
    p = int(rng.integers(2, 4))
    X = rng.normal(0.0, 1.0, size=(n, p))
    beta = normalize_beta(rng.normal(size=p) + np.array([2.0] + [0.0] * (p - 1)))
    y = (X @ beta) + 0.5 * rng.standard_normal(n)
    h = float(rng.uniform(0.4, 1.2))
    return Dataset(y, X), beta, h


def test_criterion_7_gradient_fidelity():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    step = 1e-5

    worst_grad = 0.0
    for _ in range(50):
        data, beta, h = _random_psis_instance(rng)
        grad = psis_gradient(data, beta, h)
        fd = np.empty_like(grad)
        for m in range(beta.size):
            e = np.zeros_like(beta)
            e[m] = step
            fd[m] = (psis_objective(data, beta + e, h)
                     - psis_objective(data, beta - e, h)) / (2 * step)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        worst_grad = max(worst_grad, rel)
        assert rel < 1e-4, rel

    worst_cde = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 50))
        p = int(rng.integers(1, 6))
        X = rng.normal(0.0, 1.0, size=(n, p))
        y = rng.normal(0.0, 1.0, size=n)
        data = Dataset(y, X)
        beta = normalize_beta(rng.normal(size=p) + np.r_[2.0, np.zeros(p - 1)])
        x0 = X[int(rng.integers(n))] + 0.3 * rng.normal(size=p)
        y0 = float(rng.choice(y)) + float(rng.uniform(-0.5, 0.5))
        h = float(rng.uniform(0.4, 1.2))
        grad = index_cde_grad(data, beta, h, x0, y0)
        fd = np.empty_like(grad)
        for m in range(p):
            e = np.zeros(p)
            e[m] = step
            fd[m] = (index_cde_eval(data, beta + e, h, x0, y0)
                     - index_cde_eval(data, beta - e, h, x0, y0)) / (2 * step)
        # the floor keeps flat instances (gradient at the FD noise level,
        # ~5e-12 for this step) from turning a correct match into 0/0
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-6)
        worst_cde = max(worst_cde, rel)
        assert rel < 1e-4, rel
        assert np.linalg.norm(grad - fd) < 1e-4

    worst_hess = 0.0
    for _ in range(50):
        data, beta, h = _random_psis_instance(rng)
        hess = psis_hessian(data, beta, h)
        fd = np.empty_like(hess)
        for m in range(beta.size):
            e = np.zeros_like(beta)
            e[m] = step
            fd[:, m] = (psis_gradient(data, beta + e, h)
                        - psis_gradient(data, beta - e, h)) / (2 * step)
        fd = 0.5 * (fd + fd.T)
        rel = np.linalg.norm(hess - fd) / max(np.linalg.norm(fd), 1e-12)
        worst_hess = max(worst_hess, rel)
        assert rel < 1e-3, rel

    _announce(7, "gradient fidelity", started, 120.0,
              f"50 FD instances each: psis_gradient {worst_grad:.1e} "
              f"(<1e-4), index_cde_grad {worst_cde:.1e} (<1e-4), "
              f"psis_hessian {worst_hess:.1e} (<1e-3)")


def _random_positive_cdf(rng):
    m = int(rng.integers(8, 30))
    knots = 0.5 + np.cumsum(rng.uniform(0.1, 0.5, size=m))
    levels = np.sort(rng.uniform(0.0, 1.0, size=m))
    levels[-1] = 1.0
    return StepCDF(knots, levels)


def _dense_grid_value(F, fam, tau):
    """Gauss-Legendre integration of Q(s) J_tau(s) over the unit interval.

    The quantile function of a StepCDF is piecewise constant, so the value
    is the sum of knot * integral-of-J over each level interval; J itself
    is integrated numerically (never via its antiderivative), split at the
    truncation points where the density may jump.
    """
    t = float(tau)
    breaks = [b for b in (min(t, 1.0 - t), max(t, 1.0 - t)) if 0.0 < b < 1.0]
    lev = np.concatenate(([0.0], F.levels))
    centers, spans, coef = [], [], []
    for k in range(F.knots.size):
        a, b = lev[k], lev[k + 1]
        if b <= a:
            continue
        cuts = sorted({a, b, *(c for c in breaks if a < c < b)})
        for lo, hi in zip(cuts, cuts[1:]):
            centers.append(0.5 * (hi + lo))
            spans.append(0.5 * (hi - lo))
            coef.append(F.knots[k])
    centers = np.array(centers)[:, None]
    spans = np.array(spans)[:, None]
    nodes = centers + spans * _GL_NODES[None, :]
    j = j_value(fam, t, np.clip(nodes, 0.0, 1.0))
    return float(np.sum(np.array(coef) * spans[:, 0]
                        * (j @ _GL_WEIGHTS)))


def test_criterion_8_exact_reduction():
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    fams = [es(), ges(2.0), extremile(), ge("half-inverse"),
            tcrm("half-inverse"), exp_spectral()]
    taus = (0.05, 0.3, 0.5, 0.7, 0.95)
    worst = 0.0
    for i in range(100):
        F = _random_positive_cdf(rng)
        fam = fams[i % len(fams)]
        tau = taus[i % len(taus)]
        tele = aqr_conditional(F, fam, tau).value
        dense = _dense_grid_value(F, fam, tau)
        rel = abs(tele - dense) / abs(dense)
        worst = max(worst, rel)
        assert rel <= 1e-6, (fam.kind, tau, tele, dense)
    _announce(8, "exact reduction", started, 60.0,
              f"telescoped sum vs quadrature on 100 step CDFs, "
              f"worst relative gap {worst:.1e} <= 1e-6")


def test_criterion_9_tau_monotonicity():
    started = time.perf_counter()
    rng = np.random.default_rng(9)
    taus = np.linspace(0.05, 0.95, 13)
    fams = [(label, fam) for label, fam in builtin_families()
            if not fam.singular]
    assert len(fams) == 11
    for _ in range(100):
        m = int(rng.integers(5, 25))
        knots = np.sort(rng.normal(scale=2.0, size=m))
        knots += np.arange(m) * 1e-9
        levels = np.sort(rng.uniform(0.0, 1.0, size=m))
        levels[-1] = 1.0
        F = StepCDF(knots, levels)
        for label, fam in fams:
            vals = [e.value for e in aqr_profile(F, fam, taus)]
            assert all(b >= a for a, b in zip(vals, vals[1:])), (
                label, vals)
    _announce(9, "tau monotonicity", started, 120.0,
              "profiles non-decreasing with zero tolerance on "
              "100 step CDFs x 11 C1 families x 13 taus")


@pytest.mark.skipif("AQR_BEIJING_CSV" not in os.environ,
                    reason="set AQR_BEIJING_CSV to run the data criterion")
def test_criterion_10_beijing_tables():
    started = time.perf_counter()
    y, X, shard_of, sites = load_airquality(os.environ["AQR_BEIJING_CSV"])
    out = run_airquality(y, X, shard_of, sites)
    assert out["K"] == 12, out["K"]
    mid = list(out["taus"]).index(0.5)
    qr_row = [r for r in out["full"] if r["family"] == "qr"][0]
    qr_mid = qr_row["values"][mid]
    assert abs(qr_mid - 83.0) <= 10.0, qr_mid
    # the printed full-vs-distributed deviations top out at 1.19, so every
    # cell must stay within 1.19 + 1.5
    worst_dev = max(max(r["values"]) for r in out["deviation"])
    assert worst_dev <= 2.69, worst_dev
    _announce(10, "beijing tables", started, 1800.0,
              f"median-quantile average {qr_mid:.1f} within 83 +/- 10; "
              f"worst full-vs-distributed deviation {worst_dev:.2f}")
