import numpy as np
import pytest

from aqr.errors import DomainError, ParseError
from aqr.estimator import aqr_conditional
from aqr.experiments import (SIX_DISTRIBUTIONS, average_aqr_values,
                             builtin_families, check_compare_ordering,
                             compare_rows, k1_newton_gap, load_airquality,
                             run_airquality, run_compare, run_portfolio,
                             run_sim1, run_sim2, run_validate, study_families,
                             violator_families, _rep_seed)
from aqr.families import es, g_value, qr_dirac, tcrm
from aqr.kernel_cde import Dataset, cde_curve
from aqr.oracle import normal, population_aqr, quantile
from aqr.portfolio import ReturnsMatrix


def test_family_rosters():
    builtin = builtin_families()
    assert len(builtin) == 12
    assert len({fam.kind for _, fam in builtin}) == 7
    assert [label for label, _ in study_families()] == [
        "es", "ges", "extremile", "ge", "tcrm"]
    assert [name for name, _ in violator_families()] == [
        "increasing_schedule", "negative_density", "hump_density"]


def test_rep_seed_is_deterministic_and_spread():
    assert _rep_seed(1, 0, 5) == _rep_seed(1, 0, 5)
    seeds = {_rep_seed(1, s, r) for s in range(3) for r in range(50)}
    assert len(seeds) == 150


def test_run_validate_builtins_pass():
    out = run_validate()
    assert out["all_passed"]
    assert len(out["families"]) == 12
    assert len(out["kinds"]) == 7


def test_run_validate_violators_fail_named_checks():
    names = [name for name, _ in violator_families()]
    out = run_validate(violators=names)
    assert not out["all_passed"]
    by_name = {e["family"]: e for e in out["families"]}
    assert all(by_name[n]["passed"] is False for n in names)

    checks = by_name["increasing_schedule"]["report"]["checks"]
    assert checks["positivity_normalization"]["passed"]
    assert checks["symmetry_monotonicity"]["passed"]
    assert not checks["g_tau_monotonicity"]["passed"]

    checks = by_name["negative_density"]["report"]["checks"]
    assert not checks["positivity_normalization"]["passed"]
    assert checks["positivity_normalization"]["witness"]["j"] < 0.0

    checks = by_name["hump_density"]["report"]["checks"]
    assert checks["positivity_normalization"]["passed"]
    assert not checks["symmetry_monotonicity"]["passed"]
    assert checks["symmetry_monotonicity"]["witness"]["step"] > 0.0


def test_run_validate_unknown_violator():
    with pytest.raises(DomainError):
        run_validate(violators=["no_such_family"])


def test_compare_rows_fields_match_oracles():
    rows = compare_rows(taus=[0.95])
    assert len(rows) == 30
    dists = dict((label, dist) for label, _, dist in SIX_DISTRIBUTIONS)
    fams = dict(study_families())
    for row in rows:
        assert row["value"] == population_aqr(dists[row["distribution"]],
                                              fams[row["family"]], 0.95)
        assert row["quantile"] == quantile(dists[row["distribution"]], 0.95)
        if row["distribution"] in ("t3", "t1.2"):
            assert row["limit_ratio"] is not None
        else:
            assert row["limit_ratio"] is None


def test_ordering_checker_flags_planted_violations():
    rows = compare_rows(taus=[0.94])
    assert check_compare_ordering(rows) == []

    doctored = [dict(r) for r in rows]
    for row in doctored:
        if row["distribution"] == "normal" and row["family"] == "ges":
            row["value"] = -100.0
    msgs = check_compare_ordering(doctored)
    assert any("ges" in m and "normal" in m for m in msgs)

    partial = [r for r in rows if r["family"] != "tcrm"]
    msgs = check_compare_ordering(partial)
    assert any("missing" in m for m in msgs)


def test_sim1_small_run_deterministic():
    kwargs = dict(master_seed=3, reps=2, n=80, taus=(0.1, 0.9))
    out = run_sim1(**kwargs)
    assert len(out["cells"]) == 3 * 5 * 2
    for cell in out["cells"]:
        assert cell["x0"] == (-0.5 if cell["tau"] < 0.5 else 0.5)
        assert cell["mean_rpad"] >= 0.0
        assert np.isfinite(cell["sd_rpad"])
    one = [c for c in out["cells"]
           if c["error"] == "normal" and c["family"] == "es"
           and c["tau"] == 0.9][0]
    want = 20.0 * np.sin(np.pi * 0.5) + population_aqr(
        normal(0.0, 1.0), es(), 0.9)
    assert one["truth"] == pytest.approx(want, rel=1e-12)
    assert run_sim1(**kwargs) == out
    assert run_sim1(**kwargs, threads=2) == out


def test_sim2_small_run_deterministic():
    kwargs = dict(master_seed=2, reps=2, n=120, K=3, taus=(0.1,))
    out = run_sim2(**kwargs)
    assert sorted(out["aae"]) == ["all", "de", "pilot"]
    for stats in out["aae"].values():
        assert 0.0 < stats["mean"] < 1.0
    assert len(out["rounds"]) == 2
    assert all(r >= 1 for r in out["rounds"])
    assert all(s > 0 for s in out["scalars_per_rep"])
    assert len(out["rpad"]) == 5 * 1 * 2
    assert {r["method"] for r in out["rpad"]} == {"all", "de"}
    assert run_sim2(**kwargs, threads=2) == out


def test_sim2_k1_reports_zero_newton_gap():
    out = run_sim2(master_seed=2, reps=1, n=100, K=1, taus=(0.1,))
    assert out["k1_newton_path_gap"] == 0.0
    assert k1_newton_gap(master_seed=5, n=100) == 0.0


def test_average_aqr_values_matches_per_row_estimates():
    rng = np.random.default_rng(17)
    n = 50
    y = np.round(rng.normal(size=n), 1)  # coarse values force duplicate knots
    z = rng.normal(size=n)
    h = 0.4
    data = Dataset(y, z[:, None])
    for fam in (es(), tcrm("half-inverse"), qr_dirac()):
        for tau in (0.1, 0.5, 0.9):
            got = average_aqr_values(y, z, h, [fam], [tau])[0][0]
            want = np.mean([aqr_conditional(cde_curve(data, h, zi), fam,
                                            tau).value for zi in z])
            assert got == pytest.approx(want, rel=1e-10)


def _one_level_average(y, z, h, family, tau):
    # the single-level formula: one level matrix per (family, tau) cell
    order = np.argsort(y, kind="stable")
    y_sorted = y[order]
    knots = np.unique(y_sorted)
    last = np.searchsorted(y_sorted, knots, side="right") - 1
    w = np.exp(-0.5 * ((z[None, :] - z[:, None]) / h) ** 2)
    levels = np.cumsum(w[:, order], axis=1)[:, last]
    levels /= levels[:, -1:]
    if family.kind == "qr-dirac":
        return float(np.mean(knots[np.argmax(levels >= tau, axis=1)]))
    g = g_value(family, tau, levels)
    return float(np.mean(np.diff(g, axis=1, prepend=0.0) @ knots))


def test_average_aqr_values_over_levels_equals_one_level_calls():
    rng = np.random.default_rng(29)
    n = 60
    y = np.round(rng.normal(size=n), 1)  # tied y
    z = rng.normal(size=n)
    h = 0.3
    taus = [0.9, 0.05, 0.5, 0.3, 0.5, 0.99]
    for fam in (es(), tcrm("half-inverse"), qr_dirac()):
        got = average_aqr_values(y, z, h, [fam], taus)[0]
        assert len(got) == len(taus)
        for value, tau in zip(got, taus):
            assert type(value) is float
            assert value == average_aqr_values(y, z, h, [fam], [tau])[0][0]
            assert value == _one_level_average(y, z, h, fam, tau)



def test_average_aqr_values_over_families_equals_one_family_calls():
    rng = np.random.default_rng(31)
    n = 60
    y = np.round(rng.normal(size=n), 1)  # tied y
    z = rng.normal(size=n)
    families = [es(), qr_dirac(), tcrm("half-inverse"), es()]
    taus = [0.5, 0.1, 0.95]
    got = average_aqr_values(y, z, 0.3, families, taus)
    assert len(got) == len(families)
    for means, fam in zip(got, families):
        assert means == average_aqr_values(y, z, 0.3, [fam], taus)[0]

AIRQ_HEADER = ("station,year,month,day,hour,PM2.5,TEMP,PRES,DEWP,WSPM\n")


def _write_airq_csv(path, rows):
    with open(path, "w") as fh:
        fh.write(AIRQ_HEADER)
        fh.writelines(",".join(str(v) for v in rec) + "\n" for rec in rows)


def test_load_airquality_aggregates_and_filters(tmp_path):
    rows = [
        # two December hours for one site-day, averaged to one row
        ("B", 2016, 12, 1, 0, 10.0, 1.0, 2.0, 3.0, 4.0),
        ("B", 2016, 12, 1, 12, 30.0, 3.0, 4.0, 5.0, 6.0),
        # a second site sorts first alphabetically
        ("A", 2017, 1, 5, 0, 50.0, 0.0, 0.0, 0.0, 1.0),
        # missing field: the hour is dropped before averaging
        ("B", 2016, 12, 2, 0, "NA", 1.0, 1.0, 1.0, 1.0),
        ("B", 2016, 12, 2, 6, 40.0, 2.0, 2.0, 2.0, 2.0),
        # outside the winter window
        ("B", 2017, 6, 1, 0, 99.0, 9.0, 9.0, 9.0, 9.0),
    ]
    path = tmp_path / "air.csv"
    _write_airq_csv(path, rows)
    y, X, shard_of, sites = load_airquality(path)
    assert sites == ["A", "B"]
    assert y.shape == (3,) and X.shape == (3, 4)
    assert shard_of.tolist() == [0, 1, 1]
    day_one = y[(shard_of == 1)][0]
    assert day_one == pytest.approx(20.0)
    assert np.all(y != 99.0)

    summer = load_airquality(path, winter=False)
    assert summer[0].shape == (4,)


def test_load_airquality_error_reporting(tmp_path):
    path = tmp_path / "missing.csv"
    path.write_text("station,PM2.5,TEMP,PRES,DEWP\nA,1,2,3,4\n")
    with pytest.raises(ParseError) as err:
        load_airquality(path)
    assert err.value.row == 1 and err.value.col == "WSPM"

    path = tmp_path / "badcell.csv"
    path.write_text(AIRQ_HEADER + "A,2016,12,1,0,oops,1,2,3,4\n")
    with pytest.raises(ParseError) as err:
        load_airquality(path)
    assert err.value.row == 2 and err.value.col == "PM2.5"

    path = tmp_path / "empty.csv"
    path.write_text(AIRQ_HEADER + "A,2015,7,1,0,5,1,2,3,4\n")
    with pytest.raises(ParseError):
        load_airquality(path)


def _planted_site_data(rng, sites=3, days=30):
    beta0 = np.array([0.6, 0.5, -0.5, 0.3])
    beta0 /= np.linalg.norm(beta0)
    n = sites * days
    X = rng.normal(0.0, 1.0, size=(n, 4))
    y = 20.0 * (X @ beta0) ** 2 + 40.0 + 4.0 * rng.standard_normal(n)
    shard_of = np.repeat(np.arange(sites), days)
    names = [f"site{k}" for k in range(sites)]
    return y, X, shard_of, names, beta0


def test_run_airquality_report():
    rng = np.random.default_rng(11)
    y, X, shard_of, names, beta0 = _planted_site_data(rng)
    out = run_airquality(y, X, shard_of, names, taus=(0.1, 0.5, 0.9))
    assert out["K"] == 3 and out["sites"] == names
    assert [row["family"] for row in out["full"]] == [
        "qr", "es", "ges", "extremile", "ge", "tcrm"]
    assert abs(np.dot(out["beta_full"], beta0)) > 0.9
    for table in ("full", "distributed"):
        for row in out[table]:
            assert np.all(np.diff(row["values"]) >= -1e-9)
    for frow, drow, vrow in zip(out["full"], out["distributed"],
                                out["deviation"]):
        want = [abs(a - b) for a, b in zip(frow["values"], drow["values"])]
        assert vrow["values"] == want
    assert "site-day" in out["assumption"]


def test_run_airquality_rejects_constant_covariate():
    rng = np.random.default_rng(4)
    y, X, shard_of, names, _ = _planted_site_data(rng, sites=2, days=20)
    X[:, 2] = 7.0
    with pytest.raises(DomainError):
        run_airquality(y, X, shard_of, names, taus=(0.5,))


def test_run_portfolio_report_shape():
    rng = np.random.default_rng(8)
    base = rng.normal(0.001, 0.01, 60)
    fit = ReturnsMatrix(np.column_stack([base + 0.002, base]),
                        labels=["strong", "weak"])
    test = ReturnsMatrix(rng.normal(0.0005, 0.01, (40, 2)),
                         labels=["strong", "weak"])
    bench = rng.normal(0.0, 0.01, 40)
    out = run_portfolio(fit, test, bench, es(), 0.05, starts=3,
                        iterations=200, seed=1)
    assert set(out) >= {"alpha", "risk", "SR", "PD", "family", "tau",
                        "fit_days", "test_days"}
    assert sorted(out["alpha"]) == ["strong", "weak"]
    assert sum(out["alpha"].values()) == pytest.approx(1.0, abs=1e-9)
    assert out["alpha"]["strong"] > 0.95
    assert out["fit_days"] == 60 and out["test_days"] == 40
