import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from aqr.errors import DomainError, ParseError, ShapeMismatch
from aqr.estimator import aqr_conditional
from aqr.experiments import (AIRQ_TAUS, SIM1_ERRORS, SIM1_TAUS,
                             SIX_DISTRIBUTIONS, average_aqr_values,
                             builtin_families, check_compare_ordering,
                             compare_rows, k1_newton_gap, load_airquality,
                             run_airquality, run_portfolio, run_sim1,
                             run_sim2, run_validate, study_families,
                             violator_families, _rep_seed, _sim1_draw,
                             _sim1_rep, _sim2_rep)
from aqr.families import KINDS, es, g_value, qr_dirac, tcrm
from aqr.kernel_cde import (_BLOCK_CELLS, Dataset, _YSorted, cde_curve,
                            cv_bandwidth)
from aqr.oracle import frechet_limit_ratio, normal, population_aqr, quantile
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


# reference forms of sim1's error draw and of the compare table's tail
# indices, stated by row label: what the distributions' records give must
# equal them to the bit
_TAIL_GAMMA = {"t3": 1.0 / 3.0, "t1.2": 1.0 / 1.2}


def _labelled_sim1_draw(rng, label, n):
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


@pytest.mark.parametrize("label, dist", SIM1_ERRORS,
                         ids=[label for label, _ in SIM1_ERRORS])
def test_sim1_draw_through_the_record_matches_the_labelled_draw(label, dist):
    for seed in range(8):
        x, y = _sim1_draw(np.random.default_rng(seed), dist, 300)
        x0, y0 = _labelled_sim1_draw(np.random.default_rng(seed), label, 300)
        assert x.tobytes() == x0.tobytes()
        assert y.tobytes() == y0.tobytes()


def test_compare_limit_ratio_matches_the_labelled_tail_indices():
    rows = compare_rows(taus=[0.9])
    assert {row["distribution"] for row in rows} == {
        label for label, _, _ in SIX_DISTRIBUTIONS}
    fams = dict(study_families())
    for row in rows:
        gamma = _TAIL_GAMMA.get(row["distribution"])
        fam = fams[row["family"]]
        kind, args = KINDS[fam.kind].tail(fam)
        want = frechet_limit_ratio(kind, gamma, **args) if gamma else None
        assert row["limit_ratio"] == want


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


@pytest.mark.parametrize("dist, quantile_at, want", [
    ("exp", 1e9, ["exp tau=0.94: extremile not above quantile"]),
    ("exp", -1e9, ["exp tau=0.94: quantile not above ge"]),
    ("beta23", -1e9, ["beta23 tau=0.94: quantile not above extremile"]),
    ("t3", 1e9, []),
])
def test_ordering_checker_places_the_quantile_by_domain(dist, quantile_at,
                                                        want):
    rows = [dict(r) for r in compare_rows(taus=[0.94])]
    for row in rows:
        if row["distribution"] == dist:
            row["quantile"] = quantile_at
    assert check_compare_ordering(rows) == want


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
    assert len(out["rpad"]) == 5 * 1 * 2
    assert {r["method"] for r in out["rpad"]} == {"all", "de"}
    assert run_sim2(**kwargs, threads=2) == out


def _estimate_calls(rep, args):
    """`rep(args)` with experiments' cv_bandwidth and cde_curve wrapped;
    returns (result, CV calls, probe of each curve)."""
    with mock.patch("aqr.experiments.cv_bandwidth",
                    wraps=cv_bandwidth) as cv, \
            mock.patch("aqr.experiments.cde_curve", wraps=cde_curve) as curve:
        out = rep(args)
    return out, cv.call_count, [call.args[2] for call in curve.call_args_list]


def test_sim1_rep_shares_one_curve_per_tail_probe():
    out, cv_calls, probes = _estimate_calls(_sim1_rep,
                                            (1, 0, 0, 200, SIM1_TAUS))
    assert cv_calls == 1
    assert probes == [-0.5, 0.5]
    assert list(out) == [(label, tau) for label, _ in study_families()
                         for tau in SIM1_TAUS]


def test_sim2_rep_makes_one_curve_per_method():
    taus = (0.1, 0.5, 0.9)
    out, cv_calls, probes = _estimate_calls(_sim2_rep, (2, 0, 120, 3, taus))
    assert cv_calls == 2
    assert len(probes) == 2
    for method in ("all", "de"):
        assert list(out[f"est_{method}"]) == [
            (label, tau) for label, _ in study_families() for tau in taus]


def test_import_leaves_the_process_pool_unloaded():
    # _pmap imports the pool only when threads > 1 asks for one
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import aqr, aqr.cli, sys\n"
            "assert 'concurrent.futures.process' not in sys.modules\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr


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


def test_average_aqr_values_over_row_blocks_matches_one_level_average():
    rng = np.random.default_rng(37)
    n = 300
    y = np.round(rng.normal(size=n), 1)  # tied y
    z = rng.normal(size=n)
    h = 0.3
    families = [es(), tcrm("half-inverse"), qr_dirac()]
    taus = [0.05, 0.3, 0.5, 0.9, 0.99]
    # blocks hold _BLOCK_CELLS level cells (rows x knots): on these 46
    # knots the default is one block of all 300 rows, and n and 7n cells
    # give blocks of 6 and 45 rows
    sizes = set()
    blocks = _YSorted.blocks

    def spy(self, idx, size=None, depth=1):
        out = blocks(self, idx, size, depth)
        sizes.add(out[0].size)
        return out

    for cells in (n, 7 * n, _BLOCK_CELLS):
        with mock.patch("aqr.experiments._BLOCK_CELLS", cells), \
                mock.patch.object(_YSorted, "blocks", spy):
            got = average_aqr_values(y, z, h, families, taus)
        for means, fam in zip(got, families):
            for value, tau in zip(means, taus):
                want = _one_level_average(y, z, h, fam, tau)
                assert abs(value - want) <= 1e-13 * abs(want)
    assert sizes == {6, 45, n}


def test_average_aqr_values_memory_is_bounded_by_row_blocks():
    # the n x n level matrix and its transforms peaked at 187 MiB at
    # n = 2000; on y rounded to ~90 knots, blocks sized by knots alone
    # would span ~180 rows of n kernel cells each at n = 4000
    families = [qr_dirac()] + [fam for _, fam in study_families()]
    for n, decimals in ((2000, None), (4000, 1)):
        rng = np.random.default_rng(41)
        z = rng.normal(size=n)
        y = z + rng.normal(size=n)
        if decimals is not None:
            y = np.round(y, decimals)
        tracemalloc.start()
        try:
            average_aqr_values(y, z, 0.3, families, AIRQ_TAUS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


@pytest.mark.parametrize("y, z, error", [
    ([0.0, math.nan, 1.0], [0.0, 1.0, 2.0], DomainError),
    ([0.0, 1.0, 2.0], [0.0, math.inf, 2.0], DomainError),
    ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0], ShapeMismatch),
    ([0.0, 1.0], [0.0, 1.0, 2.0], ShapeMismatch),
    ([[0.0, 1.0], [2.0, 3.0]], [0.0, 1.0, 2.0, 3.0], ShapeMismatch),
    ([0.0, 1.0, 2.0], [[0.0], [1.0], [2.0]], ShapeMismatch),
], ids=["nan-y", "inf-z", "short-z", "long-z", "matrix-y", "column-z"])
def test_average_aqr_values_checks_its_rows_like_a_dataset(y, z, error):
    with pytest.raises(error):
        average_aqr_values(np.array(y), np.array(z), 0.3, [es()], [0.5])


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


DAILY_HEADER = "station,year,month,day,PM2.5,TEMP,PRES,DEWP,WSPM\n"


@pytest.mark.parametrize("extra, fields", [
    ("A,2016,12,2,5,1,2,3\n", 8),
    ("A,2016,12,2,5,1,2,3,4,7,8\n", 11),
], ids=["short", "long"])
def test_load_airquality_rejects_a_record_of_another_width(tmp_path, extra,
                                                           fields):
    path = tmp_path / "daily.csv"
    path.write_text(DAILY_HEADER + "A,2016,12,1,5,1,2,3,4\n\n"
                    + "A,2016,12,3,6,1,2,3,4\n" + extra)
    with pytest.raises(ParseError, match=f"^expected 9 fields, got {fields}$"
                       ) as err:
        load_airquality(path)
    assert err.value.row == 5 and err.value.col is None


def test_load_airquality_skips_blank_lines_and_rows_with_gaps(tmp_path):
    path = tmp_path / "daily.csv"
    path.write_text(DAILY_HEADER + "A,2016,12,1,5,1,2,3,4\n\n"
                    + "A,2016,12,2,NA,1,2,3,4\nA,2016,12,3,,1,2,3,4\n"
                    + "B,2017,1,4,7,1,2,3,4\n")
    y, X, shard_of, sites = load_airquality(path)
    assert y.tolist() == [5.0, 7.0] and sites == ["A", "B"]


@pytest.mark.parametrize("token", ["NA", "na", "Na", "NaN", "nan", "NAN",
                                   "nAn", " NAN "])
def test_load_airquality_reads_na_and_nan_in_any_case_as_missing(tmp_path,
                                                                 token):
    path = tmp_path / "daily.csv"
    path.write_text(DAILY_HEADER + "A,2016,12,1,5,1,2,3,4\n"
                    + f"A,2016,12,2,{token},1,2,3,4\n"
                    + f"A,2016,12,3,6,1,{token},3,4\n"
                    + "B,2017,1,4,7,1,2,3,4\n")
    y, X, shard_of, sites = load_airquality(path)
    assert y.tolist() == [5.0, 7.0] and sites == ["A", "B"]


@pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "-Infinity",
                                   "+INF", "-nan", "+NaN"])
def test_load_airquality_rejects_a_non_finite_cell(tmp_path, token):
    path = tmp_path / "daily.csv"
    path.write_text(DAILY_HEADER + "A,2016,12,1,5,1,2,3,4\n"
                    + f"A,2016,12,2,6,1,2,{token},4\n")
    message = f"^non-finite value '{re.escape(token)}' in column DEWP$"
    with pytest.raises(ParseError, match=message) as err:
        load_airquality(path)
    assert err.value.row == 3 and err.value.col == "DEWP"


@pytest.mark.parametrize("header, winter, missing", [
    ("station,PM2.5,TEMP,PRES,DEWP,WSPM", True, "year"),
    ("station,year,day,PM2.5,TEMP,PRES,DEWP,WSPM", True, "month"),
    ("station,hour,PM2.5,TEMP,PRES,DEWP,WSPM", False, "year"),
    ("station,year,month,hour,PM2.5,TEMP,PRES,DEWP,WSPM", False, "day"),
], ids=["daily-winter", "daily-winter-month", "hourly", "hourly-day"])
def test_load_airquality_needs_dates_to_filter_or_average(tmp_path, header,
                                                          winter, missing):
    width = header.count(",") + 1
    path = tmp_path / "nodates.csv"
    path.write_text(header + "\n" + "".join(
        ",".join(["A"] + [str(k + d)] * (width - 1)) + "\n"
        for k in range(4) for d in range(2)))
    with pytest.raises(ParseError, match=f"^missing date column {missing}$"
                       ) as err:
        load_airquality(path, winter=winter)
    assert err.value.row == 1 and err.value.col == missing


def test_load_airquality_reads_a_daily_table_without_dates_unfiltered(
        tmp_path):
    path = tmp_path / "nodates.csv"
    path.write_text("station,PM2.5,TEMP,PRES,DEWP,WSPM\n"
                    "A,5,1,2,3,4\nA,6,1,2,3,4\nB,7,1,2,3,4\n")
    y, X, shard_of, sites = load_airquality(path, winter=False)
    assert y.tolist() == [5.0, 6.0, 7.0]
    assert shard_of.tolist() == [0, 0, 1]


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


@pytest.mark.parametrize("site", [0, 2])
def test_run_airquality_rejects_a_site_with_one_day(site):
    # the central site (0) and a worker site alike: the labels' rule runs
    # before the central bandwidth, so the message names it
    rng = np.random.default_rng(6)
    y, X, shard_of, names, _ = _planted_site_data(rng)
    shard_of[shard_of == site] = 1
    shard_of[site * 30] = site
    with pytest.raises(DomainError, match="two rows per shard"):
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
                        "fit_days", "test_days", "diagnostics"}
    assert out["diagnostics"]["starts"] == 3
    assert sorted(out["alpha"]) == ["strong", "weak"]
    assert sum(out["alpha"].values()) == pytest.approx(1.0, abs=1e-9)
    assert out["alpha"]["strong"] > 0.95
    assert out["fit_days"] == 60 and out["test_days"] == 40
