import csv
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from jsonschema.validators import validator_for

import aqr
from aqr.cli import DEFAULTS, SCHEMAS, _read_numeric_csv, config_schema, main
from aqr.errors import ParseError

RUN_RECORD_KEYS = ["command", "config", "config_sha256", "seed", "version",
                   "outputs", "report"]


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def write_xy_csv(path, seed=5, n=100):
    rng = np.random.default_rng(seed)
    beta0 = np.array([1.0, 2.0]) / np.sqrt(5.0)
    X = rng.normal(2.0, 1.0, (n, 2))
    y = (X @ beta0) ** 2 + rng.standard_normal(n)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "x1", "x2"])
        w.writerows([float(yi), float(xi[0]), float(xi[1])]
                    for yi, xi in zip(y, X))
    return str(path)


def test_every_command_has_schema_and_defaults():
    assert sorted(SCHEMAS) == sorted(DEFAULTS)
    for command, schema in SCHEMAS.items():
        assert schema["additionalProperties"] is False
        assert config_schema(command) is schema
        # the CLI validates configs without re-checking its schemas
        validator_for(schema).check_schema(schema)


def test_validate_run_record(tmp_path):
    assert main(["validate", "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "validate_run.json").read_text())
    assert sorted(record) == sorted(RUN_RECORD_KEYS)
    assert record["command"] == "validate"
    assert record["version"] == aqr.__version__
    assert record["outputs"] == []
    assert record["seed"] is None
    blob = json.dumps(record["config"], sort_keys=True)
    assert record["config_sha256"] == hashlib.sha256(blob.encode()).hexdigest()
    assert record["report"]["all_passed"] is True


def test_validate_violator_exits_1(tmp_path):
    cfg = write_json(tmp_path / "cfg.json",
                     {"violators": ["negative_density"]})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 1
    record = json.loads((tmp_path / "validate_run.json").read_text())
    assert record["report"]["all_passed"] is False


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"nope": 1})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_config_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["validate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_out_dir_exits_2(tmp_path, capsys):
    missing = tmp_path / "does_not_exist"
    assert main(["validate", "--out", str(missing)]) == 2
    assert "i/o error" in capsys.readouterr().err
    assert not missing.exists()


def test_compare_csv_contents(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"taus": [0.9]})
    assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    assert list(rows[0]) == ["distribution", "domain", "family", "tau",
                             "value", "quantile", "limit_ratio"]
    for row in rows:
        assert float(row["value"]) != 0.0
        if row["distribution"] in ("t3", "t1.2"):
            assert row["limit_ratio"] != ""
        else:
            assert row["limit_ratio"] == ""


def test_sim1_seed_flag_and_byte_identical_rerun(tmp_path):
    cfg = write_json(tmp_path / "cfg.json",
                     {"reps": 1, "n": 60, "taus": [0.5]})
    argv = ["sim1", "--config", cfg, "--seed", "9", "--out", str(tmp_path)]
    assert main(argv) == 0
    first = [(tmp_path / name).read_bytes()
             for name in ("sim1.csv", "sim1_run.json")]
    record = json.loads(first[1])
    assert record["seed"] == 9
    assert record["config"]["reps"] == 1
    assert main(argv) == 0
    second = [(tmp_path / name).read_bytes()
              for name in ("sim1.csv", "sim1_run.json")]
    assert first == second


def test_sim2_outputs(tmp_path):
    cfg = write_json(tmp_path / "cfg.json",
                     {"reps": 1, "n": 100, "K": 2, "taus": [0.1]})
    assert main(["sim2", "--config", cfg, "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "sim2_run.json").read_text())
    assert record["outputs"] == ["sim2_aae.csv", "sim2_rpad.csv"]
    assert sorted(record["report"]["aae"]) == ["all", "de", "pilot"]
    with open(tmp_path / "sim2_aae.csv", newline="") as fh:
        methods = [row["method"] for row in csv.DictReader(fh)]
    assert methods == ["all", "de", "pilot"]


def test_fit_and_dist_fit(tmp_path):
    data = write_xy_csv(tmp_path / "xy.csv")
    assert main(["fit", data, "--out", str(tmp_path)]) == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["covariates"] == ["x1", "x2"] and fit["response"] == "y"
    beta = np.array(fit["beta"])
    assert np.linalg.norm(beta) == pytest.approx(1.0, abs=1e-12)
    assert beta[0] > 0 and fit["h"] > 0

    cfg = write_json(tmp_path / "dcfg.json", {"sizes": [50, 50], "seed": 3})
    assert main(["dist-fit", data, "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    dist = json.loads((tmp_path / "dist_fit.json").read_text())
    assert dist["K"] == 2 and dist["sizes"] == [50, 50]
    assert dist["rounds"] >= 1
    assert sorted(dist["comm"]) == ["rounds", "total"]
    assert dist["comm"]["total"] > 0
    assert np.linalg.norm(dist["beta"]) == pytest.approx(1.0, abs=1e-12)


def test_dist_fit_sizes_record_carries_no_default_k(tmp_path):
    data = write_xy_csv(tmp_path / "xy.csv", n=150)
    cfg = write_json(tmp_path / "cfg.json", {"sizes": [60, 50, 40]})
    assert main(["dist-fit", data, "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    run = json.loads((tmp_path / "dist_fit_run.json").read_text())
    assert "K" not in run["config"]
    assert run["config"]["sizes"] == [60, 50, 40]
    assert run["report"]["K"] == 3
    dist = json.loads((tmp_path / "dist_fit.json").read_text())
    assert dist["K"] == 3 and dist["sizes"] == [60, 50, 40]


def test_fit_fixed_bandwidth(tmp_path):
    data = write_xy_csv(tmp_path / "xy.csv", seed=6, n=80)
    cfg = write_json(tmp_path / "cfg.json", {"bandwidth": 0.8})
    assert main(["fit", data, "--config", cfg, "--out", str(tmp_path)]) == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["h"] == 0.8
    run = json.loads((tmp_path / "fit_run.json").read_text())
    assert run["config"] == {"bandwidth": 0.8}


@pytest.mark.parametrize("command, config", [
    ("dist-fit", {"K": 4, "sizes": [50, 50]}),
    ("fit", {"bandwidth": 0.4, "rate_exponent": 0.3}),
])
def test_conflicting_config_keys_exit_2(tmp_path, capsys, command, config):
    data = write_xy_csv(tmp_path / "xy.csv")
    cfg = write_json(tmp_path / "cfg.json", config)
    assert main([command, data, "--config", cfg,
                 "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_run.json"))


def test_fit_parse_error_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,x1\n1.0,2.0\n3.0,oops\n")
    assert main(["fit", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "(row 3, col 2)" in err


# The per-row readers cli.py used before np.loadtxt, kept verbatim as the
# reference: _read_numeric_csv must return the same arrays and raise the
# same ParseError text, row and column.

def _loop_read_matrix_csv(path):
    """Numeric matrix with one header row; returns (header, array)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [c.strip() for c in next(reader)]
        except StopIteration:
            raise ParseError("empty CSV", row=1) from None
        rows = []
        for i, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(rec)}", row=i)
            vals = []
            for j, cell in enumerate(rec, start=1):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ParseError(f"non-numeric value {cell.strip()!r}",
                                     row=i, col=j) from None
            rows.append(vals)
    if not rows:
        raise ParseError("no data rows", row=2)
    return header, np.array(rows)


def _loop_read_column_csv(path):
    """One value per line; a single non-numeric first line is a header."""
    values = []
    with open(path, newline="") as fh:
        for i, rec in enumerate(csv.reader(fh), start=1):
            if not rec:
                continue
            if len(rec) != 1:
                raise ParseError(f"expected 1 field, got {len(rec)}", row=i)
            try:
                values.append(float(rec[0]))
            except ValueError:
                if i == 1:
                    continue
                raise ParseError(f"non-numeric value {rec[0].strip()!r}",
                                 row=i, col=1) from None
    if not values:
        raise ParseError("no data rows", row=1)
    return np.array(values)


def _read_or_error(read):
    try:
        return read(), None
    except ParseError as exc:
        return None, (str(exc), exc.row, exc.col)


def assert_reads_like_the_loop(path, column):
    """Same header and bit-identical array, or the same ParseError."""
    new, new_error = _read_or_error(lambda: _read_numeric_csv(path, column))
    if column:
        old, old_error = _read_or_error(
            lambda: ([], _loop_read_column_csv(path)))
        new = new and ([], new[1][:, 0])
    else:
        old, old_error = _read_or_error(lambda: _loop_read_matrix_csv(path))
    assert new_error == old_error
    if old is not None:
        assert new[0] == old[0]
        assert new[1].dtype == old[1].dtype == np.float64
        assert new[1].shape == old[1].shape
        assert np.array_equal(new[1].view(np.uint64), old[1].view(np.uint64))


_CELL = st.tuples(
    st.sampled_from(["", " ", "\t", " \t "]),
    st.one_of(
        st.floats(width=64).map(repr),
        st.tuples(st.integers(-999, 999), st.integers(0, 99)).map(
            lambda t: f"{t[0]}.{t[1]}"),
        st.sampled_from(["nan", "inf", "-inf", "Infinity", "-Infinity",
                         "NaN", "+1", "-0", "1e-5", ".5", "5.", "1e400"])),
    st.sampled_from(["", " ", "\t"]),
).map("".join)


@st.composite
def numeric_csv(draw):
    column = draw(st.booleans())
    width = 1 if column else draw(st.integers(1, 3))
    lines = []
    if not column or draw(st.booleans()):
        lines.append(",".join(f"c{j}" for j in range(width)))
    rows = st.lists(_CELL, min_size=width, max_size=width).map(",".join)
    lines += draw(st.lists(st.one_of(rows, st.just("")), max_size=12))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    tail = draw(st.sampled_from(["", eol]))
    return column, eol.join(lines) + (tail if lines else "")


@settings(max_examples=300, deadline=None)
@given(numeric_csv())
def test_reader_matches_the_per_row_loop(tmp_path_factory, case):
    column, text = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode())
    assert_reads_like_the_loop(path, column)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, column", [
    ("r\n1\n# x\n2\n", True),
    ("y,x\n1,2\n# x\n", False),
    ("r\n1\n   \n2\n", True),
    ("y,x\n1,2\n \t \n", False),
    ('r\n"1.5"\n2\n', True),
    ('"1.5"\n2\n', True),
    ('"y","x"\n"1.5",2\n3,4\n', False),
    ("1_0\n2\n", True),
    ("y,x\n1_0,2\n", False),
    ("r\n1.5,\n", True),
    ("y,x\n1,2,\n", False),
    ("y,x\n1,2\n3\n", False),
    ("r\n", True),
    ("y,x\n\n\n", False),
    ("", True),
    ("", False),
    ("\n1\n", True),
    ("\n1,2\n", False),
    ("ret\n1\n2\n", True),
    ("1\nret\n2\n", True),
    ("1\n", True),
    ("r\r1\r2\r", True),
    ("y,x\r1,2\r", False),
    ('"1\n2\n3\n', True),
    ('"y\nx",z\n1,2\n', False),
    ("r\n1\x002\n", True),
    ("r\n1\x1c\n", True),
    ("y,x\n1,\x1f2\n", False),
])
def test_reader_edge_cases_match_the_per_row_loop(tmp_path, text, column):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    assert_reads_like_the_loop(path, column)


def test_risk_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    returns = rng.normal(0.0, 0.02, 250)
    path = tmp_path / "r.csv"
    path.write_text("r\n" + "\n".join(str(float(v)) for v in returns) + "\n")
    assert main(["risk", str(path), "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "risk.json").read_text())
    assert out["n"] == 250 and out["tau"] == 0.05
    # the lower-tail sign convention flips the average into a loss figure
    assert out["risk"] == -out["value"]
    assert out["risk"] > 0


def test_portfolio_cli(tmp_path):
    rng = np.random.default_rng(12)
    base = rng.normal(0.001, 0.01, 60)
    fit = np.column_stack([base + 0.002, base])
    test = rng.normal(0.0005, 0.01, (40, 2))
    bench = rng.normal(0.0, 0.01, 40)
    paths = {}
    for name, table in [("fit", fit), ("test", test)]:
        p = tmp_path / f"{name}.csv"
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["strong", "weak"])
            w.writerows([float(a), float(b)] for a, b in table)
        paths[name] = str(p)
    bpath = tmp_path / "bench.csv"
    bpath.write_text("bench\n" + "\n".join(str(float(v)) for v in bench) + "\n")
    cfg = write_json(tmp_path / "cfg.json", {"starts": 3, "iterations": 200})
    argv = ["portfolio", paths["fit"], paths["test"], str(bpath),
            "--config", cfg, "--out", str(tmp_path)]
    names = ("portfolio.json", "portfolio_run.json")
    assert main(argv) == 0
    first = [(tmp_path / name).read_bytes() for name in names]
    out = json.loads(first[0])
    assert sorted(out) == ["PD", "SR", "alpha", "risk"]
    assert sum(out["alpha"].values()) == pytest.approx(1.0, abs=1e-9)
    assert out["alpha"]["strong"] > 0.95
    record = json.loads(first[1])
    assert record["report"]["fit_days"] == 60
    diag = record["report"]["diagnostics"]
    assert diag["starts"] == 3
    assert len(diag["start_objectives"]) == len(diag["best_iteration"]) == 3
    assert 0 <= diag["best_start"] < 3
    assert main(argv) == 0
    assert [(tmp_path / name).read_bytes() for name in names] == first


def test_airquality_cli(tmp_path):
    rng = np.random.default_rng(21)
    beta0 = np.array([0.6, 0.5, -0.5, 0.3])
    beta0 /= np.linalg.norm(beta0)
    path = tmp_path / "air.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["station", "year", "month", "day", "hour",
                    "PM2.5", "TEMP", "PRES", "DEWP", "WSPM"])
        for site in ("north", "south"):
            for day in range(1, 41):
                month, dom = (12, day) if day <= 31 else (1, day - 31)
                year = 2016 if month == 12 else 2017
                for hour in (6, 18):
                    x = rng.normal(0.0, 1.0, 4)
                    y = 20.0 * (x @ beta0) ** 2 + 40.0 \
                        + 4.0 * rng.standard_normal()
                    w.writerow([site, year, month, dom, hour, float(y)]
                               + [float(v) for v in x])
    cfg = write_json(tmp_path / "cfg.json", {"taus": [0.2, 0.8]})
    assert main(["airquality", str(path), "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "airquality_full.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["family"] for row in rows] == [
        "qr", "es", "ges", "extremile", "ge", "tcrm"]
    for row in rows:
        assert float(row["tau_0.8"]) >= float(row["tau_0.2"]) - 1e-9
    record = json.loads((tmp_path / "airquality_run.json").read_text())
    assert record["report"]["K"] == 2
    assert record["report"]["n"] == 80
    assert (tmp_path / "airquality_distributed.csv").exists()
    assert (tmp_path / "airquality_deviation.csv").exists()


def test_module_entry_point_reports_version():
    out = subprocess.run([sys.executable, "-m", "aqr.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert aqr.__version__ in out.stdout
