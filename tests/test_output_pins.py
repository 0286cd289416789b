"""Output pins of every command.

output_pins.json holds the sha256 of every file that each command writes
on small seeded inputs, with each run's exit code. sim1, sim2 and
airquality pick a bandwidth by cross-validation; at n = 300 the CV scores
its rows in two blocks, so their pins cover the block loop, and sim1 and
sim2 also run at --threads 2 against the same pins. validate runs plain and
with a violator (exit 1), dist-fit with its default K and with K = 4. The
bits are those of one numpy and one Python, which the file records: on
other versions the test fails and names both, rather than skip.

Regenerate the pins only for a deliberate change of the outputs, and list
every moved file in CHANGES.md:
    PYTHONPATH=src python tests/test_output_pins.py
"""

import csv
import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from aqr.cli import main

TABLE = Path(__file__).with_name("output_pins.json")
# case: (command, config, input files in argument order)
RUNS = {
    "sim1": ("sim1", {"reps": 2, "n": 300}, []),
    "sim2": ("sim2", {"reps": 1, "n": 300, "K": 3}, []),
    "airquality": ("airquality", {"taus": [0.1, 0.5, 0.9]}, ["air.csv"]),
    "validate": ("validate", {}, []),
    "validate-violator": ("validate", {"violators": ["hump_density"]}, []),
    "compare": ("compare", {"taus": [0.9, 0.95]}, []),
    "fit": ("fit", {}, ["xy.csv"]),
    "dist-fit": ("dist-fit", {}, ["xy.csv"]),
    "dist-fit-K4": ("dist-fit", {"K": 4}, ["xy.csv"]),
    "portfolio": ("portfolio", {"starts": 4, "iterations": 50},
                  ["fit.csv", "test.csv", "bench.csv"]),
    "risk": ("risk", {}, ["bench.csv"]),
}
CV_RUNS = [("sim1", 1), ("sim1", 2), ("sim2", 1), ("sim2", 2),
           ("airquality", 1)]


def versions():
    return {"numpy": np.__version__, "python": platform.python_version()}


def write_air_table(path):
    """Three sites over the 90 days of the 2016/17 winter: a daily table of
    270 rows, which the CV scores in two blocks."""
    rng = np.random.default_rng(8)
    beta0 = np.array([0.6, 0.5, -0.5, 0.3]) / np.sqrt(0.95)
    days = np.datetime64("2016-12-01") + np.arange(90)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["station", "year", "month", "day", "PM2.5", "TEMP",
                    "PRES", "DEWP", "WSPM"])
        for site in ("east", "north", "south"):
            for day in days:
                x = rng.normal(0.0, 1.0, 4)
                y = 40.0 + 20.0 * (x @ beta0) ** 2 + 4.0 * rng.normal()
                w.writerow([site, *str(day).split("-")]
                           + [repr(float(v)) for v in [y, *x]])


def write_xy_table(path):
    """300 rows of y, x1, x2 from a single-index model."""
    rng = np.random.default_rng(9)
    x = rng.normal(0.0, 1.0, (300, 2))
    y = np.sin(x @ np.array([0.8, 0.6])) + 0.3 * rng.normal(size=300)
    write_rows(path, ["y", "x1", "x2"], np.column_stack([y, x]))


def write_returns(path, days, stream):
    rng = np.random.default_rng([10, stream])
    write_rows(path, ["a", "b", "c", "d"],
               rng.normal(0.0005, 0.01, (days, 4)) * [1.0, 1.5, 2.0, 0.7])


def write_bench(path):
    """The benchmark's daily returns over the 40-day test window."""
    rng = np.random.default_rng([10, 3])
    write_rows(path, ["bench"], rng.normal(0.0003, 0.01, (40, 1)))


def write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(v)) for v in row] for row in rows)


INPUTS = {
    "air.csv": write_air_table,
    "xy.csv": write_xy_table,
    "fit.csv": lambda path: write_returns(path, 80, 1),
    "test.csv": lambda path: write_returns(path, 40, 2),
    "bench.csv": write_bench,
}


def run(case, threads, tmp):
    """Exit code and {file name: sha256} of one run in a fresh directory."""
    command, settings, inputs = RUNS[case]
    tmp = Path(tmp)
    out = tmp / f"{case}-{threads}"
    out.mkdir()
    config = tmp / f"{case}.json"
    config.write_text(json.dumps(settings))
    for name in inputs:
        if not (tmp / name).exists():
            INPUTS[name](tmp / name)
    args = [command, *(str(tmp / name) for name in inputs), "--config",
            str(config), "--out", str(out), "--threads", str(threads)]
    code = main(args)
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.iterdir())}
    record = f"{command.replace('-', '_')}_run.json"
    # the record lists exactly the other files the run wrote
    assert json.loads((out / record).read_text())["outputs"] == sorted(
        files.keys() - {record})
    return {"exit": code, "files": files}


def pin_table(tmp):
    return {"versions": versions(),
            "runs": {case: run(case, 1, tmp) for case in RUNS}}


def check(case, threads, tmp):
    pins = json.loads(TABLE.read_text())
    assert pins["versions"] == versions(), (
        f"pins written with {pins['versions']}, running {versions()}")
    assert run(case, threads, tmp) == pins["runs"][case]


@pytest.mark.parametrize("command, threads", CV_RUNS)
def test_cv_commands_keep_their_output_bits(tmp_path, command, threads):
    check(command, threads, tmp_path)


@pytest.mark.parametrize("case", [case for case in RUNS
                                  if (case, 1) not in CV_RUNS])
def test_other_commands_keep_their_output_bits(tmp_path, case):
    check(case, 1, tmp_path)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = pin_table(tmp)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
