"""Output pins of the commands that pick a bandwidth by cross-validation.

output_pins.json holds the sha256 of every file that sim1, sim2 and
airquality write on small seeded inputs, with each run's exit code. At
n = 300 the CV scores its rows in two blocks, so the pins cover the block
loop. sim1 and sim2 also run at --threads 2 against the same pins. The
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
RUNS = {
    "sim1": {"reps": 2, "n": 300},
    "sim2": {"reps": 1, "n": 300, "K": 3},
    "airquality": {"taus": [0.1, 0.5, 0.9]},
}


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


def run(command, threads, tmp):
    """Exit code and {file name: sha256} of one run in a fresh directory."""
    tmp = Path(tmp)
    out = tmp / f"{command}-{threads}"
    out.mkdir()
    config = tmp / f"{command}.json"
    config.write_text(json.dumps(RUNS[command]))
    args = [command, "--config", str(config), "--out", str(out),
            "--threads", str(threads)]
    if command == "airquality":
        table = tmp / "air.csv"
        write_air_table(table)
        args.insert(1, str(table))
    code = main(args)
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.iterdir())}
    return {"exit": code, "files": files}


def pin_table(tmp):
    return {"versions": versions(),
            "runs": {command: run(command, 1, tmp) for command in RUNS}}


@pytest.mark.parametrize("command, threads", [
    ("sim1", 1), ("sim1", 2), ("sim2", 1), ("sim2", 2), ("airquality", 1)])
def test_cv_commands_keep_their_output_bits(tmp_path, command, threads):
    pins = json.loads(TABLE.read_text())
    assert pins["versions"] == versions(), (
        f"pins written with {pins['versions']}, running {versions()}")
    assert run(command, threads, tmp_path) == pins["runs"][command]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = pin_table(tmp)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
