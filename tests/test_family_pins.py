"""Bit pins of the weight families and the population values.

family_pins.json holds float.hex strings of J, G, the inverse level maps and
a few population values, as this module computes them. Every family of
experiments.builtin_families() is pinned at each TAUS level and each POINTS
argument (0 and 1, the support edges tau and 1-tau, and points between);
every family with a density has its three level maps pinned at LEVELS. A
refactor of the families or the oracle must reproduce every bit.

Regenerate the table only for a deliberate change of the numbers:
    PYTHONPATH=src python tests/test_family_pins.py > tests/family_pins.json
"""

import json
import sys
from pathlib import Path

import numpy as np

from aqr.experiments import builtin_families, study_families
from aqr.families import g_value, j_value, level_maps
from aqr.oracle import normal, population_aqr, student_t

TAUS = (0.05, 0.3, 0.5, 0.7, 0.95)
POINTS = (0.0, 0.01, 0.05, 0.3, 0.5, 0.7, 0.95, 0.99, 1.0)
LEVELS = (1e-12, 0.25, 0.5)
POPULATION = (("normal", normal()), ("t3", student_t(3.0)))
POPULATION_TAUS = (0.1, 0.9)
TABLE = Path(__file__).with_name("family_pins.json")


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def pin_table():
    table = {}
    points = np.array(POINTS)
    for label, fam in builtin_families():
        for tau in TAUS:
            key = f"{label}@{tau}"
            if not fam.singular:
                table[f"j {key}"] = _hex(j_value(fam, tau, points))
                maps = level_maps(fam, tau)
                table[f"maps {key}"] = [_hex([m(v) for v in LEVELS])
                                        for m in maps]
            table[f"g {key}"] = _hex(g_value(fam, tau, points))
    for dist_label, dist in POPULATION:
        for label, fam in study_families():
            table[f"population {dist_label} {label}"] = _hex(
                [population_aqr(dist, fam, tau) for tau in POPULATION_TAUS])
    return table


def test_families_and_population_values_keep_their_bits():
    want = json.loads(TABLE.read_text())
    got = pin_table()
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


if __name__ == "__main__":
    rows = [f"{json.dumps(key)}: {json.dumps(value)}"
            for key, value in sorted(pin_table().items())]
    sys.stdout.write("{\n" + ",\n".join(rows) + "\n}\n")
