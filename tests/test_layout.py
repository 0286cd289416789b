"""Source-layout guards: one owner for each decision several modules need.

A kernel CDF read at every observed y needs y sorted and its tie runs found.
Those decisions live in kernel_cde._YSorted; a module that sorts y on its own
would drift from it, so these modules may not call the sorting primitives.
Likewise the sample estimator's order-statistic weights come only from
sample_risk.order_weights, so the portfolio objective cannot drift from
risk_sample: portfolio.py may not evaluate the weight density itself. And
the index-fit recipe (start direction, rule bandwidths, pilot, Newton
rounds) comes only from experiments.fit_pooled and fit_sharded, so the CLI
fits cannot drift from the studies: cli.py may not call its pieces. The
telescoped reduction of a step CDF under a weight family belongs to
estimator._telescope, so experiments.py may not apply G itself. cli.py
parses numbers in one place, its CSV reader, so no command can read a file
by other rules. Last, the package's export list must name each public
object once and resolve.
"""

import ast
from pathlib import Path

import pytest

import aqr

FORBIDDEN = {"argsort", "unique", "searchsorted"}


def _called_names(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                yield func.attr, node.lineno
            elif isinstance(func, ast.Name):
                yield func.id, node.lineno


@pytest.mark.parametrize("module", ["single_index.py", "experiments.py"])
def test_module_takes_its_y_order_from_kernel_cde(module):
    path = Path(aqr.__file__).parent / module
    calls = [f"{module}:{line} {name}" for name, line in _called_names(path)
             if name in FORBIDDEN]
    assert calls == []


def test_portfolio_takes_its_order_weights_from_sample_risk():
    path = Path(aqr.__file__).parent / "portfolio.py"
    calls = [f"portfolio.py:{line} {name}"
             for name, line in _called_names(path) if name == "j_value"]
    assert calls == []


def test_cli_takes_its_index_fits_from_experiments():
    path = Path(aqr.__file__).parent / "cli.py"
    recipe = {"rule_bandwidth", "normalize_beta", "local_init",
              "run_distributed"}
    calls = [f"cli.py:{line} {name}" for name, line in _called_names(path)
             if name in recipe]
    assert calls == []


def test_experiments_takes_its_reduction_from_estimator():
    path = Path(aqr.__file__).parent / "experiments.py"
    calls = [f"experiments.py:{line} {name}"
             for name, line in _called_names(path) if name == "g_value"]
    assert calls == []


def test_cli_parses_numbers_only_in_its_csv_reader():
    path = Path(aqr.__file__).parent / "cli.py"
    reader = next(node for node in ast.parse(path.read_text()).body
                  if getattr(node, "name", None) == "_read_numeric_csv")
    calls = [f"cli.py:{line} {name}" for name, line in _called_names(path)
             if name in ("loadtxt", "float")
             and not reader.lineno <= line <= reader.end_lineno]
    assert calls == []


def test_package_exports_are_unique_and_resolve():
    assert len(aqr.__all__) == len(set(aqr.__all__))
    missing = [name for name in aqr.__all__ if not hasattr(aqr, name)]
    assert missing == []
    namespace = {}
    exec("from aqr import *", namespace)
    assert set(aqr.__all__) <= set(namespace)
