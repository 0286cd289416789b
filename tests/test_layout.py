"""Source-layout guards: one owner for each decision several modules need.

A kernel CDF read at every observed y needs y sorted and its tie runs found.
Those decisions live in kernel_cde._YSorted; a module that sorts y on its own
would drift from it, so these modules may not call the sorting primitives.
_YSorted also forms the Gaussian kernel weights and the in-sample CDF
levels, so single_index.py and experiments.py may not call exp.
Likewise the sample estimator's order-statistic weights come only from
sample_risk.order_weights, so the portfolio objective cannot drift from
risk_sample: portfolio.py may not evaluate the weight density itself. And
the index-fit recipe (start direction, rule bandwidths, pilot, Newton
rounds) comes only from experiments.fit_pooled and fit_sharded, so the CLI
fits cannot drift from the studies: cli.py may not call its pieces. The
telescoped reduction of a step CDF under a weight family belongs to
estimator._telescope, so experiments.py may not apply G itself. cli.py
parses numbers in one place, its CSV reader, so no command can read a file
by other rules. The Dataset's shard labels are the one record of the
sharding, so in distributed.py and experiments.py no function but partition
may take a `plan` argument: a plan beside the labels would be a second
record that has to agree with them. cli.py states each command once, in
its COMMANDS table, and builds the config's weight family only while
resolving the config, so a bad family exits as a config error before any
input is read: the parser makes every subparser in one loop over the
table, and no handler calls WeightFamily.from_json. Its handlers compute
and return their output files by name, and one writer, _write_outputs,
puts them and the run record on disk, so the record's list of outputs is
the set of files written: in cli.py only _write_outputs calls _write_json
or _write_csv, and only those two open a file with a mode. scipy is
imported only inside the functions that call it, so that `import aqr` and
the commands that never integrate or invert a distribution do not pay its
import: no module imports it at module level. cli.py checks configs
against its schemas itself, so no module imports jsonschema, and `import aqr, aqr.cli`
loads neither package. Each Newton iterate of
single_index.fit_full takes its gradient and Hessian from one walk over the
row blocks, _derivatives: fit_full calls neither psis_gradient nor
psis_hessian, and psis_hessian has no block loop of its own. Each weight
family kind and each distribution kind is one record (families.KINDS,
oracle._DIST_KINDS), so no module compares a value with a kind's name; the
one exception is the Dirac weight, which has no density, where
estimator._telescope and sample_risk.order_weights take its own reductions.
The studies' distribution rosters (experiments.SIM1_ERRORS and
SIX_DISTRIBUTIONS) pair a row label with a distribution, whose record gives
its sampler and tail index, so no module compares a value with a roster
label or keys a dict by one; only the kind record itself, oracle._DIST_KINDS,
has keys that are also labels.
The leave-one-out CV scores stop each bandwidth once it cannot be the pick,
so they are read only through kernel_cde.cv_bandwidth, which takes the pick
from them: no other function calls _cv_scores. Both simulation studies take
their conditional estimates (CV bandwidth, one kernel CDF per probe, exact
reduction per family and level) from experiments._probe_estimates, so a
change to that recipe reaches both: in experiments.py no other function
calls cde_curve or aqr_conditional.
Last, the package's export list must name each public object once and
resolve.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aqr
from aqr.experiments import SIM1_ERRORS, SIX_DISTRIBUTIONS
from aqr.families import KINDS
from aqr.oracle import _DIST_KINDS

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


@pytest.mark.parametrize("module", ["single_index.py", "experiments.py"])
def test_module_takes_its_kernel_from_kernel_cde(module):
    path = Path(aqr.__file__).parent / module
    calls = [f"{module}:{line} {name}" for name, line in _called_names(path)
             if name == "exp"]
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


def test_cli_states_each_command_once_in_its_table():
    path = Path(aqr.__file__).parent / "cli.py"
    functions = {node.name: node for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.FunctionDef)}
    loop = next(node for node in ast.walk(functions["build_parser"])
                if isinstance(node, ast.For)
                and ast.unparse(node.iter) == "COMMANDS.items()")
    resolve = functions["_resolve_config"]
    calls = list(_called_names(path))
    add_parser = [line for name, line in calls if name == "add_parser"]
    from_json = [line for name, line in calls if name == "from_json"]
    assert len(add_parser) == 1
    assert loop.lineno <= add_parser[0] <= loop.end_lineno
    assert from_json
    assert [f"cli.py:{line} from_json" for line in from_json
            if not resolve.lineno <= line <= resolve.end_lineno] == []


def test_cli_writes_files_only_in_its_one_writer():
    path = Path(aqr.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.Lambda))]
    callers = {f"{_enclosing(functions, line)} {name}"
               for name, line in _called_names(path)
               if name in ("_write_json", "_write_csv")}
    assert callers == {"_write_outputs _write_json",
                       "_write_outputs _write_csv"}
    openers = {_enclosing(functions, node.lineno)
               for node in ast.walk(tree) if isinstance(node, ast.Call)
               and ast.unparse(node.func) == "open"
               and (len(node.args) > 1
                    or any(k.arg == "mode" for k in node.keywords))}
    assert openers == {"_write_json", "_write_csv"}


@pytest.mark.parametrize("module", ["distributed.py", "experiments.py"])
def test_only_partition_takes_a_shard_plan(module):
    path = Path(aqr.__file__).parent / module
    takers = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            names = [arg.arg for arg in a.posonlyargs + a.args
                     + a.kwonlyargs + [a.vararg, a.kwarg] if arg]
            if "plan" in names and getattr(node, "name", None) != "partition":
                takers.append(f"{module}:{node.lineno}")
    assert takers == []


def _import_time_imports(tree):
    """Import statements that run when the module is imported: all those
    outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield node, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node, [node.module]
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_module_level():
    found = []
    for path in sorted(Path(aqr.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node, names in _import_time_imports(tree)
                  if any(name.split(".")[0] == "scipy" for name in names)]
    assert found == []


def test_no_module_imports_jsonschema():
    found = []
    for path in sorted(Path(aqr.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "jsonschema"]
    assert found == []


def test_importing_the_cli_loads_no_scipy_or_jsonschema():
    probe = ("import sys, aqr, aqr.cli\n"
             "print(sorted(name for name in sys.modules if name.split('.')[0]"
             " in ('jsonschema', 'referencing', 'scipy')))")
    src = Path(aqr.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_fit_full_walks_the_blocks_once_per_iterate():
    path = Path(aqr.__file__).parent / "single_index.py"
    functions = {node.name: node for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.FunctionDef)}
    fit = functions["fit_full"]
    calls = {ast.unparse(node.func) for node in ast.walk(fit)
             if isinstance(node, ast.Call)}
    assert "_derivatives" in calls
    assert calls & {"psis_gradient", "psis_hessian"} == set()
    loops = [f"single_index.py:{node.lineno}"
             for node in ast.walk(functions["psis_hessian"])
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert loops == []


# (module, function) pairs that may compare a kind with "qr-dirac"
DIRAC_READERS = {("estimator.py", "_telescope"),
                 ("sample_risk.py", "order_weights")}


def _is_kind(node):
    """`x.kind`, or a name the old branches bound a kind to."""
    return (isinstance(node, ast.Attribute) and node.attr == "kind"
            or isinstance(node, ast.Name) and node.id in ("kind", "k"))


def _operands(node):
    """The operands of a comparison, the subject and case values of a match,
    or the keys of a dict; [] for any other node."""
    if isinstance(node, ast.Compare):
        return [node.left, *node.comparators]
    if isinstance(node, ast.Match):
        return [node.subject] + [case.pattern.value for case in node.cases
                                 if isinstance(case.pattern, ast.MatchValue)]
    if isinstance(node, ast.Dict):
        return [key for key in node.keys if key is not None]
    return []


def _spelled(operands, names):
    """The names that `operands`, or the tuples, lists and sets among them,
    spell out as literals."""
    literals = [elt for op in operands
                for elt in (op.elts if isinstance(op, (ast.Tuple, ast.List,
                                                        ast.Set)) else [op])]
    return [lit.value for lit in literals
            if isinstance(lit, ast.Constant) and lit.value in names]


def _named_kinds(node, names):
    """Kind names that a comparison of a kind, or a match on one, spells out
    as literals."""
    operands = _operands(node)
    return (_spelled(operands, names) if any(_is_kind(op) for op in operands)
            else [])


def _enclosing(functions, line):
    """The name of the innermost of `functions` that holds `line`, or
    None."""
    owner = min((f for f in functions if f.lineno <= line <= f.end_lineno),
                key=lambda f: f.end_lineno - f.lineno, default=None)
    return getattr(owner, "name", None)


def test_no_module_branches_on_a_kind_outside_the_records():
    names = set(KINDS) | set(_DIST_KINDS)
    found = []
    for path in sorted(Path(aqr.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.Lambda))]
        for node in ast.walk(tree):
            for name in _named_kinds(node, names):
                where = (path.name, _enclosing(functions, node.lineno))
                if not (name == "qr-dirac" and where in DIRAC_READERS):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_no_module_branches_on_a_roster_label():
    labels = {row[0] for row in SIM1_ERRORS + SIX_DISTRIBUTIONS}
    found = []
    for path in sorted(Path(aqr.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        record = [node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Assign)
                  and ast.unparse(node.targets[0]) == "_DIST_KINDS"]
        found += [f"{path.name}:{node.lineno} {name}"
                  for node in ast.walk(tree) if node not in record
                  for name in _spelled(_operands(node), labels)]
    assert found == []


def test_only_cv_bandwidth_reads_the_cv_scores():
    callers = []
    for path in sorted(Path(aqr.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.Lambda))]
        callers += [f"{path.name}:{_enclosing(functions, line)}"
                    for name, line in _called_names(path)
                    if name == "_cv_scores"]
    assert callers == ["kernel_cde.py:cv_bandwidth"]


def test_only_probe_estimates_reads_a_conditional_estimate():
    path = Path(aqr.__file__).parent / "experiments.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.Lambda))]
    callers = {f"experiments.py:{_enclosing(functions, line)} {name}"
               for name, line in _called_names(path)
               if name in ("cde_curve", "aqr_conditional")}
    assert callers == {"experiments.py:_probe_estimates cde_curve",
                       "experiments.py:_probe_estimates aqr_conditional"}


def test_package_exports_are_unique_and_resolve():
    assert len(aqr.__all__) == len(set(aqr.__all__))
    missing = [name for name in aqr.__all__ if not hasattr(aqr, name)]
    assert missing == []
    namespace = {}
    exec("from aqr import *", namespace)
    assert set(aqr.__all__) <= set(namespace)
