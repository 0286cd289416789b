import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from jsonschema.validators import validator_for

import aqr
from aqr.cli import (COMMANDS, DEFAULTS, SCHEMAS, _checked, _object,
                     _read_numeric_csv, _SchemaError, build_parser,
                     config_schema, main)
from aqr.errors import ParseError
from aqr.families import KINDS, SCHEDULES
from aqr.experiments import fit_pooled, load_airquality
from aqr.kernel_cde import Dataset
from aqr.single_index import fit_full, normalize_beta

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


def test_command_table_drives_schemas_defaults_and_parser():
    parser = build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    assert list(sub.choices) == list(SCHEMAS) == list(DEFAULTS) == list(
        COMMANDS)
    for name, command in COMMANDS.items():
        schema = command.schema
        assert schema["additionalProperties"] is False
        assert config_schema(name) is schema is SCHEMAS[name]
        # the CLI validates configs without re-checking its schemas
        validator_for(schema).check_schema(schema)
        defaults = {key: prop["default"]
                    for key, prop in schema["properties"].items()
                    if "default" in prop}
        assert DEFAULTS[name] == defaults
        for key, value in defaults.items():
            if (name, key) == ("dist-fit", "rounds"):
                # null stands for the data-driven round count
                assert value is None
                continue
            validator_for(schema)(schema["properties"][key]).validate(value)
        positionals = [action.dest for action in sub.choices[name]._actions
                       if not action.option_strings]
        assert positionals == [dest for dest, _ in command.inputs]


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


def test_validate_violator_exits_1(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json",
                     {"violators": ["negative_density"]})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "aqr validate: checks failed; see validate_run.json\n")
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
    assert sorted(dist["comm"]) == ["rounds", "setup_scalars", "total"]
    assert dist["comm"]["total"] > 0
    assert dist["comm"]["setup_scalars"] == 100
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


def test_fit_fixed_bandwidth_from_the_all_ones_start(tmp_path):
    # 600 rows: a configured bandwidth takes no pilot, and the fit is the
    # one from the all-ones direction
    data = write_xy_csv(tmp_path / "xy.csv", seed=6, n=600)
    cfg = write_json(tmp_path / "cfg.json", {"bandwidth": 0.8})
    assert main(["fit", data, "--config", cfg, "--out", str(tmp_path)]) == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["h"] == 0.8
    table = np.loadtxt(data, delimiter=",", skiprows=1)
    want = fit_full(Dataset(table[:, 0], table[:, 1:]), 0.8,
                    normalize_beta(np.ones(2)))
    assert fit["beta"] == want.beta.tolist()


def test_fit_from_a_pilot_start_reruns_byte_identical(tmp_path):
    # 600 rows: the fit starts from a pilot on a fixed 150-row subsample
    data = write_xy_csv(tmp_path / "xy.csv", seed=7, n=600)
    argv = ["fit", data, "--out", str(tmp_path)]
    names = ("fit.json", "fit_run.json")
    assert main(argv) == 0
    first = [(tmp_path / name).read_bytes() for name in names]
    table = np.loadtxt(data, delimiter=",", skiprows=1)
    want = fit_pooled(Dataset(table[:, 0], table[:, 1:]))
    assert json.loads(first[0])["beta"] == want.beta.tolist()
    assert main(argv) == 0
    assert [(tmp_path / name).read_bytes() for name in names] == first


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


@pytest.mark.parametrize("command, config", [
    ("risk", {"family": {"kind": "foo"}}),
    ("risk", {"family": {"kind": "es", "a": 1}}),
    ("risk", {"family": {"kind": "ge", "schedule": "nope"}}),
    ("risk", {"family": {"kind": "tabulated"}}),
    ("risk", {"family": {"kind": "ges", "a": -1}}),
    ("risk", {"family": {"kind": 3}}),
    ("risk", {"family": {"kind": "es", "schedule": "cotangent"}}),
    ("portfolio", {"family": {"kind": "foo"}}),
    ("portfolio", {"family": {"kind": "tcrm", "schedule": "nope"}}),
    ("validate", {"violators": ["nope"]}),
    ("sim2", {"n": 20, "K": 15, "reps": 1}),
    ("compare", {"taus": [0.05, 0.1, 0.3]}),
    ("compare", {"taus": [0.9, 0.5]}),
], ids=["kind", "es-shape", "schedule", "tabulated", "ges-negative",
        "kind-number", "es-schedule", "portfolio-kind", "portfolio-schedule",
        "violator", "sim2-shards", "compare-lower-tail", "compare-median"])
def test_config_the_engines_reject_exits_2_before_any_input(
        tmp_path, capsys, command, config):
    # the input files do not exist: the config is rejected before they
    # are opened
    inputs = [str(tmp_path / f"{dest}.csv")
              for dest, _ in COMMANDS[command].inputs]
    cfg = write_json(tmp_path / "cfg.json", config)
    assert main([command, *inputs, "--config", cfg,
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "config error" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command, template", [
    ("fit", '{"bandwidth": %s}'),
    ("dist-fit", '{"rate_exponent": %s}'),
    ("risk", '{"tau": %s}'),
    ("portfolio", '{"family": {"kind": "ges", "a": %s}}'),
    ("compare", '{"taus": [0.9, %s]}'),
    ("validate", '{"violators": %s}'),
])
def test_non_json_number_exits_2_before_any_input(tmp_path, capsys, command,
                                                  template, token):
    # Python's json reads these tokens as floats; a config may not hold them
    inputs = [str(tmp_path / f"{dest}.csv")
              for dest, _ in COMMANDS[command].inputs]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(template % token)
    assert main([command, *inputs, "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"aqr {command}: config error: {token} is not a JSON number\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_family_schema_reads_kinds_and_schedules_off_the_records():
    family = SCHEMAS["risk"]["properties"]["family"]
    assert SCHEMAS["portfolio"]["properties"]["family"] is family
    # no config can supply a tabulated family's grids
    assert family["properties"]["kind"]["enum"] == [
        kind for kind in KINDS if kind != "tabulated"]
    assert family["properties"]["schedule"]["enum"] == list(SCHEDULES)


@pytest.mark.parametrize("command", [name for name, schema in SCHEMAS.items()
                                     if "seed" in schema["properties"]])
def test_negative_seed_flag_exits_2_before_any_input(tmp_path, capsys,
                                                     command):
    inputs = [str(tmp_path / f"{dest}.csv")
              for dest, _ in COMMANDS[command].inputs]
    assert main([command, *inputs, "--seed", "-1",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "config error: seed:" in err
    assert list(tmp_path.iterdir()) == []


SEEDLESS = [name for name, schema in SCHEMAS.items()
            if "seed" not in schema["properties"]]


def test_seedless_commands_take_no_seed_flag(tmp_path, capsys):
    assert SEEDLESS == ["validate", "compare", "airquality", "fit", "risk"]
    for command in SEEDLESS:
        inputs = [str(tmp_path / f"{dest}.csv")
                  for dest, _ in COMMANDS[command].inputs]
        with pytest.raises(SystemExit) as caught:
            main([command, *inputs, "--seed", "1", "--out", str(tmp_path)])
        assert caught.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# JSON values a config key may hold, near the schemas' bounds and names
_ENUM_NAMES = sorted({name for schema in SCHEMAS.values()
                      for prop in schema["properties"].values()
                      for sub in (prop, prop.get("items", {}),
                                  *prop.get("properties", {}).values())
                      for name in sub.get("enum", [])})
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 30),
              st.integers(-3, 30).map(float), st.floats(-2.0, 2.0),
              st.sampled_from([0.0, 0.5, 1.0, -0.0, math.inf, math.nan]),
              st.sampled_from(_ENUM_NAMES), st.text(max_size=2)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.one_of(st.sampled_from(["kind", "a", "schedule"]),
                                  st.text(max_size=2)), inner, max_size=3)),
    max_leaves=6)


def _accepts(schema, value):
    return validator_for(schema)(schema).is_valid(value)


def _checked_as_jsonschema_judges(schema, value):
    """_checked's result, or None when it rejects `value`; either way its
    verdict must be jsonschema's."""
    try:
        checked = _checked(schema, value)
    except _SchemaError:
        assert not _accepts(schema, value)
        return None
    assert _accepts(schema, value)
    return checked


def _valid(schema):
    """Values that `schema` accepts, integer-valued floats included."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        properties = schema["properties"]
        required = schema.get("required", [])
        pair = schema.get("not", {}).get("required", ())

        def one_of_pair(config):
            if pair and all(key in config for key in pair):
                del config[pair[-1]]
            return config
        return st.fixed_dictionaries(
            {key: _valid(properties[key]) for key in required},
            optional={key: _valid(prop) for key, prop in properties.items()
                      if key not in required}).map(one_of_pair)
    if kind == "array":
        return st.lists(_valid(schema["items"]),
                        min_size=schema.get("minItems", 0), max_size=3)
    if kind == "integer":
        ints = st.integers(schema.get("minimum"), schema.get("minimum", 0)
                           + 40)
        return st.one_of(ints, ints.map(float))
    if kind == "number":
        low = schema.get("exclusiveMinimum", schema.get("minimum"))
        high = schema.get("exclusiveMaximum")
        return st.floats(low, high, allow_nan=False,
                         exclude_min="exclusiveMinimum" in schema,
                         exclude_max=high is not None)
    return st.booleans()


def _near_misses(schema):
    """Values of the wrong type, and values at and around the bounds."""
    bounds = [schema[key] for key in ("minimum", "exclusiveMinimum",
                                      "exclusiveMaximum") if key in schema]
    return st.sampled_from([True, False, None, "1", [], {}, 2.5]
                           + [b + d for b in bounds
                              for d in (-1, -0.5, 0, 0.5)])


@st.composite
def _breaks_one_key(draw, schema):
    """A value that `schema` rejects for one defect: one key (or item) that
    breaks its own schema, a key the object does not name, both keys of
    its exclusive pair, a missing required key, or a wrong type."""
    value = draw(_valid(schema))
    if schema.get("type") not in ("object", "array") or value == []:
        return draw(st.one_of(_near_misses(schema), _JSON).filter(
            lambda value: not _accepts(schema, value)))
    if schema["type"] == "array":
        value[draw(st.integers(0, len(value) - 1))] = draw(
            _breaks_one_key(schema["items"]))
        return value
    properties = schema["properties"]
    pair = schema.get("not", {}).get("required", [])
    how = draw(st.sampled_from(["value", "unknown"] + ["pair"] * bool(pair)
                               + ["required"] * bool(schema.get("required"))))
    if how == "value":
        key = draw(st.sampled_from(sorted(properties)))
        value[key] = draw(_breaks_one_key(properties[key]))
    elif how == "unknown":
        key = draw(st.text(max_size=3).filter(lambda k: k not in properties))
        value[key] = draw(_JSON)
    elif how == "pair":
        value.update({key: draw(_valid(properties[key])) for key in pair})
    else:
        del value[draw(st.sampled_from(schema["required"]))]
    return value


def _ints_where_integer(schema, value):
    if schema.get("type") == "integer":
        return type(value) is int
    if isinstance(value, list):
        return all(_ints_where_integer(schema.get("items", {}), item)
                   for item in value)
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        return all(_ints_where_integer(properties.get(key, {}), item)
                   for key, item in value.items())
    return True


@pytest.mark.parametrize("command", list(COMMANDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_config_check_accepts_what_json_schema_accepts(command, data):
    schema = SCHEMAS[command]
    config = data.draw(st.one_of(_valid(schema), _breaks_one_key(schema),
                                 _JSON))
    checked = _checked_as_jsonschema_judges(schema, config)
    if checked is not None:
        # integer-valued floats come back as ints, all else as it was
        assert checked == config
        assert _ints_where_integer(schema, checked)


@pytest.mark.parametrize("schema, value", [
    ({"enum": [1, "a"]}, True), ({"enum": [1]}, 1.0), ({"enum": [0]}, False),
    ({"type": "number"}, True), ({"type": "integer"}, 5.0),
    ({"type": "integer"}, 5.5), ({"type": "integer"}, math.inf),
    ({"type": "number", "minimum": 0}, math.nan),
    ({"type": "array", "minItems": 2}, [1]), ({"minimum": 0}, "x"),
    (_object(("a", "b"), a={}, b={}), {"a": 1}),
    (_object(("a", "b"), a={}, b={}), {"a": 1, "b": 2}),
])
def test_config_check_follows_json_schema_on_edge_cases(schema, value):
    _checked_as_jsonschema_judges(schema, value)


def test_config_check_raises_on_a_keyword_it_does_not_implement():
    for schema in ({"type": "integer", "maximum": 3},
                   _object(n={"type": "integer", "multipleOf": 2}),
                   {**_object(), "additionalProperties": True}):
        with pytest.raises(NotImplementedError):
            _checked(schema, {"n": 4})


@pytest.mark.parametrize("command", list(COMMANDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_config_breaking_one_key_exits_2_before_any_input(
        tmp_path_factory, command, data):
    config = data.draw(_breaks_one_key(SCHEMAS[command]))
    tmp = tmp_path_factory.mktemp("cfg")
    cfg = write_json(tmp / "cfg.json", config)
    # the input files do not exist: the config is rejected before they
    # are opened
    inputs = [str(tmp / f"{dest}.csv") for dest, _ in COMMANDS[command].inputs]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, *inputs, "--config", cfg, "--out", str(tmp)])
    assert code == 2
    assert err.getvalue().startswith(f"aqr {command}: config error: ")
    assert err.getvalue().count("\n") == 1
    assert [p.name for p in tmp.iterdir()] == ["cfg.json"]


def _tiny_inputs(tmp):
    """Small fixed input files for every command, by input name."""
    risk = tmp / "column.csv"
    risk.write_text("r\n" + "\n".join(str(float(v)) for v in
                                       np.random.default_rng(6).normal(
                                           0.0, 0.02, 60)) + "\n")
    fit, test, bench = write_portfolio_csvs(tmp)
    xy = write_xy_csv(tmp / "xy.csv", n=60)
    return {"risk": [str(risk)], "portfolio": [fit, test, bench],
            "airquality": [write_air_csv(tmp / "air.csv")],
            "fit": [xy], "dist-fit": [xy]}


def _small(command, config):
    """Cap a replicated study at 2 reps of at most 60 rows, the preset's
    rep count included."""
    properties = SCHEMAS[command]["properties"]
    for key, cap in (("reps", 2), ("n", 60)):
        if key in properties:
            config[key] = min(config.get(key, cap), cap)
    return config


# examples per command: validate takes about a second a run
_VALID_EXAMPLES = {"validate": 3, "compare": 6}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_valid_config_exits_0_1_or_2_with_one_line(tmp_path_factory,
                                                   command):
    inputs = _tiny_inputs(tmp_path_factory.mktemp("inputs")).get(command,
                                                                 [])

    @settings(max_examples=_VALID_EXAMPLES.get(command, 12), deadline=None)
    @given(config=_valid(SCHEMAS[command]).map(
        lambda config: _small(command, config)))
    def run(config):
        cfg = write_json(tmp_path_factory.mktemp("cfg") / "cfg.json", config)
        out = tmp_path_factory.mktemp("out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, *inputs, "--config", cfg,
                         "--out", str(out), "--threads", "1"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().count("\n") == (code != 0)
        if code != 0:
            assert err.getvalue().startswith(f"aqr {command}: ")
        if code == 2:
            assert list(out.iterdir()) == []
    run()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_thread_count_below_one_exits_2(tmp_path, capsys, count):
    with pytest.raises(SystemExit) as stop:
        main(["sim1", "--threads", count, "--out", str(tmp_path)])
    assert stop.value.code == 2
    assert "argument --threads: must be at least 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_fit_bandwidth_that_isolates_every_row_exits_1(tmp_path, capsys):
    data = write_xy_csv(tmp_path / "xy.csv", n=300)
    cfg = write_json(tmp_path / "cfg.json", {"bandwidth": 1e-8})
    assert main(["fit", data, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "KernelUnderflow" in err
    assert not (tmp_path / "fit.json").exists()
    # at the rule bandwidth every row has a neighbour's weight, and the fit
    # is the pooled fit
    assert main(["fit", data, "--out", str(tmp_path)]) == 0
    table = _read_numeric_csv(data)[1]
    want = fit_pooled(Dataset(table[:, 0], table[:, 1:]))
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["beta"] == want.beta.tolist() and fit["h"] == want.h


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


BOM = "\ufeff".encode()


@pytest.mark.parametrize("text, column", [
    ("y,x\n1,2\n3,4\n", False),
    ('y,x\n"1",2\n3,4\n', False),
    ("0.5\n1\n2\n", True),
    ('0.5\n"1"\n2\n', True),
    ("r\n1\n2\n", True),
], ids=["matrix", "matrix-loop", "column", "column-loop", "column-header"])
def test_reader_drops_a_leading_byte_order_mark(tmp_path, text, column):
    # a quoted data cell sends the file to the per-cell loop
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())
    header, table = _read_numeric_csv(marked, column)
    expect_header, expect = _read_numeric_csv(plain, column)
    assert header == expect_header
    assert np.array_equal(table, expect)


def test_risk_counts_the_first_value_after_a_byte_order_mark(tmp_path):
    values = np.random.default_rng(3).normal(0.0, 0.02, 100)
    path = tmp_path / "r.csv"
    path.write_bytes(BOM + "".join(f"{float(v)!r}\n"
                                   for v in values).encode())
    assert main(["risk", str(path), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "risk.json").read_text())["n"] == 100


def test_fit_names_the_response_after_a_byte_order_mark(tmp_path):
    path = pathlib.Path(write_xy_csv(tmp_path / "xy.csv"))
    path.write_bytes(BOM + path.read_bytes())
    assert main(["fit", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "fit.json").read_text())
    assert report["response"] == "y"
    assert report["covariates"] == ["x1", "x2"]


def test_airquality_table_after_a_byte_order_mark_keeps_its_sites(tmp_path):
    plain = pathlib.Path(write_air_csv(tmp_path / "air.csv"))
    marked = tmp_path / "marked.csv"
    marked.write_bytes(BOM + plain.read_bytes())
    y, X, shard_of, sites = load_airquality(marked)
    assert list(sites) == ["north", "south"]
    for got, expect in zip((y, X, shard_of), load_airquality(plain)):
        assert np.array_equal(got, expect)


def write_portfolio_csvs(tmp_path):
    """Fit, test and benchmark return files; the strong asset beats the
    weak one by 0.002 a day in the fit window."""
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
    return [paths["fit"], paths["test"], str(bpath)]


def test_portfolio_cli(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"starts": 3, "iterations": 200})
    argv = ["portfolio", *write_portfolio_csvs(tmp_path),
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


@pytest.mark.parametrize("columns", [[1, 0], [0]],
                         ids=["swapped", "missing"])
def test_portfolio_test_window_of_other_assets_exits_1_with_one_line(
        tmp_path, capsys, columns):
    # weights are read by position, so a reordered test window would score
    # each weight against another asset's returns
    fit, test, bench = write_portfolio_csvs(tmp_path)
    with open(test, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(test, "w", newline="") as fh:
        csv.writer(fh).writerows([row[c] for c in columns] for row in rows)
    cfg = write_json(tmp_path / "cfg.json", {"starts": 2, "iterations": 20})
    assert main(["portfolio", fit, test, bench, "--config", cfg,
                 "--out", str(tmp_path)]) == 1
    labels = [["strong", "weak"][c] for c in columns]
    assert capsys.readouterr().err == (
        f"aqr portfolio: ShapeMismatch: test window assets {labels} differ "
        "from the fit window's ['strong', 'weak']\n")
    assert [p.name for p in tmp_path.glob("*.json")] == ["cfg.json"]


def test_portfolio_non_finite_benchmark_exits_1_with_one_line(tmp_path,
                                                             capsys):
    # a day against a nan benchmark would count as not beaten
    fit, test, bench = write_portfolio_csvs(tmp_path)
    lines = pathlib.Path(bench).read_text().splitlines()
    lines[3], lines[9] = "nan", "inf"
    pathlib.Path(bench).write_text("\n".join(lines) + "\n")
    cfg = write_json(tmp_path / "cfg.json", {"starts": 2, "iterations": 20})
    assert main(["portfolio", fit, test, bench, "--config", cfg,
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == ("aqr portfolio: DomainError: benchmark returns must be "
                   "finite\n")
    assert [p.name for p in tmp_path.glob("*.json")] == ["cfg.json"]


def test_portfolio_repeated_asset_label_exits_1_and_writes_nothing(
        tmp_path, capsys):
    # portfolio.json keys the weights by label, so one would be lost
    fit, test, bench = write_portfolio_csvs(tmp_path)
    for path in (fit, test):
        text = pathlib.Path(path).read_text()
        pathlib.Path(path).write_text(text.replace("strong,weak",
                                                   "strong,strong", 1))
    cfg = write_json(tmp_path / "cfg.json", {"starts": 2, "iterations": 20})
    assert main(["portfolio", fit, test, bench, "--config", cfg,
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "aqr portfolio: DomainError: asset label 'strong' is given twice\n")
    assert [p.name for p in tmp_path.glob("*.json")] == ["cfg.json"]


@pytest.mark.parametrize("command, config, key, value", [
    ("portfolio", {"iterations": 5.0}, "iterations", 5),
    ("portfolio", {"seed": 1.0}, "seed", 1),
    ("dist-fit", {"seed": 2.0}, "seed", 2),
    ("dist-fit", {"sizes": [50.0, 50]}, "sizes", [50, 50]),
])
def test_integer_valued_floats_run_as_ints(tmp_path, command, config, key,
                                           value):
    # JSON Schema counts 5.0 as an integer; the engines take it as 5
    inputs = (write_portfolio_csvs(tmp_path) if command == "portfolio"
              else [write_xy_csv(tmp_path / "xy.csv")])
    cfg = write_json(tmp_path / "cfg.json", config)
    assert main([command, *inputs, "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    name = f"{command.replace('-', '_')}_run.json"
    record = json.loads((tmp_path / name).read_text())
    # "5", not "5.0"
    assert json.dumps(record["config"][key]) == json.dumps(value)


@pytest.mark.parametrize("command", ["risk", "portfolio"])
@pytest.mark.parametrize("a", [235, 300])
def test_ges_shape_past_the_float_range_exits_1_with_one_line(
        tmp_path, capsys, command, a):
    # at tau = 0.05 the GES density's peak (1+a)/0.05^(1+a) is inf for
    # a = 235 and raises OverflowError for a = 300; a = 234 is finite
    rng = np.random.default_rng(3)
    column = "x\n" + "\n".join(str(float(v)) for v in rng.normal(size=2000))
    (tmp_path / "col.csv").write_text(column + "\n")
    inputs = [str(tmp_path / "col.csv")]
    if command == "portfolio":
        table = "a,b\n" + "\n".join(f"{float(x)},{float(y)}" for x, y in
                                     rng.normal(0.0, 0.01, (60, 2)))
        bench = "\n".join(str(float(v)) for v in rng.normal(0.0, 0.01, 60))
        (tmp_path / "bench.csv").write_text("bench\n" + bench + "\n")
        for name in ("fit.csv", "test.csv"):
            (tmp_path / name).write_text(table + "\n")
        inputs = [str(tmp_path / name)
                  for name in ("fit.csv", "test.csv", "bench.csv")]
    cfg = write_json(tmp_path / "cfg.json",
                     {"family": {"kind": "ges", "a": a}, "tau": 0.05})
    assert main([command, *inputs, "--config", cfg,
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"aqr {command}: DomainError: GES density")
    assert [p.name for p in tmp_path.glob("*.json")] == ["cfg.json"]


def write_air_csv(path):
    """Two sites, 40 winter days, two hours a day: 80 daily rows."""
    rng = np.random.default_rng(21)
    beta0 = np.array([0.6, 0.5, -0.5, 0.3])
    beta0 /= np.linalg.norm(beta0)
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
    return str(path)


def test_airquality_cli(tmp_path):
    path = write_air_csv(tmp_path / "air.csv")
    cfg = write_json(tmp_path / "cfg.json", {"taus": [0.2, 0.8]})
    assert main(["airquality", path, "--config", cfg,
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


AIR_HEADER = b"station,year,month,day,hour,PM2.5,TEMP,PRES,DEWP,WSPM\n"
AIR_ROW = b"north,2016,12,1,6,40.0,-1.5,1020.0,-9.0,2.1\n"


@pytest.mark.parametrize("command, name, data, message, row", [
    ("risk", "u.csv", b"r\n\xff\n1\n", "parse error: byte 0xff is not", 2),
    ("risk", "big.csv", b"r\n" + b"x" * 140_000 + b"\n1\n",
     "parse error: field larger than field limit", 2),
    ("risk", "cfg.json", b'{"tau": 0.1\xff}', "config error:", None),
    ("airquality", "air.csv", AIR_HEADER + AIR_ROW
     + AIR_ROW.replace(b"2016", b"x"),
     "parse error: non-numeric value 'x' in column year", 3),
    ("airquality", "air.csv", AIR_HEADER + AIR_ROW
     + AIR_ROW.replace(b"north", b"n\xffrth"),
     "parse error: byte 0xff is not", 3),
    ("airquality", "air.csv", AIR_HEADER + AIR_ROW + AIR_ROW[:-5] + b"\n",
     "parse error: expected 10 fields, got 9", 3),
    ("airquality", "air.csv", AIR_HEADER.replace(b"year,", b"")
     + AIR_ROW.replace(b"2016,", b""),
     "parse error: missing date column year", 1),
    # a dict of the record by column name would keep the later PM2.5
    ("airquality", "air.csv", AIR_HEADER.replace(b"\n", b",PM2.5\n")
     + AIR_ROW.replace(b"\n", b",999\n"),
     "parse error: column PM2.5 is given twice (row 1, col PM2.5)", 1),
    ("airquality", "air.csv", AIR_HEADER + AIR_ROW
     + AIR_ROW.replace(b"40.0", b"inf"),
     "parse error: non-finite value 'inf' in column PM2.5", 3),
    ("airquality", "air.csv", AIR_HEADER + AIR_ROW + AIR_ROW
     + AIR_ROW.replace(b"-1.5", b"-Infinity"),
     "parse error: non-finite value '-Infinity' in column TEMP", 4),
], ids=["csv-bytes", "csv-field-limit", "config-bytes", "airquality-year",
        "airquality-bytes", "airquality-short-row", "airquality-no-year",
        "airquality-repeated-column", "airquality-inf",
        "airquality-minus-infinity"])
def test_malformed_input_file_exits_2_with_one_line(tmp_path, capsys,
                                                    command, name, data,
                                                    message, row):
    path = tmp_path / name
    path.write_bytes(data)
    args = [command, str(path)]
    if name == "cfg.json":
        # the config is read first, so the data file is never opened
        args = [command, str(tmp_path / "unread.csv"), "--config", str(path)]
    assert main(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    if row is not None:
        assert f"(row {row}" in err
    assert not list(tmp_path.glob("*_run.json"))


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"),
                                reason="no FIFOs on this platform")


@pytest.fixture
def fifo(tmp_path):
    """make(data) makes a FIFO in tmp_path and returns its path. One
    writer thread gives `data` to the first reader that opens it and an
    empty stream to any later one, as a shell's `<(...)` pipe does when it
    is opened again. The writer opens the FIFO without blocking and stops
    at teardown, so a reader that never opens it cannot block the suite."""
    stop = threading.Event()
    threads = []

    def make(data):
        path = tmp_path / f"in{len(threads)}.fifo"
        os.mkfifo(path)

        def serve(payload=data):
            while not stop.wait(0.005):
                try:
                    fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
                except OSError:  # no reader has opened it yet
                    continue
                os.set_blocking(fd, True)
                with contextlib.suppress(BrokenPipeError), \
                        os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                payload = b""

        threads.append(threading.Thread(target=serve, daemon=True))
        threads[-1].start()
        return str(path)

    yield make
    stop.set()
    for thread in threads:
        thread.join(timeout=5)


def run_on_file_and_fifo(tmp_path, fifo, capsys, argv, data):
    """main(argv + [input]) on `data` written to a file, then read through
    a FIFO; returns each run's (exit code, stderr, {output: bytes})."""
    file = tmp_path / "in.dat"
    file.write_bytes(data)
    runs = []
    for name, path in [("file", str(file)), ("fifo", fifo(data))]:
        out = tmp_path / name
        out.mkdir()
        code = main([*argv, path, "--out", str(out)])
        runs.append((code, capsys.readouterr().err,
                     {p.name: p.read_bytes() for p in out.iterdir()}))
    return runs


@needs_fifo
def test_risk_reads_a_quoted_cell_through_a_fifo(tmp_path, fifo, capsys):
    # a quoted cell sends the column to the per-cell loop
    data = ("r\n\"1.5\"\n" + "".join(f"{v}\n" for v in range(2, 101))).encode()
    on_file, on_fifo = run_on_file_and_fifo(tmp_path, fifo, capsys, ["risk"],
                                            data)
    assert on_fifo == on_file
    assert on_file[0] == 0
    assert json.loads(on_file[2]["risk.json"])["n"] == 100


@needs_fifo
def test_fit_reads_a_loop_path_matrix_through_a_fifo(tmp_path, fifo,
                                                      capsys):
    path = pathlib.Path(write_xy_csv(tmp_path / "xy.csv"))
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = '"{}",{},{}'.format(*lines[1].split(","))
    on_file, on_fifo = run_on_file_and_fifo(
        tmp_path, fifo, capsys, ["fit"], "".join(lines).encode())
    assert on_fifo == on_file
    assert on_file[0] == 0 and set(on_file[2]) == {"fit.json", "fit_run.json"}


def _undecodable_at(lines, row):
    """The lines as bytes, with byte 0xff in line `row` (1-based)."""
    data = [line.encode() for line in lines]
    data[row - 1] = data[row - 1].replace(b"1", b"\xff", 1)
    return b"".join(data)


@needs_fifo
@pytest.mark.parametrize("command, data, row", [
    ("risk", _undecodable_at(["r\n"] + [f"1.{i}\n" for i in range(4000)],
                             3002), 3002),
    ("airquality", _undecodable_at(
        [AIR_HEADER.decode()] + [AIR_ROW.decode()] * 999, 419), 419),
], ids=["risk", "airquality"])
def test_fifo_names_the_row_of_a_byte_past_the_first_chunk(
        tmp_path, fifo, capsys, command, data, row):
    assert data.index(b"\xff") > 8192
    on_file, on_fifo = run_on_file_and_fifo(tmp_path, fifo, capsys,
                                            [command], data)
    assert on_fifo == on_file
    code, err, _ = on_file
    assert code == 2
    assert err.startswith(f"aqr {command}: parse error: byte 0xff is not")
    assert err.endswith(f" text (row {row})\n")


def test_config_with_a_byte_order_mark_runs_as_without_it(tmp_path):
    values = tmp_path / "r.csv"
    values.write_text("r\n" + "".join(f"{v / 7}\n" for v in range(60)))
    outputs = []
    for name, head in [("plain", b""), ("marked", BOM)]:
        out = tmp_path / name
        out.mkdir()
        cfg = out / "cfg.json"
        cfg.write_bytes(head + b'{"tau": 0.1, "family": {"kind": "ges"}}')
        assert main(["risk", str(values), "--config", str(cfg),
                     "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                        if p.name != "cfg.json"})
    assert outputs[0] == outputs[1]
    assert set(outputs[0]) == {"risk.json", "risk_run.json"}


SCIPY_ON_FIRST_USE = """
import sys
from aqr.cli import main

out, risk_csv, air_csv, air_cfg, compare_cfg = sys.argv[1:]
def scipy_modules():
    return [name for name in sys.modules if name.startswith("scipy")]
assert main(["risk", risk_csv, "--out", out]) == 0
assert main(["airquality", air_csv, "--config", air_cfg, "--out", out]) == 0
assert scipy_modules() == [], scipy_modules()
assert main(["compare", "--config", compare_cfg, "--out", out]) == 0
assert "scipy.integrate" in scipy_modules()
"""


def test_commands_load_scipy_only_on_first_use(tmp_path):
    # risk and airquality never call scipy; compare imports it when it
    # first integrates a population value
    risk_csv = tmp_path / "r.csv"
    risk_csv.write_text("r\n" + "\n".join(
        str(v) for v in np.random.default_rng(4).normal(0.0, 0.02, 100)))
    argv = [str(tmp_path), str(risk_csv), write_air_csv(tmp_path / "air.csv"),
            write_json(tmp_path / "air.json", {"taus": [0.2]}),
            write_json(tmp_path / "compare.json", {"taus": [0.9]})]
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", SCIPY_ON_FIRST_USE, *argv],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "compare.csv").exists()


def test_module_entry_point_reports_version():
    src = pathlib.Path(aqr.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-m", "aqr.cli", "--version"],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0
    assert aqr.__version__ in out.stdout
