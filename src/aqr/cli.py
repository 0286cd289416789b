"""Command line front end: config validation, CSV I/O, experiment dispatch.

COMMANDS states each command once: its help, its input files, its config
schema (each key's default is a JSON Schema `default` on the key) and its
handler; the parser, SCHEMAS and DEFAULTS are read off it. Every command
resolves its config (defaults, then the --config file, then the --seed
flag, which only the commands with a seed take) and checks it against its
schema and the rules the engines own before any input is read, then runs
one of the engines in experiments.py. Its handler writes no file: it
returns its outputs by name, and one writer, _write_outputs, puts them on
disk (tables as CSV, dicts as JSON) with a JSON run record carrying the
command name, seed, config hash, package version and the list of those
outputs. Outputs contain no timestamps, so a rerun with the same config
and seed is byte-identical. Exit codes: 0 success, 1 a validation or
analysis failure, 2 a usage, config or I/O error. A failure prints one line
to stderr.
"""

import argparse
import csv
import hashlib
import io
import json
import operator
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import experiments as ex
from .errors import AqrError, ParseError
from .families import KINDS, SCHEDULES, WeightFamily, omega
from .kernel_cde import Dataset
from .distributed import ShardPlan, partition
from .portfolio import DEFAULT_ITERATIONS, DEFAULT_STARTS, ReturnsMatrix
from .sample_risk import aqr_sample

_TAU_ITEM = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
_TAU_LIST = {"type": "array", "items": _TAU_ITEM, "minItems": 1}
_FAMILY = {
    "type": "object",
    "properties": {"kind": {"enum": [name for name, kind in KINDS.items()
                                     if kind.config]},
                   "a": {"type": "number"},
                   "schedule": {"enum": list(SCHEDULES)}},
    "required": ["kind"],
    "additionalProperties": False,
    "default": {"kind": "es"},
}
_SEED = {"type": "integer", "minimum": 0}
_PRESET = {"enum": ["desk", "paper"], "default": "desk"}
_REPS = {"type": "integer", "minimum": 1}
_MODE = {"enum": ["normalized", "raw"], "default": "normalized"}
_RATE_EXPONENT = {"type": "number", "exclusiveMinimum": 0,
                  "exclusiveMaximum": 0.5, "default": ex.INDEX_RATE_EXPONENT}


def _taus(default):
    return {**_TAU_LIST, "default": list(default)}


def _object(exclusive=None, **properties):
    """A config schema over the named keys; at most one of `exclusive`."""
    schema = {"type": "object", "properties": properties,
              "additionalProperties": False}
    if exclusive:
        schema["not"] = {"required": list(exclusive)}
    return schema


def config_schema(command):
    """The published JSON schema for one subcommand's config file."""
    return SCHEMAS[command]


class _SchemaError(AqrError):
    """A config value that its command's schema rejects."""


_KEYWORDS = {"type", "properties", "additionalProperties", "required", "enum",
             "minimum", "exclusiveMinimum", "exclusiveMaximum", "minItems",
             "items", "not", "default"}
_BOUNDS = (("minimum", operator.lt, "less than the minimum of"),
           ("exclusiveMinimum", operator.le,
            "less than or equal to the minimum of"),
           ("exclusiveMaximum", operator.ge,
            "greater than or equal to the maximum of"))


def _is(kind, value):
    """JSON Schema's `type`: a bool is no number, 5.0 is an integer."""
    if isinstance(value, bool):
        return kind == "boolean"
    if kind == "integer":
        return isinstance(value, int) or (isinstance(value, float)
                                          and value.is_integer())
    if kind == "number":
        return isinstance(value, (int, float))
    return isinstance(value, {"object": dict, "array": list, "string": str,
                              "boolean": bool}[kind])


def _checked(schema, value, path=()):
    """`value` checked against `schema`, with integer-typed values as ints.

    This implements only the keywords in _KEYWORDS, the ones COMMANDS'
    schemas use, as JSON Schema means them; an enum compares scalars the
    JSON way, so true is not 1. Any other keyword raises
    NotImplementedError, so a schema edit that needs more fails loudly. A
    rejected value raises _SchemaError, whose message starts with the
    key path when there is one.
    """
    unknown = schema.keys() - _KEYWORDS
    if schema.get("additionalProperties", False) is not False:
        unknown.add("additionalProperties")  # only false is implemented
    if unknown:
        raise NotImplementedError(f"config schema keywords {sorted(unknown)}")

    def fail(message):
        where = "/".join(map(str, path))
        raise _SchemaError(f"{where}: {message}" if where else message)

    kind = schema.get("type")
    if kind is not None and not _is(kind, value):
        fail(f"{value!r} is not of type {kind!r}")
    if kind == "integer":
        value = int(value)
    if "enum" in schema and not any(
            isinstance(value, bool) == isinstance(member, bool)
            and value == member for member in schema["enum"]):
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if _is("number", value):
        for key, breaks, text in _BOUNDS:
            if key in schema and breaks(value, schema[key]):
                fail(f"{value!r} is {text} {schema[key]!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            fail(f"{value!r} is too short")
        if "items" in schema:
            value = [_checked(schema["items"], item, path + (i,))
                     for i, item in enumerate(value)]
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                fail(f"{key!r} is a required property")
        extra = [key for key in value if key not in properties]
        if extra and "additionalProperties" in schema:
            fail(f"Additional properties are not allowed "
                 f"({', '.join(map(repr, extra))} "
                 f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        value = {key: _checked(properties[key], item, path + (key,))
                 if key in properties else item
                 for key, item in value.items()}
    if "not" in schema:
        try:
            _checked(schema["not"], value, path)
        except _SchemaError:
            pass
        else:
            fail(f"{value!r} should not be valid under {schema['not']!r}")
    return value


def _refuse_constant(token):
    """json.load's hook for NaN, Infinity and -Infinity, which JSON lacks."""
    raise _SchemaError(f"{token} is not a JSON number")


def _resolve_config(args):
    """Defaults, then the --config file, then the --seed flag, checked by
    the code that owns each rule, so a bad config fails before any input is
    read. The family is built here, once, and handed on as args.family."""
    command = COMMANDS[args.command]
    schema = command.schema
    config = dict(DEFAULTS[args.command])
    if args.config:
        with open(args.config) as fh:
            user = _checked(schema, json.load(
                fh, parse_constant=_refuse_constant))
        config.update(user)
        # of an exclusive pair (sizes or K, bandwidth or rate_exponent), the
        # key the file sets drops the other's default
        pair = schema.get("not", {}).get("required", [])
        for key, other in zip(pair, pair[::-1]):
            if key in user:
                config.pop(other, None)
    if command.preset_reps and "reps" not in config:
        config["reps"] = command.preset_reps[config["preset"]]
    if getattr(args, "seed", None) is not None:  # seeded commands only
        config.update(_checked(schema, {"seed": args.seed}))
    if "family" in config:
        args.family = WeightFamily.from_json(config["family"])
    if "n" in config and "K" in config:  # sim2: two or more rows per shard
        ShardPlan.even(config["n"], config["K"])
    return config


def _json_default(obj):
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return value


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _records(columns, records):
    """A CSV table of one row per record dict, its values in the order of
    columns."""
    return columns, [[r[c] for c in columns] for r in records]


def _write_outputs(args, config, report, files):
    """Write each output file, a dict as JSON and a (header, rows) pair as
    CSV, then the run record <command>_run.json; return the record's name."""
    blob = json.dumps(config, sort_keys=True, default=_json_default)
    record = {
        "command": args.command,
        "config": config,
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "seed": config.get("seed"),
        "version": __version__,
        "outputs": sorted(files),
        "report": report,
    }
    name = f"{args.command.replace('-', '_')}_run.json"
    for file, content in [*files.items(), (name, record)]:
        path = os.path.join(args.out, file)
        if isinstance(content, dict):
            _write_json(path, content)
        else:
            _write_csv(path, *content)
    return name


# ---------------------------------------------------------------------------
# CSV reader

_LOADTXT_SPACE = b"\x1c\x1d\x1e\x1f"


def _read_numeric_csv(path, column=False):
    """A numeric CSV file as (header, float array of rows by columns).

    A matrix file (column=False) starts with a header row, and every data
    row has as many fields. A column file has one value per line; its first
    line is its header when it is not a number, and the header is [] when
    there is none. One byte-order mark (U+FEFF) at the start of the file is
    dropped. Blank lines are skipped, a cell is a number when float() takes
    it (quoted cells too), and "#" starts no comment.

    np.loadtxt parses the file when it can. When it cannot, the per-cell
    loop reads the file again and returns the same array, or raises the
    ParseError that names the bad row and column.
    """
    with open(path, newline="") as fh:
        encoding, head, rest = (fh.encoding, fh.buffer.readline(),
                                fh.buffer.read())
    # loadtxt parses the bytes after the first line and decodes each line
    # with the file's encoding. It is skipped, or raises, wherever its
    # reading could differ from the loop's:
    # - it warns on an input without data lines;
    # - it strips "\x1c" to "\x1f" around a number, and float() does not;
    # - byte lines end only at b"\n", so a lone "\r" makes csv or loadtxt
    #   raise;
    # - a quote in a data line fails its number parse, and strict csv raises
    #   on a first record that runs past its line.
    table = None
    if rest.lstrip(b"\r\n") and not any(c in rest for c in _LOADTXT_SPACE):
        try:
            first = next(csv.reader([head.decode(encoding).removeprefix(
                "\ufeff")], strict=True))
            width = 1 if column else len(first)
            table = np.loadtxt(io.BytesIO(rest), delimiter=",", comments=None,
                               ndmin=2, dtype=float, encoding=encoding)
        except (csv.Error, ValueError):
            pass
    if table is not None and len(first) == width == table.shape[1]:
        if not column:
            return [c.strip() for c in first], table
        try:
            return [], np.concatenate(([[float(first[0])]], table))
        except ValueError:
            return first, table

    with open(path, newline="") as fh:
        reader = ex._csv_records(fh)
        if column:
            header, width, start = [], 1, 1
        else:
            try:
                header = [c.strip() for c in next(reader)]
            except StopIteration:
                raise ParseError("empty CSV", row=1) from None
            width, start = len(header), 2
        rows = []
        for i, rec in enumerate(reader, start=start):
            if not rec:
                continue
            if len(rec) != width:
                raise ParseError(f"expected {width} field"
                                 f"{'' if column else 's'}, got {len(rec)}",
                                 row=i)
            vals = []
            for j, cell in enumerate(rec, start=1):
                try:
                    vals.append(float(cell))
                except ValueError:
                    if not (column and i == 1):
                        raise ParseError(f"non-numeric value "
                                         f"{cell.strip()!r}",
                                         row=i, col=j) from None
                    header = rec
                    break
            else:
                rows.append(vals)
    if not rows:
        raise ParseError("no data rows", row=start)
    return header, np.array(rows)


# ---------------------------------------------------------------------------
# command handlers; each returns (exit code, report, {file name: content})

def _cmd_validate(args, config):
    report = ex.run_validate(violators=config["violators"])
    return (0 if report["all_passed"] else 1), report, {}


def _cmd_compare(args, config):
    out = ex.run_compare(taus=config["taus"])
    table = _records(["distribution", "domain", "family", "tau", "value",
                      "quantile", "limit_ratio"], out["rows"])
    report = {"rows": len(out["rows"]), "violations": out["violations"]}
    return (0 if not out["violations"] else 1), report, {"compare.csv": table}


def _cmd_sim1(args, config):
    out = ex.run_sim1(master_seed=config["seed"], reps=config["reps"],
                      n=config["n"], taus=config["taus"],
                      threads=args.threads)
    table = _records(["error", "family", "tau", "x0", "truth", "mean_rpad",
                      "sd_rpad"], out["cells"])
    report = {"n": out["n"], "reps": out["reps"],
              "worst_mean_rpad": max(c["mean_rpad"] for c in out["cells"])}
    return 0, report, {"sim1.csv": table}


def _cmd_sim2(args, config):
    out = ex.run_sim2(master_seed=config["seed"], reps=config["reps"],
                      n=config["n"], K=config["K"], taus=config["taus"],
                      threads=args.threads)
    files = {
        "sim2_aae.csv": (["method", "mean_aae", "sd_aae"],
                         [[m, out["aae"][m]["mean"], out["aae"][m]["sd"]]
                          for m in ("all", "de", "pilot")]),
        "sim2_rpad.csv": _records(["family", "tau", "method", "truth",
                                   "mean_rpad", "sd_rpad"], out["rpad"])}
    report = {k: out[k] for k in ("n", "K", "reps", "aae", "rounds")}
    if "k1_newton_path_gap" in out:
        report["k1_newton_path_gap"] = out["k1_newton_path_gap"]
    return 0, report, files


def _cmd_portfolio(args, config):
    header, table = _read_numeric_csv(args.fit_csv)
    fit_returns = ReturnsMatrix(table, labels=header)
    header, table = _read_numeric_csv(args.test_csv)
    test_returns = ReturnsMatrix(table, labels=header)
    _, bench = _read_numeric_csv(args.bench_csv, column=True)
    report = ex.run_portfolio(fit_returns, test_returns, bench[:, 0],
                              args.family, config["tau"],
                              starts=config["starts"],
                              iterations=config["iterations"],
                              seed=config["seed"], mode=config["mode"])
    return 0, report, {"portfolio.json": {
        k: report[k] for k in ("alpha", "risk", "SR", "PD")}}


def _cmd_airquality(args, config):
    y, X, shard_of, sites = ex.load_airquality(args.data_csv,
                                               winter=config["winter"])
    report = ex.run_airquality(y, X, shard_of, sites, taus=config["taus"])
    header = ["family"] + [f"tau_{t:g}" for t in report["taus"]]
    return 0, report, {
        f"airquality_{tag}.csv": (header, [[row["family"]] + row["values"]
                                           for row in report[tag]])
        for tag in ("full", "distributed", "deviation")}


def _load_xy_csv(path):
    header, table = _read_numeric_csv(path)
    if table.shape[1] < 2:
        raise ParseError("need a response column plus at least one covariate",
                         row=1)
    return header, Dataset(table[:, 0], table[:, 1:])


def _cmd_fit(args, config):
    header, data = _load_xy_csv(args.data_csv)
    model = ex.fit_pooled(data, config.get("rate_exponent"),
                          config.get("bandwidth"))
    report = dict(model.to_json(), covariates=header[1:], response=header[0])
    return 0, report, {"fit.json": report}


def _cmd_dist_fit(args, config):
    header, data = _load_xy_csv(args.data_csv)
    sizes = config.get("sizes")
    plan = ShardPlan(sizes) if sizes else ShardPlan.even(data.n, config["K"])
    pdata = partition(data, plan, seed=config["seed"])
    model, comm, _, h1 = ex.fit_sharded(pdata, config["rate_exponent"],
                                        config["rounds"])
    report = dict(model.to_json())
    report.update({"h1": h1, "K": plan.K, "sizes": list(plan.sizes),
                   "rounds": len(comm.rounds), "comm": comm.to_json(),
                   "covariates": header[1:], "response": header[0]})
    return 0, report, {"dist_fit.json": report}


def _cmd_risk(args, config):
    _, table = _read_numeric_csv(args.data_csv, column=True)
    # risk_sample is omega(tau) times aqr_sample; one call sorts once
    value = aqr_sample(table[:, 0], args.family, config["tau"],
                       mode=config["mode"])
    report = {"risk": omega(config["tau"]) * value, "value": value,
              "n": len(table), "family": args.family.label(),
              "tau": config["tau"], "mode": config["mode"]}
    return 0, report, {"risk.json": report}


class Command(NamedTuple):
    """One subcommand: its help, its positional input files as (name, help)
    pairs, its config schema (each key's default is the `default` of the
    key's property), and its handler, which returns (exit code, report,
    {file name: content}) and writes nothing; main writes the files."""
    help: str
    inputs: list
    schema: dict
    run: Callable
    preset_reps: dict = None


_XY_CSV = [("data_csv", "first column response, rest covariates")]
_VIOLATORS = [name for name, _ in ex.violator_families()]

COMMANDS = {
    "validate": Command(
        "check the weight-family axioms on the built-in roster", [],
        _object(violators={"type": "array", "default": [],
                           "items": {"type": "string", "enum": _VIOLATORS}}),
        _cmd_validate),
    "compare": Command(
        "population risk table across six distributions", [],
        # its ordering checks hold in the upper tail only
        _object(taus={**_taus(ex.COMPARE_TAUS),
                      "items": {**_TAU_ITEM, "exclusiveMinimum": 0.5}}),
        _cmd_compare),
    "sim1": Command(
        "replicated one-covariate estimation study", [],
        _object(seed={**_SEED, "default": 1}, preset=_PRESET, reps=_REPS,
                n={"type": "integer", "minimum": 20, "default": ex.SIM1_N},
                taus=_taus(ex.SIM1_TAUS)),
        _cmd_sim1, preset_reps={"desk": 100, "paper": 500}),
    "sim2": Command(
        "replicated pooled-versus-distributed index study", [],
        _object(seed={**_SEED, "default": 1}, preset=_PRESET, reps=_REPS,
                n={"type": "integer", "minimum": 20, "default": ex.SIM2_N},
                K={"type": "integer", "minimum": 1, "default": ex.SIM2_K},
                taus=_taus(ex.SIM2_TAUS)),
        _cmd_sim2, preset_reps={"desk": 30, "paper": 100}),
    "portfolio": Command(
        "optimize weights on a fit window, score on a test window",
        [("fit_csv", "asset returns for the fit window"),
         ("test_csv", "asset returns for the test window"),
         ("bench_csv", "single-column benchmark returns")],
        _object(family=_FAMILY, tau={**_TAU_ITEM, "default": 0.05},
                starts={"type": "integer", "minimum": 1,
                        "default": DEFAULT_STARTS},
                iterations={"type": "integer", "minimum": 1,
                            "default": DEFAULT_ITERATIONS},
                seed={**_SEED, "default": 0}, mode=_MODE),
        _cmd_portfolio),
    "airquality": Command(
        "site-sharded index study of a pollution table",
        [("data_csv", "hourly or daily site records")],
        _object(taus=_taus(ex.AIRQ_TAUS),
                winter={"type": "boolean", "default": True}),
        _cmd_airquality),
    "fit": Command(
        "fit the index model to a response-plus-covariates CSV", _XY_CSV,
        _object(("bandwidth", "rate_exponent"),
                bandwidth={"type": "number", "exclusiveMinimum": 0},
                rate_exponent=_RATE_EXPONENT),
        _cmd_fit),
    "dist-fit": Command(
        "sharded fit of the index model", _XY_CSV,
        _object(("K", "sizes"),
                K={"type": "integer", "minimum": 1, "default": 2},
                sizes={"type": "array", "minItems": 1,
                       "items": {"type": "integer", "minimum": 2}},
                rounds={"type": "integer", "minimum": 1, "default": None},
                seed={**_SEED, "default": 0}, rate_exponent=_RATE_EXPONENT),
        _cmd_dist_fit),
    "risk": Command(
        "sample risk of a single return column",
        [("data_csv", "single-column values")],
        _object(family=_FAMILY, tau={**_TAU_ITEM, "default": 0.05},
                mode=_MODE),
        _cmd_risk),
}
SCHEMAS = {name: command.schema for name, command in COMMANDS.items()}
DEFAULTS = {name: {key: prop["default"]
                   for key, prop in schema["properties"].items()
                   if "default" in prop}
            for name, schema in SCHEMAS.items()}


def _thread_count(text):
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aqr",
        description="Quantile-weighted regression functionals and risk "
                    "measures: validation suites, simulation studies, and "
                    "fitting tools.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        q = sub.add_parser(name, help=command.help)
        q.add_argument("--config", metavar="PATH",
                       help="JSON config file (schema-checked)")
        if "seed" in command.schema["properties"]:
            q.add_argument("--seed", metavar="U64", type=int,
                           help="override the config seed")
        q.add_argument("--out", metavar="DIR", default=".",
                       help="output directory (must exist)")
        q.add_argument("--threads", metavar="N", type=_thread_count,
                       default=1,
                       help="worker processes for replicated runs")
        for dest, help_text in command.inputs:
            q.add_argument(dest, help=help_text)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError,
            AqrError) as exc:
        print(f"aqr {args.command}: config error: {exc}", file=sys.stderr)
        return 2
    try:
        code, report, files = COMMANDS[args.command].run(args, config)
        record = _write_outputs(args, config, report, files)
    except ParseError as exc:
        where = f" (row {exc.row}" + (f", col {exc.col})" if exc.col
                                      else ")")
        print(f"aqr {args.command}: parse error: {exc}{where}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"aqr {args.command}: i/o error: {exc}", file=sys.stderr)
        return 2
    except AqrError as exc:
        print(f"aqr {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    if code:
        print(f"aqr {args.command}: checks failed; see {record}",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
