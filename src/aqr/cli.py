"""Command line front end: config validation, CSV I/O, experiment dispatch.

Every command resolves its config (defaults, then the --config file, then
the --seed flag), validates it against a published JSON schema, runs one of
the engines in experiments.py, and writes its tables as CSV plus a JSON run
record carrying the command name, seed, config hash and package version.
Outputs contain no timestamps, so a rerun with the same config and seed is
byte-identical. Exit codes: 0 success, 1 a validation or analysis failure,
2 a usage or I/O error.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import sys

import jsonschema
import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from . import __version__
from . import experiments as ex
from .errors import AqrError, ParseError
from .families import WeightFamily, omega
from .kernel_cde import Dataset
from .distributed import ShardPlan, partition
from .portfolio import DEFAULT_ITERATIONS, DEFAULT_STARTS, ReturnsMatrix
from .sample_risk import aqr_sample

_TAU_ITEM = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
_TAU_LIST = {"type": "array", "items": _TAU_ITEM, "minItems": 1}
_FAMILY = {
    "type": "object",
    "properties": {"kind": {"type": "string"}, "a": {"type": "number"},
                   "schedule": {"type": "string"}},
    "required": ["kind"],
    "additionalProperties": False,
}
_SEED = {"type": "integer", "minimum": 0}

SCHEMAS = {
    "validate": {
        "type": "object",
        "properties": {
            "violators": {"type": "array", "items": {"type": "string"}},
        },
        "additionalProperties": False,
    },
    "compare": {
        "type": "object",
        "properties": {"taus": _TAU_LIST},
        "additionalProperties": False,
    },
    "sim1": {
        "type": "object",
        "properties": {
            "seed": _SEED,
            "preset": {"enum": ["desk", "paper"]},
            "reps": {"type": "integer", "minimum": 1},
            "n": {"type": "integer", "minimum": 20},
            "taus": _TAU_LIST,
        },
        "additionalProperties": False,
    },
    "sim2": {
        "type": "object",
        "properties": {
            "seed": _SEED,
            "preset": {"enum": ["desk", "paper"]},
            "reps": {"type": "integer", "minimum": 1},
            "n": {"type": "integer", "minimum": 20},
            "K": {"type": "integer", "minimum": 1},
            "taus": _TAU_LIST,
        },
        "additionalProperties": False,
    },
    "portfolio": {
        "type": "object",
        "properties": {
            "family": _FAMILY,
            "tau": _TAU_ITEM,
            "starts": {"type": "integer", "minimum": 1},
            "iterations": {"type": "integer", "minimum": 1},
            "seed": _SEED,
            "mode": {"enum": ["normalized", "raw"]},
        },
        "additionalProperties": False,
    },
    "airquality": {
        "type": "object",
        "properties": {
            "taus": _TAU_LIST,
            "winter": {"type": "boolean"},
        },
        "additionalProperties": False,
    },
    "fit": {
        "type": "object",
        "properties": {
            "bandwidth": {"type": "number", "exclusiveMinimum": 0},
            "rate_exponent": {"type": "number", "exclusiveMinimum": 0,
                              "exclusiveMaximum": 0.5},
        },
        "additionalProperties": False,
        "not": {"required": ["bandwidth", "rate_exponent"]},
    },
    "dist-fit": {
        "type": "object",
        "properties": {
            "K": {"type": "integer", "minimum": 1},
            "sizes": {"type": "array",
                      "items": {"type": "integer", "minimum": 2},
                      "minItems": 1},
            "rounds": {"type": "integer", "minimum": 1},
            "seed": _SEED,
            "rate_exponent": {"type": "number", "exclusiveMinimum": 0,
                              "exclusiveMaximum": 0.5},
        },
        "additionalProperties": False,
        "not": {"required": ["K", "sizes"]},
    },
    "risk": {
        "type": "object",
        "properties": {
            "family": _FAMILY,
            "tau": _TAU_ITEM,
            "mode": {"enum": ["normalized", "raw"]},
        },
        "additionalProperties": False,
    },
}

DEFAULTS = {
    "validate": {"violators": []},
    "compare": {"taus": list(ex.COMPARE_TAUS)},
    "sim1": {"seed": 1, "preset": "desk", "n": ex.SIM1_N,
             "taus": list(ex.SIM1_TAUS)},
    "sim2": {"seed": 1, "preset": "desk", "n": ex.SIM2_N, "K": ex.SIM2_K,
             "taus": list(ex.SIM2_TAUS)},
    "portfolio": {"family": {"kind": "es"}, "tau": 0.05,
                  "starts": DEFAULT_STARTS, "iterations": DEFAULT_ITERATIONS,
                  "seed": 0, "mode": "normalized"},
    "airquality": {"taus": list(ex.AIRQ_TAUS), "winter": True},
    "fit": {"rate_exponent": ex.INDEX_RATE_EXPONENT},
    "dist-fit": {"K": 2, "rounds": None, "seed": 0,
                 "rate_exponent": ex.INDEX_RATE_EXPONENT},
    "risk": {"family": {"kind": "es"}, "tau": 0.05, "mode": "normalized"},
}

PRESET_REPS = {
    "sim1": {"desk": 100, "paper": 500},
    "sim2": {"desk": 30, "paper": 100},
}


def config_schema(command):
    """The published JSON schema for one subcommand's config file."""
    return SCHEMAS[command]


def _resolve_config(args):
    command = args.command
    config = dict(DEFAULTS[command])
    if args.config:
        with open(args.config) as fh:
            user = json.load(fh)
        # jsonschema.validate without its check_schema pass, which re-checks
        # our constant schemas on every call; the tests check them once.
        schema = SCHEMAS[command]
        error = best_match(validator_for(schema)(schema).iter_errors(user))
        if error is not None:
            raise error
        config.update(user)
        # an explicit value fixes what a default would contradict: shard
        # sizes fix K, and a fixed bandwidth needs no rate exponent
        for key, default in (("sizes", "K"), ("bandwidth", "rate_exponent")):
            if key in user:
                del config[default]
    if command in PRESET_REPS and "reps" not in config:
        config["reps"] = PRESET_REPS[command][config["preset"]]
    if args.seed is not None and "seed" in config:
        config["seed"] = args.seed
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


def _write_run(args, config, report, outputs):
    blob = json.dumps(config, sort_keys=True, default=_json_default)
    record = {
        "command": args.command,
        "config": config,
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "seed": config.get("seed"),
        "version": __version__,
        "outputs": sorted(outputs),
        "report": report,
    }
    path = os.path.join(args.out, f"{args.command.replace('-', '_')}_run.json")
    _write_json(path, record)


# ---------------------------------------------------------------------------
# CSV reader

_LOADTXT_SPACE = b"\x1c\x1d\x1e\x1f"


def _read_numeric_csv(path, column=False):
    """A numeric CSV file as (header, float array of rows by columns).

    A matrix file (column=False) starts with a header row, and every data
    row has as many fields. A column file has one value per line; its first
    line is its header when it is not a number, and the header is [] when
    there is none. Blank lines are skipped, a cell is a number when float()
    takes it (quoted cells too), and "#" starts no comment.

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
            first = next(csv.reader([head.decode(encoding)], strict=True))
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
        reader = csv.reader(fh)
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
# command handlers; each returns (exit_code, report, extra output names)

def _cmd_validate(args, config):
    report = ex.run_validate(violators=config["violators"])
    return (0 if report["all_passed"] else 1), report, []


def _cmd_compare(args, config):
    out = ex.run_compare(taus=config["taus"])
    name = "compare.csv"
    _write_csv(os.path.join(args.out, name),
               ["distribution", "domain", "family", "tau", "value",
                "quantile", "limit_ratio"],
               [[r["distribution"], r["domain"], r["family"], r["tau"],
                 r["value"], r["quantile"], r["limit_ratio"]]
                for r in out["rows"]])
    report = {"rows": len(out["rows"]), "violations": out["violations"]}
    return (0 if not out["violations"] else 1), report, [name]


def _cmd_sim1(args, config):
    out = ex.run_sim1(master_seed=config["seed"], reps=config["reps"],
                      n=config["n"], taus=config["taus"],
                      threads=args.threads)
    name = "sim1.csv"
    _write_csv(os.path.join(args.out, name),
               ["error", "family", "tau", "x0", "truth", "mean_rpad",
                "sd_rpad"],
               [[c["error"], c["family"], c["tau"], c["x0"], c["truth"],
                 c["mean_rpad"], c["sd_rpad"]] for c in out["cells"]])
    report = {"n": out["n"], "reps": out["reps"],
              "worst_mean_rpad": max(c["mean_rpad"] for c in out["cells"])}
    return 0, report, [name]


def _cmd_sim2(args, config):
    out = ex.run_sim2(master_seed=config["seed"], reps=config["reps"],
                      n=config["n"], K=config["K"], taus=config["taus"],
                      threads=args.threads)
    aae_name, rpad_name = "sim2_aae.csv", "sim2_rpad.csv"
    _write_csv(os.path.join(args.out, aae_name),
               ["method", "mean_aae", "sd_aae"],
               [[m, out["aae"][m]["mean"], out["aae"][m]["sd"]]
                for m in ("all", "de", "pilot")])
    _write_csv(os.path.join(args.out, rpad_name),
               ["family", "tau", "method", "truth", "mean_rpad", "sd_rpad"],
               [[r["family"], r["tau"], r["method"], r["truth"],
                 r["mean_rpad"], r["sd_rpad"]] for r in out["rpad"]])
    report = {k: out[k] for k in ("n", "K", "reps", "aae", "rounds")}
    if "k1_newton_path_gap" in out:
        report["k1_newton_path_gap"] = out["k1_newton_path_gap"]
    return 0, report, [aae_name, rpad_name]


def _cmd_portfolio(args, config):
    header, table = _read_numeric_csv(args.fit_csv)
    fit_returns = ReturnsMatrix(table, labels=header)
    header, table = _read_numeric_csv(args.test_csv)
    test_returns = ReturnsMatrix(table, labels=header)
    _, bench = _read_numeric_csv(args.bench_csv, column=True)
    family = WeightFamily.from_json(config["family"])
    report = ex.run_portfolio(fit_returns, test_returns, bench[:, 0], family,
                              config["tau"], starts=config["starts"],
                              iterations=config["iterations"],
                              seed=config["seed"], mode=config["mode"])
    name = "portfolio.json"
    _write_json(os.path.join(args.out, name),
                {k: report[k] for k in ("alpha", "risk", "SR", "PD")})
    return 0, report, [name]


def _cmd_airquality(args, config):
    y, X, shard_of, sites = ex.load_airquality(args.data_csv,
                                               winter=config["winter"])
    report = ex.run_airquality(y, X, shard_of, sites, taus=config["taus"])
    header = ["family"] + [f"tau_{t:g}" for t in report["taus"]]
    names = []
    for tag in ("full", "distributed", "deviation"):
        name = f"airquality_{tag}.csv"
        _write_csv(os.path.join(args.out, name), header,
                   [[row["family"]] + row["values"] for row in report[tag]])
        names.append(name)
    return 0, report, names


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
    report = dict(model.to_json())
    report["covariates"] = header[1:]
    report["response"] = header[0]
    name = "fit.json"
    _write_json(os.path.join(args.out, name), report)
    return 0, report, [name]


def _cmd_dist_fit(args, config):
    header, data = _load_xy_csv(args.data_csv)
    sizes = config.get("sizes")
    plan = (ShardPlan(len(sizes), sizes) if sizes
            else ShardPlan.even(data.n, config["K"]))
    pdata = partition(data, plan, seed=config["seed"])
    model, comm, _, h1 = ex.fit_sharded(pdata, plan, config["rate_exponent"],
                                        config["rounds"])
    report = dict(model.to_json())
    report.update({"h1": h1.h, "K": plan.K, "sizes": list(plan.sizes),
                   "rounds": len(comm.rounds), "comm": comm.to_json(),
                   "covariates": header[1:], "response": header[0]})
    name = "dist_fit.json"
    _write_json(os.path.join(args.out, name), report)
    return 0, report, [name]


def _cmd_risk(args, config):
    _, table = _read_numeric_csv(args.data_csv, column=True)
    family = WeightFamily.from_json(config["family"])
    # risk_sample is omega(tau) times aqr_sample; one call sorts once
    value = aqr_sample(table[:, 0], family, config["tau"], mode=config["mode"])
    report = {
        "risk": omega(config["tau"]) * value,
        "value": value,
        "n": len(table),
        "family": family.label(),
        "tau": config["tau"],
        "mode": config["mode"],
    }
    name = "risk.json"
    _write_json(os.path.join(args.out, name), report)
    return 0, report, [name]


_HANDLERS = {
    "validate": _cmd_validate,
    "compare": _cmd_compare,
    "sim1": _cmd_sim1,
    "sim2": _cmd_sim2,
    "portfolio": _cmd_portfolio,
    "airquality": _cmd_airquality,
    "fit": _cmd_fit,
    "dist-fit": _cmd_dist_fit,
    "risk": _cmd_risk,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aqr",
        description="Quantile-weighted regression functionals and risk "
                    "measures: validation suites, simulation studies, and "
                    "fitting tools.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", metavar="PATH",
                       help="JSON config file (schema-checked)")
        q.add_argument("--seed", metavar="U64", type=int,
                       help="override the config seed")
        q.add_argument("--out", metavar="DIR", default=".",
                       help="output directory (must exist)")
        q.add_argument("--threads", metavar="N", type=int, default=1,
                       help="worker processes for replicated runs")
        return q

    add("validate", "check the weight-family axioms on the built-in roster")
    add("compare", "population risk table across six distributions")
    add("sim1", "replicated one-covariate estimation study")
    add("sim2", "replicated pooled-versus-distributed index study")
    q = add("portfolio", "optimize weights on a fit window, score on a test "
                         "window")
    q.add_argument("fit_csv", help="asset returns for the fit window")
    q.add_argument("test_csv", help="asset returns for the test window")
    q.add_argument("bench_csv", help="single-column benchmark returns")
    q = add("airquality", "site-sharded index study of a pollution table")
    q.add_argument("data_csv", help="hourly or daily site records")
    q = add("fit", "fit the index model to a response-plus-covariates CSV")
    q.add_argument("data_csv", help="first column response, rest covariates")
    q = add("dist-fit", "sharded fit of the index model")
    q.add_argument("data_csv", help="first column response, rest covariates")
    q = add("risk", "sample risk of a single return column")
    q.add_argument("data_csv", help="single-column values")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
    except (OSError, json.JSONDecodeError,
            jsonschema.ValidationError, AqrError) as exc:
        print(f"aqr {args.command}: config error: {exc}", file=sys.stderr)
        return 2
    try:
        code, report, outputs = _HANDLERS[args.command](args, config)
        _write_run(args, config, report, outputs)
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
    return code


if __name__ == "__main__":
    sys.exit(main())
