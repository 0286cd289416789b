"""Outside-in benchmark of the aqr command line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory and from nowhere else. Every workload is a fixed set of
``aqr`` commands (see workloads.py and NOTES.md), driven in-process through
``aqr.cli.main`` with ``--threads 1`` on inputs generated from the seed.

With ``--trace 0`` the commands run untraced, pass after pass, until S
seconds have gone by (at least two passes), and the last line of standard
output is the end-to-end result: the mean pass time ``wall_s``, the median
set-up time ``setup_s`` over fresh interpreters, and the process's peak
resident memory ``peak_rss_mb``. With ``--trace 1`` half the time runs
untraced and half traced by the span recorder in spans.py, and the last line
carries the per-layer metrics instead. The line before it holds the samples,
the machine record and any check failures. Output files of every pass must
be byte-identical and pass the workload's checks; those run after timing.
"""

import argparse
import contextlib
import ctypes
import glob
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
SETUP_SAMPLES = 3
# Named here rather than read from workloads.py: importing that module loads
# numpy, whose import time belongs to the set-up a probe measures.
WORKLOAD_NAMES = ("sim2", "sim1", "portfolio_risk", "airquality")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def import_package():
    """Import aqr from this checkout's src directory, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "aqr", "__init__.py")):
        raise SystemExit(f"run.py: no aqr sources under {SRC}")
    sys.path.insert(0, SRC)
    import aqr
    import aqr.cli
    if not os.path.abspath(aqr.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"run.py: aqr imported from {aqr.__file__}, "
                         f"not from {SRC}")
    return aqr


def setup_probe(workload, seed, directory):
    """One set-up sample, timed inside a fresh interpreter: import aqr,
    generate the inputs from the seed and write them."""
    start = time.perf_counter()
    import_package()
    import workloads
    os.makedirs(directory)
    workloads.WORKLOADS[workload].generate(seed, directory)
    print(repr(time.perf_counter() - start))


def setup_samples(workload, seed, run_dir):
    samples = []
    for i in range(SETUP_SAMPLES):
        directory = os.path.join(run_dir, f"setup{i}")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--dir", directory],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
        shutil.rmtree(directory)
    return samples


def _blas_threads():
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def _caches():
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def machine_record(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "caches": _caches(),
        "seed": seed,
    }


class CaptureComm:
    """Keeps the CommReport of every run_distributed call the experiment
    engines make; the checks compare it with the protocol's tally."""

    def __enter__(self):
        self.module = sys.modules["aqr.experiments"]
        self.original = self.module.run_distributed
        self.reports = []

        def capture(*args, **kwargs):
            model, comm = self.original(*args, **kwargs)
            self.reports.append(comm)
            return model, comm

        self.module.run_distributed = capture
        return self

    def __exit__(self, *exc):
        self.module.run_distributed = self.original
        return False


def run_pass(aqr, commands, capture_comm, recorder=None):
    """Run one pass of the workload's commands; returns
    (wall seconds, cpu seconds, exit codes, captured CommReports, errors)."""
    codes, errors = [], []
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(recorder)
        capture = stack.enter_context(CaptureComm()) if capture_comm else None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for argv in commands:
            try:
                codes.append(aqr.cli.main(argv))
            except Exception:
                codes.append(None)
                errors.append(traceback.format_exc())
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    return wall, cpu, codes, capture.reports if capture else [], errors


def _tree(directory):
    files = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, directory)] = fh.read()
    return files


def timed_passes(aqr, workload, in_dir, out_root, seconds, capture_comm,
                 traced=False, first_index=0, minimum=1):
    """Passes until `seconds` elapse (at least `minimum`)."""
    passes = []
    start = time.perf_counter()
    while True:
        out_dir = os.path.join(out_root, f"pass{first_index + len(passes)}")
        os.makedirs(out_dir)
        commands = workload.commands(in_dir, out_dir)
        recorder = spans.Recorder() if traced else None
        wall, cpu, codes, comm, errors = run_pass(aqr, commands,
                                                  capture_comm, recorder)
        passes.append({"dir": out_dir, "wall": wall, "cpu": cpu,
                       "codes": codes, "comm": comm, "errors": errors,
                       "spans": recorder.spans if traced else None})
        if (time.perf_counter() - start >= seconds
                and len(passes) >= minimum):
            return passes


def check_passes(workload, inputs, passes, facts):
    """Failure messages: exit codes, byte identity across passes, and the
    workload's own checks on the first pass's outputs."""
    fails = []
    for i, p in enumerate(passes):
        fails += [f"pass {i}: {e}" for e in p["errors"]]
        fails += [f"pass {i}: command {j} exited {c}"
                  for j, c in enumerate(p["codes"]) if c != 0]
    reference = _tree(passes[0]["dir"])
    for i, p in enumerate(passes[1:], start=1):
        if _tree(p["dir"]) != reference:
            fails.append(f"pass {i}: outputs differ from pass 0")
    if all(c == 0 for c in passes[0]["codes"]):
        try:
            fails += workload.check(inputs, passes[0]["dir"],
                                    passes[0]["comm"], facts)
        except Exception:
            fails.append("check raised: " + traceback.format_exc())
    return fails


def per_layer_metrics(plain, traced, facts):
    """Per-layer metrics: median times over the traced passes, counts of
    the first traced pass, and the process figures."""
    import aqr.kernel_cde
    import aqr.single_index
    grid_size = inspect.signature(
        aqr.kernel_cde.default_bandwidth_grid).parameters["size"].default
    timings = [spans.timing_metrics(p["spans"]) for p in traced]
    metrics = {k: timings[0][k] if k.endswith(".calls")
               else statistics.median(t[k] for t in timings)
               for k in timings[0]}
    counts = [spans.count_metrics(p["spans"], grid_size) for p in traced]
    metrics.update(counts[0])
    iterations = metrics.pop("portfolio.iterations")
    metrics["portfolio.iterations_per_s"] = (
        iterations / metrics["portfolio.optimize_weights.s"]
        if iterations else 0.0)
    metrics["single_index.tangent_grad_max"] = spans.tangent_grad_max(
        traced[0]["spans"], aqr.single_index.psis_gradient)
    metrics["portfolio.lp_gap_rel"] = facts.get("lp_gap_rel", 0.0)
    metrics["process.cpu_s"] = statistics.median(p["cpu"] for p in plain)
    metrics["process.tracing_overhead_s"] = (
        statistics.median(p["wall"] for p in traced)
        - statistics.median(p["wall"] for p in plain))
    repeat = all(c == counts[0] for c in counts[1:]) and all(
        t[k] == timings[0][k] for t in timings for k in t
        if k.endswith(".calls"))
    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit, _ in spans.metric_units()}
    return out, repeat


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.dir)
        return 0

    aqr = import_package()
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    capture_comm = args.workload in workloads.CAPTURES_COMM
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    in_dir = os.path.join(run_dir, "in")
    out_root = os.path.join(run_dir, "out")
    os.makedirs(in_dir)
    inputs = workload.generate(args.seed, in_dir)

    details = {"workload": args.workload, "trace": args.trace,
               "machine": machine_record(args.seed)}
    if args.trace == 0:
        setup = setup_samples(args.workload, args.seed, run_dir)
        checked = timed_passes(aqr, workload, in_dir, out_root, args.seconds,
                               capture_comm, minimum=2)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        plain = timed_passes(aqr, workload, in_dir, out_root,
                             args.seconds / 2.0, capture_comm)
        traced = timed_passes(aqr, workload, in_dir, out_root,
                              args.seconds / 2.0, capture_comm, traced=True,
                              first_index=len(plain))
        checked = plain + traced

    facts = {}
    fails = check_passes(workload, inputs, checked, facts)
    if args.trace == 0:
        walls = [p["wall"] for p in checked]
        # The mean, not the median: the host's speed switches between slow
        # and fast phases, and a median over a run's passes jumps to
        # whichever phase held most of them.
        values = {"wall_s": statistics.fmean(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_mib}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        details["samples"] = {"wall_s": walls, "setup_s": setup}
    else:
        metrics, repeat = per_layer_metrics(plain, traced, facts)
        details["samples"] = {"untraced_wall_s": [p["wall"] for p in plain],
                              "traced_wall_s": [p["wall"] for p in traced]}
        details["counts_repeat_across_passes"] = repeat
        details["computed_counts"] = list(spans.COMPUTED)
        with open(os.path.join(run_dir, "spans.json"), "w") as fh:
            json.dump([{"pass": i, "spans": [s.to_json() for s in p["spans"]]}
                       for i, p in enumerate(traced)], fh)
    attempted = sum(len(p["codes"]) for p in checked)
    failed = min(attempted, len(fails))
    details["checked"] = facts
    details["failures"] = fails
    shutil.rmtree(in_dir)
    shutil.rmtree(out_root)
    with open(os.path.join(run_dir, "details.json"), "w") as fh:
        json.dump(details, fh, indent=2)
    print(json.dumps(details))
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
