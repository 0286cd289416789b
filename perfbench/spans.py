"""Outside-in span recorder for the traced run, and the per-layer metrics.

The recorder wraps public functions of the aqr package from outside: for
every listed function it replaces the attribute in each aqr module namespace
that holds that very function object (the defining module, modules that
imported it with ``from .x import f``, and the package's re-exports), so
calls are caught whichever name the caller uses. Spans stay in memory; the
caller writes them out when the run ends.
"""

import math
import sys
import time

# (layer, function) pairs wrapped in the traced run. The layer is the
# defining module's short name and prefixes every metric of the function.
TIMED = [
    ("single_index", "fit_full"),
    ("single_index", "psis_objective"),
    ("single_index", "psis_gradient"),
    ("single_index", "psis_hessian"),
    ("distributed", "run_distributed"),
    ("distributed", "local_init"),
    ("distributed", "newton_round"),
    ("kernel_cde", "cv_bandwidth"),
    ("kernel_cde", "cde_curve"),
    ("estimator", "aqr_conditional"),
    ("oracle", "population_aqr"),
    ("experiments", "average_aqr_values"),
    ("experiments", "load_airquality"),
    ("portfolio", "optimize_weights"),
    ("portfolio", "project_simplex"),
    ("sample_risk", "risk_sample"),
    ("cli", "main"),
]

# Functions reported by self time only.
SELF_ONLY = [
    ("experiments", "run_sim1"),
    ("experiments", "run_sim2"),
    ("experiments", "run_portfolio"),
    ("experiments", "run_airquality"),
]

MIB = 1024.0 * 1024.0


def _data_shape(args, kwargs):
    data = args[0] if args else kwargs["data"]
    return data.n, data.p


def _note_psis(args, kwargs, result):
    n, p = _data_shape(args, kwargs)
    return (n, p, result if isinstance(result, float) else None)


def _note_fit(args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    h = args[1] if len(args) > 1 else kwargs["h"]
    return (data, h, result.beta)


def _note_cv(args, kwargs, result):
    n, _ = _data_shape(args, kwargs)
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    return (n, None if grid is None else len(grid))


def _note_curve(args, kwargs, result):
    n, _ = _data_shape(args, kwargs)
    return (n, int(result.knots.size))


def _note_comm(args, kwargs, result):
    return result[1]


def _note_weights(args, kwargs, result):
    return dict(result.diagnostics or {})


NOTES = {
    "psis_objective": _note_psis,
    "psis_gradient": _note_psis,
    "psis_hessian": _note_psis,
    "fit_full": _note_fit,
    "cv_bandwidth": _note_cv,
    "cde_curve": _note_curve,
    "run_distributed": _note_comm,
    "optimize_weights": _note_weights,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "note")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.note = None

    def to_json(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op}


def _holders(original):
    """Every (module, attribute) in the aqr package bound to `original`."""
    out = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "aqr"
                                  or mod_name.startswith("aqr.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                out.append((module, attr))
    return out


class Recorder:
    """Wraps the listed functions while installed; one op id per CLI call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._patched = []

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:
                self._op += 1
            span = Span(name, 0.0, stack[-1] if stack else None, self._op)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        import aqr  # noqa: F401  (loads every aqr module into sys.modules)
        for layer, name in TIMED + SELF_ONLY:
            module = sys.modules[f"aqr.{layer}"]
            original = getattr(module, name)
            wrapper = self._wrap(name, original)
            for holder, attr in _holders(original):
                setattr(holder, attr, wrapper)
                self._patched.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# Derived per-layer metrics: (name, unit, better).
DERIVED = [
    ("single_index.objective_evals_per_fit", "count/fit", "lower"),
    ("single_index.newton_iters_per_fit", "count/fit", "lower"),
    ("single_index.linesearch_accept_ratio", "ratio", "higher"),
    ("single_index.pair_evals", "count", "lower"),
    ("single_index.hessian_tensor_mb", "MiB", "lower"),
    ("single_index.tangent_grad_max", "1", "lower"),
    ("distributed.pilot_fits_per_run", "count/run", "lower"),
    ("distributed.scalars_sent", "count", "lower"),
    ("distributed.messages", "count", "lower"),
    ("distributed.sstat_scalars", "count", "lower"),
    ("distributed.setup_scalars", "count", "lower"),
    ("kernel_cde.pair_evals", "count", "lower"),
    ("portfolio.iterations_per_s", "1/s", "higher"),
    ("portfolio.lp_gap_rel", "ratio", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("process.tracing_overhead_s", "s", "lower"),
]


# Counts computed from array sizes rather than counted at a call.
COMPUTED = ("single_index.pair_evals", "single_index.hessian_tensor_mb",
            "kernel_cde.pair_evals")


def metric_units():
    """(name, unit, better) for every per-layer metric."""
    out = []
    for layer, fn in TIMED:
        out += [(f"{layer}.{fn}.calls", "count", "lower"),
                (f"{layer}.{fn}.s", "s", "lower"),
                (f"{layer}.{fn}.self_s", "s", "lower")]
    out += [(f"{layer}.{fn}.self_s", "s", "lower") for layer, fn in SELF_ONLY]
    return out + DERIVED


def _ratio(num, den):
    return num / den if den else 0.0


def _ancestor(spans, span, name):
    """Index of the nearest enclosing span called `name`, or None."""
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return parent
        parent = spans[parent].parent
    return None


def timing_metrics(spans):
    """calls, total and self time per wrapped function for one pass."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out = {}
    for i, span in enumerate(spans):
        dur = span.end - span.start
        row = out.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_time[i]
    metrics = {}
    for layer, fn in TIMED:
        calls, total, self_s = out.get(fn, (0, 0.0, 0.0))
        metrics[f"{layer}.{fn}.calls"] = calls
        metrics[f"{layer}.{fn}.s"] = total
        metrics[f"{layer}.{fn}.self_s"] = self_s
    for layer, fn in SELF_ONLY:
        metrics[f"{layer}.{fn}.self_s"] = out.get(fn, (0, 0.0, 0.0))[2]
    return metrics


def count_metrics(spans, default_grid_size):
    """Counters derived from call nesting and return values (exact repeats)."""
    fits = [i for i, s in enumerate(spans) if s.name == "fit_full"]
    evals = {i: [] for i in fits}
    hessians = 0
    pair_evals = 0
    tensor_mb = 0.0
    kernel_pairs = 0
    pilots = 0
    runs = []
    projections = 0
    starts = 0
    for span in spans:
        if span.name in ("psis_objective", "psis_gradient", "psis_hessian"):
            n, p, value = span.note
            pair_evals += n * n
            owner = _ancestor(spans, span, "fit_full")
            if span.name == "psis_objective" and owner is not None:
                evals[owner].append(value)
            elif span.name == "psis_hessian":
                tensor_mb = max(tensor_mb, n * n * p * 8 / MIB)
                if owner is not None:
                    hessians += 1
        elif span.name == "cv_bandwidth":
            n, grid = span.note
            kernel_pairs += (default_grid_size if grid is None else grid) * n * n
        elif span.name == "cde_curve":
            n, knots = span.note
            kernel_pairs += n * knots
        elif span.name == "local_init":
            pilots += 1
        elif span.name == "run_distributed":
            runs.append(span.note)
        elif span.name == "project_simplex":
            if _ancestor(spans, span, "optimize_weights") is not None:
                projections += 1
        elif span.name == "optimize_weights":
            starts += span.note.get("starts", 0)
    attempts = accepted = 0
    for values in evals.values():
        # the first evaluation of a fit is its starting value; every later
        # one is a line-search trial, accepted when it beats the running
        # value (the line search returns on its first strict decrease)
        current = values[0] if values else math.inf
        for value in values[1:]:
            attempts += 1
            if value < current:
                accepted += 1
                current = value
    n_evals = sum(len(v) for v in evals.values())
    return {
        "single_index.objective_evals_per_fit": _ratio(n_evals, len(fits)),
        "single_index.newton_iters_per_fit": _ratio(hessians, len(fits)),
        "single_index.linesearch_accept_ratio": _ratio(accepted, attempts),
        "single_index.pair_evals": pair_evals,
        "single_index.hessian_tensor_mb": tensor_mb,
        "distributed.pilot_fits_per_run": _ratio(pilots, len(runs)),
        "distributed.scalars_sent": sum(c.total for c in runs),
        "distributed.messages": sum(r.messages for c in runs
                                    for r in c.rounds),
        "distributed.sstat_scalars": sum(r.sstat_scalars for c in runs
                                         for r in c.rounds),
        "distributed.setup_scalars": sum(c.setup_scalars for c in runs),
        "kernel_cde.pair_evals": kernel_pairs,
        "portfolio.iterations": projections - starts,
    }


def tangent_grad_max(spans, gradient):
    """Largest tangential-gradient entry over every direction fit_full
    returned, recomputed with the unwrapped gradient after the pass."""
    # imported here: run.py imports this module before a set-up probe starts
    # its clock, and numpy's import time belongs to the set-up
    import numpy as np
    worst = 0.0
    for span in spans:
        if span.name != "fit_full":
            continue
        data, h, beta = span.note
        if data.p == 1:
            continue
        g = gradient(data, beta, h)
        tangential = g - (g @ beta) * beta
        worst = max(worst, float(np.max(np.abs(tangential))))
    return worst
