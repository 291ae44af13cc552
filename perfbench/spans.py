"""Span tracing for the benchmark's traced run.

For the length of the traced passes, ``Tracer`` replaces the names that
quotbox modules import from one another (and the public names the
benchmark calls) with wrappers.  Each wrapped call records one span:
name, start, end, parent span and check id.  Spans are kept in flat
arrays in memory and written out once at the end; the original names are
put back when the ``with`` block exits.  Nothing under ``src/`` changes.

Span names are ``<module>.<function>`` with the module that defines the
function, so time can be split by module.  A target that no longer
exists is listed in ``Tracer.absent`` and every metric built on it is
reported as absent (value ``None``).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# (namespace whose binding is replaced, attribute, span name)
TARGETS = (
    # public calls made by the benchmark's checks
    ("quotbox", "verify_product_formula", "verify.verify_product_formula"),
    ("quotbox", "verify_stanley", "verify.verify_stanley"),
    ("quotbox", "verify_hilb_counts", "verify.verify_hilb_counts"),
    ("quotbox", "verify_rank2_free", "verify.verify_rank2_free"),
    ("quotbox", "box_partition_polynomial_dp", "partitions.box_partition_polynomial_dp"),
    ("quotbox", "box_product", "series.box_product"),
    ("quotbox", "quot_closed_form", "series.quot_closed_form"),
    # names verify imported
    ("quotbox.verify", "quot_series", "quotfixed.quot_series"),
    ("quotbox.verify", "count_box_partitions", "partitions.count_box_partitions"),
    ("quotbox.verify", "count_partition_pairs", "partitions.count_partition_pairs"),
    ("quotbox.verify", "box_partition_polynomial_dp", "partitions.box_partition_polynomial_dp"),
    ("quotbox.verify", "enumerate_box_monomial_ideals", "partitions.enumerate_box_monomial_ideals"),
    ("quotbox.verify", "box_product", "series.box_product"),
    ("quotbox.verify", "macmahon", "series.macmahon"),
    ("quotbox.verify", "quot_closed_form", "series.quot_closed_form"),
    # the engine's three stages, and the names quotfixed imported
    ("quotbox.quotfixed", "enumerate_coprofiles", "quotfixed.enumerate_coprofiles"),
    ("quotbox.quotfixed", "profile_constraint_system", "quotfixed.profile_constraint_system"),
    ("quotbox.quotfixed", "stratum_euler", "quotfixed.stratum_euler"),
    ("quotbox.quotfixed", "fiber_dim", "reflexive.fiber_dim"),
    ("quotbox.quotfixed", "mult_matrix", "reflexive.mult_matrix"),
)

ENUMERATE = "quotfixed.enumerate_coprofiles"
CONSTRAIN = "quotfixed.profile_constraint_system"
EULER = "quotfixed.stratum_euler"
FIBER_DIM = "reflexive.fiber_dim"
MULT_MATRIX = "reflexive.mult_matrix"


def _observe_enumerate(counts, args, result):
    counts["strata"] += len(result)


def _observe_constrain(counts, args, result):
    counts["infeasible"] += bool(result.infeasible)


def _observe_euler(counts, args, result):
    system = args[0]
    counts["contributing"] += result != 0
    if not system.infeasible:
        counts["line_vars"] += len(system.variables)


OBSERVERS = {
    ENUMERATE: _observe_enumerate,
    CONSTRAIN: _observe_constrain,
    EULER: _observe_euler,
}


class Tracer:
    """Records spans of wrapped quotbox calls; use as a context manager."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.names = sorted({span for _, _, span in self.targets})
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.check = array("I")
        self.pass_starts: list[int] = []
        self.counts: list[Counter] = []
        self.check_id = 0
        self.absent: list[str] = []
        self._stack = [-1]
        self._saved = []

    def __enter__(self):
        for module_name, attr, span in self.targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(span)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, self.names.index(span), OBSERVERS.get(span)))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def start_pass(self) -> None:
        self.pass_starts.append(len(self.start))
        self.counts.append(Counter())

    def _wrap(self, fn, name_id, observe):
        start, end, parent, name, check = (
            self.start, self.end, self.parent, self.name, self.check)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            start.append(perf_counter())
            end.append(0.0)
            parent.append(stack[-1])
            name.append(name_id)
            check.append(tracer.check_id)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer.counts[-1], args, result)
            return result

        return wrapper

    def pass_layers(self, p: int) -> dict:
        """Per-layer times and counts of traced pass ``p``."""
        lo = self.pass_starts[p]
        hi = self.pass_starts[p + 1] if p + 1 < len(self.pass_starts) else len(self.start)
        module = [n.split(".")[0] for n in self.names]
        span_s = Counter()
        calls = Counter()
        module_s = Counter()
        child_s = Counter()
        verify_spans = []
        for i in range(lo, hi):
            d = self.end[i] - self.start[i]
            nid = self.name[i]
            par = self.parent[i]
            span_s[nid] += d
            calls[nid] += 1
            if par < 0 or module[self.name[par]] != module[nid]:
                module_s[module[nid]] += d
            if par >= 0:
                child_s[par] += d
            if module[nid] == "verify":
                verify_spans.append(i)
        verify_self = sum(self.end[i] - self.start[i] - child_s[i] for i in verify_spans)
        by_name = {n: i for i, n in enumerate(self.names)}
        return {
            "span_s": {n: float(span_s[i]) for n, i in by_name.items()},
            "calls": {n: calls[i] for n, i in by_name.items()},
            "module_s": {m: float(t) for m, t in module_s.items()},
            "verify_self_s": verify_self,
            "counts": dict(self.counts[p]),
        }

    def write(self, path: Path, header: dict) -> None:
        """Write the spans: ``path`` gets the binary arrays, ``path.json``
        a header naming the arrays, their type codes and the span names."""
        fields = ("start", "end", "parent", "name", "check")
        with open(path, "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
        meta = dict(header, count=len(self.start), names=self.names,
                    fields=[[f, getattr(self, f).typecode] for f in fields],
                    pass_starts=self.pass_starts, absent=self.absent)
        Path(f"{path}.json").write_text(json.dumps(meta, indent=1) + "\n")


def load_spans(path: Path) -> tuple[dict, dict]:
    """Read back what ``Tracer.write`` wrote: (header, {field: array})."""
    meta = json.loads(Path(f"{path}.json").read_text())
    arrays = {}
    with open(path, "rb") as fh:
        for f, code in meta["fields"]:
            arrays[f] = array(code)
            arrays[f].fromfile(fh, meta["count"])
    return meta, arrays


def _ratio(a, b):
    return a / b if b else 0.0


def _stage_s(layers):
    return sum(layers["span_s"][n] for n in (ENUMERATE, CONSTRAIN, EULER))


def _module_calls(layers, module):
    return sum(c for n, c in layers["calls"].items() if n.startswith(module + "."))


# name, unit, exact (a count that must repeat in every pass, rather than a
# time), the spans it is built on, and how to read it from one pass.
PER_LAYER = (
    ("quotfixed.enumerate.s", "s", False, (ENUMERATE,), lambda L: L["span_s"][ENUMERATE]),
    ("quotfixed.enumerate.calls", "count", True, (ENUMERATE,), lambda L: L["calls"][ENUMERATE]),
    ("quotfixed.strata", "count", True, (ENUMERATE,), lambda L: L["counts"].get("strata", 0)),
    ("quotfixed.constrain.s", "s", False, (CONSTRAIN,), lambda L: L["span_s"][CONSTRAIN]),
    ("quotfixed.infeasible", "count", True, (CONSTRAIN,),
     lambda L: L["counts"].get("infeasible", 0)),
    ("quotfixed.useful_ratio", "ratio", True, (ENUMERATE, CONSTRAIN), lambda L: _ratio(
        L["calls"][CONSTRAIN] - L["counts"].get("infeasible", 0), L["counts"].get("strata", 0))),
    ("quotfixed.euler.s", "s", False, (EULER,), lambda L: L["span_s"][EULER]),
    ("quotfixed.contributing", "count", True, (EULER,),
     lambda L: L["counts"].get("contributing", 0)),
    ("quotfixed.line_vars", "count", True, (EULER,), lambda L: L["counts"].get("line_vars", 0)),
    ("quotfixed.share", "ratio", False, (ENUMERATE, CONSTRAIN, EULER),
     lambda L: _ratio(_stage_s(L), L["wall_s"])),
    ("reflexive.s", "s", False, (FIBER_DIM, MULT_MATRIX),
     lambda L: L["module_s"].get("reflexive", 0.0)),
    ("reflexive.fiber_dim.calls", "count", True, (FIBER_DIM,), lambda L: L["calls"][FIBER_DIM]),
    ("reflexive.mult_matrix.calls", "count", True, (MULT_MATRIX,),
     lambda L: L["calls"][MULT_MATRIX]),
    ("series.s", "s", False, (), lambda L: L["module_s"].get("series", 0.0)),
    ("series.calls", "count", True, (), lambda L: _module_calls(L, "series")),
    ("partitions.s", "s", False, (), lambda L: L["module_s"].get("partitions", 0.0)),
    ("partitions.calls", "count", True, (), lambda L: _module_calls(L, "partitions")),
    ("verify.self_s", "s", False, (), lambda L: L["verify_self_s"]),
)


def per_layer_metrics(tracer: Tracer, traced_walls, untraced_wall) -> tuple[dict, bool]:
    """Per-layer metrics of a traced run, and whether every exact count
    repeated in every traced pass.

    Times are medians over the traced passes; counts and ratios of counts
    come from the first traced pass.  ``trace.overhead_s`` is the median
    traced pass minus ``untraced_wall``, the untraced time of a pass.
    """
    passes = []
    for p, wall in enumerate(traced_walls):
        layers = tracer.pass_layers(p)
        layers["wall_s"] = wall
        passes.append(layers)
    metrics = {}
    exact = []
    for name, unit, is_exact, needs, read in PER_LAYER:
        if any(n in tracer.absent for n in needs):
            metrics[name] = {"value": None, "unit": unit}
            continue
        values = [read(layers) for layers in passes]
        if is_exact:
            value = values[0]
            exact.append(values)
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced_walls) - untraced_wall,
        "unit": "s",
    }
    stable = all(len(set(v)) == 1 for v in exact)
    return metrics, stable
