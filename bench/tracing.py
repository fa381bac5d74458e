"""Span tracer that wraps divlab's public functions from outside the package.

While the tracer is installed, each wrapped call records a span (name, start,
end, parent span, op index) in memory; uninstalled, the original functions are
back in place and cost nothing extra.  A function is replaced at every binding in every loaded divlab module (for
example `cli.sweep_superlevel`, `hilbert.form_time_set`,
`averages.base_points`), so nested calls through re-imported names are seen.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Public functions traced per module; "Class.method" names a method.  Pure
# coercion helpers (rat, rat_str, real, common_denominator) are left out: they
# cost less per call than a span does.
TRACED = {
    "intervals": [
        "normalize",
        "IntervalUnion.intersect",
        "IntervalUnion.union",
        "IntervalUnion.issubset",
        "IntervalUnion.affine",
        "IntervalUnion.clip",
        "IntervalUnion.measure",
        "PiecewiseLinear.superlevel",
        "StepFunction.superlevel",
    ],
    "digitsets": ["base_points", "materialize", "combine", "cardinality", "is_collision_free"],
    "scenarios": [
        "furstenberg_family",
        "cube_family",
        "blowup_series",
        "cube_threshold",
        "degenerate_threshold",
        "furstenberg_threshold",
    ],
    "averages": [
        "form_time_set",
        "multilinear_integral",
        "sweep_superlevel",
        "wrap_translate",
        "discrete_superlevel",
        "find_riemann_n",
        "cube_certificate_check",
        "monte_carlo_average",
        "degenerate_lower_ratio",
        "dependent_forms_lower_ratio",
    ],
    "hilbert": [
        "h3_support",
        "h3_evaluate",
        "h3_witness_evaluations",
        "h3_ratio_series",
        "h3_series_columns",
    ],
    "linforms": [
        "extended_matrix",
        "exact_rank",
        "dependence_vector",
        "solve_in_span",
        "minimal_dependent_rows",
        "classify",
    ],
    "cli": ["main"],
}

# spans of these functions are named after one argument's value
SPLIT = {"averages.discrete_superlevel": ("topology", ("line", "circle"))}

# work counts read off a call's result: span name -> (counter, result -> count)
COUNTED = {
    "averages.sweep_superlevel": ("breakpoints", lambda res: len(res.function.xs)),
    "averages.cube_certificate_check": ("checks", lambda res: len(res.checks)),
}

# (parent span, child span) pairs counted as one work unit of the parent
NESTED = {"linforms.minimal_dependent_rows.subsets": ("linforms.minimal_dependent_rows", "linforms.exact_rank")}


def span_names():
    """Every span name the tracer can record."""
    for mod, names in TRACED.items():
        for qual in names:
            name = f"{mod}.{qual}"
            if name in SPLIT:
                yield from (f"{name}.{value}" for value in SPLIT[name][1])
            else:
                yield name


def metric_names():
    """Every per-layer metric `Tracer.metrics` can report."""
    names = {f"{span}.{stat}" for span in span_names() for stat in ("calls", "self_s")}
    names.update(f"{fn}.{counter}" for fn, (counter, _) in COUNTED.items())
    names.update(NESTED)
    return names


class Tracer:
    """Spans of the wrapped calls made while installed, with their work counts."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op index]
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._bindings = []  # (owner, attribute, original, wrapper)
        modules = [m for key, m in sys.modules.items() if key == "divlab" or key.startswith("divlab.")]
        for mod, names in TRACED.items():
            module = sys.modules[f"divlab.{mod}"]
            for qual in names:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(module, cls_name)
                    fn = cls.__dict__[attr]
                    self._bindings.append((cls, attr, fn, self._wrap(f"{mod}.{qual}", fn)))
                    continue
                fn = getattr(module, qual)
                wrapper = self._wrap(f"{mod}.{qual}", fn)
                for other in modules:
                    self._bindings += [(other, key, fn, wrapper) for key, value in vars(other).items() if value is fn]

    def _wrap(self, name, fn):
        split = SPLIT.get(name)
        signature = inspect.signature(fn) if split else None
        counted = COUNTED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if split:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                label = f"{name}.{bound.arguments[split[0]]}"
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counted:
                self.counts[f"{name}.{counted[0]}"] += counted[1](result)
            return result

        return wrapper

    def install(self):
        """Replace every binding of a traced function with its wrapper."""
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, fn, _ in self._bindings:
            setattr(owner, key, fn)

    def metrics(self):
        """calls and self time per span name, the result counts and nested-call counts."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(int)
        for (name, start, end, parent, _), child in zip(spans, covered):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child
            if parent >= 0:
                for metric, pair in NESTED.items():
                    if pair == (spans[parent][0], name):
                        out[metric] += 1
        out.update(self.counts)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
