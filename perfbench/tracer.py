"""Spans around the public functions of each qqueens layer, installed from outside.

``install`` replaces every module binding of each traced function with a
wrapper that records a span (name, start, end, parent span, one attribute).
Rebinding every module that holds the function matters: ``count_unlabelled``
is also bound in ``reports``, ``count_pattern`` in ``audit`` and ``fit`` in
``audit``, ``reports`` and ``cli``, so patching only the defining module
would miss the calls the package makes internally.  Methods are patched on
their class.  Spans stay in memory until the operation ends; ``op.py``
then hands them to the run, which writes them out when it ends.

``layer_metrics`` turns one operation's spans into the per-layer numbers.
A span's self time is its duration minus the time covered by its direct
child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

# Fields of a span as ``records`` returns it; ``layer_metrics`` reads this layout.
SPAN_FIELDS = ("trace_id", "id", "parent", "name", "start", "end", "attr")


# Attribute recorders take the call's bound arguments, its result and its error.
def _count_key(a, result, error):
    return [a["moves"].canonical_key(), a["q"], a["n"]]


def _squares(a, result, error):
    return a["n"] * a["n"]


def _subcase_key(a, result, error):
    return [a["self"].name, a["h"], a["k"]]


def _rejected(a, result, error):
    return error is not None


def _records(a, result, error):
    return len(a["self"])  # records held by the cache once its file is read


def _hit(a, result, error):
    return result is not None


def _length(a, result, error):
    return len(result.encode("utf-8")) if result is not None else 0


# (span name, module, attribute path, attribute recorder or None)
TARGETS = (
    ("enumerator.count_unlabelled", "qqueens.enumerator", "count_unlabelled", _count_key),
    ("enumerator.attack_table", "qqueens.enumerator", "AttackTable.build", _squares),
    ("enumerator.count_pattern", "qqueens.enumerator", "count_pattern", None),
    ("audit.subcases", "qqueens.audit", "SubspaceCase.subcases", _subcase_key),
    ("audit.audit_case", "qqueens.audit", "audit_case", None),
    ("audit.assemble_labelled_count", "qqueens.audit", "assemble_labelled_count", None),
    ("quasipoly.detect_period", "qqueens.quasipoly", "detect_period", None),
    ("quasipoly.fit", "qqueens.quasipoly", "fit", _rejected),
    ("quasipoly.lagrange", "qqueens.quasipoly", "lagrange", None),
    ("cache.load", "qqueens.cache", "CountCache._load", _records),
    ("cache.get", "qqueens.cache", "CountCache.get", _hit),
    ("cache.put", "qqueens.cache", "CountCache.put", None),
    ("reports.render", "qqueens.reports", "render", _length),
    ("cli.main", "qqueens.cli", "main", None),
)

# Every public function of this module is a closed-form builder; they share one layer.
FORMULAS_MODULE = "qqueens.formulas"


class Tracer:
    """Records spans for the calls of one operation, all sharing ``trace_id``."""

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self._stack: list[list] = []
        # Targets that could not be traced or attributes that could not be
        # read.  Their metrics would read 0, a spurious gain, so the caller
        # counts an operation with any error here as failed.
        self.errors: set[str] = set()

    def _record(self, name, attr, signature, args, kwargs, result, error):
        """The span's attribute; None, noted in ``errors``, if the call no longer has what it reads."""
        try:
            return attr(signature.bind(*args, **kwargs).arguments, result, error)
        except (KeyError, TypeError, AttributeError) as err:
            self.errors.add(f"cannot record {name}: {err!r}")
            return None

    def wrap(self, name, fn, attr=None):
        spans, stack, clock, record = self.spans, self._stack, time.perf_counter, self._record
        signature = inspect.signature(fn) if attr is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else None, name, clock(), None, None]
            spans.append(span)
            stack.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                span[4] = clock()
                stack.pop()
                if attr is not None:
                    span[5] = record(name, attr, signature, args, kwargs, result, error)

        return traced

    def install(self) -> None:
        """Patch every traced function in every loaded qqueens module.

        A target the package no longer has is noted in ``errors`` and left out.
        """
        importlib.import_module("qqueens.cli")  # loads every layer
        package = [m for name, m in sys.modules.items() if name == "qqueens" or name.startswith("qqueens.")]
        for span_name, module_name, path, attr in TARGETS:
            try:
                self._patch(package, span_name, sys.modules[module_name], path, attr)
            except (KeyError, AttributeError) as err:
                self.errors.add(f"cannot trace {module_name}.{path}: {err!r}")
        formulas = sys.modules[FORMULAS_MODULE]
        builders = {fn_name: fn for fn_name, fn in vars(formulas).items()
                    if not fn_name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == FORMULAS_MODULE}
        if not builders:
            self.errors.add(f"cannot trace {FORMULAS_MODULE}: no public functions")
        for fn_name, fn in builders.items():
            self._rebind(package, fn, self.wrap(f"formulas.{fn_name}", fn))

    def _patch(self, package, span_name, module, path, attr) -> None:
        if "." not in path:
            original = getattr(module, path)
            self._rebind(package, original, self.wrap(span_name, original, attr))
            return
        cls_name, meth = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(self.wrap(span_name, raw.__func__, attr)))
        else:
            setattr(cls, meth, self.wrap(span_name, raw, attr))

    @staticmethod
    def _rebind(modules, original, wrapper) -> None:
        for module in modules:
            for binding, value in vars(module).copy().items():
                if value is original:
                    setattr(module, binding, wrapper)

    def records(self) -> list[list]:
        """Spans with their trace id prepended, as plain JSON-able lists."""
        return [[self.trace_id, *span] for span in self.spans]


def _self_times(spans) -> dict[int, float]:
    child_time: dict[int, float] = {}
    for _, _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child_time.get(sid, 0.0) for _, sid, _, _, start, end, _ in spans}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and self times for the spans of one operation."""
    self_time = _self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(prefix):
        return sum(self_time[s[1]] for name, group in by_name.items()
                   if name == prefix or name.startswith(prefix + ".") for s in group)

    def attrs(name):
        return [s[6] for s in by_name.get(name, ()) if s[6] is not None]

    def share(part, whole):
        return part / whole if whole else 0.0

    unlabelled_keys = {repr(a) for a in attrs("enumerator.count_unlabelled")}
    subcase_keys = {repr(a) for a in attrs("audit.subcases")}
    return {
        "enumerator.count_unlabelled.calls": calls("enumerator.count_unlabelled"),
        "enumerator.count_unlabelled.distinct": len(unlabelled_keys),
        "enumerator.count_unlabelled.repeat_ratio": share(
            calls("enumerator.count_unlabelled") - len(unlabelled_keys), calls("enumerator.count_unlabelled")),
        "enumerator.count_unlabelled.self_s": self_s("enumerator.count_unlabelled"),
        "enumerator.attack_table.calls": calls("enumerator.attack_table"),
        "enumerator.attack_table.squares": sum(attrs("enumerator.attack_table")),
        "enumerator.attack_table.self_s": self_s("enumerator.attack_table"),
        "enumerator.count_pattern.calls": calls("enumerator.count_pattern"),
        "enumerator.count_pattern.self_s": self_s("enumerator.count_pattern"),
        "audit.subcases.calls": calls("audit.subcases"),
        "audit.subcases.distinct": len(subcase_keys),
        "audit.subcases.self_s": self_s("audit.subcases"),
        "audit.audit_case.self_s": self_s("audit.audit_case"),
        "audit.assemble_labelled_count.self_s": self_s("audit.assemble_labelled_count"),
        "quasipoly.detect_period.calls": calls("quasipoly.detect_period"),
        "quasipoly.fit.calls": calls("quasipoly.fit"),
        "quasipoly.fit.reject_ratio": share(sum(attrs("quasipoly.fit")), calls("quasipoly.fit")),
        "quasipoly.fit.self_s": self_s("quasipoly.fit"),
        "quasipoly.lagrange.self_s": self_s("quasipoly.lagrange"),
        "formulas.calls": sum(calls(name) for name in by_name if name.startswith("formulas.")),
        "formulas.self_s": self_s("formulas"),
        "cache.load.calls": calls("cache.load"),
        "cache.load.records": sum(attrs("cache.load")),
        "cache.load.self_s": self_s("cache.load"),
        "cache.get.calls": calls("cache.get"),
        "cache.get.hit_ratio": share(sum(attrs("cache.get")), calls("cache.get")),
        "cache.put.calls": calls("cache.put"),
        "cache.put.self_s": self_s("cache.put"),
        "reports.render.calls": calls("reports.render"),
        "reports.render.bytes": sum(attrs("reports.render")),
        "reports.render.self_s": self_s("reports.render"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
    }


def median_layers(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-layer metric over the traced operations of a run."""
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
