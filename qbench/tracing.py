"""Spans around qcorr's public functions, recorded from outside the package.

``Tracer.attach`` replaces each traced function by a wrapper in every qcorr
module namespace that holds it (so calls made inside the package are seen
too) and ``detach`` puts the originals back.  The untraced run never
attaches.

A span carries name, start, end, parent span and job id, and is kept in
memory until ``write``.  Hot inner calls (``HOT``) are not spans: their
calls and time are added to the enclosing span's ``hot`` totals.  A span's
self time is its duration minus the time its direct children cover; children
run one after another on one thread, so that cover is the sum of their
durations.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute): the public function the span wraps.
SPANS = (
    ("correspondence.search_counterparts", "correspondence", "search_counterparts"),
    ("correspondence.extract_counterpart", "correspondence", "extract_counterpart"),
    ("correspondence.makhlin_invariants", "correspondence", "makhlin_invariants"),
    ("matrixcore.detect_from_columns", "matrixcore", "detect_from_columns"),
    ("oracleforge.oracle_build", "oracleforge", "standard_oracle"),
    ("oracleforge.oracle_build", "oracleforge", "phase_oracle"),
    ("querylab.deterministic_query_complexity", "querylab", "deterministic_query_complexity"),
    ("querylab.family_extracted", "querylab", "family_extracted"),
    ("querylab.speedup_report", "querylab", "speedup_report"),
    ("querylab.run_bv_quantum", "querylab", "run_bv_quantum"),
    ("querylab.run_parity_quantum", "querylab", "run_parity_quantum"),
    ("cli.main", "cli", "main"),
    ("cli.matrix_from_json", "matrixcore", "matrix_from_json"),
)
# Called thousands of times per job: aggregated per parent span.
HOT = (
    ("correspondence.conjugate_column", "correspondence", "conjugate_column"),
    ("matrixcore.apply_single_qubit", "matrixcore", "apply_single_qubit"),
    ("oracleforge.OracleAction.apply", "oracleforge", "OracleAction.apply"),
)


def _admitted(args, kwargs, result):
    return {"admitted": int(result is not None)}


def _column_bytes(args, kwargs, result):
    # One conjugated column is a 2^m complex128 vector.
    return {"bytes": 16 << args[0].m}


def _work_bound(args, kwargs, result):
    problem, family = args[0], args[1]
    return {"work_bound": len(problem.hypotheses) << family.m}


COUNTERS = {
    "correspondence.extract_counterpart": _admitted,
    "correspondence.conjugate_column": _column_bytes,
    "querylab.deterministic_query_complexity": _work_bound,
    "querylab.family_extracted": _admitted,
}


class _Frame:
    __slots__ = ("span_id", "start", "child", "hot")

    def __init__(self, span_id, start):
        self.span_id = span_id  # None for a hot call
        self.start = start
        self.child = 0.0
        self.hot = None if span_id is None else {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.totals = defaultdict(lambda: defaultdict(float))
        self.job = None
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def count(self, metric: str, value: float):
        """Add to a counter named ``<layer>.<function>.<counter>``."""
        name, key = metric.rsplit(".", 1)
        self.totals[name][key] += value

    def _wrap(self, name: str, fn, hot: bool):
        counter = COUNTERS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hot:
                frame = _Frame(None, perf_counter())
            else:
                frame = _Frame(self._next_id, perf_counter())
                self._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(name, frame, end, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.totals[name][key] += value
            return result

        return traced

    def _close(self, name: str, frame: _Frame, end: float, parent: _Frame | None):
        duration = end - frame.start
        totals = self.totals[name]
        totals["calls"] += 1
        totals["s"] += duration
        totals["self_s"] += duration - frame.child
        if parent is not None:
            parent.child += duration
        owner = next((f for f in reversed(self._stack) if f.span_id is not None), None)
        if frame.span_id is None:
            if owner is not None:
                calls_s = owner.hot.setdefault(name, [0, 0.0])
                calls_s[0] += 1
                calls_s[1] += duration
            return
        self.spans.append({
            "id": frame.span_id, "name": name, "start": frame.start, "end": end,
            "parent": None if owner is None else owner.span_id, "job": self.job,
            "self_s": duration - frame.child, "hot": frame.hot,
        })

    def attach(self, q):
        """Wrap every traced function wherever a qcorr module refers to it.

        A name that a later version of the package no longer has is skipped,
        and its metrics read zero.
        """
        modules = [mod for key, mod in sys.modules.items()
                   if mod is not None and (key == "qcorr" or key.startswith("qcorr."))]
        for hot, table in ((False, SPANS), (True, HOT)):
            for name, modname, attr in table:
                owner = getattr(q, modname, None)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name, None)
                    fn = getattr(cls, meth, None)
                    if fn is not None:
                        self._patch(cls, meth, self._wrap(name, fn, hot))
                    continue
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                wrapper = self._wrap(name, fn, hot)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def detach(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
