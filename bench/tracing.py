"""Spans around chslit's public functions, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper, in every chslit namespace that refers to it, so calls between
modules (``find_contradictions`` -> ``enumerate_consistent_frameworks`` ->
``build_framework`` -> ``history_probabilities`` -> ``check_consistency``)
become nested spans.  A span records its name, start, end, parent span and
operation id; spans are kept in flat arrays in memory and summarised (or
written out) when the run ends.  A span's self time is its duration minus
the durations of its direct children.

Counts are taken at the same wrappers: partitions decided by an enumeration
(Bell(k) for k open paths), frameworks it returned, framework pairs a
contradiction search examined and records it emitted.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import oracle

MODULES = ("cli", "scenarios", "core", "engine", "frameworks")


def public_functions(package) -> dict[str, object]:
    """``module.name`` -> function, for each public function the traced
    modules define."""
    found = {}
    for short in MODULES:
        module = sys.modules[f"{package.__name__}.{short}"]
        for name, value in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__:
                found[f"{short}.{name}"] = value
    return found


class Tracer:
    """Spans and counts of the calls into one imported chslit package."""

    def __init__(self, package) -> None:
        self.package = package
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts = {
            "partitions_decided": 0,
            "frameworks_returned": 0,
            "framework_pairs": 0,
            "records": 0,
        }
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers = {id(fn): self._wrap(name, fn) for name, fn in public_functions(package).items()}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        namespaces = [self.package] + [sys.modules[f"{self.package.__name__}.{m}"] for m in MODULES]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._patched):
            setattr(namespace, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = {
            "frameworks.enumerate_consistent_frameworks": self._count_enumeration,
            "frameworks.find_contradictions": self._count_contradictions,
        }.get(name)
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(index)
            before = self.counts["frameworks_returned"]
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if counter is not None:
                counter(args, result, before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_enumeration(self, args, frameworks, _before) -> None:
        self.counts["partitions_decided"] += oracle.bell(args[0].scenario.n_open)
        self.counts["frameworks_returned"] += len(frameworks)

    def _count_contradictions(self, _args, records, before) -> None:
        n = self.counts["frameworks_returned"] - before
        self.counts["framework_pairs"] += n * (n - 1) // 2
        self.counts["records"] += len(records)

    # -- summaries --------------------------------------------------------------

    def per_name(self) -> dict[str, dict[str, float]]:
        """Calls, total time and total self time (seconds) per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_of[i]]]
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child[i]
        return out

    def write(self, path) -> None:
        """Every span as one CSV row: name, start, end, parent, op."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_us,end_us,parent,op\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_of[i]]},{(self.start[i] - t0) * 1e6:.3f},"
                    f"{(self.end[i] - t0) * 1e6:.3f},{self.parent[i]},{self.op[i]}\n"
                )
