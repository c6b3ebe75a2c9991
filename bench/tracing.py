"""Spans around the calls into each shiftfree layer, recorded from outside.

``Tracer.install`` replaces each traced public function at every module
binding the package calls it through (``stabilizer`` is imported by name into
``bounds``, ``construct``, ``exact`` and ``cli``, for example) and wraps the
``GroupSubset`` methods on the class.  Nothing under ``src/`` changes.

Spans (name, start, end, parent) are kept in memory in flat arrays and written
out once at the end.  ``GroupSubset.translate`` is called far too often for a
span each; it only counts calls and the elements it translates, and its time
falls in the self time of whichever span called it.
"""

from __future__ import annotations

import functools
import json
import math
import time
from array import array
from collections import defaultdict

# Traced public functions by the module that defines them; the span name is
# "<layer>.<function>" with layer the module's last dotted component.
TRACED = {
    "groups": ["stabilizer", "quotient_view", "project_subset", "preimage_subset",
               "subgroup_generated"],
    "bounds": ["bounds_report", "ceil_root_power"],
    "exact": ["translate_family", "exact_N"],
    "construct": ["construct_thm1", "construct_thm2", "search_avoider", "verify_avoids"],
    "cli": ["parse_set", "main"],
}
TRACED_METHODS = ["from_indices", "indices"]


class Tracer:
    """Spans and counters for every call made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self.translate_calls = 0
        self.translate_elements = 0
        self.root_target_bits_max = 0
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, starts, ends, parents, stack = (
            self.span_name, self.span_start, self.span_end, self.span_parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _count_translate(self, fn):
        @functools.wraps(fn)
        def counted(subset, g):
            self.translate_calls += 1
            self.translate_elements += subset.bits.bit_count()
            return fn(subset, g)

        return counted

    def _root_bits(self, fn):
        @functools.wraps(fn)
        def sized(mantissa, exponent, root):
            if mantissa >= 1 and exponent >= 0:
                bits = math.floor(exponent * math.log2(mantissa)) + 1
                self.root_target_bits_max = max(self.root_target_bits_max, bits)
            return fn(mantissa, exponent, root)

        return sized

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules: dict) -> None:
        """Wrap every traced function at every binding in the given modules."""
        for layer, funcs in TRACED.items():
            home = modules[f"shiftfree.{layer}"]
            for func in funcs:
                original = getattr(home, func)
                wrapped = self._wrap(f"{layer}.{func}", original)
                if func == "ceil_root_power":
                    wrapped = self._root_bits(wrapped)
                for mod in modules.values():
                    if mod.__dict__.get(func) is original:
                        self._patch(mod, func, wrapped)
        subset_cls = modules["shiftfree.groups"].GroupSubset
        for meth in TRACED_METHODS:
            raw = subset_cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._patch(subset_cls, meth, classmethod(self._wrap(f"groups.{meth}", raw.__func__)))
            else:
                self._patch(subset_cls, meth, self._wrap(f"groups.{meth}", raw))
        self._patch(subset_cls, "translate", self._count_translate(subset_cls.__dict__["translate"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """name -> {calls, ms, self_ms}; self time is span minus its direct children."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["ms"] += dur * 1000.0
            row["self_ms"] += (dur - child[i]) * 1000.0
        return out

    def write(self, path) -> None:
        """One JSON line per span: name, start and end in seconds, parent index."""
        with open(path, "w") as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps([self.names[self.span_name[i]], self.span_start[i],
                                     self.span_end[i], self.span_parent[i]]) + "\n")
