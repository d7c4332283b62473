"""Spans around the public entry points of each fastproj module.

Hooks live only in the benchmark: module attributes are swapped for
span-recording wrappers while a traced op runs, and constraint oracles are
rebuilt with wrapped ``grad``/``eval``.  Spans (name, start, end, parent,
op id) stay in compact in-memory arrays until the run ends.  Everything runs
on one thread, so spans nest strictly and a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

import numpy as np


def _agd_steps(args, kwargs, result):
    return kwargs["iterations"] if "iterations" in kwargs else args[2]


def _bisection_rounds(args, kwargs, result):
    return len(result[2])


# (layer, module, attribute, counter).  The counter, when given, adds a count
# read from the call's arguments or result to the layer's tally.
HOOKS = (
    ("model.construct", "fastproj.model", "factored_quadratic_constraint", None),
    ("model.construct", "fastproj.model", "quadratic_constraint", None),
    ("model.construct", "fastproj.model", "quadratic_problem", None),
    ("model.from_json", "fastproj.model", "problem_from_json", None),
    ("agd", "fastproj.dual_oracle", "agd_minimize", _agd_steps),
    ("dual_oracle", "fastproj.projector", "approx_dual_oracle", None),
    ("cutting_plane", "fastproj.projector", "cutting_plane_maximize", None),
    ("cutting_plane.update", "fastproj.cutting_plane", "ellipsoid_update", None),
    ("norm_duality.bisection", "fastproj.norm_duality", "bisection_maximize", _bisection_rounds),
    ("reference.grid", "fastproj.reference", "brute_force_dual_grid", None),
)


def leaked_hooks() -> list[str]:
    """Hooked module attributes that currently hold a span wrapper instead of
    the library's own object."""
    leaked = []
    for _, modname, attr, _ in HOOKS:
        try:
            target = getattr(importlib.import_module(modname), attr)
        except (ImportError, AttributeError):
            continue
        if hasattr(target, "span_name"):
            leaked.append(f"{modname}.{attr}")
    return leaked


class Tracer:
    """Records spans; ``install``/``uninstall`` swap the module hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1  # -1 marks spans outside any timed op (set-up, checks)
        self.untraced: list[str] = []
        self._stack = [-1]
        self._hooks = []  # (module, attr, original, wrapper)
        for layer, modname, attr, counter in HOOKS:
            try:
                module = importlib.import_module(modname)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.untraced.append(f"{layer}: {modname}.{attr} not found")
                continue
            self._hooks.append((module, attr, original, self.wrap(layer, original, counter)))

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        """``fn`` recording one span named ``name`` per call."""
        nid = self._nid(name)
        begin, finish, counts = self._begin, self._finish, self.counts
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if counter is not None and tracer.op_id >= 0:
                counts[name] += counter(args, kwargs, result)
            return result

        traced.span_name = name
        return traced

    @contextmanager
    def span(self, name: str):
        idx = self._begin(self._nid(name))
        try:
            yield
        finally:
            self._finish(idx)

    def wrap_constraints(self, problem):
        """``problem`` with every constraint's grad/eval recording spans, or
        ``problem`` itself (and the layers marked untraced) if the oracle
        type no longer has those fields."""
        try:
            constraints = tuple(
                replace(
                    c, grad=self.wrap("model.grad", c.grad), eval=self.wrap("model.eval", c.eval)
                )
                for c in problem.constraints
            )
            return replace(problem, constraints=constraints)
        except (AttributeError, TypeError) as err:
            note = f"model.grad, model.eval: constraint oracles not wrappable ({err})"
            if note not in self.untraced:
                self.untraced.append(note)
            return problem

    def install(self) -> None:
        for module, attr, _, wrapper in self._hooks:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._hooks:
            setattr(module, attr, original)

    def spans(self) -> "Spans":
        return Spans(self)


class Spans:
    """Columnar view of the recorded spans with durations and self times."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64).copy()
        self.op = np.frombuffer(tracer.op, dtype=np.int64).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.float64).copy()
        self.dur = self.end - self.start
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=self.dur[child], minlength=self.dur.size)
        self.self_time = self.dur - covered

    def mask(self, name: str, ops_only: bool = True) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        m = self.name_id == self.names.index(name)
        return m & (self.op >= 0) if ops_only else m

    def parent_is(self, name: str) -> np.ndarray:
        """Per span: whether its parent span is named ``name``."""
        if name not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        has = self.parent >= 0
        out = np.zeros(self.dur.size, dtype=bool)
        out[has] = self.name_id[self.parent[has]] == self.names.index(name)
        return out
