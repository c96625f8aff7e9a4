"""Spans around calls into kpokit's layers, recorded from outside.

``Tracer.install`` wraps every public kpokit function at each module
attribute that holds it, so a call made inside kpokit (the Fock builds
inside ``four_body_from_gap``, say) is caught as well as one made here.
``BosonicPolynomial.__mul__`` is wrapped too. Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

import kpokit
from kpokit.operators import BosonicPolynomial

# what a layer's span records besides its time
COUNTS = {
    "oracle.build_hamiltonian": lambda out: out.dimension,
    "perturbation.transform_kerr": lambda out: len(out.terms),
}

# per-layer metrics: name -> (span, statistic, unit, home task kind)
LAYER_METRICS = {
    "oracle.build_hamiltonian.calls": ("oracle.build_hamiltonian", "calls", "count", "gap-scan"),
    "oracle.build_hamiltonian.ms": ("oracle.build_hamiltonian", "ms", "ms", "gap-scan"),
    "oracle.four_body_from_gap.self_ms": ("oracle.four_body_from_gap", "self_ms", "ms",
                                          "gap-scan"),
    "oracle.fock_dim": ("oracle.build_hamiltonian", "count", "states", "gap-scan"),
    "oracle.four_body_kerr_dressed.ms": ("oracle.four_body_kerr_dressed", "ms", "ms", "design"),
    "perturbation.sw_mixing.ms": ("perturbation.sw_mixing", "ms", "ms", "design"),
    "perturbation.transform_kerr.ms": ("perturbation.transform_kerr", "ms", "ms", "design"),
    "perturbation.rwa_filter.ms": ("perturbation.rwa_filter", "ms", "ms", "design"),
    "operators.mul.calls": ("operators.mul", "calls", "count", "design"),
    "operators.mul.ms": ("operators.mul", "ms", "ms", "design"),
    "operators.terms": ("perturbation.transform_kerr", "count", "count", "design"),
    "pumpplan.detect_residual.ms": ("pumpplan.detect_residual", "ms", "ms", "design"),
    "pumpplan.lhz_plan.ms": ("pumpplan.lhz_plan", "ms", "ms", "design"),
    "elements.snail_mode_params.ms": ("elements.snail_mode_params", "ms", "ms", "design"),
    "elements.snail_equilibrium_phase.ms": ("elements.snail_equilibrium_phase", "ms", "ms",
                                            "design"),
    "elements.kpo_mode_params.ms": ("elements.kpo_mode_params", "ms", "ms", "design"),
    "netlist.invert_capacitance.ms": ("netlist.invert_capacitance", "ms", "ms", "design"),
    "netlist.coupling_constants.ms": ("netlist.coupling_constants", "ms", "ms", "design"),
    "spinmodel.parity_curve.ms": ("spinmodel.parity_curve", "ms", "ms", "design"),
    "spinmodel.fit_energy_model.ms": ("spinmodel.fit_energy_model", "ms", "ms", "design"),
    "spinmodel.boltzmann_probabilities.calls": ("spinmodel.boltzmann_probabilities", "calls",
                                                "count", "design"),
}


class Tracer:
    """Records (name, start, end, parent, task) spans; one task at a time."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, task, count]
        self.tasks: list[dict] = []   # kind, span index, correction factor
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, len(self.tasks) - 1, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index][5] = count(out)
            return out

        return traced

    def task(self, kind: str, name: str, fn, *args):
        """Run fn(*args) as one task span and return its result."""
        self.tasks.append({"kind": kind, "span": len(self.spans), "factor": 1.0})
        index = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def task_seconds(self, task: int) -> float:
        start, end = self.spans[self.tasks[task]["span"]][1:3]
        return end - start

    # -- installing the wrappers ----------------------------------------
    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "kpokit" or name.startswith("kpokit.")]
        for attr, fn in vars(kpokit).items():
            if not inspect.isfunction(fn) or not fn.__module__.startswith("kpokit."):
                continue
            traced = self.wrap(fn, f"{fn.__module__.split('.', 1)[1]}.{attr}")
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, key, fn))
                        setattr(module, key, traced)
        mul = BosonicPolynomial.__mul__
        traced_mul = self.wrap(mul, "operators.mul")
        for key in ("__mul__", "__rmul__"):
            if getattr(BosonicPolynomial, key) is mul:
                self._restore.append((BosonicPolynomial, key, mul))
                setattr(BosonicPolynomial, key, traced_mul)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    # -- derived numbers ------------------------------------------------
    def per_task(self) -> list[dict]:
        """For each task: per span name, the calls, inclusive and self
        seconds and recorded counts; and the task's unattributed seconds."""
        children_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children_time[parent] += end - start
        out = [{"layers": {}, "seconds": self.task_seconds(t), "unattributed": 0.0}
               for t in range(len(self.tasks))]
        for index, (name, start, end, parent, task, count) in enumerate(self.spans):
            if task < 0 or index == self.tasks[task]["span"]:
                continue
            layer = out[task]["layers"].setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": []})
            layer["calls"] += 1
            if not self._inside(index, name):
                layer["s"] += end - start
            layer["self_s"] += end - start - children_time[index]
            if count is not None:
                layer["counts"].append(count)
        for t, task in enumerate(self.tasks):
            out[t]["unattributed"] = out[t]["seconds"] - children_time[task["span"]]
        return out

    def _inside(self, index: int, name: str) -> bool:
        """Whether a span of the same name encloses this one."""
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self, per_task: list[dict]) -> dict:
        """Every per-layer metric, per task of its home kind, drift-corrected."""
        metrics = {}
        for metric, (span, stat, unit, kind) in LAYER_METRICS.items():
            values = []
            for task, derived in zip(self.tasks, per_task):
                if task["kind"] != kind:
                    continue
                layer = derived["layers"].get(span, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                     "counts": []})
                if stat == "calls":
                    values.append(layer["calls"])
                elif stat == "count":
                    values.extend(layer["counts"])
                else:
                    seconds = layer["s"] if stat == "ms" else layer["self_s"]
                    values.append(1e3 * seconds * task["factor"])
            metrics[metric] = {"value": float(np.mean(values)) if values else 0.0,
                               "unit": unit}
        return metrics

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "task", "count"],
                       "tasks": self.tasks, "spans": self.spans}, fh)
