"""Spans around the public functions of every riscpl module, from outside.

The tracer replaces each listed function under its name in every riscpl
module that holds it (the defining module and every module that imported
it), and each listed method on its class.  Nothing under src/ changes.  Each
call records one span (name, start, end, parent, job) in memory; self time is
a span's duration minus the time its direct child spans cover.  A few
wrappers also count sizes, and the FunctorEvaluator cache methods count a
miss when a plc span opens directly under them.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

# (module, attribute path) of every traced function, by layer.
TRACED = {
    "exact_geometry": ["tile_index", "t_power", "rho", "alpha_apply", "omega_apply"],
    "plc": ["split_all", "open_model", "relative_cohomology", "induced_map", "mv_connecting"],
    "field_linalg": ["kernel_basis", "independent_split", "solve_in_span", "rank"],
    "risc_builder": ["evaluate", "assemble_module", "point_data", "internal_map",
                     "FunctorEvaluator.model", "FunctorEvaluator.basis",
                     "FunctorEvaluator.connecting"],
    "strip_module": ["dgm", "decomposition_check", "cohomological_check",
                     "seq_continuity_check", "nat_space_dim", "GridModule.map_between"],
    "interleave": ["joint_context", "Transformation.at", "interleaving_check"],
    "cli": ["load_complex", "load_module", "module_json", "emit_json"],
}

# Cache methods whose miss shows as a plc span opened directly under them.
HIT_RATIOS = {
    "risc_builder.FunctorEvaluator.model": "risc_builder.model_hit_ratio",
    "risc_builder.FunctorEvaluator.basis": "risc_builder.basis_hit_ratio",
    "risc_builder.FunctorEvaluator.connecting": "risc_builder.connecting_hit_ratio",
}

FIELDS = (2, 3)
SPLIT_DIMS = (0, 1, 2)


def unit_of(metric: str) -> str:
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def _entries(name: str, args) -> tuple:
    """(field, rows * cols) of the matrix a field_linalg call eliminates."""
    if name.endswith(".kernel_basis") or name.endswith(".rank"):
        m = args[0]
        return m.p, m.rows * m.cols
    a, b = args[0], args[1]
    return a.p, a.rows * (a.cols + b.cols)


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.misses: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Dict[str, int] = defaultdict(int)
        # calls, misses and size counts by job, to compare two traced passes
        self.job_counts: Dict[int, Counter] = defaultdict(Counter)
        # open spans: [span id, name, start, child seconds, plc child seen]
        self._stack: List[list] = []
        self.current_job = -1

    # -- spans

    def enter(self, name: str) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        parent = self._stack[-1] if self._stack else None
        if parent is not None and name.startswith("plc."):
            parent[4] = True
        self.name_of.append(nid)
        self.parent.append(parent[0] if parent is not None else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        frame = [sid, name, 0.0, 0.0, False]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        self.start.append(frame[2])
        return frame

    def exit(self, frame: list):
        t = time.perf_counter()
        sid, name, t0, child, plc_child = frame
        self._stack.pop()
        self.end[sid] = t
        dur = t - t0
        self.calls[name] += 1
        self.job_counts[self.current_job][name] += 1
        self.self_s[name] += dur - child
        if name in HIT_RATIOS and plc_child:
            self.misses[name] += 1
            self.job_counts[self.current_job][name + ".misses"] += 1
        if self._stack:
            self._stack[-1][3] += dur

    # -- installation

    def _wrapper(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count(self, key: str, n: int):
        self.counts[key] += n
        self.job_counts[self.current_job][key] += n

    def _after(self, name: str) -> Optional[Callable]:
        if name == "plc.split_all":
            def after(args, kwargs, result):
                for s in result.simplices:
                    self._count(f"{name}.simplices.d{len(s) - 1}", 1)
        elif name == "plc.relative_cohomology":
            def after(args, kwargs, result):
                cells = len(args[0]) - len(args[1])
                self.maxima[name + ".max_cells"] = max(self.maxima[name + ".max_cells"], cells)
        elif name.startswith("field_linalg."):
            def after(args, kwargs, result):
                p, n = _entries(name, args)
                self._count(f"{name}.entries.gf{p}", n)
        elif name == "risc_builder.assemble_module":
            def after(args, kwargs, result):
                self._count(name + ".samples", len(result.dims))
        elif name == "cli.emit_json":
            def after(args, kwargs, result):
                out = args[1] if len(args) > 1 else kwargs.get("out")
                if out not in (None, "-"):
                    self._count(name + ".bytes", os.path.getsize(out))
        else:
            return None
        return after

    def install(self):
        """Replace every traced function in every loaded riscpl module."""
        mods = {n: m for n, m in sys.modules.items()
                if n.startswith("riscpl.") and m is not None}
        for layer, attrs in TRACED.items():
            home = mods["riscpl." + layer]
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    fn = getattr(cls, meth)
                    setattr(cls, meth, self._wrapper(name, fn, self._after(name)))
                    continue
                fn = getattr(home, attr)
                wrapped = self._wrapper(name, fn, self._after(name))
                for mod in mods.values():
                    if getattr(mod, attr, None) is fn:
                        setattr(mod, attr, wrapped)

    # -- results

    def metrics(self) -> Dict[str, float]:
        """Calls and self seconds of every traced name, the size counters and
        the cache hit ratios; names never called report zero."""
        out: Dict[str, float] = {}
        for layer, attrs in TRACED.items():
            for attr in attrs:
                name = f"{layer}.{attr}"
                out[name + ".calls"] = self.calls[name]
                out[name + ".s"] = self.self_s[name]
        for d in SPLIT_DIMS:
            key = f"plc.split_all.simplices.d{d}"
            out[key] = self.counts[key]
        out["plc.relative_cohomology.max_cells"] = self.maxima["plc.relative_cohomology.max_cells"]
        for fn in TRACED["field_linalg"]:
            for p in FIELDS:
                key = f"field_linalg.{fn}.entries.gf{p}"
                out[key] = self.counts[key]
        out["risc_builder.assemble_module.samples"] = self.counts["risc_builder.assemble_module.samples"]
        out["cli.emit_json.bytes"] = self.counts["cli.emit_json.bytes"]
        for name, ratio in HIT_RATIOS.items():
            calls = self.calls[name]
            out[ratio] = (calls - self.misses[name]) / calls if calls else 0.0
        return out

    def save_spans(self, path: str):
        """Write the spans as arrays: name id, parent span, job, start, end."""
        import numpy as np

        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name_of, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 job=np.frombuffer(self.job, np.int32),
                 start=np.frombuffer(self.start, np.float64),
                 end=np.frombuffer(self.end, np.float64))
