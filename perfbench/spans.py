"""Spans around calls into finiteflow's layers, installed from outside.

``instrument`` swaps module and class attributes of an imported finiteflow
for timing wrappers and puts the originals back when it exits; no file
under ``src/`` is touched. With ``traced=False`` only the calls the
end-to-end metrics need are wrapped: each optimizer run, reference
integration, CSV write and analysis pass, a handful per cell. With
``traced=True`` every call into a layer gets a span as well: objective
value/gradient/batch calls, ``flow_eval``, each scheme's step, the analysis
functions ``bench`` calls, and the objective build.

A span is (id, name, start, end, parent id, cell id). Its layer is the
part of the name before the first dot, which is the finiteflow module the
called function lives in.
"""

from __future__ import annotations

import dataclasses
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from finiteflow import bench, integrators
from finiteflow.config import ExperimentConfig
from finiteflow.objectives import BatchContext

LAYERS = ("objectives", "flows", "integrators", "bench", "analysis", "config")

# functions bench.py imports from analysis.py by name
_ANALYSIS_FUNCS = ("check_gradient_dominance", "closeness_epsilon",
                   "dominance_params", "energy_decay_envelope", "k_star",
                   "settling_time_bound", "verify_envelope", "weak_bound")


class Recorder:
    """Spans and counts of one repetition of a workload."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.cell = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.next_id = 0
        self.cell_id = -1
        self.n_cells = 0
        self.analysis_depth = 0
        self.cell_steps: list[int] = []
        self.steps = 0
        self.rows_written = 0
        self.record_bytes = 0
        self.record_rows = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            stack = self.stack
            parent = stack[-1]
            stack.append(sid)
            cell = self.cell_id
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.ids.append(sid)
                self.name.append(nid)
                self.parent.append(parent)
                self.cell.append(cell)
                self.start.append(t0)
                self.end.append(t1)

        return traced

    def note_trajectory(self, traj, cell: bool) -> None:
        steps = max(len(traj) - 1, 0)
        self.steps += steps
        if cell:
            self.cell_steps.append(steps)
        # computed from the Trajectory's array sizes, not measured
        self.record_bytes += sum(a.nbytes for a in (
            traj.k, traj.t, traj.x, traj.f, traj.grad_norm2, traj.grad_norm1,
            traj.wall_s))
        self.record_rows += len(traj)

    def arrays(self) -> dict[str, np.ndarray]:
        """Span columns ordered by span id (ids run 0..n-1)."""
        order = np.argsort(np.frombuffer(self.ids, dtype=np.int64), kind="stable")
        cols = {"name": self.name, "parent": self.parent, "cell": self.cell,
                "start": self.start, "end": self.end}
        out = {k: np.frombuffer(v, dtype=np.int64 if v.typecode == "q" else np.float64)[order]
               for k, v in cols.items()}
        out["id"] = np.arange(len(order))
        return out


class _Patches:
    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def _traced_objective(rec: Recorder, obj):
    fields = {"value": rec.wrap(obj.value, "objectives.value"),
              "gradient": rec.wrap(obj.gradient, "objectives.gradient")}
    if obj.batch_gradient is not None:
        fields["batch_gradient"] = rec.wrap(obj.batch_gradient,
                                            "objectives.batch_gradient")
    return dataclasses.replace(obj, **fields)


@contextmanager
def instrument(rec: Recorder, traced: bool):
    """Install the wrappers for one repetition; always restores the originals."""
    patches = _Patches()
    try:
        run_span = rec.wrap(bench.run, "integrators.run")
        reference_span = rec.wrap(bench.integrate_reference,
                                  "integrators.integrate_reference")
        emit_span = rec.wrap(bench.emit_csv, "bench.emit_csv")
        reports_span = rec.wrap(bench.analysis_reports, "bench.analysis_reports")

        def run(*args, **kwargs):
            cell = rec.analysis_depth == 0
            if cell:
                rec.cell_id = rec.n_cells
                rec.n_cells += 1
            traj = run_span(*args, **kwargs)
            rec.note_trajectory(traj, cell)
            return traj

        def integrate_reference(*args, **kwargs):
            traj = reference_span(*args, **kwargs)
            rec.note_trajectory(traj, False)
            return traj

        def emit_csv(traj, *args, **kwargs):
            out = emit_span(traj, *args, **kwargs)
            rec.rows_written += len(traj)
            if rec.analysis_depth == 0:
                rec.cell_id = -1  # a cell ends with its CSV
            return out

        def analysis_reports(*args, **kwargs):
            rec.analysis_depth += 1
            try:
                return reports_span(*args, **kwargs)
            finally:
                rec.analysis_depth -= 1

        patches.set(bench, "run", run)
        patches.set(bench, "integrate_reference", integrate_reference)
        patches.set(bench, "emit_csv", emit_csv)
        patches.set(bench, "analysis_reports", analysis_reports)

        if traced:
            build_span = rec.wrap(ExperimentConfig.build_objective,
                                  "config.build_objective")
            patches.set(ExperimentConfig, "build_objective",
                        lambda self: _traced_objective(rec, build_span(self)))
            patches.set(BatchContext, "indices",
                        rec.wrap(BatchContext.indices, "objectives.batch_indices"))
            patches.set(integrators, "flow_eval",
                        rec.wrap(integrators.flow_eval, "flows.flow_eval"))
            make_step = integrators.make_step
            patches.set(integrators, "make_step", lambda cfg: rec.wrap(
                make_step(cfg), f"integrators.step.{cfg.scheme}"))
            for fn in ("bound_report", "closeness_table"):
                patches.set(bench, fn, rec.wrap(getattr(bench, fn), f"bench.{fn}"))
            for fn in _ANALYSIS_FUNCS:
                patches.set(bench, fn, rec.wrap(getattr(bench, fn), f"analysis.{fn}"))
        yield rec
    finally:
        patches.restore()


def self_times(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the part its child spans cover."""
    dur = cols["end"] - cols["start"]
    has_parent = cols["parent"] >= 0
    child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur - child


def summarize(rec: Recorder) -> dict:
    """Per-layer self time, per-name call counts and totals, cell wall times."""
    cols = rec.arrays()
    dur = cols["end"] - cols["start"]
    own = self_times(cols)
    n_names = len(rec.names)
    by_name_self = np.bincount(cols["name"], weights=own, minlength=n_names)
    by_name_total = np.bincount(cols["name"], weights=dur, minlength=n_names)
    by_name_calls = np.bincount(cols["name"], minlength=n_names)
    layer_self = {layer: 0.0 for layer in LAYERS}
    calls, total_s = {}, {}
    for i, name in enumerate(rec.names):
        layer_self[name.split(".", 1)[0]] += float(by_name_self[i])
        calls[name] = int(by_name_calls[i])
        total_s[name] = float(by_name_total[i])
    roots = cols["parent"] < 0
    # a cell is its run plus its CSV write: spans directly under a root
    # (run_experiment) that carry a cell id
    in_cell = (cols["cell"] >= 0) & ~roots & np.isin(cols["parent"], cols["id"][roots])
    cell_s = np.bincount(cols["cell"][in_cell], weights=dur[in_cell],
                         minlength=rec.n_cells)
    return {
        "in_run_s": float(dur[roots].sum()),
        "layer_self_s": layer_self,
        "calls": calls,
        "total_s": total_s,
        "cell_s": cell_s.tolist(),
        "spans": len(dur),
    }
