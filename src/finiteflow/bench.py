"""Experiment runner: sweeps, CSV artifacts, summaries, bound and closeness checks."""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import (check_gradient_dominance, closeness_epsilon,
                       dominance_params, energy_decay_envelope, k_star,
                       settling_time_bound, verify_envelope, weak_bound)
from .config import ExperimentConfig, NamedOptimizer, finite_time_flow
from .flows import norm2
from .integrators import (DiscretizerConfig, StopCriteria, Trajectory,
                          integrate_reference, run)
from .objectives import BatchContext, Objective

CSV_HEADER = "k,t,f,f_gap,grad_norm2,grad_norm1,wall_s"
ITERS_SENTINEL = -1
ARRIVAL_GRAD_TOL = 1e-6  # bound_report: arrival is the first record at or below it
ENVELOPE_SLACK = 1e-6
HORIZON_FACTOR = 1.3  # bound_report looks for arrival within this many settling bounds
N_HALVINGS = 3  # closeness_table: step sizes eta, eta/2, ..., eta/2^(N_HALVINGS-1)


# one formatting call per row over the columns' tolist() values; %.17g
# writes the same digits as f"{v:.17g}", and %s of such a string the same
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n".__mod__
_CSV_ROW_SAME_GAP = "%d,%.17g,%s,%s,%.17g,%.17g,%.17g\n".__mod__  # f's string twice
_CSV_TAIL_ROW = "%d,%.17g,%s,%s\n".__mod__  # k, t, then f to grad_norm1, then wall_s
_CYCLE_ROW = "%.17g,%.17g,%.17g,%.17g".__mod__  # f, f_gap, grad_norm2, grad_norm1
_MEAN_CURVE_ROW = "%d,%.17g,%.17g\n".__mod__
_MEAN_CURVE_ROW_SAME_GAP = "%d,%s,%s\n".__mod__
_fmt = "%.17g".__mod__  # one float


def _gap(f: np.ndarray, f_star: float | None) -> np.ndarray:
    return f - f_star if f_star is not None else np.full(len(f), math.nan)


def emit_csv(traj: Trajectory, path: str | Path, f_star: float | None = None,
             writer: CsvWriter | None = None) -> Path:
    """Write one trajectory as CSV with 17-significant-digit floats, LF newlines.

    Numbers that the columns repeat are formatted once. From one period into
    a filled cycle on, a row's f, f_gap and gradient norms reuse the strings
    of the cycle's row in the same phase, and its trailing rows that hold the
    last wall_s share one string. f_gap reuses f's strings when the two
    columns are equal to the bit, as they are when f_star = 0.

    Without a ``writer`` the file is written when this returns. With one,
    the columns the CSV needs (not ``x``) go to that forked process, which
    writes them with the same code while this one runs on; the file is there
    once ``writer.close()`` has returned.
    """
    path = Path(path)
    job = (path, f_star, traj.k, traj.t, traj.f, traj.grad_norm2, traj.grad_norm1,
           traj.wall_s, traj.cycle_start, traj.cycle_period)
    if writer is None:
        _write_csv(*job)
    else:
        writer.send(job)
    return path


def _write_csv(path: Path, f_star: float | None, k: np.ndarray, t: np.ndarray,
               f: np.ndarray, grad_norm2: np.ndarray, grad_norm1: np.ndarray,
               wall: np.ndarray, start: int | None, period: int | None) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    n = len(k)
    gap = _gap(f, f_star)
    periodic = (f, gap, grad_norm2, grad_norm1)
    # rows from `tail` on repeat the row a period before them in `periodic`
    tail = n if period is None else min(n, start + period)
    k, t = k.tolist(), t.tolist()
    cols = [k, t] + [c[:tail].tolist() for c in (*periodic, wall)]
    row = _CSV_ROW
    if gap.tobytes() == f.tobytes():
        cols[2] = cols[3] = list(map(_fmt, cols[2]))
        row = _CSV_ROW_SAME_GAP
    text = [CSV_HEADER + "\n", *map(row, zip(*cols))]
    if tail < n:
        phases = list(map(_CYCLE_ROW, zip(*(c[start:tail].tolist() for c in periodic))))
        # the rows after the last change of wall_s share its string
        changed = np.flatnonzero(wall[tail:] != wall[-1])
        held = tail + (int(changed[-1]) + 1 if len(changed) else 0)
        walls = list(map(_fmt, wall[tail:held].tolist())) + [_fmt(wall[-1])] * (n - held)
        phases *= (n - tail) // period + 1
        text += map(_CSV_TAIL_ROW, zip(k[tail:], t[tail:], phases, walls))
    path.write_text("".join(text), newline="\n")


class CsvWriter:
    """A forked child process that writes the cell CSVs sent to it, in order.

    ``send`` pickles one ``_write_csv`` job into a pipe and returns; the
    child formats and writes it while the parent runs the next cell.
    ``close`` ends the pipe, waits for the child and raises the first error
    it hit (a ``send`` that finds the child gone raises it at once).

    The child runs on the CPUs other than one that the parent holds while
    it forks: left to the scheduler of a 2-vCPU Linux VM, a forked child
    stayed on its parent's CPU for 0.4 s of busy work, and the two ran no
    faster than one. It is born with SIGINT blocked and then ignores it, so
    a Ctrl-C stops only the parent, whose ``close`` lets the child finish
    what it was sent; it leaves through ``os._exit``, running none of the
    parent's exit handlers.
    """

    def __init__(self) -> None:
        jobs_r, jobs_w = os.pipe()
        errors_r, errors_w = os.pipe()
        cpus = os.sched_getaffinity(0)
        home = min(cpus)
        os.sched_setaffinity(0, {home})
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self.pid = os.fork()
            if self.pid == 0:
                _serve(jobs_r, errors_w, (jobs_w, errors_r), cpus - {home})
        except BaseException:
            for fd in (jobs_r, jobs_w, errors_r, errors_w):
                os.close(fd)
            raise
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
            os.sched_setaffinity(0, cpus)
        os.close(jobs_r)
        os.close(errors_w)
        self._jobs = open(jobs_w, "wb")
        self._errors = errors_r

    def send(self, job: tuple) -> None:
        try:
            pickle.dump(job, self._jobs, protocol=pickle.HIGHEST_PROTOCOL)
            self._jobs.flush()
        except BrokenPipeError:  # the child has stopped on an error
            self.close()
            raise

    def close(self) -> None:
        """Wait for every CSV sent so far; raise the child's error, if any."""
        if self.pid is None:
            return
        try:
            self._jobs.close()
        except BrokenPipeError:
            pass
        with open(self._errors, "rb") as fh:
            error = fh.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if error:
            raise pickle.loads(error)
        if status:
            raise ChildProcessError(f"the CSV writer ended with wait status {status}")


def _serve(jobs: int, errors: int, parent_ends: tuple[int, int], cpus: set[int]) -> None:
    """The writer child, from fork to exit: write each job until the pipe
    ends, pickle the first error into ``errors``, and leave through
    ``os._exit``, whatever happens."""
    status = 1
    try:
        for fd in parent_ends:
            os.close(fd)
        os.sched_setaffinity(0, cpus)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        with open(jobs, "rb") as src:
            while True:
                try:
                    job = pickle.load(src)
                except EOFError:
                    break
                _write_csv(*job)
        status = 0
    except BaseException as exc:  # the jobs pipe is closed here, so a blocked send ends
        try:
            error = pickle.dumps(exc)
        except Exception:
            error = pickle.dumps(RuntimeError(f"CSV writer: {exc!r}"))
        with open(errors, "wb") as fh:
            fh.write(error)
    finally:
        os._exit(status)


def _writer_pays() -> bool:
    """Whether a forked CSV writer can run beside this process: fork and CPU
    affinity exist, no other thread could hold a lock the child needs, and a
    second CPU is there to run it."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1 and len(os.sched_getaffinity(0)) > 1)


@contextmanager
def _cell_writer(n_cells: int):
    """A ``CsvWriter`` for a sweep of more than one cell where one pays, else
    None; closed on leaving, which raises the writer's error unless the body
    raised first."""
    if n_cells < 2 or not _writer_pays():
        yield None
        return
    writer = CsvWriter()
    try:
        yield writer
    except BaseException:
        try:
            writer.close()
        except Exception:
            pass  # the body's error is the one to report
        raise
    writer.close()


def read_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Parse a trajectory or summary-free CSV back into column arrays."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = {name: np.array([float(r[i]) for r in rows])
            for i, name in enumerate(header)}
    return cols


@dataclass
class CellResult:
    """Outcome of one (optimizer, seed) run."""

    optimizer: str
    seed: int
    final_f: float
    final_f_gap: float
    iters_to_tol: float
    wall_s: float
    terminal_reason: str
    csv_path: Path


@dataclass
class RunSummary:
    cells: list[CellResult]
    out_dir: Path

    def aggregate(self, name: str) -> dict[str, float]:
        cells = [c for c in self.cells if c.optimizer == name]
        if not cells:
            raise KeyError(f"no cells for optimizer {name!r}")
        stats = {}
        for field_name in ("final_f", "final_f_gap", "iters_to_tol", "wall_s"):
            vals = np.array([getattr(c, field_name) for c in cells])
            stats[f"median_{field_name}"] = float(np.median(vals))
            stats[f"min_{field_name}"] = float(np.min(vals))
            stats[f"max_{field_name}"] = float(np.max(vals))
        return stats


def _iters_to_tolerance(traj: Trajectory, f_star: float | None, f_tol: float) -> float:
    """First step index with f - f_star <= f_tol; +inf when never reached."""
    if f_star is None or f_tol <= 0:
        return math.inf
    hits = np.nonzero(traj.f - f_star <= f_tol)[0]
    return float(traj.k[hits[0]]) if len(hits) else math.inf


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> RunSummary:
    """Execute every (optimizer, seed) cell of the config and write artifacts.

    Per cell: ``run`` and then one ``emit_csv`` of the trajectory CSV, after
    which only the cell's cost column is kept, so the sweep holds one
    trajectory at a time. A sweep of more than one cell hands the CSVs to
    one forked ``CsvWriter``, which formats each while the next cell runs,
    and waits for it right after the last cell; the CSVs are written inline
    instead where fork is missing, another thread is running or only one
    CPU is available. After the last cell: a summary CSV with per-cell rows
    plus median/min/max rows per optimizer, and one mean-over-seeds loss
    curve CSV per optimizer. A cell that fails numerically is recorded in
    the summary with its partial trajectory and the sweep continues; any
    other exception, also one the writer hit, propagates. Initial points
    and mini-batch schedules depend only on (base_seed, seed index), so
    re-runs are reproducible.
    """
    out = Path(out_dir) if out_dir is not None else Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    obj = cfg.build_objective()
    f_star = obj.metadata.f_star if obj.metadata is not None else None

    cells: list[CellResult] = []
    # the cost columns of each optimizer's cells that recorded anything
    costs: dict[str, list[np.ndarray]] = {}
    seeds = range(cfg.init.base_seed, cfg.init.base_seed + cfg.init.n_seeds)
    with _cell_writer(len(cfg.optimizers) * len(seeds)) as writer:
        for opt in cfg.optimizers:
            for seed in seeds:
                batch = None
                if cfg.batch is not None:
                    batch = BatchContext(rng_seed=seed, batch_size=cfg.batch.size,
                                         dataset_size=obj.aux["dataset_size"])
                path = out / f"{opt.name}__seed{seed}.csv"
                traj = run(opt.config, obj, cfg.init.draw(obj.dimension, seed), cfg.stop,
                           batch=batch)
                emit_csv(traj, path, f_star, writer=writer)
                # a run whose objective fails at x0 records nothing
                final_f = float(traj.f[-1]) if len(traj) else math.nan
                cells.append(CellResult(
                    optimizer=opt.name,
                    seed=seed,
                    final_f=final_f,
                    final_f_gap=final_f - f_star if f_star is not None else math.nan,
                    iters_to_tol=_iters_to_tolerance(traj, f_star, cfg.stop.f_tol),
                    wall_s=float(traj.wall_s[-1]) if len(traj) else math.nan,
                    terminal_reason=traj.terminal_reason,
                    csv_path=path,
                ))
                if len(traj):
                    costs.setdefault(opt.name, []).append(traj.f)
                del traj  # free before the next cell runs

    summary = RunSummary(cells=cells, out_dir=out)
    _write_summary(summary, cfg, out)
    _write_mean_curves(costs, f_star, out)
    # run_bounds and run_closeness are only valid with a dominance section
    if cfg.analysis.dominance is not None:
        _write_reports(analysis_reports(cfg, obj), out)
    return summary


def _write_summary(summary: RunSummary, cfg: ExperimentConfig, out: Path) -> None:
    lines = ["optimizer,seed,final_f,final_f_gap,iters_to_tol,wall_s,terminal_reason"]
    for c in summary.cells:
        iters = ITERS_SENTINEL if math.isinf(c.iters_to_tol) else int(c.iters_to_tol)
        lines.append(f"{c.optimizer},{c.seed},{_fmt(c.final_f)},{_fmt(c.final_f_gap)},"
                     f"{iters},{_fmt(c.wall_s)},{c.terminal_reason}")
    for opt in cfg.optimizers:
        stats = summary.aggregate(opt.name)
        for stat in ("median", "min", "max"):
            iters = stats[f"{stat}_iters_to_tol"]
            iters_txt = str(ITERS_SENTINEL) if math.isinf(iters) else _fmt(iters)
            lines.append(f"{opt.name},{stat},{_fmt(stats[f'{stat}_final_f'])},"
                         f"{_fmt(stats[f'{stat}_final_f_gap'])},{iters_txt},"
                         f"{_fmt(stats[f'{stat}_wall_s'])},aggregate")
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    if "json" in cfg.output.formats:
        # JSON has no Infinity or NaN, so a non-finite aggregate is null
        payload = {opt.name: {k: v if math.isfinite(v) else None
                              for k, v in summary.aggregate(opt.name).items()}
                   for opt in cfg.optimizers}
        (out / "summary.json").write_text(json.dumps(payload, indent=2, allow_nan=False))


def _write_mean_curves(costs: dict[str, list[np.ndarray]], f_star: float | None,
                       out: Path) -> None:
    # mean-over-seeds cost per step; shorter runs are padded with their final
    # value so converged runs keep contributing to the average
    for name, fs in costs.items():
        longest = max(len(f) for f in fs)
        stacked = np.full((len(fs), longest), np.nan)
        for i, f in enumerate(fs):
            stacked[i, :len(f)] = f
            stacked[i, len(f):] = f[-1]
        mean_f = stacked.mean(axis=0)
        gap = _gap(mean_f, f_star)
        if gap.tobytes() == mean_f.tobytes():  # f_star = 0: one string for both
            fs = list(map(_fmt, mean_f.tolist()))
            rows = map(_MEAN_CURVE_ROW_SAME_GAP, zip(range(longest), fs, fs))
        else:
            rows = map(_MEAN_CURVE_ROW, zip(range(longest), mean_f.tolist(), gap.tolist()))
        (out / f"{name}__mean_curve.csv").write_text("k,mean_f,mean_f_gap\n" + "".join(rows))


def flow_optimizers(cfg: ExperimentConfig) -> list[NamedOptimizer]:
    return [o for o in cfg.optimizers if finite_time_flow(o.config)]


def bound_report(obj: Objective, opt: DiscretizerConfig, x0: np.ndarray,
                 p: float, mu: float, h_ref: float | None = None) -> dict:
    """Evaluate the theoretical bounds for one finite-time (rgf or sgf) optimizer.

    Computes the settling-time bound at x0, measures arrival and checks the
    energy envelope along the reference flow, and checks the discrete weak
    bound using the measured trajectory closeness. One reference trajectory
    at step min(h_ref, eta/10) serves all three; h_ref defaults to eta/100.
    """
    if not finite_time_flow(opt):
        raise ValueError("bound report needs an optimizer on an rgf or sgf flow")
    if obj.metadata is None:
        raise ValueError("bound report needs optimum metadata")
    flow = opt.flow
    x0 = np.asarray(x0, dtype=float)
    f_star = obj.metadata.f_star
    params = dominance_params(p, mu, flow.q, flow.c)

    f0, g0 = obj.value_and_grad(x0)
    grad0, f_gap0 = norm2(g0), f0 - f_star
    t_bound = settling_time_bound(params, grad0)
    ks = k_star(params, opt.eta, f_gap0)
    k_max = int(math.ceil(1.1 * ks))
    horizon = k_max * opt.eta

    # closeness needs samples at most eta/10 apart
    h = min(h_ref if h_ref is not None else opt.eta / 100.0, opt.eta / 10.0)
    n_arrival = int(math.ceil(HORIZON_FACTOR * t_bound / h))
    n_horizon = int(math.ceil(horizon / h))
    ref = integrate_reference(flow, obj, x0, h,
                              StopCriteria(max_iters=max(n_arrival, n_horizon),
                                           grad_tol=0.0))
    # arrival is the first record within n_arrival steps below the gradient
    # tolerance; a run stopped there records exactly the rows up to it
    hits = np.nonzero(ref.grad_norm2[:n_arrival + 1] <= ARRIVAL_GRAD_TOL)[0]
    arrived = ref.head(hits[0] + 1 if len(hits) else n_arrival + 1)
    arrival = float(ref.t[hits[0]]) if len(hits) else math.nan

    env_report = verify_envelope(
        arrived, lambda t: energy_decay_envelope(params, params.c, f_gap0, t),
        f_star, slack=ENVELOPE_SLACK, key="t")

    disc = run(opt, obj, x0, StopCriteria(max_iters=k_max, grad_tol=0.0, f_tol=0.0))
    eps = closeness_epsilon(ref.head(n_horizon + 1), disc, T=horizon, eta=opt.eta)
    lipschitz = float(np.max(disc.grad_norm2))
    weak_report = verify_envelope(
        disc,
        lambda k: weak_bound(params, opt.eta, f_gap0, lipschitz, eps, k),
        f_star, slack=ENVELOPE_SLACK, key="k")

    return {
        "t_star_bound": t_bound,
        "arrival_time": arrival,
        "arrival_grad_tol": ARRIVAL_GRAD_TOL,
        "envelope_pass": env_report.verdict,
        "envelope_violations": len(env_report.violations),
        "k_star": ks,
        "eps_measured": eps,
        "lipschitz_estimate": lipschitz,
        "weak_bound_pass": weak_report.verdict,
        "weak_bound_violations": len(weak_report.violations),
    }


def closeness_table(obj: Objective, opt: DiscretizerConfig, x0: np.ndarray,
                    horizon: float) -> list[tuple[float, float]]:
    """Measured closeness eps for a halving sequence of step sizes.

    One dense reference (spacing fine enough for the smallest step size) is
    shared by all entries; each discrete run covers the same horizon.
    """
    if not finite_time_flow(opt):
        raise ValueError("closeness table needs an optimizer on an rgf or sgf flow")
    etas = [opt.eta / 2 ** j for j in range(N_HALVINGS)]
    h = etas[-1] / 10.0
    ref = integrate_reference(
        opt.flow, obj, x0, h,
        StopCriteria(max_iters=int(math.ceil(horizon / h)) + 1, grad_tol=0.0))
    rows = []
    for eta in etas:
        k_max = int(math.floor(horizon / eta + 1e-9))
        disc = run(replace(opt, eta=eta), obj, x0,
                   StopCriteria(max_iters=k_max, grad_tol=0.0, f_tol=0.0))
        rows.append((eta, closeness_epsilon(ref, disc, T=horizon, eta=eta)))
    return rows


def dominance_summary(cfg: ExperimentConfig, obj: Objective) -> dict | None:
    """The gradient dominance check of the config's dominance section, or
    None when there is no section or no known optimum."""
    dom = cfg.analysis.dominance
    if dom is None or obj.metadata is None:
        return None
    return asdict(check_gradient_dominance(obj, dom.p, dom.mu, dom.radius,
                                           dom.n_samples, seed=cfg.init.base_seed))


def bound_reports(cfg: ExperimentConfig, obj: Objective) -> dict[str, dict]:
    """``bound_report`` from the base seed's x0 for each finite-time optimizer."""
    dom = cfg.analysis.dominance
    x0 = cfg.init.draw(obj.dimension, cfg.init.base_seed)
    return {opt.name: bound_report(obj, opt.config, x0, dom.p, dom.mu,
                                   h_ref=cfg.analysis.h_ref)
            for opt in flow_optimizers(cfg)}


def closeness_reports(cfg: ExperimentConfig,
                      obj: Objective) -> dict[str, list[tuple[float, float]]]:
    """``closeness_table`` from the base seed's x0 for each finite-time
    optimizer, over 1.2 times its settling-time bound."""
    dom = cfg.analysis.dominance
    x0 = cfg.init.draw(obj.dimension, cfg.init.base_seed)
    grad0 = norm2(obj.gradient(x0))
    tables = {}
    for opt in flow_optimizers(cfg):
        flow = opt.config.flow
        params = dominance_params(dom.p, dom.mu, flow.q, flow.c)
        horizon = 1.2 * settling_time_bound(params, grad0)
        tables[opt.name] = closeness_table(obj, opt.config, x0, horizon)
    return tables


def analysis_reports(cfg: ExperimentConfig, obj: Objective | None = None) -> dict:
    """Run the analysis passes requested by the config (bounds, closeness,
    gradient dominance) and return one report per finite-time optimizer."""
    if obj is None:
        obj = cfg.build_objective()
    return {
        "dominance": dominance_summary(cfg, obj),
        "bounds": bound_reports(cfg, obj) if cfg.analysis.run_bounds else {},
        "closeness": (closeness_reports(cfg, obj) if cfg.analysis.run_closeness
                      else {}),
    }


def _write_reports(reports: dict, out: Path) -> None:
    closeness = {name: [{"eta": e, "eps": v} for e, v in rows]
                 for name, rows in reports["closeness"].items()}
    (out / "analysis.json").write_text(json.dumps({**reports, "closeness": closeness}, indent=2))
