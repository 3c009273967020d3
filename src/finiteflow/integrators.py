"""Discrete-time steppers, the run loop, and a fixed-step reference integrator.

Every scheme is one of three steps. The Runge-Kutta step runs the paper's
multi-stage family ``rk``, whose stage i sits at
``x + h * sum_{j<i} betas[j] * v_j`` and whose step is
``x + h * sum_i alphas[i] * v_i``; forward Euler and ``gd`` (Euler on the
plain gradient flow) are its one-stage member ``x + h * v_1``, stepped by
the same loop over the stages after the first. The
look-ahead step covers ``nesterov`` and ``nagd`` (the same step on the plain
gradient flow). Adam is the third. The reference integrator is the
classical RK4, written out.

Each step builder and each reference run binds its flow's resolved field
(``FlowSpec._velocity_and_bound``) once; a first stage passes it the norm
the record pass took. A step checks its iterate's components only when
the iterate's squared norm is not finite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

# flow_eval stays a name here: perfbench's --trace 1 wraps integrators.flow_eval
from .flows import FlowSpec, NumericalFailure, flow_eval, norm2  # noqa: F401
from .objectives import BatchContext, Objective

# gd and nagd are euler and nesterov on the flow a config names as gf
_GRADIENT_FLOW = FlowSpec("gf")

# rows of the record columns before their first doubling, gradient rows
# held before their l1 norms are taken, and the most elements of the rows
# one batched objective call takes after a run
_RECORD_BLOCK = 1024
_GRADIENT_CHUNK = 64
_ROWS_CALL_ELEMENTS = 1 << 16

# the record loop keeps row 1 and every _ANCHOR_EVERY-th row after it as the
# anchor that later rows are compared with, so it finds any cycle of at most
# this many steps within one period of the first anchor inside the cycle
_ANCHOR_EVERY = 32

# a scalar speed bound within this factor of the cap leaves the velocity's
# norm to be taken, which covers the bound's rounding
_BOUND_SLACK = 1.0 + 1e-6

TERMINAL_GRAD_TOL = "grad_tol"
TERMINAL_F_TOL = "f_tol"
TERMINAL_MAX_ITERS = "max_iters"
TERMINAL_WALL_LIMIT = "wall_limit"
TERMINAL_NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class DiscretizerConfig:
    """One discrete optimization scheme plus its hyperparameters.

    Besides ``eta``, a scheme takes only the fields ``_SCHEME_TABLE`` lists
    for it, and a flow scheme needs its ``flow``. ``stages`` defaults to
    ``len(alphas)``, and the weights must sum to 1 (consistency condition).
    ``eta``, ``epsilon``, the weights and the offsets must be finite.
    Violations are rejected here, never at step time.
    """

    scheme: str
    eta: float
    beta: float = 0.0
    flow: FlowSpec | None = None
    stages: int | None = None
    alphas: tuple[float, ...] = (1.0,)
    betas: tuple[float, ...] = ()
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not self.eta >= 0:
            raise ValueError(f"step size eta must be non-negative, got {self.eta}")
        if math.isinf(self.eta):
            raise ValueError(f"step size eta must be finite, got {self.eta}")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        takes = ("scheme", "eta") + _SCHEME_TABLE[self.scheme][1]
        # a field the scheme does not read keeps its default, which passes the
        # checks below; stages is None until filled in, and 1 by the default alphas
        off = [f.name for f in fields(self) if f.name not in takes
               and getattr(self, f.name) not in (None, 1 if f.name == "stages" else f.default)]
        if off:
            raise ValueError(f"scheme {self.scheme!r} does not take {', '.join(off)}")
        if "flow" in takes and self.flow is None:
            raise ValueError(f"scheme {self.scheme!r} requires a flow")
        object.__setattr__(self, "stages", len(self.alphas) if self.stages is None else self.stages)
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"momentum beta must lie in [0, 1), got {self.beta}")
        if not 1 <= self.stages == len(self.alphas) == len(self.betas) + 1:
            raise ValueError(f"expected stages >= 1 weights and stages - 1 offsets, got stages = "
                             f"{self.stages}, {len(self.alphas)} weights, {len(self.betas)} offsets")
        for what, coefs in (("stage weights alphas", self.alphas),
                            ("stage offsets betas", self.betas)):
            if not all(map(math.isfinite, coefs)):
                raise ValueError(f"{what} must be finite, got {coefs}")
        if abs(math.fsum(self.alphas) - 1.0) > 1e-12:
            raise ValueError(
                f"stage weights must sum to 1 (consistency condition), got {math.fsum(self.alphas)!r}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("adam moment coefficients must lie in [0, 1)")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"adam epsilon must be positive and finite, got {self.epsilon}")


@dataclass(frozen=True)
class StopCriteria:
    """Run termination rules, checked at each row in the order grad_tol,
    f_tol, max_iters, wall_limit once the row's cost and gradient norm are
    found finite (a non-finite one ends the run as numerical_failure).

    A tolerance of zero disables that rule. ``f_tol`` applies to f - f_star
    and is only active when the objective carries optimum metadata.
    """

    max_iters: int
    grad_tol: float = 0.0
    f_tol: float = 0.0
    wall_limit: float | None = None

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if not (self.grad_tol >= 0 and self.f_tol >= 0):
            raise ValueError("tolerances must be non-negative")
        if self.wall_limit is not None and not self.wall_limit > 0:
            raise ValueError("wall_limit must be positive when set")


@dataclass
class StepperState:
    """Mutable per-run state: iterate, momentum memory, Adam moments, counter."""

    x: np.ndarray
    y: np.ndarray
    m: np.ndarray
    v: np.ndarray
    k: int = 0


Step = Callable[..., StepperState]  # see make_step


def init_state(x0: np.ndarray) -> StepperState:
    x0 = np.asarray(x0, dtype=float).copy()
    zeros = np.zeros_like(x0)
    return StepperState(x=x0, y=zeros.copy(), m=zeros.copy(), v=zeros.copy(), k=0)


def _ensure_finite(x: np.ndarray, scheme: str) -> None:
    # a finite squared norm proves every component finite
    if not math.isfinite(float(x.dot(x))) and not np.all(np.isfinite(x)):
        raise NumericalFailure(f"{scheme} step produced a non-finite iterate")


def _tableau_step(cfg: DiscretizerConfig) -> Step:
    """Runge-Kutta step of the configured flow in the paper's family
    ``cfg.betas`` and ``cfg.alphas``, for every stage count.

    Stage 0 takes v_0 from the gradient and norm at x. Then, for each pair
    (betas[i], alphas[i + 1]), v_{i+1} is taken at x + offset_i * h, where
    offset_i = offset_{i-1} + betas[i] * v_i, and the step adds h times the
    running sum of alphas[i] * v_i, so each sum runs left to right. A zero
    coefficient drops out and a unit one adds its velocity unscaled; every
    other coefficient, like every per-run constant of a per-step array
    product in this module, is a float64 0-d array made once here: numpy
    multiplies by one without converting a Python float again at every
    call, and rounds as it would with that float. Euler and gd have one
    stage of weight 1 and no pair, so their step is ``x + v_0 * h``."""
    flow_field = (_GRADIENT_FLOW if cfg.flow is None else cfg.flow)._velocity_and_bound
    h, scheme = np.array(cfg.eta, dtype=float), cfg.scheme

    def factor(c: float) -> np.ndarray | None:
        return None if c == 1.0 else np.array(c, dtype=float)

    alpha0, a0 = cfg.alphas[0], factor(cfg.alphas[0])
    pairs = tuple((beta, factor(beta), alpha, factor(alpha))
                  for beta, alpha in zip(cfg.betas, cfg.alphas[1:]))

    def step(_cfg, obj, state, grad=None, grad_norm=None):
        x = state.x
        if grad is None:
            grad = np.asarray(obj.gradient(x), dtype=float)
        v = flow_field(grad, grad_norm)[0]
        offset = None
        total = (v if a0 is None else v * a0) if alpha0 else None
        for beta, b, alpha, a in pairs:
            if beta:
                term = v if b is None else v * b
                offset = term if offset is None else offset + term
            z = x if offset is None else x + offset * h
            v = flow_field(np.asarray(obj.gradient(z), dtype=float))[0]
            if alpha:
                term = v if a is None else v * a
                total = term if total is None else total + term
        x_next = x + total * h
        _ensure_finite(x_next, scheme)
        return StepperState(x_next, state.y, state.m, state.v, state.k + 1)

    return step


def _look_ahead_step(cfg: DiscretizerConfig) -> Step:
    """Momentum step that evaluates the flow at the look-ahead point.

    x_{k+1} = x_k + beta*y_k + eta * F(x_k + beta*y_k), y_{k+1} = x_{k+1} - x_k.
    On the plain gradient flow this is Nesterov-accelerated descent (nagd).
    The gradient at x_k, when given, goes unused.
    """
    flow_field = (_GRADIENT_FLOW if cfg.flow is None else cfg.flow)._velocity_and_bound
    eta, beta = np.array(cfg.eta, dtype=float), np.array(cfg.beta, dtype=float)
    scheme = cfg.scheme

    def step(_cfg, obj, state, grad=None, grad_norm=None):
        look_ahead = state.x + beta * state.y
        v = flow_field(np.asarray(obj.gradient(look_ahead), dtype=float))[0]
        x_next = look_ahead + eta * v
        _ensure_finite(x_next, scheme)
        return StepperState(x_next, x_next - state.x, state.m, state.v, state.k + 1)

    return step


def _adam_step(cfg: DiscretizerConfig) -> Step:
    """Adam with bias-corrected first and second moment estimates."""
    eta, beta1, beta2, epsilon = cfg.eta, cfg.beta1, cfg.beta2, cfg.epsilon

    def step(_cfg, obj, state, grad=None, grad_norm=None):
        g = np.asarray(obj.gradient(state.x), dtype=float) if grad is None else grad
        k_next = state.k + 1
        m = beta1 * state.m + (1.0 - beta1) * g
        v = beta2 * state.v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** k_next)
        v_hat = v / (1.0 - beta2 ** k_next)
        x_next = state.x - eta * m_hat / (np.sqrt(v_hat) + epsilon)
        _ensure_finite(x_next, "adam")
        return StepperState(x_next, state.y, m, v, k_next)

    return step


# each scheme's step builder and the fields, besides eta, that its step reads
_SCHEME_TABLE = {"euler": (_tableau_step, ("flow",)),
                 "rk": (_tableau_step, ("flow", "stages", "alphas", "betas")),
                 "nesterov": (_look_ahead_step, ("flow", "beta")),
                 "gd": (_tableau_step, ()),
                 "nagd": (_look_ahead_step, ("beta",)),
                 "adam": (_adam_step, ("beta1", "beta2", "epsilon"))}
SCHEMES = tuple(_SCHEME_TABLE)


def make_step(cfg: DiscretizerConfig) -> Step:
    """The step ``(cfg, obj, state, grad=None, grad_norm=None) -> StepperState``
    of the scheme, with the scheme's constants resolved here once.

    The step reads its constants from the ``cfg`` given to ``make_step``; its
    own ``cfg`` argument only keeps the signature of a plain step function.
    ``grad`` and ``grad_norm``, when given, must be the float64 gradient at
    ``state.x`` and its Euclidean norm; they save re-evaluating what the
    caller has already observed.
    """
    return _SCHEME_TABLE[cfg.scheme][0](cfg)


@dataclass
class Trajectory:
    """Column-wise record of one run: per iterate index, time, state, cost,
    gradient norms, and wall seconds, plus why the run stopped.

    When the run found its step state repeating and filled its last rows
    instead of stepping them, every row from ``cycle_start`` on equals the
    row ``cycle_period`` after it, and ``cycle_period`` is the smallest such
    period; both are None when every row was stepped.
    """

    k: np.ndarray
    t: np.ndarray
    x: np.ndarray
    f: np.ndarray
    grad_norm2: np.ndarray
    grad_norm1: np.ndarray
    wall_s: np.ndarray
    terminal_reason: str
    cycle_start: int | None = None
    cycle_period: int | None = None

    def __len__(self) -> int:
        return len(self.k)

    def head(self, n: int) -> Trajectory:
        """The first ``n`` records: what the same run records when it is
        stopped after ``n - 1`` steps. The cycle is kept while the head
        still holds one repeat of it."""
        if n >= len(self.k):
            return self
        cycle = ((self.cycle_start, self.cycle_period)
                 if self.cycle_period is not None and self.cycle_start + self.cycle_period < n
                 else (None, None))
        return Trajectory(k=self.k[:n], t=self.t[:n], x=self.x[:n], f=self.f[:n],
                          grad_norm2=self.grad_norm2[:n],
                          grad_norm1=self.grad_norm1[:n], wall_s=self.wall_s[:n],
                          terminal_reason=TERMINAL_MAX_ITERS, cycle_start=cycle[0],
                          cycle_period=cycle[1])


def _grown(a: np.ndarray, rows: int) -> np.ndarray:
    out = np.empty((rows,) + a.shape[1:])
    out[:len(a)] = a
    return out


def _cycle_start(xs: np.ndarray, period: int) -> int:
    """The first row from which each of the rows ``xs`` equals the row
    ``period`` after it, comparing the bits of x, on which the other columns
    depend."""
    bits = xs.view(np.uint64)
    moved = np.flatnonzero((bits[period:] != bits[:len(bits) - period]).any(axis=1))
    return int(moved[-1]) + 1 if len(moved) else 0


def _costs_of_rows(obj: Objective, xs: np.ndarray, fs: np.ndarray, gn1s: np.ndarray,
                   n: int) -> int | None:
    """Fill ``fs[:n]`` and ``gn1s[:n]`` from ``obj.value_and_grad_rows`` on
    ``xs[:n]``, in blocks of at most ``_ROWS_CALL_ELEMENTS`` elements or one
    row, and return None, or the rows that a run calling ``value_and_grad``
    per row keeps when it ends as numerical_failure within them: up to the
    first row whose cost is not finite, or before the first row whose call
    raises an ArithmeticError. A block whose batched call raises is taken
    again one row at a time, to find that row."""
    block = max(1, _ROWS_CALL_ELEMENTS // obj.dimension)
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        try:
            f, g = obj.value_and_grad_rows(xs[lo:hi])
        except ArithmeticError:
            for i in range(lo, hi):
                try:
                    fs[i], g = obj.value_and_grad(xs[i])
                except ArithmeticError:
                    return i
                # np.add.reduce is ndarray.sum without its Python wrapper
                gn1s[i] = np.add.reduce(np.abs(g))
                if not math.isfinite(fs[i]):
                    return i + 1
            raise
        fs[lo:hi] = f
        # each row's reduction along the last axis is that row's l1 norm
        gn1s[lo:hi] = np.add.reduce(np.abs(g), axis=1)
        bad = np.flatnonzero(~np.isfinite(f))
        if len(bad):
            return lo + int(bad[0]) + 1
    return None


def _record_until_stop(obj: Objective, x: np.ndarray, dt: float, stop: StopCriteria,
                       advance: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
                       repeats: bool) -> Trajectory:
    """Record x, then step with ``advance(x, grad, ||grad||) -> next x`` until
    a stop rule fires.

    Iterate k is recorded at time k*dt with its cost, gradient norms and wall
    seconds. The run ends as numerical_failure, keeping every iterate
    recorded so far, when a recorded cost or gradient is not finite, when
    the objective raises an ArithmeticError, or when a step raises
    NumericalFailure.

    ``repeats`` promises that, from row 1 on, the next x is a pure function
    of the last two rows. Without a wall limit the loop then compares each
    row and the row before it with an anchor pair, taken at row 1 and every
    ``_ANCHOR_EVERY`` rows after: by the gradient norm first and by the bits
    of x only when that matches. A match P rows after the anchor means every
    later row repeats the row P before it (P is the smallest period once the
    anchor lies in the cycle), so the rows up to ``max_iters`` are filled,
    with no objective call, by one periodic rule: for the n rows recorded,
    row j >= n is row n - P + (j - n) mod P in the x, f and gradient norm
    columns. The run ends as max_iters; no stop rule can fire on a filled
    row, which repeats a row that passed them. Filled rows hold the last
    measured ``wall_s``, so ``wall_s`` never goes down.

    The record columns start at ``_RECORD_BLOCK`` rows and double when full,
    since a run under a wall limit may have a huge ``max_iters``.

    Each row makes one objective call, ``obj.value_and_grad``, and gradient
    rows are reduced to their l1 norms ``_GRADIENT_CHUNK`` rows at a time;
    except where no stop rule reads the cost (``f_tol`` is 0 or the
    objective has no optimum metadata) and ``obj.closed_rows`` holds. Then
    each row calls ``obj.gradient`` alone, and after the loop
    ``obj.value_and_grad_rows`` fills the cost and l1 columns, in calls of
    at most ``_ROWS_CALL_ELEMENTS`` elements or one row, with the same
    bits. The run is then cut where the row-by-row run would have ended,
    before any cycle fill: after the first row whose cost is not finite,
    or before the first row whose ``value_and_grad`` raises an
    ArithmeticError.
    """
    rows = min(stop.max_iters + 1, _RECORD_BLOCK)
    xs = np.empty((rows, obj.dimension))
    fs, gn2s, gn1s, walls = (np.empty(rows) for _ in range(4))
    grads = np.empty((min(rows, _GRADIENT_CHUNK), obj.dimension))
    chunk, capacity = len(grads), rows
    last = chunk - 1  # a chunk's last row
    grad_tol, max_iters, wall_limit = stop.grad_tol, stop.max_iters, stop.wall_limit
    f_tol = stop.f_tol if obj.metadata is not None else 0.0
    f_star = obj.metadata.f_star if f_tol > 0 else 0.0
    # per_row: each row's cost is taken in the loop; otherwise f stays 0.0,
    # which passes the tests on f, until the rows' costs are taken after it
    per_row, f = f_tol > 0 or not obj.closed_rows, 0.0
    # a row within these open bounds meets no stop rule; a nan is within none
    inf = math.inf
    gn2_lo, gap_lo = (tol if tol > 0 else -inf for tol in (grad_tol, f_tol))
    wall_hi = inf if wall_limit is None else wall_limit
    n = 0  # rows recorded; the next row is iterate k = n
    period = None
    # the anchor's gradient norm stays nan, which equals no norm, until row
    # next_anchor is recorded, and for good when rows may not repeat
    anchor, anchor_gn2 = 0, math.nan
    next_anchor = 1 if repeats and wall_limit is None else -1
    value_and_grad, gradient, clock = obj.value_and_grad, obj.gradient, time.perf_counter
    t_start = clock()
    try:
        while True:
            if n == capacity:
                capacity = 2 * n
                xs, fs, gn2s, gn1s, walls = (_grown(a, capacity)
                                             for a in (xs, fs, gn2s, gn1s, walls))
            if per_row:
                f, g = value_and_grad(x)
                fs[n] = f
                grads[n % chunk] = g
                if n % chunk == last:
                    gn1s[n - last:n + 1] = np.add.reduce(np.abs(grads), axis=1)
            else:
                g = gradient(x)
            gn2 = norm2(g)
            xs[n] = x
            gn2s[n] = gn2
            walls[n] = wall = clock() - t_start
            n += 1
            if not (gn2_lo < gn2 < inf and gap_lo < f - f_star and f < inf
                    and n <= max_iters and wall < wall_hi):
                # the stop rules, in the order StopCriteria documents, test the
                # bounds above; f_star is finite, so a finite row fails one
                reason = (TERMINAL_NUMERICAL_FAILURE
                          if not (math.isfinite(f) and math.isfinite(gn2))
                          else TERMINAL_GRAD_TOL if gn2 <= gn2_lo
                          else TERMINAL_F_TOL if f - f_star <= gap_lo
                          else TERMINAL_MAX_ITERS if n > max_iters
                          else TERMINAL_WALL_LIMIT)
                break
            if (gn2 == anchor_gn2 and xs[n - 1].tobytes() == xs[anchor].tobytes()
                    and xs[n - 2].tobytes() == xs[anchor - 1].tobytes()):
                period = n - 1 - anchor
                break
            if n - 1 == next_anchor:
                anchor, anchor_gn2, next_anchor = n - 1, gn2, next_anchor + _ANCHOR_EVERY
            x = advance(x, g, gn2)
    except (NumericalFailure, ArithmeticError):
        reason = TERMINAL_NUMERICAL_FAILURE
    if per_row:
        # row by row this is np.abs(g).sum() of each gradient, to the bit;
        # np.add.reduce is ndarray.sum without its Python wrapper
        gn1s[n - n % chunk:n] = np.add.reduce(np.abs(grads[:n % chunk]), axis=1)
    else:
        kept = _costs_of_rows(obj, xs, fs, gn1s, n)
        if kept is not None:
            n, reason, period = kept, TERMINAL_NUMERICAL_FAILURE, None
    start = None
    if period is not None:
        start = _cycle_start(xs[:n], period)
        xs, fs, gn2s, gn1s, walls = (_grown(a[:n], max_iters + 1) for a in (xs, fs, gn2s, gn1s, walls))
        for a in (xs, fs, gn2s, gn1s):
            # np.resize repeats the last period's rows in order
            a[n:] = np.resize(a[n - period:n], a[n:].shape)
        walls[n:] = walls[n - 1]
        n, reason = max_iters + 1, TERMINAL_MAX_ITERS
    if n < len(xs):
        xs, fs, gn2s, gn1s, walls = (a[:n].copy() for a in (xs, fs, gn2s, gn1s, walls))
    k = np.arange(n)
    return Trajectory(k=k, t=k * dt, x=xs, f=fs, grad_norm2=gn2s, grad_norm1=gn1s,
                      wall_s=walls, terminal_reason=reason, cycle_start=start,
                      cycle_period=period)


def _checked_start(obj: Objective, x0: np.ndarray) -> np.ndarray:
    """x0 as a float64 array, checked to be one finite point of ``obj``."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (obj.dimension,):
        raise ValueError(f"x0 must have shape ({obj.dimension},), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    return x0


def run(cfg: DiscretizerConfig, obj: Objective, x0: np.ndarray, stop: StopCriteria,
        batch: BatchContext | None = None) -> Trajectory:
    """Iterate the configured stepper from x0 until a stop criterion fires.

    Every iterate is recorded with the full-objective value and gradient
    norms (also in mini-batch mode, so recorded metrics always refer to the
    true cost). When ``batch`` is given, the stepper sees the mini-batch
    gradient for its step index; the run is then a pure function of
    (cfg, obj, x0, stop, batch.rng_seed).

    Without ``batch``, a Runge-Kutta step reads x alone and a look-ahead step
    reads x and y, where y is x_k - x_{k-1} to the bit; either way the next
    x is a pure function of the last two rows, so ``_record_until_stop``
    fills the rows of a repeating run by its periodic rule. Adam, whose bias
    correction reads the step index, and mini-batch runs step every row.
    """
    x0 = _checked_start(obj, x0)
    if batch is not None and obj.batch_gradient is None:
        raise ValueError(f"objective {obj.name!r} does not support mini-batch gradients")

    step = make_step(cfg)
    state = init_state(x0)
    if batch is not None:
        # the stepper's view of the objective: its gradient is the mini-batch
        # gradient over the current step's indices
        idx = None
        batch_obj = replace(obj, gradient=lambda z: obj.batch_gradient(z, idx))

        def advance(x: np.ndarray, g: np.ndarray, gn2: float) -> np.ndarray:
            nonlocal state, idx
            idx = batch.indices(state.k)
            state = step(cfg, batch_obj, state)
            return state.x

        return _record_until_stop(obj, state.x, cfg.eta, stop, advance, repeats=False)

    def advance(x: np.ndarray, g: np.ndarray, gn2: float) -> np.ndarray:
        nonlocal state
        # the step reuses the gradient the record pass computed at x
        state = step(cfg, obj, state, g, gn2)
        return state.x

    return _record_until_stop(obj, state.x, cfg.eta, stop, advance,
                              repeats=cfg.scheme != "adam")


def integrate_reference(flow: FlowSpec, obj: Objective, x0: np.ndarray,
                        h_ref: float, stop: StopCriteria) -> Trajectory:
    """Classical RK4 fixed-step integration of dx/dt = F(grad f(x)).

    Each step is the RK4 update written out, with its factors 1/2, 1/3 and
    1/6 made float64 0-d arrays once::

        v2 = F(x + v1 * half * h),  v3 = F(x + v2 * half * h),
        v4 = F(x + v3 * h),
        x + (v1 * sixth + v2 * third + v3 * third + v4 * sixth) * h

    where the first stage v1 reuses the gradient and norm of the record pass.

    Intended as the near-exact continuous trajectory against which discrete
    runs are compared, so ``h_ref`` should be much smaller than any discrete
    step size under study. Dense output is recorded every step, and the
    run stops by the same rules as ``run``: typically at the first iterate
    with gradient norm below ``stop.grad_tol`` (finite-time arrival) or
    after ``stop.max_iters`` steps.

    Near arrival the flows are not Lipschitz; any stage whose speed exceeds
    a thousand times the previous per-step displacement rate is clamped to
    that rate, which keeps a single wild stage from hurling the iterate
    across the equilibrium.

    The cap reads x_k - x_{k-1}, so the next x is a pure function of the
    last two rows: once a step under a zero cap leaves x's bits unchanged,
    ``_record_until_stop`` fills the frozen rows after it by its periodic
    rule with period 1, with no objective call.
    """
    if not h_ref > 0:
        raise ValueError("h_ref must be positive")
    x = _checked_start(obj, x0)
    prev_x: np.ndarray | None = None
    speed_cap: float | None = None
    h = np.array(h_ref, dtype=float)
    half, third, sixth = (np.array(c, dtype=float) for c in (0.5, 1.0 / 3.0, 1.0 / 6.0))
    flow_field, gradient = flow._velocity_and_bound, obj.gradient

    def stage(z: np.ndarray, g: np.ndarray | None = None, gn2: float | None = None) -> np.ndarray:
        """The velocity at z, its speed clamped to the cap; ``g`` and ``gn2``,
        when given, are z's gradient and its norm. The velocity's norm is
        taken only when the field's scalar bound leaves the cap in doubt."""
        if g is None:
            g = np.asarray(gradient(z), dtype=float)
        v, bound = flow_field(g, gn2)
        if speed_cap is not None and bound * _BOUND_SLACK > speed_cap:
            speed = norm2(v)
            if speed > speed_cap:
                v = v * (speed_cap / speed) if speed_cap > 0 else np.zeros_like(v)
        return v

    def advance(x: np.ndarray, g: np.ndarray, gn2: float) -> np.ndarray:
        nonlocal prev_x, speed_cap
        if prev_x is not None:
            speed_cap = norm2(x - prev_x) / h_ref * 1e3
        # the first stage reuses the gradient and norm the record pass computed
        v1 = stage(x, g, gn2)
        v2 = stage(x + v1 * half * h)
        v3 = stage(x + v2 * half * h)
        v4 = stage(x + v3 * h)
        x_next = x + (v1 * sixth + v2 * third + v3 * third + v4 * sixth) * h
        _ensure_finite(x_next, "reference")
        prev_x = x
        return x_next

    return _record_until_stop(obj, x, h_ref, stop, advance, repeats=True)
