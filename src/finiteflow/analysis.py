"""Theoretical quantities for the finite-time flows and checks against runs.

Covers the settling-time bound for gradient-dominated costs, the energy
decay envelope, the discrete weak bound with its step count k_star, the
two-sided trajectory-closeness measure, and an empirical gradient-dominance
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .flows import norm2
from .integrators import Trajectory
from .objectives import Objective


@dataclass(frozen=True)
class DominanceParams:
    """Derived constants shared by the bounds.

    theta = (p-1)/p, theta_prime = (q-1)/q, C = (p/(p-1))^theta * mu^(1/p),
    alpha = theta/theta_prime, and c_tilde = c * C^(1/theta_prime). Only
    the finite-time regime q > p is accepted, which makes alpha < 1.
    """

    p: float
    mu: float
    q: float
    c: float
    theta: float = field(init=False)
    theta_prime: float = field(init=False)
    C: float = field(init=False)
    alpha: float = field(init=False)
    c_tilde: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.p > 1:
            raise ValueError(f"order p must exceed 1, got {self.p}")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"constant mu must be positive and finite, got {self.mu}")
        if not self.q > self.p:
            raise ValueError(
                f"finite-time regime requires q in (p, inf]; got q={self.q} <= p={self.p}")
        if not 0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")
        theta = (self.p - 1.0) / self.p
        theta_prime = 1.0 if math.isinf(self.q) else (self.q - 1.0) / self.q
        big_c = (self.p / (self.p - 1.0)) ** theta * self.mu ** (1.0 / self.p)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "theta_prime", theta_prime)
        object.__setattr__(self, "C", big_c)
        object.__setattr__(self, "alpha", theta / theta_prime)
        object.__setattr__(self, "c_tilde", self.c * big_c ** (1.0 / theta_prime))


def dominance_params(p: float, mu: float, q: float, c: float = 1.0) -> DominanceParams:
    return DominanceParams(p=float(p), mu=float(mu), q=float(q), c=float(c))


@dataclass
class DominanceReport:
    holds: bool
    worst_margin: float
    mu_max_estimate: float
    n_evaluated: int


@dataclass
class BoundReport:
    """Outcome of checking a theoretical envelope against a trajectory."""

    violations: list[tuple[int, float, float]]
    verdict: bool


def check_gradient_dominance(obj: Objective, p: float, mu: float,
                             region_radius: float, n_samples: int,
                             seed: int) -> DominanceReport:
    """Empirically test the dominance inequality on a ball around the optimum.

    Draws ``n_samples`` points uniformly in the ball of radius
    ``region_radius`` (the whole sample, so ``n_evaluated == n_samples``),
    evaluates the margin

        ((p-1)/p) * ||g||^(p/(p-1)) - mu^(1/(p-1)) * (f - f_star)

    at each, and also inverts the inequality pointwise to estimate the
    largest constant that would still hold on the sampled set.

    The costs and gradients come from one ``obj.value_and_grad_rows`` call
    over the sample, and the squared norms from one ``np.vecdot``, which
    equals each row's ``dot``; a square that overflows takes ``norm2``'s
    rescaled path for its row, and every power is Python's, per point; a
    power that overflows counts as +inf.
    """
    if obj.metadata is None:
        raise ValueError("gradient-dominance check requires optimum metadata")
    if not region_radius > 0:
        raise ValueError("region_radius must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")

    x_star = obj.metadata.x_star
    f_star = obj.metadata.f_star
    dim = obj.dimension

    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((n_samples, dim))
    directions /= np.maximum(np.linalg.norm(directions, axis=1, keepdims=True), 1e-300)
    radii = region_radius * rng.random(n_samples) ** (1.0 / dim)
    points = x_star + directions * radii[:, None]

    lhs_exp = p / (p - 1.0)
    rhs_coeff = mu ** (1.0 / (p - 1.0))
    values, grads = obj.value_and_grad_rows(points)
    try:
        squares = np.vecdot(grads, grads).tolist()
    except RuntimeWarning:  # an overflow, where warnings are errors: norm2 takes every row
        squares = [math.inf] * len(grads)
    margins = []
    mu_points = []
    rhs_scale = 0.0
    for i, (f, sq) in enumerate(zip(values.tolist(), squares)):
        g_norm = math.sqrt(sq) if math.isfinite(sq) else norm2(grads[i])
        gap = f - f_star
        try:
            lhs = (p - 1.0) / p * g_norm ** lhs_exp
        except OverflowError:
            lhs = math.inf
        rhs = rhs_coeff * gap
        margins.append(lhs - rhs)
        rhs_scale = max(rhs_scale, abs(rhs))
        if gap > 1e-300:
            try:
                mu_points.append((lhs / gap) ** (p - 1.0))
            except OverflowError:
                mu_points.append(math.inf)

    worst = float(min(margins))
    holds = worst >= -1e-12 * (1.0 + rhs_scale)
    mu_max = float(min(mu_points)) if mu_points else math.inf
    return DominanceReport(holds=holds, worst_margin=worst,
                           mu_max_estimate=mu_max, n_evaluated=len(points))


def settling_time_bound(params: DominanceParams, grad_norm_at_x0: float) -> float:
    """Upper bound on the arrival time of the flow started where the
    gradient norm is ``grad_norm_at_x0``."""
    if grad_norm_at_x0 < 0:
        raise ValueError("gradient norm must be non-negative")
    exponent = 1.0 / params.theta - 1.0 / params.theta_prime
    denom = params.c * params.C ** (1.0 / params.theta) * (1.0 - params.alpha)
    return grad_norm_at_x0 ** exponent / denom


def energy_decay_envelope(params: DominanceParams, c: float, E0: float, t):
    """Envelope on the energy f(x(t)) - f_star along the flow.

    Integrating the decay inequality gives
    max(0, E0^(1-alpha) - c_eff*(1-alpha)*t) ** (1/(1-alpha)) with
    c_eff = c * C^(1/theta_prime).
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be non-negative")
    one_minus = 1.0 - params.alpha
    c_eff = c * params.C ** (1.0 / params.theta_prime)
    base = np.maximum(0.0, E0 ** one_minus - c_eff * one_minus * t_arr)
    out = base ** (1.0 / one_minus)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def k_star(params: DominanceParams, eta: float, f_gap0: float) -> float:
    """Step-count bound f_gap0^(1-alpha) / (c_tilde*(1-alpha)*eta) after which
    the discrete iterates stay in the terminal neighborhood; the zero
    crossing of the decay envelope, in steps of eta."""
    if not eta > 0:
        raise ValueError("eta must be positive")
    if f_gap0 < 0:
        raise ValueError("initial gap must be non-negative")
    one_minus = 1.0 - params.alpha
    return f_gap0 ** one_minus / (params.c_tilde * one_minus * eta)


def weak_bound(params: DominanceParams, eta: float, f_gap0: float,
               L_f: float, eps: float, k):
    """Envelope on the discrete f-gap: L_f*eps plus the continuous decay
    envelope evaluated at elapsed time eta*k, which is zero beyond the
    arrival step count."""
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr < 0):
        raise ValueError("step index must be non-negative")
    return L_f * eps + energy_decay_envelope(params, params.c, f_gap0, eta * k_arr)


def _one_sided_closeness(ta: np.ndarray, xa: np.ndarray,
                         tb: np.ndarray, xb: np.ndarray) -> float:
    """max over a-points of min over b-points of max(|dt|, ||dx||), for
    finite states and sorted ``tb``.

    Each a-point meets the b-points at window offsets from its place in
    ``tb``. An offset takes the state distance only for the a-points whose
    |dt| is below their best so far: any other candidate has
    max(|dt|, ||dx||) >= best, so it cannot lower the minimum. As |dt| only
    grows away from the a-point, such a point also leaves the farther
    offsets on that side."""
    last = len(tb) - 1
    right = np.clip(np.searchsorted(tb, ta), 0, last)

    def improve(idx: np.ndarray, w: int) -> np.ndarray:
        """Lower the best of the a-points ``idx`` by their candidates at
        offset ``w``; return those whose |dt| there was below their best."""
        j = np.clip(right[idx] + w, 0, last)
        dt = np.abs(ta[idx] - tb[j])
        near = np.flatnonzero(dt < best[idx])
        idx, j, dt = idx[near], j[near], dt[near]
        best[idx] = np.minimum(best[idx], np.maximum(
            dt, np.linalg.norm(xa[idx] - xb[j], axis=1)))
        return idx

    # the nearest b-point on each side of every a-point, taken for all
    left = np.clip(right - 1, 0, last)
    dt_left, dt_right = np.abs(ta - tb[left]), np.abs(ta - tb[right])
    best = np.minimum(np.maximum(dt_left, np.linalg.norm(xa - xb[left], axis=1)),
                      np.maximum(dt_right, np.linalg.norm(xa - xb[right], axis=1)))
    upper = float(best.max())

    spacing = float(np.diff(tb).min()) if len(tb) > 1 else math.inf
    if math.isfinite(spacing) and spacing > 0:
        width = min(int(math.ceil(upper / spacing)) + 1, len(tb))
        for alive, offsets in ((np.flatnonzero(dt_left < best), range(-2, -width - 1, -1)),
                               (np.flatnonzero(dt_right < best), range(1, width + 1))):
            for w in offsets:
                if not len(alive):
                    break
                alive = improve(alive, w)
    return float(best.max())


def closeness_epsilon(continuous: Trajectory, discrete: Trajectory,
                      T: float, eta: float) -> float:
    """Smallest eps for which the two trajectories are matched over [0, T].

    Both directions must hold: every continuous sample time t <= T has a
    discrete index k >= 1 with |t - k*eta| and the state distance both below
    eps, and every discrete index with k*eta <= T has such a continuous
    time. The continuous side is evaluated on its dense sample grid (which
    must have spacing at most eta/10) plus the exact horizon T by linear
    interpolation. The returned value is the exact two-sided minimax, i.e.
    the infimum of admissible eps. Every state in the window must be finite;
    a nan or inf raises ValueError.
    """
    if not T > 0:
        raise ValueError("horizon T must be positive")
    if not eta > 0:
        raise ValueError("eta must be positive")

    tc = continuous.t
    if len(tc) < 2 or tc[-1] + 1e-12 * max(1.0, T) < T:
        raise ValueError("continuous trajectory does not cover [0, T]")
    K = int(math.floor(T / eta + 1e-9))
    if K < 1:
        raise ValueError("horizon shorter than one discrete step")
    if len(discrete) - 1 < K:
        raise ValueError("discrete trajectory does not cover indices with k*eta <= T")
    expected = eta * np.arange(K + 1)
    if not np.allclose(discrete.t[:K + 1], expected, rtol=0,
                       atol=1e-9 * max(1.0, eta * K)):
        raise ValueError("discrete trajectory times are not k*eta")

    in_window = tc <= T + 1e-12 * max(1.0, T)
    tcw = tc[in_window]
    xcw = continuous.x[in_window]
    if len(tcw) < 2:
        raise ValueError("continuous trajectory has too few samples in [0, T]")
    max_gap = float(np.diff(tcw).max())
    if max_gap > eta / 10.0 * (1.0 + 1e-9):
        raise ValueError(
            f"continuous sampling too coarse: gap {max_gap:.3g} exceeds eta/10 = {eta / 10.0:.3g}")
    if tcw[-1] < T:
        row = np.array([np.interp(T, tc, continuous.x[:, d])
                        for d in range(continuous.x.shape[1])])
        tcw = np.append(tcw, T)
        xcw = np.vstack([xcw, row])

    td = eta * np.arange(1, K + 1)
    xd = discrete.x[1:K + 1]
    if not (np.isfinite(xcw).all() and np.isfinite(xd).all()):
        raise ValueError("closeness needs finite states over [0, T]")

    eps_a = _one_sided_closeness(tcw, xcw, td, xd)
    eps_b = _one_sided_closeness(td, xd, tcw, xcw)
    return max(eps_a, eps_b)


def verify_envelope(traj: Trajectory, envelope: Callable, f_star: float,
                    slack: float = 0.0, key: str = "t") -> BoundReport:
    """Check f - f_star against an envelope over the trajectory.

    ``key`` selects whether the envelope is a function of time ("t") or of
    the step index ("k"); it is called once on the array of all records'
    arguments and must return an array of the same shape. Any record
    exceeding envelope + slack is listed as a violation (index, observed
    gap, envelope value).
    """
    if slack < 0:
        raise ValueError("slack must be non-negative")
    if key not in ("t", "k"):
        raise ValueError("key must be 't' or 'k'")
    args = np.asarray(traj.t if key == "t" else traj.k, dtype=float)
    bounds = np.asarray(envelope(args), dtype=float)
    if bounds.shape != args.shape:
        raise ValueError(f"envelope returned shape {bounds.shape} for "
                         f"arguments of shape {args.shape}")

    gaps = traj.f - f_star
    bad = gaps > bounds + slack
    violations = [(int(traj.k[i]), float(gaps[i]), float(bounds[i]))
                  for i in np.nonzero(bad)[0]]
    return BoundReport(violations=violations, verdict=not violations)
