"""Objective functions: analytic test problems and a small MLP regression task."""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Callable

import numpy as np

Vector = np.ndarray


@dataclass(frozen=True)
class OptimumInfo:
    """Known finite minimizer ``x_star`` and minimum value ``f_star``.

    The dominance order p and constant mu that the bounds need are not
    stored here; they come from the config's ``analysis.dominance`` section
    or are passed to the analysis functions directly.
    """

    x_star: Vector
    f_star: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_star", np.atleast_1d(np.asarray(self.x_star, dtype=float)))
        if not np.all(np.isfinite(self.x_star)):
            raise ValueError(f"x_star must be finite, got {self.x_star}")
        if not math.isfinite(self.f_star):
            raise ValueError(f"f_star must be finite, got {self.f_star}")


@dataclass(frozen=True)
class BatchContext:
    """Deterministic mini-batch sampling plan for stochastic runs.

    Each step draws its own generator from (rng_seed, step index), so a
    run's batches depend on these two alone.
    """

    rng_seed: int
    batch_size: int
    dataset_size: int

    def __post_init__(self) -> None:
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if not 0 < self.batch_size <= self.dataset_size:
            raise ValueError(
                f"batch_size must lie in [1, dataset_size], got {self.batch_size} "
                f"with dataset_size={self.dataset_size}"
            )

    def indices(self, step: int) -> np.ndarray:
        """Sorted sample without replacement for one optimization step."""
        rng = np.random.default_rng([self.rng_seed, step])
        idx = rng.choice(self.dataset_size, size=self.batch_size, replace=False)
        idx.sort()
        return idx


@dataclass(frozen=True)
class Objective:
    """Differentiable cost with optional known-optimum metadata.

    Immutable after construction; ``value`` and ``gradient`` are pure
    functions of x, which lets a run fill the rows of a limit cycle without
    calling them. ``batch_gradient(x, indices)`` is present only for
    objectives with mini-batch support.

    ``value_and_grad(x)`` returns ``(float(value(x)), gradient(x))`` as a
    float and a float64 array, in one call. A maker passes a closed form of
    it as ``fused``, which must agree with ``value`` and ``gradient`` to the
    bit. Without ``fused`` it is composed from the objective's own ``value``
    and ``gradient``, gradient first.

    ``value_and_grad_rows(X)`` is the same on the rows of a ``(B, d)``
    array: the B costs as a float64 array and the ``(B, d)`` gradients,
    each row equal to ``value_and_grad`` of that row to the bit. A maker
    whose batched expressions keep every row's bits, and whose ``gradient``
    returns a float64 array, passes them as ``fused_rows``, and
    ``closed_rows`` is then True; without it the rows are taken one
    ``value_and_grad`` call at a time. Each recorded row of a run makes one
    ``value_and_grad`` call, except where ``closed_rows`` is True and no
    stop rule reads the cost: then a row calls ``gradient`` alone, and the
    run takes its costs from ``value_and_grad_rows`` after its loop.

    An objective built by hand, and every ``dataclasses.replace`` of one,
    which passes on neither ``fused`` nor ``fused_rows``, never runs a
    closed form that its callables have outgrown.
    """

    dimension: int
    value: Callable[[Vector], float]
    gradient: Callable[[Vector], Vector]
    metadata: OptimumInfo | None = None
    batch_gradient: Callable[[Vector, np.ndarray], Vector] | None = None
    name: str = ""
    aux: dict = field(default_factory=dict, repr=False)
    fused: InitVar[Callable[[Vector], tuple[float, Vector]] | None] = None
    fused_rows: InitVar[Callable[[np.ndarray], tuple[Vector, np.ndarray]] | None] = None
    value_and_grad: Callable[[Vector], tuple[float, Vector]] = field(
        init=False, repr=False, compare=False)
    value_and_grad_rows: Callable[[np.ndarray], tuple[Vector, np.ndarray]] = field(
        init=False, repr=False, compare=False)
    closed_rows: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self, fused, fused_rows) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if fused is None:
            value, gradient = self.value, self.gradient

            def fused(x: Vector) -> tuple[float, Vector]:
                g = np.asarray(gradient(x), dtype=float)
                return float(value(x)), g

        object.__setattr__(self, "value_and_grad", fused)
        object.__setattr__(self, "closed_rows", fused_rows is not None)
        if fused_rows is None:
            def fused_rows(xs: np.ndarray) -> tuple[Vector, np.ndarray]:
                xs = np.asarray(xs, dtype=float)
                fs, gs = np.empty(len(xs)), np.empty(xs.shape)
                for i, x in enumerate(xs):
                    fs[i], gs[i] = fused(x)
                return fs, gs

        object.__setattr__(self, "value_and_grad_rows", fused_rows)


def _closed_rows(name: str, dimension: int, gradient: Callable[[Vector], Vector],
                 value_and_grad: Callable[[np.ndarray], tuple[Vector, np.ndarray]]
                 ) -> Objective:
    """The objective, with minimum 0 at the origin, of a maker whose
    ``value_and_grad`` takes one row ``(d,)`` or the rows of a ``(B, d)``
    array; the one-row ``fused`` and ``value`` are that form on one row."""
    if dimension < 1:
        raise ValueError("dimension must be a positive integer")

    def fused(x: Vector) -> tuple[float, Vector]:
        f, g = value_and_grad(x)
        return float(f), g

    def value(x: Vector) -> float:
        return float(value_and_grad(x)[0])

    meta = OptimumInfo(x_star=np.zeros(dimension), f_star=0.0)
    return Objective(dimension=dimension, value=value, gradient=gradient,
                     metadata=meta, name=name, fused=fused, fused_rows=value_and_grad)


def make_quadratic(mu: float, dimension: int) -> Objective:
    """Isotropic quadratic bowl f(x) = (mu/2) * ||x||^2 with minimum at 0."""
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    mu = float(mu)
    # mu as a 0-d array: numpy does not convert it again at every product;
    # np.add.reduce is ndarray.sum without its Python wrapper, to the bit
    mu_factor = np.array(mu, dtype=float)

    def gradient(x: Vector) -> Vector:
        return mu_factor * np.asarray(x, dtype=float)

    def value_and_grad(xs: np.ndarray) -> tuple[Vector, np.ndarray]:
        xs = np.asarray(xs, dtype=float)
        return 0.5 * mu * np.add.reduce(xs * xs, axis=-1), mu_factor * xs

    return _closed_rows("quadratic", dimension, gradient, value_and_grad)


def make_rosenbrock(a: float = 1.0, b: float = 100.0) -> Objective:
    """Two-dimensional banana valley f(x1,x2) = (a-x1)^2 + b*(x2-x1^2)^2.

    The unique stationary point sits at (a, a^2) for b >= 0. The function is
    locally strongly convex there, so the dominance order is 2; the constant
    can be estimated with check_gradient_dominance.
    """
    if b < 0:
        raise ValueError(f"b must be non-negative, got {b}")
    a = float(a)
    b = float(b)

    def gradient(x: Vector) -> Vector:
        x1, x2 = float(x[0]), float(x[1])
        g1 = -2.0 * (a - x1) - 4.0 * b * x1 * (x2 - x1 ** 2)
        g2 = 2.0 * b * (x2 - x1 ** 2)
        return np.array([g1, g2])

    def value_and_grad(x: Vector) -> tuple[float, Vector]:
        x1, x2 = float(x[0]), float(x[1])
        r = x2 - x1 ** 2
        return ((a - x1) ** 2 + b * r ** 2,
                np.array([-2.0 * (a - x1) - 4.0 * b * x1 * r, 2.0 * b * r]))

    def value(x: Vector) -> float:
        return value_and_grad(x)[0]

    try:
        meta = OptimumInfo(x_star=np.array([a, a ** 2]), f_star=0.0)
    except OverflowError:
        raise ValueError(f"x_star = (a, a ** 2) overflows, got a = {a!r}") from None
    return Objective(dimension=2, value=value, gradient=gradient,
                     metadata=meta, name="rosenbrock", fused=value_and_grad)


def make_pth_power(p: float, dimension: int) -> Objective:
    """Separable power cost f(x) = (1/p) * sum_i |x_i|^p with exact order p."""
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    p = float(p)

    def gradient(x: Vector) -> Vector:
        x = np.asarray(x, dtype=float)
        return np.sign(x) * np.abs(x) ** (p - 1.0)

    def value_and_grad(xs: np.ndarray) -> tuple[Vector, np.ndarray]:
        xs = np.asarray(xs, dtype=float)
        a = np.abs(xs)
        return np.add.reduce(a ** p, axis=-1) / p, np.sign(xs) * a ** (p - 1.0)

    return _closed_rows("pth_power", dimension, gradient, value_and_grad)


def _mlp_shapes(widths: list[int]) -> list[tuple[int, int]]:
    return [(widths[i + 1], widths[i]) for i in range(len(widths) - 1)]


def _mlp_param_count(widths: list[int]) -> int:
    return sum(o * i + o for o, i in _mlp_shapes(widths))


def _mlp_unpack(theta: Vector, widths: list[int]) -> list[tuple[Vector, Vector]]:
    layers = []
    pos = 0
    for out_w, in_w in _mlp_shapes(widths):
        w = theta[pos:pos + out_w * in_w].reshape(out_w, in_w)
        pos += out_w * in_w
        b = theta[pos:pos + out_w]
        pos += out_w
        layers.append((w, b))
    return layers


def _mlp_activations(layers: list[tuple[Vector, Vector]], inputs: Vector) -> list[Vector]:
    """The inputs, then each layer's output: tanh on hidden layers, linear last."""
    acts = [inputs]
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        pre = acts[-1] @ w.T + b
        acts.append(np.tanh(pre) if i < last else pre)
    return acts


def _mlp_value_grad(theta: Vector, widths: list[int], inputs: Vector,
                    targets: Vector) -> tuple[float, Vector]:
    layers = _mlp_unpack(theta, widths)
    acts = _mlp_activations(layers, inputs)
    resid = acts[-1] - targets
    value = float(np.mean(resid * resid))

    # mean over all output entries, so the loss is linear in per-sample terms
    delta = 2.0 * resid / resid.size
    grads: list[tuple[Vector, Vector]] = []
    for i in reversed(range(len(layers))):
        w, _ = layers[i]
        grads.append((delta.T @ acts[i], delta.sum(axis=0)))
        if i > 0:
            delta = (delta @ w) * (1.0 - acts[i] * acts[i])
    grads.reverse()
    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return value, flat


def make_mlp(layer_widths: list[int], dataset_size: int, noise_std: float = 0.0,
             seed: int = 0) -> Objective:
    """Mean-squared-error objective over the parameters of a small tanh MLP.

    The dataset is synthetic and fully reproducible: inputs are uniform in
    [-1, 1]^d drawn from ``seed``, targets come from a teacher network whose
    weights are standard normal drawn from ``seed + 1``, plus Gaussian noise
    drawn from ``seed + 2``. Gradients use manual backpropagation, and
    mini-batch gradients average over a seeded subset of the rows.
    """
    widths = [int(w) for w in layer_widths]
    if len(widths) < 3:
        raise ValueError("layer_widths must be [input, hidden..., output] "
                         "with at least one hidden layer")
    if any(w < 1 for w in widths):
        raise ValueError("all layer widths must be positive")
    if dataset_size < 1:
        raise ValueError("dataset_size must be a positive integer")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")

    inputs = np.random.default_rng(seed).uniform(
        -1.0, 1.0, size=(dataset_size, widths[0]))
    teacher = np.random.default_rng(seed + 1).standard_normal(
        _mlp_param_count(widths))
    targets = _mlp_activations(_mlp_unpack(teacher, widths), inputs)[-1]
    if noise_std > 0:
        targets = targets + noise_std * np.random.default_rng(
            seed + 2).standard_normal(targets.shape)

    def value(theta: Vector) -> float:
        pred = _mlp_activations(
            _mlp_unpack(np.asarray(theta, dtype=float), widths), inputs)[-1]
        resid = pred - targets
        return float(np.mean(resid * resid))

    def value_and_grad(theta: Vector) -> tuple[float, Vector]:
        return _mlp_value_grad(np.asarray(theta, dtype=float), widths,
                               inputs, targets)

    def gradient(theta: Vector) -> Vector:
        return value_and_grad(theta)[1]

    def batch_gradient(theta: Vector, idx: np.ndarray) -> Vector:
        return _mlp_value_grad(np.asarray(theta, dtype=float), widths,
                               inputs[idx], targets[idx])[1]

    return Objective(
        dimension=_mlp_param_count(widths),
        value=value,
        gradient=gradient,
        metadata=None,
        batch_gradient=batch_gradient,
        name="mlp",
        fused=value_and_grad,
        aux={
            "layer_widths": tuple(widths),
            "teacher_params": teacher,
            "dataset_size": int(dataset_size),
            "noise_std": float(noise_std),
        },
    )


def finite_difference_check(obj: Objective, x: Vector, h: float) -> float:
    """Max relative disagreement between the gradient and central differences.

    Returns max_i |g_i - d_i| / max(1, |d_i|) where d is the central
    difference with step h. Raises if a perturbed value is non-finite,
    naming the offending coordinate.
    """
    if not h > 0:
        raise ValueError("finite-difference step h must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.asarray(obj.gradient(x), dtype=float)
    worst = 0.0
    for i in range(obj.dimension):
        step = np.zeros_like(x)
        step[i] = h
        f_plus = float(obj.value(x + step))
        f_minus = float(obj.value(x - step))
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise ValueError(
                f"non-finite objective value while differencing coordinate {i}")
        diff = (f_plus - f_minus) / (2.0 * h)
        worst = max(worst, abs(grad[i] - diff) / max(1.0, abs(diff)))
    return worst
