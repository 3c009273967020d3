"""Continuous-time optimization vector fields.

Three velocity fields over a gradient g = grad f(x):

  gf    plain steepest descent, -g
  rgf   rescaled descent, -c * g / ||g||_2^((q-2)/(q-1))
  sgf   signed descent, -c * ||g||_1^(1/(q-1)) * sign(g)

For q in (1, inf) both rescaled fields are continuous but not Lipschitz at
stationary points; q = inf gives the unit-speed normalized field (rgf) and
the pure sign field (sgf). Below ``grad_threshold`` the velocity is defined
as exactly zero, which keeps trajectories stationary at minimizers instead
of dividing by a vanishing norm or chattering on the sign field.

Each ``FlowSpec`` resolves its field once, when it is built, into one
function of the gradient (and its Euclidean norm, when the caller has it)
that returns the velocity together with a scalar bound on the velocity's
norm, both from the same power of the norm. ``flow_eval`` and the
integrators' stages call that function directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

FLOW_KINDS = ("gf", "rgf", "sgf")

class NumericalFailure(ValueError):
    """A step met a non-finite gradient or produced a non-finite iterate."""


@dataclass(frozen=True)
class FlowSpec:
    """Which flow to evaluate, with its exponent q, scale c, and cutoff."""

    kind: str
    q: float = math.inf
    c: float = 1.0
    grad_threshold: float = 1e-12
    # the field resolved once: (g, n2=None) -> (velocity, speed bound)
    _velocity_and_bound: Callable[..., tuple[np.ndarray, float]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FLOW_KINDS:
            raise ValueError(f"unknown flow kind {self.kind!r}, expected one of {FLOW_KINDS}")
        if self.kind != "gf" and not (self.q > 1):
            raise ValueError(f"q must lie in (1, inf], got {self.q}")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.kind == "gf" and (self.q != math.inf or self.c != 1.0):
            raise ValueError(f"plain gradient flow takes no q or c, got q={self.q}, c={self.c}")
        if not self.grad_threshold >= 0:
            raise ValueError("grad_threshold must be non-negative")
        object.__setattr__(self, "_velocity_and_bound", _resolve(self))

    def __reduce__(self):
        # the resolved field is a closure; a copy or unpickled spec rebuilds it
        return FlowSpec, (self.kind, self.q, self.c, self.grad_threshold)

    def rgf_exponent(self) -> float:
        """Exponent (q-2)/(q-1) on the Euclidean norm; 1 in the q = inf limit."""
        return 1.0 if math.isinf(self.q) else (self.q - 2.0) / (self.q - 1.0)

    def sgf_exponent(self) -> float:
        """Exponent 1/(q-1) on the l1 norm; 0 in the q = inf limit."""
        return 0.0 if math.isinf(self.q) else 1.0 / (self.q - 1.0)


def norm2(v: np.ndarray) -> float:
    """Euclidean norm; nan or inf when a component is."""
    # ndarray.dot is bit-identical to ``v @ v`` and cheaper per call
    sq = float(v.dot(v))
    if math.isfinite(sq):
        return math.sqrt(sq)
    a = np.abs(v)
    if np.all(np.isfinite(a)):
        # components finite but the squared sum overflowed; rescale
        peak = float(a.max())
        scaled = v / peak
        return peak * math.sqrt(float(scaled.dot(scaled)))
    return math.nan if np.isnan(a).any() else math.inf


def flow_eval(spec: FlowSpec, grad: np.ndarray) -> np.ndarray:
    """Velocity of the configured flow at a point with gradient ``grad``."""
    g = grad if isinstance(grad, np.ndarray) and grad.dtype == np.float64 \
        else np.asarray(grad, dtype=float)
    return spec._velocity_and_bound(g)[0]


def _velocity(spec: FlowSpec, g: np.ndarray, n2: float) -> np.ndarray:
    """``flow_eval`` for a float64 gradient ``g`` whose Euclidean norm ``n2``
    the caller has already computed."""
    return spec._velocity_and_bound(g, n2)[0]


def _resolve(spec: FlowSpec) -> Callable[..., tuple[np.ndarray, float]]:
    """The field of ``spec`` as ``(g, n2=None) -> (v, bound)`` for a float64
    gradient ``g``; without ``n2`` the norm is taken from one ``dot``, and
    from ``norm2`` only when that square overflows.

    A non-finite norm raises NumericalFailure, and a norm at or below the
    cutoff gives exact zeros with bound 0. Each velocity is one array
    product, with the bits of (g * s) * -c and (sign(g) * pw) * -c: negation
    is exact, and so is sign(g) * pw, as sign(g) is +-1 or 0; rgf with
    c != 1 keeps its two products. The bound is made of scalars: ``n2`` for
    gf (equal to the bit), ``n2 * s * c`` for rgf, and ``sqrt(d) * pw * c``
    for sgf, whose every component is 0 or +-(pw * c). It can fall short of
    ``norm2(v)`` only by rounding, under a relative 1e-6 for any dimension
    below about 1e9."""
    kind, c, threshold = spec.kind, spec.c, spec.grad_threshold
    gf, rgf, unit = kind == "gf", kind == "rgf", c == 1.0
    neg_exponent, exponent = -spec.rgf_exponent(), spec.sgf_exponent()

    def velocity_and_bound(g: np.ndarray, n2: float | None = None) -> tuple[np.ndarray, float]:
        if n2 is None:
            sq = float(g.dot(g))
            n2 = math.sqrt(sq) if math.isfinite(sq) else norm2(g)
        if not math.isfinite(n2):
            raise NumericalFailure(f"non-finite gradient passed to {kind} flow: {g!r}")
        if n2 <= threshold:
            # stationary point: zero velocity is an admissible solution there
            return np.zeros_like(g), 0.0
        if rgf:
            s = n2 ** neg_exponent
            return (g * -s, n2 * s) if unit else (g * s * -c, n2 * s * c)
        if gf:
            return -g, n2
        # np.add.reduce is ndarray.sum without its Python wrapper, to the bit
        pwc = float(np.add.reduce(np.abs(g))) ** exponent * c
        return np.sign(g) * -pwc, math.sqrt(g.size) * pwc

    return velocity_and_bound
