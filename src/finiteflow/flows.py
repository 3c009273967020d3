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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    # norm exponent of the configured kind, precomputed for the hot path
    _exponent: float = field(init=False, repr=False, compare=False, default=0.0)

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
        exponent = self.rgf_exponent() if self.kind == "rgf" else self.sgf_exponent()
        object.__setattr__(self, "_exponent", exponent)

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
    return _velocity(spec, g, norm2(g))


def _velocity(spec: FlowSpec, g: np.ndarray, n2: float) -> np.ndarray:
    """``flow_eval`` for a float64 gradient ``g`` whose Euclidean norm ``n2``
    the caller has already computed."""
    if not math.isfinite(n2):
        raise NumericalFailure(f"non-finite gradient passed to {spec.kind} flow: {g!r}")
    if n2 <= spec.grad_threshold:
        # stationary point: zero velocity is an admissible solution there
        return np.zeros_like(g)
    if spec.kind == "gf":
        return -g
    # one array product per velocity, with the bits of (g * s) * -c and
    # (sign(g) * pw) * -c: negation is exact, and so is sign(g) * pw, as
    # sign(g) is +-1 or 0; rgf with c != 1 keeps its two products
    if spec.kind == "rgf":
        s = n2 ** -spec._exponent
        return g * -s if spec.c == 1.0 else g * s * -spec.c
    pw = float(np.abs(g).sum()) ** spec._exponent
    return np.sign(g) * -(pw * spec.c)


def _speed_bound(spec: FlowSpec, n2: float, v: np.ndarray) -> float:
    """An upper bound on ``norm2(v)`` for ``v = _velocity(spec, g, n2)``, made
    of scalars: ``n2`` for gf (equal to the bit), ``n2 * s * c`` for rgf,
    whose velocity is ``g * -s`` or ``g * s * -c`` with its scale s, and
    ``sqrt(d) * |v[0]|`` for sgf, whose velocity ``sign(g) * -(pw * c)`` has
    every nonzero component equal to +-(pw * c). It can fall short of
    ``norm2(v)`` only by rounding, under a relative 1e-6 for any dimension
    below about 1e9; inf for an sgf velocity whose first component is zero."""
    if n2 <= spec.grad_threshold:
        return 0.0
    if spec.kind == "gf":
        return n2
    if spec.kind == "rgf":
        return n2 * n2 ** -spec._exponent * spec.c
    first = abs(v.item(0))
    return math.sqrt(v.size) * first if first else math.inf

