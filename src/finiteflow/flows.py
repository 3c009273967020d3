"""Continuous-time optimization vector fields.

Three velocity fields over a gradient g = grad f(x):

  gf    plain steepest descent, -g
  rgf   rescaled descent, -c * g / ||g||_2^((q-2)/(q-1))
  sgf   signed descent, -c * ||g||_1^(1/(q-1)) * sign(g)

For q in (1, inf) both rescaled fields are continuous but not Lipschitz at
stationary points; q = inf gives the unit-speed normalized field (rgf) and
the pure sign field (sgf). Below ``grad_threshold`` a rescaled velocity is
exactly zero, which keeps trajectories stationary at minimizers instead of
dividing by a vanishing norm or chattering on the sign field. ``gf`` does
neither, so it takes no cutoff, q or c: its velocity is -g everywhere.

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
        if not 0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")
        off = [name for name in ("q", "c", "grad_threshold")
               if self.kind == "gf" and getattr(self, name) != getattr(FlowSpec, name)]
        if off:
            raise ValueError(f"plain gradient flow does not take {', '.join(off)}")
        if not self.grad_threshold >= 0:
            raise ValueError("grad_threshold must be non-negative")
        if math.isinf(self.grad_threshold):
            raise ValueError(f"grad_threshold must be finite, got {self.grad_threshold}")
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
    return spec._velocity_and_bound(np.asarray(grad, dtype=float))[0]


def _resolve(spec: FlowSpec) -> Callable[..., tuple[np.ndarray, float]]:
    """The field of ``spec`` as ``(g, n2=None) -> (v, bound)`` for a float64
    gradient ``g``; without ``n2`` the norm is taken from one ``dot``, and
    from ``norm2`` only when that square overflows. sgf skips the ``dot``
    when its l1 norm settles both tests below, as ||g||_2 >= ||g||_1 / sqrt(d).

    A non-finite norm raises NumericalFailure. gf gives -g at every finite
    norm; rgf and sgf give exact zeros with bound 0 at or below the cutoff.
    Each velocity is one array product, with the bits of (g * s) * -c and
    (sign(g) * pw) * -c: negation is exact, and so is sign(g) * pw, as sign(g)
    is +-1 or 0; rgf with c != 1 keeps its two products. The factor is written
    into the field's float64 0-d ``scale`` (so a field serves one thread at a
    time), which numpy multiplies by without converting a Python float, to the
    same bits. The bound is made of scalars: ``n2`` for gf (equal to the bit),
    ``n2 * s * c`` for rgf, and ``sqrt(d) * pw * c`` for sgf, whose every
    component is 0 or +-(pw * c). It can fall short of ``norm2(v)`` only by
    rounding, under a relative 1e-6 for any dimension below about 1e9."""
    kind, c, threshold = spec.kind, spec.c, spec.grad_threshold
    gf, rgf, sgf, unit = kind == "gf", kind == "rgf", kind == "sgf", c == 1.0
    neg_exponent, exponent = -spec.rgf_exponent(), spec.sgf_exponent()
    scale, neg_c = np.array(0.0), np.array(-c)
    # above sqrt(d) times this, the 2-norm exceeds the cutoff with a factor 2
    # for rounding, and its square is a normal float that the dot keeps
    l1_floor = 2.0 * max(threshold, 1e-150)

    def velocity_and_bound(g: np.ndarray, n2: float | None = None) -> tuple[np.ndarray, float]:
        if sgf:
            # np.add.reduce is ndarray.sum without its Python wrapper, to the bit
            l1, root_d = float(np.add.reduce(np.abs(g))), math.sqrt(g.size)
            if n2 is None and l1_floor * root_d < l1 < math.inf:
                n2 = l1  # passes the two tests below, as the norm would
        if n2 is None:
            sq = float(g.dot(g))
            n2 = math.sqrt(sq) if math.isfinite(sq) else norm2(g)
        if not math.isfinite(n2):
            raise NumericalFailure(f"non-finite gradient passed to {kind} flow: {g!r}")
        if gf:
            return -g, n2
        if n2 <= threshold:
            # stationary point: zero velocity is an admissible solution there
            return np.zeros_like(g), 0.0
        if rgf:
            s = n2 ** neg_exponent
            scale[()] = -s if unit else s
            return (g * scale, n2 * s) if unit else (g * scale * neg_c, n2 * s * c)
        pwc = l1 ** exponent * c
        scale[()] = -pwc
        return np.sign(g) * scale, root_d * pwc

    return velocity_and_bound
