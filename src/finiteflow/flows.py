"""Continuous-time optimization vector fields.

Three velocity fields over a gradient g = grad f(x):

  gf    plain steepest descent, -g
  rgf   rescaled descent, -c * g / ||g||_2^((q-2)/(q-1))
  sgf   signed descent, -c * ||g||_1^(1/(q-1)) * sign(g)

For q in (1, inf) both rescaled fields are continuous but not Lipschitz at
stationary points; q = inf gives the unit-speed normalized field (rgf) and
the pure sign field (sgf). Below ``GRAD_CUTOFF`` a rescaled velocity is
exactly zero, which keeps trajectories stationary at minimizers instead of
dividing by a vanishing norm or chattering on the sign field. ``gf`` does
neither, so it has no cutoff and takes no q or c: its velocity is -g everywhere.

Each ``FlowSpec`` resolves its field once, when it is built, into one
function of the gradient (and its Euclidean norm, when the caller has it)
that returns the velocity together with a scalar bound on the velocity's
norm, both from the same power of the norm. There is one such function per
flow kind (two for rgf: c = 1 and c != 1), so a call makes no test of the
kind. ``flow_eval`` and the integrators' stages call that function directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

FLOW_KINDS = ("gf", "rgf", "sgf")
GRAD_CUTOFF = 1e-12  # the stationarity cutoff of rgf and sgf

class NumericalFailure(ValueError):
    """A flow field, the one place it is raised, met a non-finite gradient or speed."""


@dataclass(frozen=True)
class FlowSpec:
    """Which flow to evaluate, with its exponent q and scale c."""

    kind: str
    q: float = math.inf
    c: float = 1.0
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
        off = [name for name in ("q", "c")
               if self.kind == "gf" and getattr(self, name) != getattr(FlowSpec, name)]
        if off:
            raise ValueError(f"plain gradient flow does not take {', '.join(off)}")
        object.__setattr__(self, "_velocity_and_bound", _resolve(self))

    def __reduce__(self):
        # the resolved field is a closure; a copy or unpickled spec rebuilds it
        return FlowSpec, (self.kind, self.q, self.c)

    def rgf_exponent(self) -> float:
        """Exponent (q-2)/(q-1) on the Euclidean norm; 1 in the q = inf limit."""
        return 1.0 if math.isinf(self.q) else (self.q - 2.0) / (self.q - 1.0)

    def sgf_exponent(self) -> float:
        """Exponent 1/(q-1) on the l1 norm; 0 in the q = inf limit."""
        return 0.0 if math.isinf(self.q) else 1.0 / (self.q - 1.0)


def norm2(v: np.ndarray) -> float:
    """Euclidean norm; nan or inf when a component is."""
    # ndarray.dot is bit-identical to ``v @ v`` and cheaper per call
    try:
        sq = float(v.dot(v))
    except RuntimeWarning:  # numpy's overflow warning, raised where warnings are errors
        sq = math.inf
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
    gradient ``g``: one straight-line function per flow kind, chosen here,
    with rgf's choice between one product and two made here too, so a call
    tests no kind. Without ``n2`` the norm is taken from one ``dot``, and
    from ``norm2`` only when that square overflows. sgf skips the ``dot``
    when its l1 norm settles both tests below, as ||g||_2 >= ||g||_1 / sqrt(d).

    A non-finite norm raises NumericalFailure, and so does a non-finite
    speed, ``n2 * s * c`` for rgf and ``pw * c`` for sgf, before any array
    product; an l1 sum that overflows is inf, also where numpy's overflow
    warning is raised as an error. gf gives -g at every finite norm; rgf and
    sgf give exact zeros with bound 0 at or below the cutoff. Each velocity
    is one array product, with the bits of (g * s) * -c and
    (sign(g) * pw) * -c: negation is exact, and so is sign(g) * pw, as sign(g)
    is +-1 or 0; rgf with c != 1 keeps its two products. Where an rgf product
    still overflows (a caller's ``n2`` below a component's size), numpy's
    warning, raised as an error, is NumericalFailure too. The factor is
    written into the field's float64 0-d ``scale`` (so a field serves one
    thread at a time), which numpy multiplies by without converting a Python
    float, to the same bits. The bound is made of scalars: ``n2`` for gf
    (equal to the bit), the speed ``n2 * s * c`` for rgf, and
    ``sqrt(d) * pw * c`` for sgf, whose every component is 0 or +-(pw * c).
    It can fall short of ``norm2(v)`` only by rounding, under a relative
    1e-6 for any dimension below about 1e9."""
    kind, c, cutoff, inf = spec.kind, spec.c, GRAD_CUTOFF, math.inf
    isfinite, sqrt = math.isfinite, math.sqrt
    neg_exponent, exponent = -spec.rgf_exponent(), spec.sgf_exponent()
    scale, neg_c = np.array(0.0), np.array(-c)
    # above sqrt(d) times this, the 2-norm exceeds the cutoff with a factor 2
    # for rounding, and its square is a normal float that the dot keeps
    l1_floor = 2.0 * cutoff

    def gf(g: np.ndarray, n2: float | None = None) -> tuple[np.ndarray, float]:
        if n2 is None:
            try:
                sq = float(g.dot(g))
            except RuntimeWarning:  # numpy's overflow warning, raised where warnings are errors
                sq = inf
            n2 = sqrt(sq) if isfinite(sq) else norm2(g)
        if not isfinite(n2):
            raise NumericalFailure(f"non-finite gradient passed to gf flow: {g!r}")
        return -g, n2

    def rgf(g: np.ndarray, n2: float | None = None) -> tuple[np.ndarray, float]:
        # c == 1: the velocity is g * -s
        if n2 is None:
            try:
                sq = float(g.dot(g))
            except RuntimeWarning:
                sq = inf
            n2 = sqrt(sq) if isfinite(sq) else norm2(g)
        if not isfinite(n2):
            raise NumericalFailure(f"non-finite gradient passed to rgf flow: {g!r}")
        if n2 <= cutoff:
            # stationary point: zero velocity is an admissible solution there
            return np.zeros_like(g), 0.0
        s = n2 ** neg_exponent
        speed = n2 * s
        if not speed < inf:
            raise NumericalFailure(f"non-finite speed of rgf flow at gradient {g!r}")
        scale[()] = -s
        try:
            return g * scale, speed
        except RuntimeWarning:
            raise NumericalFailure(f"non-finite speed of rgf flow at gradient {g!r}") from None

    def rgf_scaled(g: np.ndarray, n2: float | None = None) -> tuple[np.ndarray, float]:
        # c != 1: the velocity is (g * s) * -c
        if n2 is None:
            try:
                sq = float(g.dot(g))
            except RuntimeWarning:
                sq = inf
            n2 = sqrt(sq) if isfinite(sq) else norm2(g)
        if not isfinite(n2):
            raise NumericalFailure(f"non-finite gradient passed to rgf flow: {g!r}")
        if n2 <= cutoff:
            return np.zeros_like(g), 0.0
        s = n2 ** neg_exponent
        speed = n2 * s * c
        if not speed < inf:
            raise NumericalFailure(f"non-finite speed of rgf flow at gradient {g!r}")
        scale[()] = s
        try:
            return g * scale * neg_c, speed
        except RuntimeWarning:
            raise NumericalFailure(f"non-finite speed of rgf flow at gradient {g!r}") from None

    def sgf(g: np.ndarray, n2: float | None = None) -> tuple[np.ndarray, float]:
        # np.add.reduce is ndarray.sum without its Python wrapper, to the bit
        try:
            l1 = float(np.add.reduce(np.abs(g)))
        except RuntimeWarning:
            l1 = inf
        root_d = sqrt(g.size)
        if n2 is None:
            if l1_floor * root_d < l1 < inf:
                n2 = l1  # passes the two tests below, as the norm would
            else:
                try:
                    sq = float(g.dot(g))
                except RuntimeWarning:
                    sq = inf
                n2 = sqrt(sq) if isfinite(sq) else norm2(g)
        if not isfinite(n2):
            raise NumericalFailure(f"non-finite gradient passed to sgf flow: {g!r}")
        if n2 <= cutoff:
            return np.zeros_like(g), 0.0
        pwc = l1 ** exponent * c
        if not pwc < inf:
            raise NumericalFailure(f"non-finite speed of sgf flow at gradient {g!r}")
        scale[()] = -pwc
        return np.sign(g) * scale, root_d * pwc

    if kind == "gf":
        return gf
    if kind == "rgf":
        return rgf if c == 1.0 else rgf_scaled
    return sgf
