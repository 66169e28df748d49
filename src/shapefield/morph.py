"""Space-time transfinite interpolation between two distance fields.

A :class:`MorphSchedule` pairs an initial and a final field expression with
a ramp rate ``p``.  The time-varying field is a pointwise blend

    phi(x, t) = w1(x, t) * phi_i(x) + w2(x, t) * phi_f(x)

whose weights are built from R-conjunctions of the member fields with a
monotone ramp ``f(t) = (e^{pt} - 1) / (e^{pt} + 1)``, so the zero set of
``phi(., t)`` deforms continuously from the initial boundary to the final
one.  The weights always sum to one: ``w2`` is computed as ``1 - w1`` so
the partition of unity holds exactly in floating point.

A schedule answers the same evaluation protocol as a static field
expression: ``values(pts, t)`` and ``values_grads(pts, t)`` on an ``(n, d)``
point batch, the gradient spatial at frozen ``t``.  Since ``f`` never quite
reaches 1, a schedule is *complete* once ``f(t) >= 1 - MORPH_COMPLETE_EPS``;
from then on it forwards to the final field's ``values``/``values_grads``.

The initial and final fields are compiled into one plan on first use, so
nodes they share (such as equal circles) are evaluated once, and the two
R-conjunctions of the blend run as one stacked operation whose constant
operands are broadcast columns with gradient 0.0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import (
    DimensionMismatchError,
    FieldExpr,
    _as_batch,
    _caller_stacklevel,
    _check_s,
    _Plan,
    _r_binary_vg,
)
from .tolerances import BLEND_DEGENERACY_EPS, MORPH_COMPLETE_EPS

__all__ = [
    "MorphSchedule",
    "DegenerateBlendError",
    "ramp",
]


class DegenerateBlendError(RuntimeError):
    """Blend denominator g1 + g2 vanished at one or more points.

    Carries ``points`` (the offending points), ``t``, and ``mask`` (which
    rows of the evaluated batch were degenerate) so a caller can fall back
    pointwise.
    """

    def __init__(self, points: np.ndarray, t: float, mask: np.ndarray):
        self.points = np.atleast_2d(points)
        self.t = float(t)
        self.mask = mask
        first = self.points[0]
        super().__init__(
            f"degenerate morph blend (g1 + g2 = 0) at x={tuple(first)}, t={t}"
            + (f" and {self.points.shape[0] - 1} more points" if self.points.shape[0] > 1 else "")
        )


def ramp(t, p: float):
    """Monotone ramp ``(e^{pt} - 1) / (e^{pt} + 1)``: 0 at t = 0, -> 1 as t -> inf.

    Evaluated as ``tanh(p t / 2)``, which is the same function and does not
    overflow for large ``t``.  Negative ``t`` clamps to 0 with a warning.
    """
    if not p > 0.0:
        raise ValueError(f"ramp rate p must be positive, got {p}")
    tt = np.asarray(t, dtype=float)
    if (tt < 0.0).any():
        warnings.warn(
            "ramp time clamped to 0 for negative t",
            RuntimeWarning, stacklevel=_caller_stacklevel(),
        )
        tt = np.maximum(tt, 0.0)
    out = np.tanh(0.5 * p * tt)
    return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class MorphSchedule:
    """Initial/final field pair plus ramp parameters defining phi(x, t)."""

    initial: FieldExpr
    final: FieldExpr
    p: float
    s: float = 0.0
    t_start: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "t_start", float(self.t_start))
        if not (self.p > 0.0 and math.isfinite(self.p)):
            raise ValueError(f"ramp rate p must be positive, got {self.p}")
        object.__setattr__(self, "s", _check_s(self.s))
        if not math.isfinite(self.t_start):
            raise ValueError(f"t_start must be finite, got {self.t_start}")
        if self.initial.dimension != self.final.dimension:
            raise DimensionMismatchError(
                "initial and final fields have different dimensions"
            )

    @property
    def dimension(self) -> int:
        return self.initial.dimension

    def ramp_value(self, t: float) -> float:
        """Ramp f at time ``t`` (measured from ``t_start``)."""
        return ramp(t - self.t_start, self.p)

    def is_complete(self, t: float) -> bool:
        """True once f(t) is within MORPH_COMPLETE_EPS of 1."""
        return _complete(self.ramp_value(t))

    # -- batch evaluation -------------------------------------------------

    @cached_property
    def _plan(self) -> _Plan:
        return _Plan((self.initial, self.final))

    def _blend_vg(self, pts: np.ndarray, t: float, fval: float, want_grad: bool):
        # fval: the ramp at t, evaluated once by the caller
        V, G = self._plan(pts, want_grad)
        vi, vf = V
        # both weight conjunctions, R_conj(phi_i, -f) and R_conj(phi_f, f - 1),
        # on the (2, n) stack against a constant column
        (g1, g2), dg = _r_binary_vg(
            V, G, np.array([[-fval], [fval - 1.0]]), 0.0, self.s, -1.0, want_grad
        )
        total = g1 + g2
        bad = np.abs(total) < BLEND_DEGENERACY_EPS
        if bad.any():
            raise DegenerateBlendError(pts[bad], t, bad)
        w1 = g2 / total
        # phi = vf + w1 * (vi - vf): algebraically w1*vi + (1-w1)*vf, but this
        # form is exact at both endpoints (w1 = 1 gives vi, w1 = 0 gives vf).
        dv = vi - vf
        v = vf + w1 * dv
        if not want_grad:
            return v, None, (w1, g1, g2)
        gi, gf = G
        dg1, dg2 = dg
        dtotal = dg1 + dg2
        dw1 = (dg2 * total[:, None] - g2[:, None] * dtotal) / (total * total)[:, None]
        g = gf + dw1 * dv[:, None] + w1[:, None] * (gi - gf)
        return v, g, (w1, g1, g2)

    def values(self, pts, t: float) -> np.ndarray:
        """phi(x, t) at each row of ``pts``."""
        pts, _ = _as_batch(pts, self.dimension)
        fval = self.ramp_value(t)
        if _complete(fval):
            return self.final.values(pts, t)
        v, _, _ = self._blend_vg(pts, t, fval, want_grad=False)
        return v

    def values_grads(self, pts, t: float) -> tuple[np.ndarray, np.ndarray]:
        """phi(x, t) and its spatial gradient at each row of ``pts``."""
        pts, _ = _as_batch(pts, self.dimension)
        fval = self.ramp_value(t)
        if _complete(fval):
            return self.final.values_grads(pts, t)
        v, g, _ = self._blend_vg(pts, t, fval, want_grad=True)
        return v, g


def _complete(fval: float) -> bool:
    return fval >= 1.0 - MORPH_COMPLETE_EPS
