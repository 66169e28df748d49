"""Analytic approximate distance fields composed with R-functions.

A field expression is an immutable tree of shape primitives (circle,
segment, sphere, plane) and R-operations (negation, disjunction,
conjunction, equivalence, trimming).  Evaluating the tree at a point gives
an approximate distance to the shape boundary: zero exactly on the
boundary, first-order equal to Euclidean distance near it.  The library
convention is inside-positive for the signed primitives; unsigned
primitives (segments, trimmed carriers, equivalence joins) are
non-negative everywhere.

Gradients are exact, never finite differences.  Every combining step (an
R-operation, a trim, an equivalence and the morph blend) computes its
local partials per point, on values, and contracts them with its
operands' gradients once: one product per operand and a sum.  At the
measure-zero points where an expression is not differentiable (R-operation
corners, creases of unsigned fields) a partial uses the convention
``d sqrt(u) = 0`` when ``u = 0``, which keeps every output finite.

Evaluation accepts a single point (length-``d`` sequence) or a batch of
points as an ``(n, d)`` array and is vectorised over the batch.  A tree
answers ``values(pts, t)`` and ``values_grads(pts, t)`` with ``t`` ignored,
as a morph answers them; ``eval`` and ``gradient`` are built on that pair.

Trees are evaluated through compiled plans, a forward-mode tape in the
sense of Griewank & Walther (*Evaluating Derivatives*, ch. 3).  A node
states only its kind, parameters and operands (``_emit``); each kind's
formula exists once, in its step kernel in ``_STEPS``.  A tree is compiled
on its first evaluation.  Equal subtrees are merged, each segment becomes
its ``Trim`` tree, and the nodes of one kind at one height are grouped, so
each group runs as one call of its kernel on a ``(k, n)`` value stack and a
``(k, d, n)`` gradient stack.  The gradient stack is axis-major: a per-node
factor such as ``phi[:, None, :]`` broadcasts over d rows of n points,
which numpy runs as d long inner loops, not n loops of length d.  The
public entry points still return a fresh C-contiguous ``(n, d)`` gradient,
transposed once at the root.  All balls are one group, as are all raw
quadrics, all planes, the negations, the R-operations of one ``s`` and
sign, and the trims at one height; an equivalence is a group of its own.
Grouping same-kind nodes follows the tape compilation of Keeter 2020
(SIGGRAPH).  A kernel performs the same floating-point operations on each
row whatever the stack's height and width, so a node's result does not
depend on its group, and a point's result does not depend on its batch.

At swarm size (tens of points) a call costs mostly its number of numpy
calls and their dispatch, so the kernels take fast paths that keep every
bit: a sqrt-corner quotient divides plainly when no denominator is zero,
and small masks are tested with ``np.count_nonzero``.  Every operand of an
array operation is an array: each scalar is a read-only 0-d float64 array
made once, as a module constant (0.5, 1.0, 0.0), or at compile time from a
group's own parameters (an R-operation's s, sign, 2s, 1 + s, sign / (1 + s)
and 1 / (1 + s); an equivalence's m, -1/m and -(m + 1)/m).  On a (6, 30)
multiply a Python-float operand costs about 680 ns, a 0-d array 440 ns and
an array of the same shape 420 ns, while a (2, 1) column broadcast over
(2, 30) costs 920 ns against 370 ns at full width.  The values are the
same, so are the bits.  The leaf kernels keep their (k, 1) parameter
columns: widened to the batch they cost less at tens of points but more at
grid size.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterator, NamedTuple

import numpy as np

from .tolerances import (
    DEGENERATE_SEGMENT_LENGTH,
    NORMAL_UNIT_TOL,
)

__all__ = [
    "FieldExpr",
    "Circle",
    "Segment",
    "Sphere",
    "Plane",
    "Negation",
    "Disjunction",
    "Conjunction",
    "Equivalence",
    "Trim",
    "GradientSample",
    "Diagnostic",
    "FieldError",
    "DimensionMismatchError",
    "DegenerateSegmentError",
    "evaluate",
    "gradient",
    "validate",
]


class FieldError(ValueError):
    """Base class for field-expression errors."""


class DimensionMismatchError(FieldError):
    """Point dimension does not match the expression, or leaves mix 2-D and 3-D."""


class DegenerateSegmentError(FieldError):
    """Segment endpoints are closer than the degeneracy threshold."""


@dataclass(frozen=True)
class GradientSample:
    """Field value and spatial gradient at one point (or a batch).

    ``value`` is in meters; ``grad`` is dimensionless near the zero set and
    has length ``d`` (or shape ``(n, d)`` for batch input).
    """

    value: float | np.ndarray
    grad: np.ndarray


@dataclass(frozen=True)
class Diagnostic:
    """One finding from :func:`validate`; ``code`` is a stable identifier."""

    code: str
    message: str
    path: str = ""

    def __str__(self) -> str:
        where = self.path or "root"
        return f"{self.code} at {where}: {self.message}"


def _point_tuple(p, name: str) -> tuple[float, ...]:
    t = tuple(float(c) for c in p)
    if len(t) not in (2, 3):
        raise FieldError(f"{name} must have 2 or 3 coordinates, got {len(t)}")
    if not all(np.isfinite(t)):
        raise FieldError(f"{name} has non-finite coordinates: {t}")
    return t


def _as_batch(x, dim: int) -> np.ndarray:
    """Coerce a point or point batch to ``(n, dim)``."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        if pts.shape[0] != dim:
            raise DimensionMismatchError(
                f"point has {pts.shape[0]} coordinates, expression is {dim}-D"
            )
        return pts[None, :]
    if pts.ndim == 2:
        if pts.shape[1] != dim:
            raise DimensionMismatchError(
                f"points have {pts.shape[1]} coordinates, expression is {dim}-D"
            )
        return pts
    raise DimensionMismatchError(f"points must be 1-D or 2-D, got shape {pts.shape}")


def _const(x: float) -> np.ndarray:
    """``x`` as a read-only 0-d float64 array: an operand that numpy's
    ufuncs take on their array path, with the bits of the float."""
    a = np.array(x, dtype=np.float64)
    a.flags.writeable = False
    return a


_HALF, _ONE, _ZERO = _const(0.5), _const(1.0), _const(0.0)


def _corner_div(nums: tuple, den: np.ndarray) -> list[np.ndarray]:
    """Pointwise ``num / den`` for each ``num`` of ``nums``, 0 where ``den``
    is 0 (the sqrt-corner rule); ``den`` broadcasts against each ``num`` and
    is tested for zeros once.  A batch with no zero denominator takes a
    plain divide, which gives the masked divide's bits: only +0.0 and -0.0
    are masked, and a NaN or infinite denominator divides in both.
    """
    if np.count_nonzero(den) == den.size:
        return [num / den for num in nums]
    nonzero = den != 0.0
    return [np.divide(num, den, out=np.zeros(np.broadcast_shapes(np.shape(num), den.shape)),
                      where=nonzero) for num in nums]


def _contract(p1: np.ndarray, g1: np.ndarray, p2: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """The chain rule of a two-operand step: per-point partials ``p1``,
    ``p2`` ((k, n) or (n,)) times their operands' gradients ((k, d, n) or
    (d, n)), each broadcast over the d axis, and summed."""
    return p1[..., None, :] * g1 + p2[..., None, :] * g2


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldExpr:
    """Immutable base node.

    Subclasses implement ``_emit`` (the node's kind, parameters and
    operands, which the plan compiler reads) and ``children``; a leaf also
    states its spatial dimension as ``dim``.
    """

    def children(self) -> tuple["FieldExpr", ...]:
        return ()

    @cached_property
    def _leaf_dims(self) -> frozenset[int]:
        """The dimensions of the tree's leaves, kept on each node, so a
        shared subtree is walked once and a dropped tree frees them."""
        kids = self.children()
        if kids:
            return frozenset().union(*(c._leaf_dims for c in kids))
        return frozenset((self.dim,))

    @property
    def dimension(self) -> int:
        """Spatial dimension of the expression (2 or 3)."""
        dims = self._leaf_dims
        if len(dims) != 1:
            raise DimensionMismatchError(
                f"expression mixes dimensions {sorted(dims)}"
            )
        return next(iter(dims))

    @cached_property
    def _plan(self) -> _Plan:
        """This tree as a compiled plan, built at the first evaluation: a
        degenerate segment raises there, and again on every later call, as a
        failed build caches nothing."""
        return _Plan((self,))

    def values(self, pts, t: float) -> np.ndarray:
        """phi at each row of ``pts``; ``t`` is ignored, as a tree is static."""
        pts = _as_batch(pts, self.dimension)
        return self._plan(pts, want_grad=False)[0][0]

    def values_grads(self, pts, t: float) -> tuple[np.ndarray, np.ndarray]:
        """phi and its spatial gradient at each row of ``pts``; ``t`` is ignored."""
        pts = _as_batch(pts, self.dimension)
        V, G = self._plan(pts, want_grad=True)
        return V[0], G[0].T.copy()

    def eval(self, x) -> float | np.ndarray:
        """Field value at point ``x`` (or at each row of a point batch)."""
        v = self.values(x, 0.0)
        return float(v[0]) if np.ndim(x) == 1 else v

    def gradient(self, x) -> GradientSample:
        """Value and forward-mode spatial gradient at ``x`` (point or batch)."""
        v, g = self.values_grads(x, 0.0)
        if np.ndim(x) == 1:
            return GradientSample(float(v[0]), g[0].copy())
        return GradientSample(v, g)

    def _emit(self) -> tuple[str, tuple, tuple["FieldExpr", ...]]:
        raise FieldError(f"unknown node {type(self).__name__}")


@dataclass(frozen=True)
class _Ball(FieldExpr):
    """Ball ``(R^2 - |x - c|^2) / (2R)``; subclasses fix ``dim`` and ``noun``."""

    dim: ClassVar[int]
    noun: ClassVar[str]
    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _point_tuple(self.center, "center"))
        object.__setattr__(self, "radius", float(self.radius))
        if len(self.center) != self.dim:
            raise DimensionMismatchError(f"{self.noun} center must be {self.dim}-D")
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise FieldError(f"{self.noun} radius must be positive, got {self.radius}")

    def _emit(self):
        return "ball", (self.center, self.radius), ()


@dataclass(frozen=True)
class Circle(_Ball):
    """2-D circle, inside-positive: ``(R^2 - |x - c|^2) / (2R)``."""

    dim: ClassVar[int] = 2
    noun: ClassVar[str] = "circle"


@dataclass(frozen=True)
class Segment(FieldExpr):
    """2-D line segment; unsigned field, zero exactly on the closed segment.

    A leaf that evaluates ``Trim(Plane(p1, n), Circle(mid, L/2))``: the
    line through the endpoints, trimmed by the circle with the segment as
    its diameter, which lifts the unwanted half-lines off zero while staying
    first-order equal to unsigned distance near the segment interior
    (Biswas & Shapiro 2004).
    """

    dim: ClassVar[int] = 2
    p1: tuple[float, float]
    p2: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "p1", _point_tuple(self.p1, "p1"))
        object.__setattr__(self, "p2", _point_tuple(self.p2, "p2"))
        if len(self.p1) != 2 or len(self.p2) != 2:
            raise DimensionMismatchError("segment endpoints must be 2-D")
        if not (np.isfinite(self.length) and np.all(np.isfinite(self._mid))):
            raise FieldError(
                f"segment p1={self.p1}, p2={self.p2}: length or midpoint "
                "overflows a float"
            )

    @cached_property
    def length(self) -> float:
        return float(np.hypot(self.p2[0] - self.p1[0], self.p2[1] - self.p1[1]))

    def _require_proper(self):
        if self.length < DEGENERATE_SEGMENT_LENGTH:
            raise DegenerateSegmentError(
                f"segment endpoints coincide within {DEGENERATE_SEGMENT_LENGTH} m"
            )

    @cached_property
    def _mid(self) -> tuple[float, float]:
        (x1, y1), (x2, y2) = self.p1, self.p2
        return (x1 + x2) / 2.0, (y1 + y2) / 2.0

    @cached_property
    def _tree(self) -> Trim:
        self._require_proper()
        (x1, y1), (x2, y2) = self.p1, self.p2
        L = self.length
        return Trim(
            Plane(self.p1, ((y2 - y1) / L, -(x2 - x1) / L)),
            Circle(self._mid, L / 2.0),
        )

    def _emit(self):
        return self._tree._emit()


@dataclass(frozen=True)
class Sphere(_Ball):
    """3-D sphere.

    ``normalized=True`` (the default) gives the inside-positive ball field
    ``(R^2 - |x - c|^2) / (2R)`` with unit gradient on the boundary;
    ``normalized=False`` keeps the raw quadric ``|x - c|^2 - R^2``
    (outside-positive, gradient 2R on the boundary).
    """

    dim: ClassVar[int] = 3
    noun: ClassVar[str] = "sphere"
    normalized: bool = True

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "normalized", bool(self.normalized))

    def _emit(self):
        kind = "ball" if self.normalized else "quadric"
        return kind, (self.center, self.radius), ()


@dataclass(frozen=True)
class Plane(FieldExpr):
    """Half-space field ``(x - o) . n`` with unit normal; exactly normalized.

    With 2-D ``origin``/``normal`` this is the half-plane used to trim 2-D
    carriers; with 3-D vectors it is the plane primitive.
    """

    origin: tuple[float, ...]
    normal: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "origin", _point_tuple(self.origin, "origin"))
        object.__setattr__(self, "normal", _point_tuple(self.normal, "normal"))
        if len(self.origin) != len(self.normal):
            raise DimensionMismatchError("plane origin and normal dimensions differ")
        norm = float(np.linalg.norm(self.normal))
        if abs(norm - 1.0) > NORMAL_UNIT_TOL:
            raise FieldError(f"plane normal must be unit length, |n| = {norm!r}")

    @property
    def dim(self) -> int:
        return len(self.origin)

    def _emit(self):
        return "plane", (self.origin, self.normal), ()


@dataclass(frozen=True)
class Negation(FieldExpr):
    """R-negation: flips the sign (complement of the region)."""

    child: FieldExpr

    def children(self):
        return (self.child,)

    def _emit(self):
        return "neg", (), (self.child,)


def _check_s(s) -> float:
    """The R-operation parameter ``s`` as a float; it must be finite and >= 0."""
    s = float(s)
    if not (s >= 0.0 and np.isfinite(s)):
        raise FieldError(f"s must be >= 0, got {s}")
    return s


_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


def _caller_stacklevel() -> int:
    """The ``warnings.warn`` stacklevel, for the function calling this one,
    of the first frame outside the package, so a warning names the user's
    call site however many evaluation frames lie between."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
        level += 1
        frame = frame.f_back
    return level


class _RConsts(NamedTuple):
    """An R-operation group's constants, made once from its (s, sign) by
    :func:`_r_consts`: ``s`` as a float for the clamp test, the rest 0-d
    arrays.  The plan keys its groups by ``repr`` of (s, sign), so a -0.0
    group and a 0.0 group each build their own."""

    s_value: float
    s: np.ndarray
    sign: np.ndarray
    two_s: np.ndarray
    one_plus_s: np.ndarray
    sign_over: np.ndarray  # sign / (1 + s)
    mean: np.ndarray  # 1 / (1 + s)


def _r_consts(s: float, sign: float) -> _RConsts:
    den = 1.0 + s
    return _RConsts(s, *map(_const, (s, sign, 2.0 * s, den, sign / den, 1.0 / den)))


def _r_binary(v1, v2, c: _RConsts, want_partials: bool):
    """R-disjunction (``sign`` +1) or R-conjunction (-1) of values v1, v2.

    Value ``r = (v1 + v2 + sign sqrt(rad)) / (1 + s)`` with ``rad = v1^2 +
    v2^2 - 2 s v1 v2`` clamped at 0 (only s > 1 can make it negative); with
    ``want_partials`` also the per-point factor ``q = sign / ((1 + s)
    sqrt(rad))``, 0 where ``sqrt(rad)`` is 0, of both partials (see
    :func:`_r_partial`), else ``(v, None)``.  Values are (k, n) stacks (an
    operand may be a constant stack), and ``c`` holds the group's (s,
    sign) constants.  A clamp warns once per call.
    """
    rad = v1 * v1 + v2 * v2 - c.two_s * v1 * v2
    if c.s_value > 1.0 and np.count_nonzero(rad < _ZERO):
        warnings.warn(
            f"R-function radicand clamped to 0 (s = {c.s_value} > 1)",
            RuntimeWarning, stacklevel=_caller_stacklevel(),
        )
    root = np.sqrt(np.maximum(rad, _ZERO))
    v = (v1 + v2 + c.sign * root) / c.one_plus_s
    if not want_partials:
        return v, None
    # at most 1 / sqrt(smallest subnormal), so it cannot overflow
    return v, _corner_div((c.sign_over,), root)[0]


def _r_partial(q, c: _RConsts, a, b):
    """An R-operation's partial in its operand ``a``, with ``b`` the other
    and ``q`` from :func:`_r_binary`: ``dr/da = (1 + sign (a - s b) /
    sqrt(rad)) / (1 + s)``, which is ``1 / (1 + s)``, the mean of its
    one-sided values, where ``sqrt(rad)`` is 0."""
    return c.mean + q * (a - c.s * b)


@dataclass(frozen=True)
class _RBinary(FieldExpr):
    """Shared node of the two R-operations; subclasses fix ``sign``."""

    sign: ClassVar[float]
    left: FieldExpr
    right: FieldExpr
    s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "s", _check_s(self.s))

    def children(self):
        return (self.left, self.right)

    def _emit(self):
        return "rbin", (self.s, self.sign), (self.left, self.right)


@dataclass(frozen=True)
class Disjunction(_RBinary):
    """R-disjunction (union): positive iff either child is positive."""

    sign: ClassVar[float] = +1.0


@dataclass(frozen=True)
class Conjunction(_RBinary):
    """R-conjunction (intersection): positive iff both children are positive."""

    sign: ClassVar[float] = -1.0


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in row order.  ``x.sum(axis=0)`` sums a (k, 1) stack
    pairwise once k >= 8 but a wider one in order, so a lone point would
    round apart from the same point in a batch."""
    return np.add.accumulate(x, axis=0)[-1]


class _EquivConsts(NamedTuple):
    """An equivalence's order m, -1/m and -(m + 1)/m as 0-d arrays."""

    m: np.ndarray
    neg_inv: np.ndarray
    neg_next: np.ndarray


def _equiv_consts(m: int) -> _EquivConsts:
    return _EquivConsts(*map(_const, (m, -1.0 / m, -(m + 1.0) / m)))


def _equiv_vg(V: np.ndarray, G: np.ndarray | None, c: _EquivConsts):
    """Order-``m`` equivalence of the absolute values of ``V``, (k, n), with
    ``c`` the constants of m.

    With ``phi_i = |V_i|``, evaluates ``1 / (sum_i phi_i^-m)^(1/m)`` in a
    scaled form that cannot overflow: with ``a = min_i phi_i``, the result
    is ``a / (sum_i (a/phi_i)^m)^(1/m)``.  Zero wherever a piece is zero
    (the limit) and NaN wherever a piece is NaN, which ``np.minimum``
    carries into ``a``.  With the pieces' gradients ``G`` (k, d, n) also
    returns the gradient (d, n), zero where the value is zero; else
    ``None``.
    """
    U = np.abs(V)
    # the ufunc form, which skips the np.min wrapper
    a = np.minimum.reduce(U, axis=0)
    pos = a != _ZERO  # a NaN point is computed, and stays NaN
    every = np.count_nonzero(pos) == pos.size  # the usual case: no masking
    Up, ap = (U, a) if every else (U[:, pos], a[pos])
    ratios = ap / Up  # (k, np), all in (0, 1] off NaN points
    powers = np.power(ratios, c.m)
    ssum = _sum_rows(powers)  # >= 1
    vp = ap * np.power(ssum, c.neg_inv)
    gp = None
    if G is not None:
        Gp = G if every else G[:, :, pos]
        # d phi / d phi_i = (phi / phi_i)^(m + 1), in (0, 1] as phi <= a, so
        # no term can overflow and none cancels another.  It is formed as
        # ratio^(m + 1) ssum^(-(m + 1)/m): the power m + 1 multiplies its
        # base's rounding error by m + 1, and ratio = a / phi_i carries one
        # rounding where phi / phi_i would also carry phi's.  The chain rule
        # of |V_i|, d phi_i = sign(V_i) d V_i, moves onto the coefficient:
        # no V_i is 0 here, and a NaN one leaves the coefficient NaN
        coef = np.copysign(powers * ratios * np.power(ssum, c.neg_next),
                           V if every else V[:, pos])
        gp = _sum_rows(coef[:, None, :] * Gp)
    if every:
        return vp, gp
    v = np.zeros_like(a)
    v[pos] = vp
    g = None
    if G is not None:
        g = np.zeros(G.shape[1:])
        g[:, pos] = gp
    return v, g


@dataclass(frozen=True)
class Equivalence(FieldExpr):
    """Order-``m`` R-equivalence of two or more pieces (union of zero sets).

    Signed children are passed through absolute value first, so the result
    is non-negative with zero set equal to the union of the children's zero
    sets, and it preserves normalization up to order ``m`` at regular
    boundary points.  Associative: any pairwise nesting gives the same
    field.
    """

    children_: tuple[FieldExpr, ...]
    m: int = 2

    def __post_init__(self):
        object.__setattr__(self, "children_", tuple(self.children_))
        object.__setattr__(self, "m", int(self.m))
        if len(self.children_) < 2:
            raise FieldError("equivalence needs at least 2 children")
        if self.m < 1:
            raise FieldError(f"equivalence order m must be >= 1, got {self.m}")

    def children(self):
        return self.children_

    def _emit(self):
        return "equiv", (self.m,), self.children_


def _trim(f, t, want_partials: bool):
    """Trimming rule: carrier ``f`` stays zero only where trimmer ``t >= 0``.

    Value ``v = sqrt(f^2 + w^2)`` with ``w = (aux - t) / 2`` and ``aux =
    sqrt(t^2 + f^4)``; with ``want_partials`` also the per-point partials

        dv/df = (f + w w_f) / v,  dv/dt = w w_t / v,
        w_f = f^3 / aux,  w_t = (t / aux - 1) / 2,

    whose quotients are 0 where their denominator is 0, else ``(v, None,
    None)``.  Values are (k, n) stacks.
    """
    # f^4 and f^3 as products of f2: numpy's power takes a slow per-element
    # path for negative bases, and a carrier is signed.  A product is still
    # elementwise, so a row's bits do not depend on its batch.
    f2 = f * f
    aux = np.sqrt(t * t + f2 * f2)
    w = _HALF * (aux - t)
    v = np.sqrt(f2 + w * w)
    if not want_partials:
        return v, None, None
    # w_t as (t / aux - 1) / 2, not the equal -w / aux: both cancel where
    # t > 0 and t^2 >> f^4, and only this one stays within 4 ulp of the
    # chain rule through aux and w there
    w_f, t_aux = _corner_div((f2 * f, t), aux)
    w_t = _HALF * (t_aux - _ONE)
    return (v, *_corner_div((f + w * w_f, w * w_t), v))


@dataclass(frozen=True)
class Trim(FieldExpr):
    """Trimmed carrier: unsigned field, zero where base = 0 and trimmer >= 0.

    The portion of the base zero set with negative trimmer is lifted off
    zero by |trimmer|, turning full circles/lines into bounded arcs and
    segments.
    """

    base: FieldExpr
    trimmer: FieldExpr

    def children(self):
        return (self.base, self.trimmer)

    def _emit(self):
        return "trim", (), (self.base, self.trimmer)


# ---------------------------------------------------------------------------
# Compiled plans
# ---------------------------------------------------------------------------
# Each step evaluates one group of nodes of one kind on a (k, n) value stack
# and a (k, d, n) gradient stack: axis-major, so a per-row factor broadcasts
# over d rows of n points, not over n rows of d.  Every operation is
# elementwise or reduces in a fixed order, so each row gets the bits it
# would get alone.  The leaf kernels read the points as ``pts.T``.

def _axis_sum(p):
    """A (k, d, n) stack summed over its d axis, as (k, n): x + y in 2-D,
    (x + z) + y in 3-D, in that order whatever the layout.  numpy's einsum
    picks its order from the strides; this is the one it used on (k, n, d)
    stacks, which fixed the values' bits."""
    x, y = p[:, 0], p[:, 1]
    return x + y if p.shape[1] == 2 else (x + p[:, 2]) + y


def _ball_step(pts, ops, c, want_grad):
    dx = pts.T - c[0]
    return (c[1] - _axis_sum(dx * dx)) / c[2], (dx / c[3] if want_grad else None)


def _quadric_step(pts, ops, c, want_grad):
    dx = pts.T - c[0]
    return _axis_sum(dx * dx) - c[1], (2.0 * dx if want_grad else None)


def _plane_step(pts, ops, c, want_grad):
    origin, normal = c
    # elementwise, not a BLAS product, so a point's value is the same in any
    # batch; einsum's sum started from +0.0, which turns -0.0 into 0.0
    v = _axis_sum((pts.T - origin) * normal)
    v += _ZERO
    if not want_grad:
        return v, None
    g = np.empty(normal.shape[:2] + v.shape[1:])
    g[...] = normal
    return v, g


def _neg_step(pts, ops, c, want_grad):
    ((v, g),) = ops
    return -v, (-g if want_grad else None)


def _rbin_step(pts, ops, c, want_grad):
    (v1, g1), (v2, g2) = ops
    v, q = _r_binary(v1, v2, c, want_grad)
    return v, (_contract(_r_partial(q, c, v1, v2), g1, _r_partial(q, c, v2, v1), g2)
               if want_grad else None)


def _trim_step(pts, ops, c, want_grad):
    (f, gf), (t, gt) = ops
    v, pf, pt = _trim(f, t, want_grad)
    return v, (_contract(pf, gf, pt, gt) if want_grad else None)


def _equiv_step(pts, ops, c, want_grad):
    # one node per step, as equivalences differ in their number of pieces:
    # its one operand is the (k, n) stack of its children's rows
    ((v, g),) = ops
    v, g = _equiv_vg(v, g, c)
    return v[None], (g[None] if want_grad else None)


def _ball_consts(params):
    centers = np.array([c for c, _ in params])[:, :, None]
    radii = np.array([r for _, r in params], dtype=float)[:, None]
    return centers, radii * radii, 2.0 * radii, -radii[:, :, None]


_STEPS = {
    "ball": (_ball_step, _ball_consts),
    "quadric": (_quadric_step, _ball_consts),
    "plane": (_plane_step, lambda params: (
        np.array([o for o, _ in params])[:, :, None],
        np.array([n for _, n in params])[:, :, None],
    )),
    "neg": (_neg_step, lambda params: None),
    "rbin": (_rbin_step, lambda params: _r_consts(*params[0])),  # one (s, sign) per group
    "trim": (_trim_step, lambda params: None),
    "equiv": (_equiv_step, lambda params: _equiv_consts(params[0][0])),
}


def _gather(refs):
    """A reader of rows ``refs`` [(step, row), ...] of the step stacks, in
    that order, with the set of steps it reads and the copies it makes: a
    slice for consecutive rows of one step (0), one ``take`` for other rows
    of one step (1), else a concatenation of slices (2)."""
    runs: list[list[int]] = []
    for step, row in refs:
        if runs and runs[-1][0] == step and runs[-1][2] == row:
            runs[-1][2] += 1
        else:
            runs.append([step, row, row + 1])
    steps = {step for step, _, _ in runs}
    if len(runs) == 1:
        ((step, start, stop),) = runs
        rows = slice(start, stop)
        return (lambda stacks: stacks[step][rows]), steps, 0
    if len(steps) == 1:
        (step,) = steps
        index = np.array([row for _, row in refs], dtype=np.intp)
        return (lambda stacks: stacks[step].take(index, axis=0)), steps, 1
    slices = [(step, slice(start, stop)) for step, start, stop in runs]
    return (lambda stacks: np.concatenate([stacks[s][rows] for s, rows in slices])), steps, 2


class _Plan:
    """One or more trees compiled into a forward-mode tape of stacked steps.

    Equal subtrees are evaluated once (hash-consing on kind, exact
    parameters and operands), a ``Segment`` is its ``Trim`` tree, and the
    nodes of one kind at one height form one step, R-operations one per
    ``(s, sign)``.  An equivalence is a step of its own.  Calling the plan
    returns the roots' values as an (r, n) stack and their gradients as an
    (r, d, n) stack (None without ``want_grad``), freshly allocated on
    every call.

    A step's rows are its nodes in compile order.  A step reads each
    operand with its own gather, or all of them with one gather that it
    slices, whichever copies less.
    """

    def __init__(self, roots):
        nodes: list[tuple] = []  # (kind, params, operand ids, height)
        ids: dict[tuple, int] = {}
        seen: dict[int, int] = {}

        def visit(expr) -> int:
            if id(expr) in seen:
                return seen[id(expr)]
            kind, params, kids = expr._emit()
            ops = tuple(visit(k) for k in kids)
            # repr keeps -0.0 apart from 0.0, which give different gradients
            key = (kind, repr(params), ops)
            if key not in ids:
                height = 1 + max(nodes[o][3] for o in ops) if ops else 0
                ids[key] = len(nodes)
                nodes.append((kind, params, ops, height))
            seen[id(expr)] = ids[key]
            return ids[key]

        root_ids = [visit(r) for r in roots]
        groups: dict[tuple, list[int]] = {}
        for i, (kind, params, _, height) in enumerate(nodes):
            # an R-operation group shares its (s, sign), keyed as the nodes are
            extra = i if kind == "equiv" else repr(params) if kind == "rbin" else ""
            groups.setdefault((height, kind, extra), []).append(i)
        where: dict[int, tuple[int, int]] = {}
        steps = []
        last_use: dict[int, int] = {}
        for k, key in enumerate(sorted(groups)):
            members = groups[key]
            kind = key[1]
            run, consts = _STEPS[kind]
            op_ids = [nodes[i][2] for i in members]
            if kind == "equiv":
                # its one operand: the stack of its pieces' rows
                by_operand = [[where[o] for o in op_ids[0]]]
            else:
                by_operand = [[where[ops[p]] for ops in op_ids] for p in range(len(op_ids[0]))]
            reads = [(_gather(refs), None) for refs in by_operand]
            if len(reads) > 1:
                whole = _gather([ref for refs in by_operand for ref in refs])
                if whole[2] < sum(g[2] for g, _ in reads):
                    m = len(members)
                    reads = [(whole, [slice(p * m, p * m + m) for p in range(len(reads))])]
            for (_, sources, _), _ in reads:
                for src in sources:
                    last_use[src] = k
            steps.append((run, consts([nodes[i][1] for i in members]),
                          [(read, parts) for (read, _, _), parts in reads]))
            for row, i in enumerate(members):
                where[i] = (k, row)
        self._roots, keep, _ = _gather([where[i] for i in root_ids])
        self._steps = [
            (run, consts, reads,
             [s for s, last in last_use.items() if last == k and s not in keep])
            for k, (run, consts, reads) in enumerate(steps)
        ]

    def __call__(self, pts: np.ndarray, want_grad: bool):
        # the leaf kernels read pts.T, which a Fortran-ordered batch makes a
        # contiguous (d, n) array; the values do not depend on the order
        pts = np.asfortranarray(pts)
        vals: list = []
        grads: list = []
        for run, consts, reads, done in self._steps:
            ops = []
            for read, parts in reads:
                v = read(vals)
                g = read(grads) if want_grad else None
                if parts is None:
                    ops.append((v, g))
                else:
                    ops.extend((v[p], g[p] if want_grad else None) for p in parts)
            for s in done:  # drop stacks no later step reads
                vals[s] = grads[s] = None
            v, g = run(pts, ops, consts, want_grad)
            vals.append(v)
            grads.append(g)
        return self._roots(vals), self._roots(grads) if want_grad else None


# ---------------------------------------------------------------------------
# Tree-level operations
# ---------------------------------------------------------------------------

def evaluate(expr: FieldExpr, x) -> float | np.ndarray:
    """Field value of ``expr`` at point or point-batch ``x``."""
    return expr.eval(x)


def gradient(expr: FieldExpr, x) -> GradientSample:
    """Value and exact spatial gradient of ``expr`` at ``x``.

    The value agrees bit-for-bit with :func:`evaluate`; the gradient is the
    forward-mode derivative with the sqrt-corner convention (zero at the
    measure-zero non-differentiable points).
    """
    return expr.gradient(x)


def _walk(expr: FieldExpr, path: str, seen: set) -> Iterator[tuple[FieldExpr, str]]:
    """Each node of ``expr`` whose id is not in ``seen``, with the first path
    that reaches it, depth first with children in order.  Ids go into
    ``seen`` as nodes are visited, so a node that several bindings share is
    visited once, and a walk costs one visit per distinct node."""
    if id(expr) in seen:
        return
    seen.add(id(expr))
    yield expr, path
    names = {
        Negation: ("child",),
        Disjunction: ("left", "right"),
        Conjunction: ("left", "right"),
        Trim: ("base", "trimmer"),
    }.get(type(expr))
    kids = expr.children()
    for idx, kid in enumerate(kids):
        label = names[idx] if names else f"children[{idx}]"
        sub = f"{path}.{label}" if path else label
        yield from _walk(kid, sub, seen)


def validate(expr: FieldExpr) -> list[Diagnostic]:
    """Well-formedness diagnostics for ``expr``; an empty list means clean.

    Reports mixed 2-D/3-D leaves, degenerate segments, and R-operation
    parameters outside the well-behaved range (s > 1, whose radicand may
    need clamping).  Hard constructor invariants (positive radii, unit
    normals, m >= 1) cannot be violated on constructed trees and are not
    re-reported here.  A node that several bindings share is checked once,
    and its findings carry the first path that reaches it.
    """
    diags: list[Diagnostic] = []
    for node, path in _walk(expr, "", set()):
        if isinstance(node, Segment) and node.length < DEGENERATE_SEGMENT_LENGTH:
            diags.append(
                Diagnostic(
                    "degenerate-segment",
                    f"endpoints {node.p1} and {node.p2} coincide",
                    path,
                )
            )
        if isinstance(node, _RBinary) and node.s > 1.0:
            diags.append(
                Diagnostic(
                    "s-above-one",
                    f"s = {node.s}: radicand may be clamped to 0",
                    path,
                )
            )
    dims = expr._leaf_dims
    if len(dims) > 1:
        diags.insert(
            0,
            Diagnostic(
                "dimension-mismatch",
                f"expression mixes {sorted(dims)}-dimensional leaves",
                "",
            ),
        )
    return diags
