"""Analytic approximate distance fields composed with R-functions.

A field expression is an immutable tree of shape primitives (circle,
segment, sphere, plane) and R-operations (negation, disjunction,
conjunction, equivalence, trimming).  Evaluating the tree at a point gives
an approximate distance to the shape boundary: zero exactly on the
boundary, first-order equal to Euclidean distance near it.  The library
convention is inside-positive for the signed primitives; unsigned
primitives (segments, trimmed carriers, equivalence joins) are
non-negative everywhere.

Gradients are exact: they are propagated forward through the tree
alongside values (dual-number style), never by finite differences.  At the
measure-zero points where an expression is not differentiable (R-operation
corners, creases of unsigned fields) the propagation uses the convention
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
``(k, n, d)`` gradient stack.  All balls are one group, as are all raw
quadrics, all planes, the negations, the R-operations (with a per-row
``s``) and the trims at one height; an equivalence is a group of its own.
Grouping same-kind nodes follows the tape compilation of Keeter 2020
(SIGGRAPH).  A kernel performs the same floating-point operations on each
row whatever the stack's height and width, so a node's result does not
depend on its group, and a point's result does not depend on its batch.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterator

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
    "r_negation",
    "r_disjunction",
    "r_conjunction",
    "r_equivalence_pair",
    "r_equivalence_n",
    "trim",
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


def _as_batch(x, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce a point or point batch to ``(n, dim)``; flag scalar input."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        if pts.shape[0] != dim:
            raise DimensionMismatchError(
                f"point has {pts.shape[0]} coordinates, expression is {dim}-D"
            )
        return pts[None, :], True
    if pts.ndim == 2:
        if pts.shape[1] != dim:
            raise DimensionMismatchError(
                f"points have {pts.shape[1]} coordinates, expression is {dim}-D"
            )
        return pts, False
    raise DimensionMismatchError(f"points must be 1-D or 2-D, got shape {pts.shape}")


def _div_rows(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Row-wise ``num / den`` returning 0 where ``den`` is 0 (sqrt-corner rule).

    ``num`` has one more (trailing) axis than ``den``: (n, d) over (n,), or
    a (k, n, d) stack over (k, n).
    """
    out = np.zeros_like(num)
    np.divide(num, den[..., None], out=out, where=den[..., None] != 0.0)
    return out


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
        pts, _ = _as_batch(pts, self.dimension)
        return self._plan(pts, want_grad=False)[0][0]

    def values_grads(self, pts, t: float) -> tuple[np.ndarray, np.ndarray]:
        """phi and its spatial gradient at each row of ``pts``; ``t`` is ignored."""
        pts, _ = _as_batch(pts, self.dimension)
        V, G = self._plan(pts, want_grad=True)
        return V[0], G[0]

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


def _lift(x):
    """A per-row column (k, 1) as (k, 1, 1), to broadcast over gradients; a
    scalar as itself."""
    return x[..., None] if np.ndim(x) else x


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


def _r_binary_vg(v1, g1, v2, g2, s, sign, want_grad: bool):
    """R-disjunction (``sign`` +1) or R-conjunction (-1) of values v1, v2.

    Value ``(v1 + v2 + sign sqrt(v1^2 + v2^2 - 2 s v1 v2)) / (1 + s)``,
    with the radicand clamped at 0 (only s > 1 can make it negative);
    with ``want_grad`` also the forward-mode gradient from g1, g2.  On a
    (k, n) stack, ``s`` and ``sign`` may be (k, 1) columns.  A constant
    operand is a column or scalar with the scalar gradient 0.0, which
    broadcasts to the same values as a zero array.
    """
    rad = v1 * v1 + v2 * v2 - 2.0 * s * v1 * v2
    if np.greater(s, 1.0).any():
        clamped = (rad < 0.0) & (s > 1.0)
        for s_bad in np.unique(np.broadcast_to(s, clamped.shape)[clamped]):
            warnings.warn(
                f"R-function radicand clamped to 0 (s = {float(s_bad)} > 1)",
                RuntimeWarning, stacklevel=_caller_stacklevel(),
            )
    root = np.sqrt(np.maximum(rad, 0.0))
    v = (v1 + v2 + sign * root) / (1.0 + s)
    if not want_grad:
        return v, None
    s, sign = _lift(s), _lift(sign)
    drad = (
        2.0 * v1[..., None] * g1
        + 2.0 * v2[..., None] * g2
        - 2.0 * s * (v1[..., None] * g2 + v2[..., None] * g1)
    )
    g = (g1 + g2 + sign * _div_rows(0.5 * drad, root)) / (1.0 + s)
    return v, g


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


def _equiv_vg(U: np.ndarray, G: np.ndarray | None, m: int):
    """Order-``m`` equivalence of non-negative values ``U`` of shape (k, n).

    Evaluates ``1 / (sum_i phi_i^-m)^(1/m)`` in a scaled form that cannot
    overflow: with ``a = min_i phi_i``, the result is ``a / (sum_i
    (a/phi_i)^m)^(1/m)``.  Zero whenever any input is zero (the limit).
    With the inputs' gradients ``G`` (k, n, d) also returns the
    forward-mode gradient, zero where the value is zero; else ``None``.
    """
    a = U.min(axis=0)
    pos = a > 0.0
    every = pos.all()  # the usual case: no masking needed
    Up, ap = (U, a) if every else (U[:, pos], a[pos])
    ratios = ap / Up  # (k, np), all in (0, 1]
    ssum = _sum_rows(np.power(ratios, m))  # >= 1
    scale = np.power(ssum, -1.0 / m)
    vp = ap * scale
    gp = None
    if G is not None:
        Gp = G if every else G[:, pos, :]
        piv = np.argmin(Up, axis=0)
        ga = Gp[piv, np.arange(Up.shape[1])]  # (np, d)
        # d ratio_i = (ga * u_i - a * g_i) / u_i^2
        dr = (ga[None, :, :] * Up[:, :, None] - ap[None, :, None] * Gp) / (
            Up * Up
        )[:, :, None]
        ds = m * _sum_rows(np.power(ratios, m - 1)[:, :, None] * dr)
        gp = scale[:, None] * (ga - (ap / (m * ssum))[:, None] * ds)
    if every:
        return vp, gp
    v = np.zeros_like(a)
    v[pos] = vp
    g = None
    if G is not None:
        g = np.zeros(G.shape[1:])
        g[pos] = gp
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


def _trim_vg(f, gf, t, gt, want_grad: bool):
    """Trimming rule: carrier ``f`` stays zero only where trimmer ``t >= 0``.

    With ``want_grad`` also the forward-mode gradient from gf, gt.
    """
    aux = np.sqrt(t * t + f ** 4)
    w = 0.5 * (aux - t)
    v = np.sqrt(f * f + w * w)
    if not want_grad:
        return v, None
    gaux = _div_rows(t[..., None] * gt + (2.0 * f ** 3)[..., None] * gf, aux)
    gw = 0.5 * (gaux - gt)
    g = _div_rows(f[..., None] * gf + w[..., None] * gw, v)
    return v, g


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
# and a (k, n, d) gradient stack.  Every operation is elementwise or reduces
# in a fixed order, so each row gets the bits it would get alone.

def _sphere_dx(pts, c):
    dx = pts - c[0]
    return dx, np.einsum("kij,kij->ki", dx, dx)


def _ball_step(pts, ops, c, want_grad):
    dx, r2 = _sphere_dx(pts, c)
    return (c[1] - r2) / c[2], (dx / c[3] if want_grad else None)


def _quadric_step(pts, ops, c, want_grad):
    dx, r2 = _sphere_dx(pts, c)
    return r2 - c[1], (2.0 * dx if want_grad else None)


def _plane_step(pts, ops, c, want_grad):
    origin, normal = c
    # einsum, not a BLAS product, so a point's value is the same in any batch
    v = np.einsum("kij,kj->ki", pts - origin, normal)
    if not want_grad:
        return v, None
    g = np.empty(v.shape + pts.shape[1:])
    g[...] = normal[:, None, :]
    return v, g


def _neg_step(pts, ops, c, want_grad):
    ((v, g),) = ops
    return -v, (-g if want_grad else None)


def _rbin_step(pts, ops, c, want_grad):
    (v1, g1), (v2, g2) = ops
    return _r_binary_vg(v1, g1, v2, g2, c[0], c[1], want_grad)


def _trim_step(pts, ops, c, want_grad):
    (f, gf), (t, gt) = ops
    return _trim_vg(f, gf, t, gt, want_grad)


def _equiv_step(pts, ops, m, want_grad):
    # one node per step, as equivalences differ in their number of pieces:
    # its one operand is the (k, n) stack of its children's rows
    ((v, g),) = ops
    # d|phi| with sign(0) = 0, the corner convention.
    G = np.sign(v)[..., None] * g if want_grad else None
    v, g = _equiv_vg(np.abs(v), G, m)
    return v[None], (g[None] if want_grad else None)


def _per_row(xs):
    """Per-row constants as a (k, 1) column."""
    return np.array(xs, dtype=float)[:, None]


def _ball_consts(params):
    centers = np.array([c for c, _ in params])[:, None, :]
    radii = _per_row([r for _, r in params])
    return centers, radii * radii, 2.0 * radii, _lift(-radii)


_STEPS = {
    "ball": (_ball_step, _ball_consts),
    "quadric": (_quadric_step, _ball_consts),
    "plane": (_plane_step, lambda params: (
        np.array([o for o, _ in params])[:, None, :],
        np.array([n for _, n in params]),
    )),
    "neg": (_neg_step, lambda params: None),
    "rbin": (_rbin_step, lambda params: (
        _per_row([s for s, _ in params]),
        _per_row([sign for _, sign in params]),
    )),
    "trim": (_trim_step, lambda params: None),
    "equiv": (_equiv_step, lambda params: params[0][0]),
}


def _gather(refs):
    """Operand rows ``refs`` [(step, row), ...] as runs [step, start, stop]
    of consecutive rows of one step, read as slices."""
    runs: list[list[int]] = []
    for step, row in refs:
        if runs and runs[-1][0] == step and runs[-1][2] == row:
            runs[-1][2] += 1
        else:
            runs.append([step, row, row + 1])
    return [(step, slice(start, stop)) for step, start, stop in runs]


def _take(stacks, runs):
    if len(runs) == 1:
        step, rows = runs[0]
        return stacks[step][rows]
    return np.concatenate([stacks[step][rows] for step, rows in runs])


class _Plan:
    """One or more trees compiled into a forward-mode tape of stacked steps.

    Equal subtrees are evaluated once (hash-consing on kind, exact
    parameters and operands), a ``Segment`` is its ``Trim`` tree, and the
    nodes of one kind at one height form one step.  An equivalence is a
    step of its own.  Calling the plan returns the roots' values as an
    (r, n) stack and their gradients as an (r, n, d) stack (None without
    ``want_grad``), freshly allocated on every call.
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
        for i, (kind, _, _, height) in enumerate(nodes):
            groups.setdefault((height, kind, i if kind == "equiv" else -1), []).append(i)
        where: dict[int, tuple[int, int]] = {}
        steps = []
        last_use: dict[int, int] = {}
        for k, key in enumerate(sorted(groups)):
            members = groups[key]
            kind = key[1]
            run, consts = _STEPS[kind]
            op_ids = [nodes[i][2] for i in members]
            if kind == "equiv":
                gathers = [_gather([where[o] for o in op_ids[0]])]
            else:
                gathers = [_gather([where[ops[p]] for ops in op_ids])
                           for p in range(len(op_ids[0]))]
            for runs in gathers:
                for src, _ in runs:
                    last_use[src] = k
            steps.append((run, consts([nodes[i][1] for i in members]), gathers))
            for row, i in enumerate(members):
                where[i] = (k, row)
        refs = [where[i] for i in root_ids]
        keep = {step for step, _ in refs}
        self._roots = _gather(refs)
        self._steps = [
            (run, consts, gathers,
             [s for s, last in last_use.items() if last == k and s not in keep])
            for k, (run, consts, gathers) in enumerate(steps)
        ]

    def __call__(self, pts: np.ndarray, want_grad: bool):
        vals: list = []
        grads: list = []
        for run, consts, gathers, done in self._steps:
            ops = ()
            if gathers:
                ops = [
                    (_take(vals, g), _take(grads, g) if want_grad else None)
                    for g in gathers
                ]
                for s in done:  # drop stacks no later step reads
                    vals[s] = grads[s] = None
            v, g = run(pts, ops, consts, want_grad)
            vals.append(v)
            grads.append(g)
        return _take(vals, self._roots), _take(grads, self._roots) if want_grad else None


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


def _walk(expr: FieldExpr, path: str) -> Iterator[tuple[FieldExpr, str]]:
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
        yield from _walk(kid, sub)


def validate(expr: FieldExpr) -> list[Diagnostic]:
    """Well-formedness diagnostics for ``expr``; an empty list means clean.

    Reports mixed 2-D/3-D leaves, degenerate segments, and R-operation
    parameters outside the well-behaved range (s > 1, whose radicand may
    need clamping).  Hard constructor invariants (positive radii, unit
    normals, m >= 1) cannot be violated on constructed trees and are not
    re-reported here.
    """
    diags: list[Diagnostic] = []
    for node, path in _walk(expr, ""):
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


# ---------------------------------------------------------------------------
# Point-wise operations (the algebra behind the nodes)
# ---------------------------------------------------------------------------

def _scalarize(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


def r_negation(w):
    """R-negation of a field value."""
    out = -np.asarray(w, dtype=float)
    return _scalarize(out, np.isscalar(w) or np.ndim(w) == 0)


def _r_binary_point(w1, w2, s: float, sign: float):
    a = np.asarray(w1, dtype=float)
    b = np.asarray(w2, dtype=float)
    out, _ = _r_binary_vg(a, None, b, None, _check_s(s), sign, want_grad=False)
    return _scalarize(out, a.ndim == 0 and b.ndim == 0)


def r_disjunction(w1, w2, s: float = 0.0):
    """R-disjunction of two field values; positive iff either is positive."""
    return _r_binary_point(w1, w2, s, +1.0)


def r_conjunction(w1, w2, s: float = 0.0):
    """R-conjunction of two field values; positive iff both are positive."""
    return _r_binary_point(w1, w2, s, -1.0)


def r_equivalence_pair(phi1, phi2, m: int = 2):
    """Order-``m`` equivalence of two non-negative values (zero if either is zero)."""
    if int(m) < 1:
        raise FieldError(f"m must be >= 1, got {m}")
    a = np.asarray(phi1, dtype=float)
    b = np.asarray(phi2, dtype=float)
    if np.any(a < 0.0) or np.any(b < 0.0):
        raise FieldError("equivalence inputs must be non-negative")
    scalar = a.ndim == 0 and b.ndim == 0
    a, b = np.broadcast_arrays(a, b)
    out = np.zeros(a.shape)
    both = (a > 0.0) & (b > 0.0)
    m = int(m)
    out[both] = a[both] * b[both] / np.power(
        np.power(a[both], m) + np.power(b[both], m), 1.0 / m
    )
    return _scalarize(out, scalar)


def r_equivalence_n(values, m: int = 2):
    """Order-``m`` equivalence of two or more non-negative values.

    ``values`` may be a sequence of scalars or of broadcastable arrays.
    Returns ``1 / (sum_i phi_i^-m)^(1/m)``, or 0 when any input is zero.
    """
    if int(m) < 1:
        raise FieldError(f"m must be >= 1, got {m}")
    arrays = [np.asarray(v, dtype=float) for v in values]
    if len(arrays) < 2:
        raise FieldError("equivalence needs at least 2 values")
    if any(np.any(a < 0.0) for a in arrays):
        raise FieldError("equivalence inputs must be non-negative")
    scalar = all(a.ndim == 0 for a in arrays)
    stacked = np.stack(np.broadcast_arrays(*arrays)).reshape(len(arrays), -1)
    out, _ = _equiv_vg(stacked, None, int(m))
    if scalar:
        return float(out[0])
    return out.reshape(np.broadcast_shapes(*(a.shape for a in arrays)))


def trim(f, t):
    """Trimming of a carrier value ``f`` by a trimmer value ``t``.

    Zero exactly where ``f = 0`` and ``t >= 0``; portions with ``t < 0``
    are lifted to |t|.  Non-negative everywhere.
    """
    a = np.asarray(f, dtype=float)
    b = np.asarray(t, dtype=float)
    out, _ = _trim_vg(a, None, b, None, want_grad=False)
    return _scalarize(out, a.ndim == 0 and b.ndim == 0)
