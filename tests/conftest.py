"""Shared oracles and samplers for the test suite."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import strategies as st

from shapefield.fields import (
    Circle,
    Conjunction,
    Disjunction,
    Equivalence,
    Negation,
    Plane,
    Segment,
    Sphere,
    Trim,
    _STEPS,
)


def fd_gradient(evalfn, x, h=1e-5):
    """Central finite-difference gradient of a scalar field at point ``x``."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for k in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[k] += h
        lo[k] -= h
        out[k] = (evalfn(hi) - evalfn(lo)) / (2.0 * h)
    return out


def segment_oracle(x, p1, p2):
    """Step-by-step scalar evaluation of the segment field (independent of
    the library's vectorised implementation)."""
    x1, y1 = p1
    x2, y2 = p2
    L = math.hypot(x2 - x1, y2 - y1)
    f = ((x[0] - x1) * (y2 - y1) - (x[1] - y1) * (x2 - x1)) / L
    xc = ((x1 + x2) / 2.0, (y1 + y2) / 2.0)
    t = ((L / 2.0) ** 2 - ((x[0] - xc[0]) ** 2 + (x[1] - xc[1]) ** 2)) / L
    aux = math.sqrt(t * t + f ** 4)
    return math.sqrt(f * f + ((aux - t) / 2.0) ** 2)


def circle_boundary(center, radius, n):
    """n points exactly on a circle."""
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.stack(
        [center[0] + radius * np.cos(th), center[1] + radius * np.sin(th)], axis=1
    )


def sphere_boundary(center, radius, n):
    """n points on a sphere (Fibonacci lattice)."""
    k = np.arange(n, dtype=float)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(1.0 - z * z)
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return np.asarray(center) + radius * pts


def segment_interior(p1, p2, n, margin=0.05):
    """n points on the open segment, ``margin`` away from the endpoints."""
    u = np.linspace(margin, 1.0 - margin, n)[:, None]
    return np.asarray(p1) + u * (np.asarray(p2) - np.asarray(p1))


def same_bits(a, b):
    """Byte equality of two arrays: stricter than ``np.array_equal``, it also
    tells -0.0 from 0.0."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def one_by_one(expr, pts, want_grad):
    """``expr`` evaluated a node at a time, children first, each node alone
    through its own step kernel and constants: the reference the compiled
    plans are checked against.  It shares the kernels, but none of the
    compiler's merging of equal subtrees, grouping, gathers, stack drops or
    root gather.  Returns the (1, n) value and (1, n, d) gradient stacks
    (None without ``want_grad``)."""
    kind, params, kids = expr._emit()
    run, consts = _STEPS[kind]
    ops = [one_by_one(k, pts, want_grad) for k in kids]
    if kind == "equiv":  # its one operand is the stack of its children's rows
        ops = [(np.concatenate([v for v, _ in ops]),
                np.concatenate([g for _, g in ops]) if want_grad else None)]
    return run(pts, ops, consts([params]), want_grad)


@pytest.fixture
def rng(request):
    """A random stream of the test's own, seeded from a stable hash of its
    node id: a draw added to one test leaves every other test's data alone."""
    return np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))


# ---------------------------------------------------------------------------
# Random field trees (hypothesis)
# ---------------------------------------------------------------------------

_coord = st.floats(-1.0, 1.0, allow_nan=False)
_angle = st.floats(0.0, 2.0 * math.pi)


def _unit2(theta):
    return (math.cos(theta), math.sin(theta))


def _unit3(theta, z):
    r = math.sqrt(1.0 - z * z)
    return (r * math.cos(theta), r * math.sin(theta), z)


# fixed leaves drawn often, so equal subtrees recur in one tree; the signed
# zeros in the plane normals must stay apart from the unsigned ones
_POOL_2D = (
    Circle((0.0, 0.0), 0.75),
    Segment((0.0, 0.0), (0.6, 0.4)),
    Plane((0.3, 0.0), (-1.0, 0.0)),
    Plane((0.3, 0.0), (-1.0, -0.0)),
)
_POOL_3D = (
    Sphere((0.0, 0.0, 0.0), 0.7),
    Plane((0.0, 0.0, 0.4), (0.0, -0.0, -1.0)),
    Plane((0.0, 0.0, 0.4), (0.0, 0.0, -1.0)),
)


def _leaves(dim):
    if dim == 2:
        return st.one_of(
            st.sampled_from(_POOL_2D),
            st.builds(Circle, st.tuples(_coord, _coord), st.floats(0.1, 1.5)),
            st.builds(Segment, st.tuples(_coord, _coord), st.tuples(_coord, _coord)).filter(
                lambda seg: seg.length > 0.05
            ),
            st.builds(Plane, st.tuples(_coord, _coord), _angle.map(_unit2)),
        )
    return st.one_of(
        st.sampled_from(_POOL_3D),
        st.builds(Sphere, st.tuples(_coord, _coord, _coord), st.floats(0.1, 1.5), st.booleans()),
        st.builds(
            Plane, st.tuples(_coord, _coord, _coord),
            st.builds(_unit3, _angle, st.floats(-1.0, 1.0)),
        ),
    )


def _combine(kids):
    s = st.floats(0.0, 1.5)
    return st.one_of(
        st.builds(Negation, kids),
        st.builds(Disjunction, kids, kids, s),
        st.builds(Conjunction, kids, kids, s),
        st.builds(Trim, kids, kids),
        st.builds(Equivalence, st.lists(kids, min_size=2, max_size=9), st.integers(1, 3)),
    )


def field_trees(dim: int = 2):
    """Random expression trees over every node kind of one dimension, with
    R-operation s up to 1.5 (so the radicand clamp fires) and equivalences
    of 2 to 9 pieces."""
    return st.recursive(_leaves(dim), _combine, max_leaves=10)
