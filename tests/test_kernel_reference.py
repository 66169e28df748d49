"""The field kernels against an independent reference in pure Python floats.

Each reference evaluates one point at a time with Python's float operators
and ``math.sqrt``: the kernel's formula, operation for operation, in the
kernel's order.  IEEE arithmetic rounds each operation the same way on a
Python float as in a numpy loop, so the kernels must match it bit for bit,
on random values and on signed zeros, infinities and NaNs.  Unlike the
recursive blend of ``test_morph.py``, the reference shares no code with
the kernels, so it also catches a change to a kernel's constants or
operation order.
"""

import math
import warnings

import numpy as np
import pytest

from shapefield import tolerances as tol
from shapefield.fields import (
    Conjunction,
    Disjunction,
    Plane,
    Trim,
    _r_binary,
    _r_consts,
    _r_partial,
    _trim,
)
from shapefield.morph import DegenerateBlendError, MorphSchedule

S_VALUES = (0.0, -0.0, 0.5, 1.0, 3.0)
EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -2.5, 0.75, 1e-300, -1e300, 5e-324)


def _corner(num, den):
    """``num / den``, 0 where ``den`` is +0.0 or -0.0."""
    return 0.0 if den == 0.0 else num / den


def _clamp(rad):
    """``np.maximum(rad, 0.0)``: NaN stays NaN, and -0.0 becomes 0.0."""
    return rad if rad > 0.0 or rad != rad else 0.0


def ref_r_binary(v1, v2, s, sign):
    """Value and both partials of an R-operation at one point."""
    rad = v1 * v1 + v2 * v2 - 2.0 * s * v1 * v2
    root = math.sqrt(_clamp(rad))
    den = 1.0 + s
    v = (v1 + v2 + sign * root) / den
    q = _corner(sign / den, root)
    return v, 1.0 / den + q * (v1 - s * v2), 1.0 / den + q * (v2 - s * v1)


def ref_trim(f, t):
    """Value and both partials of a trim at one point."""
    f2 = f * f
    aux = math.sqrt(t * t + f2 * f2)
    w = 0.5 * (aux - t)
    v = math.sqrt(f2 + w * w)
    w_f, t_aux = _corner(f2 * f, aux), _corner(t, aux)
    w_t = 0.5 * (t_aux - 1.0)
    return v, _corner(f + w * w_f, v), _corner(w * w_t, v)


def _clamps(v1, v2, s):
    """Whether an R-operation's radicand at one point is clamped."""
    return v1 * v1 + v2 * v2 - 2.0 * s * v1 * v2 < 0.0


def ref_blend(vi, gi, vf, gf, fval, s):
    """The morph's value and gradient at one point from its members' values
    and gradients, or None where the blend is degenerate."""
    c1, c2 = -fval, fval - 1.0
    g1, p1, _ = ref_r_binary(vi, c1, s, -1.0)
    g2, p2, _ = ref_r_binary(vf, c2, s, -1.0)
    total = g1 + g2
    if abs(total) < tol.BLEND_DEGENERACY_EPS:
        return None
    w1 = g2 / total
    dv = vi - vf
    v = vf + w1 * dv
    r = dv / total
    ci, cf = w1 * (1.0 - p1 * r), (1.0 - w1) * (1.0 + p2 * r)
    return v, [ci * a + cf * b for a, b in zip(gi, gf)], _clamps(vi, c1, s) or _clamps(vf, c2, s)


def _bits(got, want):
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


def _pairs(rng, n):
    """Every pair of edge values, then ``n`` random pairs on magnitudes
    from 1e-30 to 1e30 of either sign, as two (2, m) stacks."""
    edge = [(a, b) for a in EDGES for b in EDGES]
    mags = np.exp(rng.uniform(-69.0, 69.0, (n, 2))) * rng.choice((-1.0, 1.0), (n, 2))
    pairs = np.array(edge + [tuple(p) for p in mags])
    if pairs.shape[0] % 2:
        pairs = pairs[:-1]
    v1, v2 = pairs.T
    return v1.reshape(2, -1), v2.reshape(2, -1)


def _points(rng, n, d=2):
    """Points with edge-value coordinates and random ones, plus NaN rows."""
    pts = [(a, b) for a in EDGES for b in EDGES if math.isfinite(a) or math.isfinite(b)]
    pts += [tuple(p) for p in rng.uniform(-1.5, 1.5, (n, d))]
    return np.array(pts)


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_r_operation_kernel_matches_the_reference(s, sign, rng):
    v1, v2 = _pairs(rng, 300)
    c = _r_consts(s, sign)
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        v, q = _r_binary(v1, v2, c, True)
        v_only, none = _r_binary(v1, v2, c, False)
        p1, p2 = _r_partial(q, c, v1, v2), _r_partial(q, c, v2, v1)
        want = [ref_r_binary(a, b, s, sign) for a, b in zip(v1.ravel().tolist(), v2.ravel().tolist())]
    clamped = any(_clamps(a, b, s) for a, b in zip(v1.ravel().tolist(), v2.ravel().tolist()))
    assert clamped == (s > 1.0)
    # the clamp warns once per call
    assert len([w for w in caught if "radicand clamped" in str(w.message)]) == 2 * clamped
    assert none is None and _bits(v_only, v)
    for k, got in enumerate((v, p1, p2)):
        assert _bits(got.ravel(), [w[k] for w in want]), (s, sign, k)


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("node", (Disjunction, Conjunction))
def test_r_operation_node_matches_the_reference(s, node, rng):
    # over the axis planes, whose values come from their own kernel: the
    # node's value, and its partials contracted with the planes' gradients
    # (1, 0) and (0, 1) in the plan's order
    pts = _points(rng, 200)
    expr = node(Plane((0.0, 0.0), (1.0, 0.0)), Plane((0.0, 0.0), (0.0, 1.0)), s=s)
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        v, g = expr.values_grads(pts, 0.0)
        vx = expr.left.values(pts, 0.0).tolist()
        vy = expr.right.values(pts, 0.0).tolist()
        want = [ref_r_binary(a, b, s, node.sign) for a, b in zip(vx, vy)]
    clamped = any(_clamps(a, b, s) for a, b in zip(vx, vy))
    assert clamped == (s > 1.0)
    assert len([w for w in caught if "radicand clamped" in str(w.message)]) == clamped
    assert _bits(v, [w[0] for w in want])
    assert _bits(g, [(p1 * 1.0 + p2 * 0.0, p1 * 0.0 + p2 * 1.0) for _, p1, p2 in want])


def test_trim_kernel_and_node_match_the_reference(rng):
    f, t = _pairs(rng, 300)
    with np.errstate(all="ignore"):
        got = _trim(f, t, True)
        v_only = _trim(f, t, False)
        want = [ref_trim(a, b) for a, b in zip(f.ravel().tolist(), t.ravel().tolist())]
    assert v_only[1] is None and v_only[2] is None and _bits(v_only[0], got[0])
    for k in range(3):
        assert _bits(got[k].ravel(), [w[k] for w in want]), k
    # through a tree: a trimmed axis plane
    pts = _points(rng, 200)
    expr = Trim(Plane((0.0, 0.0), (1.0, 0.0)), Plane((0.0, 0.0), (0.0, 1.0)))
    with np.errstate(all="ignore"):
        v, g = expr.values_grads(pts, 0.0)
        want = [ref_trim(a, b) for a, b in zip(expr.base.values(pts, 0.0).tolist(),
                                                expr.trimmer.values(pts, 0.0).tolist())]
    assert _bits(v, [w[0] for w in want])
    assert _bits(g, [(pf * 1.0 + pt * 0.0, pf * 0.0 + pt * 1.0) for _, pf, pt in want])


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("t", (0.0, 0.5, 3.0, 20.0))
def test_morph_blend_matches_the_reference(s, t, rng):
    # planes as members, read through their own kernel, turned so that
    # each gradient has two non-zero components
    c, h = math.cos(math.pi / 6.0), math.sin(math.pi / 6.0)
    sched = MorphSchedule(Plane((0.1, 0.0), (c, h)), Plane((0.0, -0.2), (-h, c)), p=0.4, s=s)
    pts = _points(rng, 300)
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        vi, gi = sched.initial.values_grads(pts, t)
        vf, gf = sched.final.values_grads(pts, t)
        fval = sched.ramp_value(t)
        want = [ref_blend(*m, fval, s) for m in zip(vi.tolist(), gi.tolist(), vf.tolist(), gf.tolist())]
        degenerate = np.array([w is None for w in want])
        if degenerate.any():
            for fn in (sched.values, sched.values_grads):
                with pytest.raises(DegenerateBlendError) as err:
                    fn(pts, t)
                assert np.array_equal(err.value.mask, degenerate)
            pts, want = pts[~degenerate], [w for w in want if w is not None]
        caught.clear()
        v, g = sched.values_grads(pts, t)
        v_only = sched.values(pts, t)
    clamped = any(w[2] for w in want)
    assert len([w for w in caught if "radicand clamped" in str(w.message)]) == 2 * clamped
    assert _bits(v, [w[0] for w in want]) and _bits(v_only, v)
    assert _bits(g, [w[1] for w in want])
