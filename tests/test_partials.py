"""Per-point partials against the chain rule they replaced.

R-operations, trims, equivalences and the morph blend form their
gradients from per-point partials on values, contracted once with their
operands' gradients.  The chain-rule forms kept here push every
intermediate through gradient arithmetic instead, as the library did
before, and serve as an independent reference.  Both forms share the
value formulas, so values must match bit for bit; gradients agree to
rounding.

The gradient bound is stated in units of ``np.spacing(max(|g|, 1))``:
- On the shipped wrench morph, |g| is the gradient itself, and the bound
  is ``_WRENCH_ULPS``: twice the worst difference seen at 2e4 points at the
  times the tests use (8 units, when trims shared one form; 7 since).
- On random trees and morphs, |g| is a per-point error scale ``E`` that the
  chain walker carries up the tree, a first-order model of how far either
  form may round.  A combining step adds its operands' gradient sizes,
  times the condition number of its radicand for an R-operation, of its
  ``w`` for a trim and of its weight quotient for the blend, and passes its
  operands' scales on through bounds of its partials.  An R-operation at
  s >= 1 cancels in its radicand near v1 = s v2, where both forms round far
  from the true gradient and from each other; the scale grows there, the
  bound does not.
  The bound is ``_SCALED_ULPS``, three times the worst seen (5 units) over
  13 500 random trees and 3000 random morphs of 300 points each; with the
  chain-rule trim, 6000 more random trees differed by at most 2 units.
"""

import math
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from shapefield import tolerances as tol
from shapefield.fields import (
    Circle,
    Conjunction,
    Disjunction,
    Equivalence,
    Plane,
    Segment,
    Trim,
    _STEPS,
    _equiv_consts,
    _equiv_vg,
    _r_binary,
    _r_consts,
    _r_partial,
    _trim,
)
from shapefield.lang import parse
from shapefield.morph import DegenerateBlendError, MorphSchedule

from conftest import fd_gradient, field_trees, one_by_one, same_bits

_WRENCH_ULPS = 16.0
_SCALED_ULPS = 16.0


# ---------------------------------------------------------------------------
# The chain-rule forms
# ---------------------------------------------------------------------------

def _masked_div(num, den):
    """``num / den``, 0 where ``den`` is 0; ``den`` broadcasts."""
    out = np.zeros(np.broadcast_shapes(np.shape(num), np.shape(den)))
    np.divide(num, den, out=out, where=den != 0.0)
    return out


def _chain_r_binary(v1, g1, v2, g2, s, sign):
    """R-operation value and gradient: ``drad`` pushed through (k, d, n)
    stacks and divided by ``2 sqrt(rad)``, 0 where that is 0."""
    rad = v1 * v1 + v2 * v2 - 2.0 * s * v1 * v2
    root = np.sqrt(np.maximum(rad, 0.0))
    v = (v1 + v2 + sign * root) / (1.0 + s)
    e1, e2 = v1[..., None, :], v2[..., None, :]
    drad = 2.0 * e1 * g1 + 2.0 * e2 * g2 - 2.0 * s * (e1 * g2 + e2 * g1)
    g = (g1 + g2 + sign * _masked_div(0.5 * drad, root[..., None, :])) / (1.0 + s)
    return v, g


def _chain_trim(f, gf, t, gt):
    """Trim value and gradient: ``aux``, ``w`` and ``v`` differentiated in
    turn on (k, d, n) stacks, each quotient 0 where its denominator is 0."""
    f2 = f * f
    aux = np.sqrt(t * t + f2 * f2)
    w = 0.5 * (aux - t)
    v = np.sqrt(f2 + w * w)
    gaux = _masked_div(t[..., None, :] * gt + (2.0 * f2 * f)[..., None, :] * gf, aux[..., None, :])
    gw = 0.5 * (gaux - gt)
    g = _masked_div(f[..., None, :] * gf + w[..., None, :] * gw, v[..., None, :])
    return v, g


def _chain_equiv(U, G, m):
    """Equivalence of non-negative (k, n) values: the derivative of ``a /
    ssum^(1/m)`` through the pivot ``a = min_i u_i`` and the ratio
    derivatives ``d(a / u_i)``, zero where a piece is zero."""
    a = U.min(axis=0)
    pos = a > 0.0
    Up, ap, Gp = U[:, pos], a[pos], G[:, :, pos]
    ratios = ap / Up
    ssum = np.add.accumulate(np.power(ratios, m), axis=0)[-1]
    scale = np.power(ssum, -1.0 / m)
    ga = np.take_along_axis(Gp, Up.argmin(axis=0)[None, None, :], axis=0)[0]
    dr = (ga * Up[:, None, :] - ap * Gp) / (Up * Up)[:, None, :]
    ds = m * np.add.accumulate(np.power(ratios, m - 1)[:, None, :] * dr, axis=0)[-1]
    v = np.zeros(a.shape)
    g = np.zeros(G.shape[1:])
    v[pos] = ap * scale
    g[:, pos] = scale * (ga - (ap / (m * ssum)) * ds)
    return v, g


def _size(g):
    """The largest |component| of each point's gradient in a (k, d, n) stack, (k, n)."""
    return np.abs(g).max(axis=1)


def _conj_scale(v1, v2, s):
    """Bounds of an R-operation's quotients ``|v1 - s v2| / sqrt(rad)`` and
    ``|v2 - s v1| / sqrt(rad)``, 0 at a corner, and the condition number of
    its radicand, ``(v1^2 + v2^2 + 2 s |v1 v2|) / rad`` (0 where rad <= 0)."""
    rad = v1 * v1 + v2 * v2 - 2.0 * s * v1 * v2
    root = np.sqrt(np.maximum(rad, 0.0))
    q1 = np.abs(_masked_div(v1 - s * v2, root))
    q2 = np.abs(_masked_div(v2 - s * v1, root))
    kappa = _masked_div(v1 * v1 + v2 * v2 + 2.0 * s * np.abs(v1 * v2), np.maximum(rad, 0.0))
    return q1, q2, kappa


def _trim_scale(f, t):
    """A trim's |dv/df| and |dv/dt|, from the library's partials, and the
    condition number of its ``w = (aux - t) / 2``, ``(aux + |t|) / (aux -
    t)`` (0 where w = 0), which is large where t > 0 and t^2 >> f^4."""
    _, pf, pt = _trim(f, t, True)
    aux = np.sqrt(t * t + (f * f) * (f * f))
    return np.abs(pf), np.abs(pt), _masked_div(aux + np.abs(t), aux - t)


def _chain_walk(expr, pts):
    """``expr`` a node at a time, children first, with the chain-rule forms
    for R-operations, trims and equivalences and the library's kernels for
    every other kind.  Returns the (1, n) value and
    (1, d, n) gradient stacks and the (1, n) error scale ``E``."""
    kind, params, kids = expr._emit()
    ops = [_chain_walk(k, pts) for k in kids]
    if kind == "rbin":
        (v1, g1, E1), (v2, g2, E2) = ops
        s, sign = params
        v, g = _chain_r_binary(v1, g1, v2, g2, s, sign)
        q1, q2, kappa = _conj_scale(v1, v2, s)
        E = ((1.0 + kappa) * (1.0 + q1 + q2) * (_size(g1) + _size(g2))
             + ((1.0 + q1) * E1 + (1.0 + q2) * E2) / (1.0 + s))
        return v, g, E
    if kind == "equiv":
        V = np.concatenate([v for v, _, _ in ops])
        G = np.concatenate([g for _, g, _ in ops])
        v, g = _chain_equiv(np.abs(V), np.sign(V)[:, None, :] * G, params[0])
        # each partial lies in (0, 1]
        E = (params[0] + len(ops)) * _size(G).sum(axis=0) + sum(E for _, _, E in ops)
        return v[None], g[None], E
    if kind == "trim":
        (f, gf, Ef), (t, gt, Et) = ops
        v, g = _chain_trim(f, gf, t, gt)
        pf, pt, kappa = _trim_scale(f, t)
        E = (1.0 + kappa) * (pf * _size(gf) + pt * _size(gt)) + pf * Ef + pt * Et
        return v, g, E
    run, consts = _STEPS[kind]
    v, g = run(pts, [(v, g) for v, g, _ in ops], consts([params]), True)
    if kind == "neg":
        E = ops[0][2]
    else:  # a leaf: the same kernel in both forms
        E = np.zeros(v.shape)
    return v, g, E


def _chain_blend(sched, pts, t):
    """The morph's value, (n, d) gradient and (n,) error scale, with the
    blend's gradient by the quotient rule, ``dw1 = (dg2 total - g2 dtotal) /
    total^2``, on (d, n) arrays."""
    if sched.is_complete(t):
        v, g, E = _chain_walk(sched.final, pts)
        return v[0], g[0].T, E[0]
    fval = sched.ramp_value(t)
    (vi,), (gi,), (Ei,) = _chain_walk(sched.initial, pts)
    (vf,), (gf,), (Ef,) = _chain_walk(sched.final, pts)
    zero = np.zeros_like(gi)
    c1, c2 = np.full_like(vi, -fval), np.full_like(vi, fval - 1.0)
    g1, dg1 = _chain_r_binary(vi, gi, c1, zero, sched.s, -1.0)
    g2, dg2 = _chain_r_binary(vf, gf, c2, zero, sched.s, -1.0)
    total = g1 + g2
    w1 = g2 / total
    dv = vi - vf
    v = vf + w1 * dv
    dw1 = (dg2 * total - g2 * (dg1 + dg2)) / (total * total)
    g = gf + dw1 * dv + w1 * (gi - gf)
    r = np.abs(dv / total)
    (qi, ci, ki), (qf, cf, kf) = _conj_scale(vi, c1, sched.s), _conj_scale(vf, c2, sched.s)
    E = ((1.0 + r) * ((1.0 + ki) * (1.0 + qi + ci) * np.abs(gi).max(axis=0)
                      + (1.0 + kf) * (1.0 + qf + cf) * np.abs(gf).max(axis=0))
         + (1.0 + r * (1.0 + qi)) * Ei + (1.0 + r * (1.0 + qf)) * Ef)
    return v, g.T, E


def _assert_close(g, want, scale, ulps):
    """|g - want| <= ulps * spacing(max(scale, 1)) wherever both are finite,
    and ``g`` finite wherever ``want`` is; ``scale`` is (n,) or like ``g``.
    The chain-rule equivalence squares its pieces, so a piece below about
    1e-154 underflows there and gives NaN, where the partials stay finite."""
    both = np.isfinite(want)
    assert np.isfinite(g[both]).all()
    unit = np.spacing(np.maximum(np.broadcast_to(scale, g.shape), 1.0))
    worst = (np.abs(g - want)[both] / unit[both]).max(initial=0.0)
    assert worst <= ulps, worst


def _assert_tree_matches_chain(expr, pts):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # s > 1 clamps
        (V,), (G,), (E,) = _chain_walk(expr, pts)
        v, g = expr.values_grads(pts, 0.0)
    assert same_bits(v, V)
    # fmax: where the reference's error scale underflows to NaN (a piece
    # below about 1e-154) while its gradient stays finite, that gradient's
    # own size is the scale
    _assert_close(g, G.T, np.fmax(E, np.abs(G).max(axis=0))[:, None], _SCALED_ULPS)


def _assert_morph_matches_chain(sched, pts, t, ulps=None):
    """The morph against the chain blend: values bit for bit; gradients
    within ``ulps`` of the gradient's own size, or by default within
    ``_SCALED_ULPS`` of the error scale."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # s > 1 clamps
        with np.errstate(all="ignore"):
            V, G, E = _chain_blend(sched, pts, t)
        try:
            v, g = sched.values_grads(pts, t)
        except DegenerateBlendError as err:  # compare the rows that blend
            keep = ~err.mask
            pts, V, G, E = pts[keep], V[keep], G[keep], E[keep]
            v, g = sched.values_grads(pts, t)
    assert same_bits(v, V), t
    if ulps is None:
        _assert_close(g, G, np.fmax(E, np.abs(G).max(axis=1))[:, None], _SCALED_ULPS)  # as above
    else:
        _assert_close(g, G, np.abs(G), ulps)


@pytest.fixture(scope="module")
def wrench():
    shape = resources.files("shapefield") / "data" / "shapes" / "wrench_morph.shape"
    return parse(shape.read_text()).morph_schedule()


def _points(dim, n, seed):
    pts = np.random.default_rng(seed).uniform(-2.0, 2.0, (n, dim))
    pts[: max(1, n // 10), 0] = 0.0  # on-axis rows give signed-zero gradients
    return pts


# ---------------------------------------------------------------------------
# Partials against the chain rule
# ---------------------------------------------------------------------------

class TestAgainstChainRule:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(expr=field_trees(2), seed=st.integers(0, 2**32 - 1))
    # the on-axis rows put the plane's piece near 1e-184: the reference's
    # error scale underflows to NaN there, its gradient does not
    @example(
        expr=Trim(
            Segment((0.0, 0.0), (0.0, 1.0)),
            Equivalence((Circle((0.0, 0.0), 0.75), Plane((2.4909038943659427e-184, 0.0), (1.0, 0.0))), 1),
        ),
        seed=0,
    )
    def test_random_2d_trees(self, expr, seed):
        _assert_tree_matches_chain(expr, _points(2, 300, seed))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(expr=field_trees(3), seed=st.integers(0, 2**32 - 1))
    def test_random_3d_trees(self, expr, seed):
        _assert_tree_matches_chain(expr, _points(3, 300, seed))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        initial=field_trees(2),
        final=field_trees(2),
        p=st.floats(0.05, 2.0),
        s=st.floats(0.0, 1.5),
        into_ramp=st.floats(0.0, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_morphs(self, initial, final, p, s, into_ramp, seed):
        sched = MorphSchedule(initial, final, p=p, s=s)
        t = into_ramp * 2.0 * math.atanh(1.0 - tol.MORPH_COMPLETE_EPS) / p
        _assert_morph_matches_chain(sched, _points(2, 300, seed), t)

    def test_wrench_inside_the_ramp(self, wrench):
        pts = _points(2, 20_000, 14)
        for t in (0.0, 0.5, 3.0, 10.0, 40.0, 69.0):
            assert not wrench.is_complete(t)
            _assert_morph_matches_chain(wrench, pts, t, ulps=_WRENCH_ULPS)


# ---------------------------------------------------------------------------
# Equivalence gradients against finite differences
# ---------------------------------------------------------------------------

class TestEquivalenceGradient:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_matches_finite_differences(self, rng, m):
        for k in range(2, 10):
            pieces = []
            for _ in range(k):
                a, b = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)
                if rng.uniform() < 0.5 and np.linalg.norm(a - b) > 0.2:
                    pieces.append(Segment(tuple(a), tuple(b)))
                else:  # signed: the equivalence takes |phi|
                    pieces.append(Circle(tuple(a), rng.uniform(0.2, 1.0)))
            expr = Equivalence(tuple(pieces), m=m)
            pts = rng.uniform(-1.5, 1.5, (400, 2))
            # off every piece's zero set, where |phi_i| and a segment crease
            pts = pts[np.min([np.abs(p.eval(pts)) for p in pieces], axis=0) > 0.05][:40]
            assert len(pts) >= 10
            got = expr.gradient(pts).grad
            for x, g in zip(pts, got):
                want = fd_gradient(expr.eval, x, h=tol.GRAD_FD_STEP)
                rel = np.linalg.norm(g - want) / max(np.linalg.norm(want), 1e-12)
                assert rel < tol.GRAD_FD_REL_TOL, (m, k, x, rel)


# ---------------------------------------------------------------------------
# Corners
# ---------------------------------------------------------------------------

class TestCorners:
    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_r_operation_at_sqrt_rad_zero(self, s):
        # v1 = v2 = 0: sqrt(rad) = 0, so both quotients are 0 and each
        # partial is 1 / (1 + s), the mean of its one-sided values
        zero = np.zeros((1, 3))
        for sign in (1.0, -1.0):
            c = _r_consts(s, sign)
            v, q = _r_binary(zero, zero, c, True)
            assert same_bits(v, zero)
            assert np.all(_r_partial(q, c, zero, zero) == 1.0 / (1.0 + s))
        # through a tree: two planes through the origin
        x, y = Plane((0.0, 0.0), (1.0, 0.0)), Plane((0.0, 0.0), (0.0, 1.0))
        for node in (Disjunction(x, y, s=s), Conjunction(x, y, s=s)):
            gs = node.gradient((0.0, 0.0))
            assert gs.value == 0.0
            assert np.all(gs.grad == 1.0 / (1.0 + s))
            _, (G,), _ = _chain_walk(node, np.zeros((1, 2)))
            assert np.array_equal(G[:, 0], gs.grad)

    def test_equivalence_with_a_zero_piece(self):
        # on a piece's zero set the equivalence is +0.0 with gradient 0;
        # the other rows of the batch are untouched by the masking
        s1, s2 = Segment((0.0, 0.0), (1.0, 0.0)), Segment((0.0, 0.0), (0.0, 1.0))
        expr = Equivalence((s1, s2, Circle((2.0, 2.0), 0.5)), m=2)
        pts = np.array([[0.5, 0.0], [0.3, 0.4], [0.0, 0.5], [-0.2, -0.3]])
        v, g = expr.values_grads(pts, 0.0)
        assert same_bits(v[[0, 2]], np.zeros(2)) and same_bits(g[[0, 2]], np.zeros((2, 2)))
        assert np.all(v[[1, 3]] > 0.0)
        for i in (1, 3):
            lone_v, lone_g = expr.values_grads(pts[i:i + 1], 0.0)
            assert same_bits(lone_v, v[i:i + 1]) and same_bits(lone_g, g[i:i + 1])
        U = np.array([[0.0, 0.3], [0.2, 0.4]])
        val, grad = _equiv_vg(U, np.ones((2, 2, 2)), _equiv_consts(3))
        assert same_bits(val[:1], np.zeros(1)) and same_bits(grad[:, 0], np.zeros(2))

    def test_equivalence_with_a_tiny_piece(self):
        # |plane| = 1e-245 at x = 0: its square underflows, which made the
        # chain-rule gradient NaN; its partial is (phi / 1e-245)^2, about 1,
        # and the circle's about 0, so the gradient is d|plane| = (-1, 0)
        plane = Plane((1.0562405167903849e-245, 0.0), (1.0, 0.0))
        expr = Equivalence((Circle((0.0, 0.0), 0.75), plane), m=1)
        pts = np.array([[0.0, 0.3], [0.0, -1.2]])
        g = expr.gradient(pts).grad
        assert np.array_equal(g, [[-1.0, 0.0], [-1.0, 0.0]])
        with np.errstate(all="ignore"):
            _, (G,), _ = _chain_walk(expr, pts)
        assert np.isnan(G).all()

    def test_blend_at_t0_on_the_ring(self, wrench):
        # at t = 0 on the ring phi_i = f = 0, so the first weight conjunction
        # is at its corner: its partial is 1 / (1 + s), the mean of 0 inside
        # and 2 / (1 + s) outside, and the gradient is the mean of the two
        # one-sided gradients, grad phi_i (1 + phi_f / ((1 + s) g2))
        ring = np.array([[0.75, 0.0], [0.0, 0.75], [-0.75, 0.0], [0.0, -0.75]])
        (vi,), (gi,) = one_by_one(wrench.initial, ring, True)
        assert same_bits(vi, np.zeros(4))
        v, g = wrench.values_grads(ring, 0.0)
        assert same_bits(v, np.zeros(4))
        (vf,), _ = one_by_one(wrench.final, ring, False)
        g2, _ = _r_binary(vf, np.full(4, -1.0), _r_consts(wrench.s, -1.0), False)
        want = (gi * (1.0 + vf / ((1.0 + wrench.s) * g2))).T
        _assert_close(g, want, np.abs(want), 4.0)
        # the mean of the one-sided gradients just inside and outside
        for i, x in enumerate(ring):
            sides = [wrench.values_grads(x[None] * (1.0 + h), 0.0)[1][0] for h in (-1e-9, 1e-9)]
            assert np.allclose(g[i], np.mean(sides, axis=0), atol=1e-6)
        _assert_morph_matches_chain(wrench, ring, 0.0, ulps=_WRENCH_ULPS)
