"""Field expression tree: primitives, R-operations, gradients, validation."""

import gc
import math
import warnings
import weakref
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shapefield import fields as fields_module
from shapefield import tolerances as tol
from shapefield.fields import (
    Circle,
    Conjunction,
    DegenerateSegmentError,
    DimensionMismatchError,
    Disjunction,
    Equivalence,
    FieldError,
    Negation,
    Plane,
    Segment,
    Sphere,
    Trim,
    _corner_div,
    _equiv_consts,
    _equiv_vg,
    _Plan,
    gradient,
    validate,
)
from shapefield.lang import parse

from conftest import (
    X,
    X3,
    Y,
    Y3,
    Z3,
    assert_rows_stand_alone,
    circle_boundary,
    equiv_pair,
    fd_gradient,
    field_trees,
    one_by_one,
    same_bits,
    segment_interior,
    segment_oracle,
    sphere_boundary,
)


# ---------------------------------------------------------------------------
# Primitive values
# ---------------------------------------------------------------------------

class TestCircle:
    def test_boundary_point(self):
        assert Circle((0.0, 0.0), 0.75).eval((0.75, 0.0)) == 0.0

    def test_center_value_is_half_radius(self):
        assert Circle((0.0, 0.0), 0.75).eval((0.0, 0.0)) == 0.375

    def test_outside_value(self):
        # (0.75^2 - 1.5^2) / (2 * 0.75), cross-checked by scalar substitution
        assert Circle((0.0, 0.0), 0.75).eval((1.5, 0.0)) == -1.125

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(FieldError):
            Circle((0.0, 0.0), 0.0)
        with pytest.raises(FieldError):
            Circle((0.0, 0.0), -1.0)


class TestSegment:
    def test_point_on_segment(self):
        assert Segment((0.0, 0.0), (1.0, 0.0)).eval((0.5, 0.0)) == 0.0

    def test_near_interior_matches_oracle(self):
        # frozen from the step-by-step oracle: f=-0.3, t=0.16, aux=sqrt(0.0337)
        got = Segment((0.0, 0.0), (1.0, 0.0)).eval((0.5, 0.3))
        assert got == pytest.approx(0.3002314976804588, abs=0.0)
        assert got == pytest.approx(
            segment_oracle((0.5, 0.3), (0.0, 0.0), (1.0, 0.0)), abs=0.0
        )

    def test_far_point_shows_approximation(self):
        # on the carrier line beyond the endpoint: f=0, t=-2 gives phi=2,
        # twice the exact distance of 1 -- the approximation property.
        assert Segment((0.0, 0.0), (1.0, 0.0)).eval((2.0, 0.0)) == 2.0

    def test_degenerate_segment_rejected_at_eval(self):
        seg = Segment((0.2, 0.2), (0.2, 0.2))
        with pytest.raises(DegenerateSegmentError):
            seg.eval((0.0, 0.0))

    def test_overflowing_segment_rejected_at_construction(self):
        # the endpoint difference overflows, or the midpoint does; the error
        # names the endpoints, not the derived carrier or trimmer
        for p1, p2 in [((-1e308, 0.0), (1e308, 0.0)), ((1.5e308, 0.0), (1.6e308, 0.0))]:
            with pytest.raises(FieldError, match=r"p1=.*p2=.*overflows") as err:
                Segment(p1, p2)
            assert "normal" not in str(err.value) and "center" not in str(err.value)

    def test_nonnegative_everywhere(self, rng):
        seg = Segment((-0.3, 0.1), (0.7, 0.9))
        pts = rng.uniform(-3, 3, (500, 2))
        assert np.all(seg.eval(pts) >= 0.0)

    def test_is_its_trim_tree(self):
        # a segment is the line through its endpoints trimmed by the circle
        # on the segment as diameter, bit for bit
        local = np.random.default_rng(17)
        pts = local.uniform(-2.0, 2.0, (2000, 2))
        for _ in range(5):
            (x1, y1), (x2, y2) = local.uniform(-1.0, 1.0, (2, 2)).tolist()
            seg = Segment((x1, y1), (x2, y2))
            L = seg.length
            tree = Trim(
                Plane((x1, y1), ((y2 - y1) / L, -(x2 - x1) / L)),
                Circle(((x1 + x2) / 2.0, (y1 + y2) / 2.0), L / 2.0),
            )
            assert seg.children() == ()
            assert seg.eval(pts).tobytes() == tree.eval(pts).tobytes()
            gs, gt = seg.gradient(pts), tree.gradient(pts)
            assert gs.value.tobytes() == gt.value.tobytes()
            assert gs.grad.tobytes() == gt.grad.tobytes()


class TestSphere:
    def test_boundary_point_both_flags(self):
        for normalized in (True, False):
            assert Sphere((0, 0, 0), 1.0, normalized).eval((1, 0, 0)) == 0.0

    def test_raw_quadric_outside(self):
        assert Sphere((0, 0, 0), 1.0, normalized=False).eval((2, 0, 0)) == 3.0

    def test_normalized_center_value(self):
        assert Sphere((0, 0, 0), 1.0, normalized=True).eval((0, 0, 0)) == 0.5

    def test_default_is_normalized(self):
        assert Sphere((0, 0, 0), 1.0).normalized is True

    def test_ball_checks_keep_their_messages(self):
        cases = [
            (lambda: Circle((0.0, 0.0, 0.0), 1.0), DimensionMismatchError,
             "circle center must be 2-D"),
            (lambda: Sphere((0.0, 0.0), 1.0), DimensionMismatchError,
             "sphere center must be 3-D"),
            (lambda: Circle((0.0, 0.0), math.inf), FieldError,
             "circle radius must be positive, got inf"),
            (lambda: Sphere((0.0, 0.0, 0.0), -1.0), FieldError,
             "sphere radius must be positive, got -1.0"),
        ]
        for build, cls, message in cases:
            with pytest.raises(cls) as err:
                build()
            assert str(err.value) == message


class TestPlane:
    def test_height_above_z0(self):
        assert Plane((0, 0, 0), (0, 0, 1)).eval((1, 2, 3)) == 3.0

    def test_on_plane(self):
        assert Plane((0, 0, 1), (0, 0, 1)).eval((4.0, -2.0, 1.0)) == 0.0

    def test_signed_below(self):
        assert Plane((0, 0, 1), (0, 0, 1)).eval((0, 0, -2)) == -3.0

    def test_non_unit_normal_rejected(self):
        with pytest.raises(FieldError):
            Plane((0, 0, 0), (0, 0, 2))
        with pytest.raises(FieldError):
            Plane((0.0, 0.0), (1.0, 1.0))

    def test_batch_value_equals_point_value(self):
        # a grid sample must equal a direct evaluation at that node, so a
        # value may not depend on the batch around it
        local = np.random.default_rng(11)
        pts = local.uniform(-1.0, 1.0, (400, 2))
        for expr in (
            Plane((0.31, -0.12), (0.6, 0.8)),
            Segment((0.525, 0.3031088913245535), (0.42, 0.16)),
        ):
            batch = expr.eval(pts)
            assert [float(v) for v in batch] == [expr.eval(p) for p in pts]


# ---------------------------------------------------------------------------
# R-operations on values (over the axis planes X, Y, Z)
# ---------------------------------------------------------------------------

class TestROps:
    def test_negation(self):
        assert Negation(X).eval((0.0, 0.0)) == 0.0
        assert Negation(X).eval((1.5, 0.0)) == -1.5
        assert Negation(X).eval((-2.0, 0.0)) == 2.0

    def test_disjunction_values(self):
        assert Disjunction(X, Y, s=0.0).eval((3.0, 4.0)) == 12.0  # 3+4+sqrt(25)
        assert Disjunction(X, Y, s=0.7).eval((0.0, 0.0)) == 0.0
        assert Disjunction(X, Y, s=0.0).eval((-1.0, 5.0)) == pytest.approx(
            4.0 + math.sqrt(26.0), abs=0.0
        )

    def test_conjunction_values(self):
        assert Conjunction(X, Y, s=0.0).eval((3.0, 4.0)) == 2.0  # 3+4-sqrt(25)
        assert Conjunction(X, Y, s=0.3).eval((0.0, 0.0)) == 0.0
        assert Conjunction(X, Y, s=0.0).eval((-1.0, 5.0)) == pytest.approx(
            4.0 - math.sqrt(26.0), abs=0.0
        )

    def test_negative_s_rejected(self):
        for s in (-0.1, math.inf, math.nan):
            for op in (Disjunction, Conjunction):
                with pytest.raises(FieldError):
                    op(X, Y, s=s)

    def test_s_above_one_clamps_with_warning(self):
        # like-signed large arguments make the radicand negative for s > 1
        with pytest.warns(RuntimeWarning):
            out = Conjunction(X, Y, s=3.0).eval((2.0, 2.0))
        assert np.isfinite(out)

    @settings(max_examples=200, deadline=None)
    @given(
        w1=st.floats(-50, 50).filter(lambda v: abs(v) > 1e-6),
        w2=st.floats(-50, 50).filter(lambda v: abs(v) > 1e-6),
        s=st.floats(0.0, 1.0),
    )
    def test_sign_semantics(self, w1, w2, s):
        # magnitudes bounded away from zero: at ~1e-300 scale ratios the
        # smaller argument is absorbed by rounding and the sign can flip
        d = Disjunction(X, Y, s=s).eval((w1, w2))
        c = Conjunction(X, Y, s=s).eval((w1, w2))
        hi = max(w1, w2)
        lo = min(w1, w2)
        assert (d > 0) == (hi > 0)
        assert (c > 0) == (lo > 0)

    def test_sign_property_over_grid(self, rng):
        w = rng.uniform(-10, 10, (10_000, 2))
        for s in (0.0, 0.5, 1.0):
            d = Disjunction(X, Y, s=s).eval(w)
            c = Conjunction(X, Y, s=s).eval(w)
            assert np.array_equal(np.sign(d), np.sign(np.max(w, axis=1)))
            assert np.array_equal(np.sign(c), np.sign(np.min(w, axis=1)))

    def test_disjunction_not_associative_witness(self):
        abc = (1.0, -2.0, 3.0)
        left = Disjunction(Disjunction(X3, Y3), Z3).eval(abc)
        right = Disjunction(X3, Disjunction(Y3, Z3)).eval(abc)
        assert abs(left - right) > 1e-6


class TestEquivalence:
    # ``equiv_pair`` (conftest) is the closed pairwise form, an oracle apart
    # from the library's scaled n-ary kernel
    def test_pair_values(self):
        assert equiv_pair(1.0, 1.0, 2) == pytest.approx(1.0 / math.sqrt(2.0), abs=0.0)
        assert equiv_pair(0.0, 7.0, 2) == 0.0
        assert equiv_pair(2.0, 3.0, 1) == pytest.approx(1.2, abs=1e-15)
        pair = Equivalence((X, Y), m=2)
        assert pair.eval((1.0, 1.0)) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert pair.eval((0.0, 7.0)) == 0.0
        assert Equivalence((X, Y), m=1).eval((2.0, 3.0)) == pytest.approx(1.2, abs=1e-15)

    def test_pair_both_zero_is_zero(self):
        assert equiv_pair(0.0, 0.0, 3) == 0.0
        assert Equivalence((X, Y), m=3).eval((0.0, 0.0)) == 0.0

    def test_n_values(self):
        triple = Equivalence((X3, Y3, Z3), m=2)
        assert triple.eval((1.0, 1.0, 1.0)) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
        assert triple.eval((0.0, 1.0, 1.0)) == 0.0
        assert Equivalence((X, Y), m=1).eval((2.0, 2.0)) == 1.0

    def test_n_rejects_fewer_than_two_pieces_or_m_below_one(self):
        with pytest.raises(FieldError):
            Equivalence((), m=2)
        with pytest.raises(FieldError):
            Equivalence((X,), m=2)
        with pytest.raises(FieldError):
            Equivalence((X, Y), m=0)

    def test_all_nestings_match_nary(self, rng):
        # associativity of the pairwise rule: every nesting order of three
        # values must agree with the n-ary formula
        triples = rng.uniform(0.01, 10.0, (10_000, 3))
        for m in (1, 2, 3):
            nary = Equivalence((X3, Y3, Z3), m).eval(triples)
            for order in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                a, b, c = (triples[:, k] for k in order)
                nested = equiv_pair(equiv_pair(a, b, m), c, m)
                assert np.max(np.abs(nested - nary)) < tol.EQUIV_ASSOC_TOL
                nested = equiv_pair(a, equiv_pair(b, c, m), m)
                assert np.max(np.abs(nested - nary)) < tol.EQUIV_ASSOC_TOL

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(1e-3, 1e3),
        b=st.floats(1e-3, 1e3),
        m=st.integers(1, 5),
    )
    def test_pair_matches_reciprocal_form(self, a, b, m):
        want = 1.0 / (1.0 / a ** m + 1.0 / b ** m) ** (1.0 / m)
        assert equiv_pair(a, b, m) == pytest.approx(want, rel=1e-12)
        assert Equivalence((X, Y), m).eval((a, b)) == pytest.approx(want, rel=1e-12)

    def test_a_nan_value_gives_nan_and_a_zero_value_zero(self):
        # a NaN value must not read as a point on the zero set: np.minimum
        # carries it into the pivot, and the point is not masked to 0.  A
        # NaN coordinate makes every axis plane NaN, so the kernel is fed
        # its (k, n) value stack directly
        assert np.isnan(_equiv_vg(np.array([[np.nan], [1.0]]), None, _equiv_consts(2))[0]).all()
        assert np.isnan(_equiv_vg(np.array([[0.5], [2.0], [np.nan]]), None, _equiv_consts(1))[0]).all()
        got, _ = _equiv_vg(
            np.array([[np.nan, 0.0, np.nan, 0.5], [1.0, 1.0, 0.0, 0.5]]), None, _equiv_consts(3)
        )
        assert np.isnan(got[[0, 2]]).all()  # NaN wins over a zero piece
        assert same_bits(got[1:2], np.zeros(1)) and got[3] > 0.0

    def test_tiny_values_do_not_overflow(self):
        # the scaled n-ary form must survive values whose reciprocal powers
        # would overflow the naive formula
        out = Equivalence((X, Y), m=2).eval((1e-200, 1e-200))
        assert np.isfinite(out) and out > 0.0

    def test_lone_point_matches_its_batch_row(self):
        # numpy sums a (k, 1) stack pairwise once k >= 8 but a wider one in
        # order; the pieces' sums must not depend on the batch size
        local = np.random.default_rng(8)
        pts = local.uniform(-1.5, 1.5, (200, 2))
        for k in (8, 12):
            ends = local.uniform(-1.0, 1.0, (k, 2, 2))
            expr = Equivalence(tuple(Segment(*pq) for pq in ends.tolist()), m=2)
            batch = expr.gradient(pts)
            for i, x in enumerate(pts):
                lone = expr.gradient(x)
                assert lone.value == batch.value[i] and expr.eval(x) == batch.value[i], (k, i)
                assert same_bits(lone.grad, batch.grad[i]), (k, i)


class TestTrim:
    # Trim(X, Y) reads its carrier off x and its trimmer off y, exactly,
    # with the gradients (1, 0) and (0, 1)
    _XY = Trim(X, Y)

    def test_kept_zero_stays_zero(self):
        assert self._XY.eval((0.0, 1.0)) == 0.0

    def test_removed_zero_lifted_by_trimmer(self):
        assert self._XY.eval((0.0, -1.0)) == 1.0

    def test_matches_segment_construction(self):
        # same carrier/trimmer pair as the interior-segment example
        v = self._XY.eval((0.3, 0.16))
        assert v == Segment((0.0, 0.0), (1.0, 0.0)).eval((0.5, 0.3))
        assert v == pytest.approx(0.3002314976804588, abs=0.0)

    def test_sign_agnostic_in_carrier(self):
        assert self._XY.eval((-0.3, 0.16)) == self._XY.eval((0.3, 0.16))

    def _against_oracle(self, f, t):
        pts = np.stack([f, t], axis=1)
        with np.errstate(all="ignore"):  # overflow to inf is part of the check
            v = self._XY.eval(pts)
            gs = self._XY.gradient(pts)
        want = [_trim_oracle(a, b) for a, b in zip(f.tolist(), t.tolist())]
        assert same_bits(gs.value, v)
        _assert_within_4_ulp(v, np.array([w[0] for w in want]))
        _assert_within_4_ulp(gs.grad, np.array([w[1] for w in want]))
        return v, gs.grad

    def test_matches_math_pow_oracle_from_1e_minus_100_to_1e100(self, rng):
        n = 2000
        f = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-100.0, 100.0, n)
        t = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-100.0, 100.0, n)
        v, _ = self._against_oracle(f, t)
        assert np.isinf(v).any() and v.min() < 1e-90  # both ends are reached

    def test_inf_and_zero_pattern_at_huge_carriers(self):
        # 1e76 ** 4 = 1e304 is finite, 1e78 ** 4 overflows: the pattern of
        # inf, nan and 0 must be the oracle's, not merely close to it
        trimmers = [0.0, 1e-100, -1e-100, 1.0, -1.0, 1e100, -1e100, 1e160, -1e160]
        f = np.repeat([1e76, -1e76, 1e78, -1e78], len(trimmers))
        t = np.tile(trimmers, 4)
        v, _ = self._against_oracle(f, t)
        assert np.array_equal(np.isinf(v), (np.abs(f) > 1e77) | (np.abs(t) > 1e155))

    def test_gradient_matches_finite_differences(self, rng):
        # at moderate magnitudes, with a relative step; the bound allows the
        # rounding of the two values over the step
        n = 400
        f = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        t = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        gs = self._XY.gradient(np.stack([f, t], axis=1))
        for k, x in enumerate((f, t)):
            h = 1e-5 * np.abs(x)
            hi, lo = [f, t], [f, t]
            hi[k], lo[k] = x + h, x - h
            fd = (self._XY.eval(np.stack(hi, axis=1))
                  - self._XY.eval(np.stack(lo, axis=1))) / (hi[k] - lo[k])
            noise = 8.0 * np.spacing(gs.value) / h
            err = np.abs(fd - gs.grad[:, k])
            assert (err <= 1e-6 * np.abs(gs.grad[:, k]) + noise).all(), k

    def test_exactly_symmetric_in_the_carrier_sign(self, rng):
        # one mixed-sign batch: each row's bits must not depend on its sign
        f = rng.uniform(-1.0, 1.0, 64) * 10.0 ** rng.uniform(-3.0, 3.0, 64)
        t = rng.uniform(-1.0, 1.0, 64)
        assert (f < 0.0).any() and (f > 0.0).any()
        pts, flip = np.stack([f, t], axis=1), np.stack([-f, t], axis=1)
        assert same_bits(self._XY.eval(pts), self._XY.eval(flip))
        g = self._XY.gradient(pts).grad
        g_flip = self._XY.gradient(flip).grad
        assert same_bits(g[:, 0], -g_flip[:, 0])  # odd in the carrier
        assert np.array_equal(g[:, 1], g_flip[:, 1])


def _pow(x: float, k: int) -> float:
    """``math.pow``, with an overflow as the infinity numpy gives."""
    try:
        return math.pow(x, k)
    except OverflowError:
        return math.copysign(math.inf, x) if k % 2 else math.inf


def _div0(a: float, b: float) -> float:
    """``a / b`` with 0 where ``b`` is 0, the sqrt-corner rule."""
    return 0.0 if b == 0.0 else a / b


def _trim_oracle(f: float, t: float, gf=(1.0, 0.0), gt=(0.0, 1.0)):
    """The trimming rule and its forward-mode gradient in Python floats,
    with ``math.pow`` for the carrier's powers."""
    aux = math.sqrt(t * t + _pow(f, 4))
    w = 0.5 * (aux - t)
    v = math.sqrt(f * f + w * w)
    gaux = [_div0(t * b + 2.0 * _pow(f, 3) * a, aux) for a, b in zip(gf, gt)]
    gw = [0.5 * (ga - b) for ga, b in zip(gaux, gt)]
    return v, [_div0(f * a + w * c, v) for a, c in zip(gf, gw)]


def _assert_within_4_ulp(got: np.ndarray, want: np.ndarray):
    """Equal patterns of nan and of signed inf, and finite entries within 4
    units in the last place of the larger."""
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got[np.isinf(got)], want[np.isinf(got)])
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.array_equal(got == 0.0, want == 0.0)
    fin = np.isfinite(got)
    a, b = got[fin], want[fin]
    ulp = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    assert (np.abs(a - b) <= 4.0 * ulp).all(), np.max(np.abs(a - b) / ulp)


# ---------------------------------------------------------------------------
# Zero sets and normalization
# ---------------------------------------------------------------------------

class TestZeroSets:
    def test_circle_zero_set(self):
        expr = Circle((0.21, -0.43), 0.75)
        pts = circle_boundary(expr.center, expr.radius, 200)
        assert np.max(np.abs(expr.eval(pts))) < tol.ZERO_SET_TOL_SMOOTH

    def test_sphere_zero_set(self):
        for normalized in (True, False):
            expr = Sphere((0.1, 0.2, -0.3), 0.8, normalized)
            pts = sphere_boundary(expr.center, expr.radius, 200)
            assert np.max(np.abs(expr.eval(pts))) < tol.ZERO_SET_TOL_SMOOTH

    def test_plane_zero_set(self, rng):
        n = np.array([1.0, 2.0, -0.5])
        n /= np.linalg.norm(n)
        expr = Plane((0.3, -0.1, 0.7), tuple(n))
        u = np.array([-n[1], n[0], 0.0])
        u /= np.linalg.norm(u)
        w = np.cross(n, u)
        ab = rng.uniform(-5, 5, (200, 2))
        pts = np.asarray(expr.origin) + ab[:, :1] * u + ab[:, 1:] * w
        assert np.max(np.abs(expr.eval(pts))) < tol.ZERO_SET_TOL_SMOOTH

    def test_segment_zero_set_interior(self):
        expr = Segment((-0.4, 0.25), (0.8, -0.6))
        pts = segment_interior(expr.p1, expr.p2, 200)
        assert np.max(np.abs(expr.eval(pts))) < tol.ZERO_SET_TOL_SEGMENT


class TestNormalization:
    def test_circle_unit_gradient_on_boundary(self):
        expr = Circle((0.0, 0.0), 0.75)
        pts = circle_boundary(expr.center, expr.radius, 200)
        g = expr.gradient(pts).grad
        assert np.max(np.abs(np.linalg.norm(g, axis=1) - 1.0)) < tol.NORMALIZATION_TOL

    def test_plane_unit_gradient_everywhere(self, rng):
        expr = Plane((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        pts = rng.uniform(-5, 5, (200, 3))
        g = expr.gradient(pts).grad
        assert np.max(np.abs(np.linalg.norm(g, axis=1) - 1.0)) < tol.NORMALIZATION_TOL
        assert np.allclose(g, [0.0, 0.0, 1.0])

    def test_normalized_sphere_unit_gradient_on_boundary(self):
        expr = Sphere((0.0, 0.1, 0.2), 0.6, normalized=True)
        pts = sphere_boundary(expr.center, expr.radius, 200)
        g = expr.gradient(pts).grad
        assert np.max(np.abs(np.linalg.norm(g, axis=1) - 1.0)) < tol.NORMALIZATION_TOL

    def test_segment_unit_gradient_adjacent_to_interior(self):
        # the unsigned segment field has a crease exactly on its zero set
        # (like |x| at 0), so normalization is checked a hair off the crease
        # where the field is regular
        expr = Segment((0.0, 0.0), (1.0, 0.0))
        pts = segment_interior(expr.p1, expr.p2, 200)
        for off in (1e-6, -1e-6):
            g = expr.gradient(pts + [0.0, off]).grad
            assert (
                np.max(np.abs(np.linalg.norm(g, axis=1) - 1.0))
                < tol.NORMALIZATION_TOL
            )

    def test_circle_boundary_gradient_direction(self):
        g = Circle((0.0, 0.0), 0.75).gradient((0.75, 0.0))
        assert g.value == 0.0
        assert np.allclose(g.grad, [-1.0, 0.0], atol=1e-15)


# ---------------------------------------------------------------------------
# Composition, gradients, bit-exact agreement
# ---------------------------------------------------------------------------

def _smooth_points(expr, rng, n, lo=-2.0, hi=2.0, reject=None):
    """Sample n points where ``expr`` is differentiable (rejection sampling)."""
    dim = expr.dimension
    out = []
    while len(out) < n:
        cand = rng.uniform(lo, hi, (4 * n, dim))
        keep = np.ones(cand.shape[0], dtype=bool)
        if reject is not None:
            keep &= ~reject(cand)
        out.extend(cand[keep][: n - len(out)])
    return np.asarray(out)


def _node_zoo():
    """One representative expression per node type, with a smoothness filter."""
    circle = Circle((0.1, -0.2), 0.75)
    circle2 = Circle((0.0, 0.5), 0.6)
    seg = Segment((-0.5, -0.1), (0.6, 0.4))
    seg2 = Segment((-0.2, 0.7), (0.9, -0.6))
    plane2 = Plane((0.3, 0.0), (0.8, 0.6))
    sphere = Sphere((0.0, 0.0, 0.1), 0.7)
    sphere_raw = Sphere((0.2, 0.0, 0.0), 0.5, normalized=False)
    plane3 = Plane((0.0, 0.0, 0.0), (0.0, 0.6, 0.8))

    def away_from(e, eps=1e-3):
        return lambda pts: np.abs(e.eval(pts)) < eps

    def both_small(a, b, eps=1e-3):
        return lambda pts: (np.abs(a.eval(pts)) < eps) & (np.abs(b.eval(pts)) < eps)

    zoo = [
        (circle, None),
        (seg, away_from(seg)),
        (sphere, None),
        (sphere_raw, None),
        (plane3, None),
        (Negation(circle), None),
        (Disjunction(circle, circle2, s=0.0), both_small(circle, circle2)),
        (Disjunction(circle, circle2, s=0.5), both_small(circle, circle2)),
        (Conjunction(circle, plane2, s=0.0), both_small(circle, plane2)),
        (
            Equivalence((seg, seg2), m=2),
            lambda pts: (np.abs(seg.eval(pts)) < 1e-3)
            | (np.abs(seg2.eval(pts)) < 1e-3),
        ),
        # the circle is negative outside, which pins d|phi| = sign(phi) grad phi
        (
            Equivalence((circle, seg), m=2),
            lambda pts: (np.abs(circle.eval(pts)) < 1e-3)
            | (np.abs(seg.eval(pts)) < 1e-3),
        ),
        (
            Trim(circle, plane2),
            lambda pts: (np.abs(Trim(circle, plane2).eval(pts)) < 1e-3)
            | (np.abs(plane2.eval(pts)) < 1e-3),
        ),
    ]
    return zoo


class TestGradients:
    def test_forward_mode_matches_finite_differences(self, rng):
        for expr, reject in _node_zoo():
            pts = _smooth_points(expr, rng, 100, reject=reject)
            got = expr.gradient(pts).grad
            for k, x in enumerate(pts):
                want = fd_gradient(expr.eval, x, h=tol.GRAD_FD_STEP)
                denom = max(np.linalg.norm(want), 1e-12)
                rel = np.linalg.norm(got[k] - want) / denom
                assert rel < tol.GRAD_FD_REL_TOL, (type(expr).__name__, x, rel)

    def test_value_agrees_bit_for_bit_with_eval(self, rng):
        for expr, _ in _node_zoo():
            pts = rng.uniform(-2, 2, (64, expr.dimension))
            v_eval = expr.eval(pts)
            v_grad = expr.gradient(pts).value
            assert np.array_equal(v_eval, v_grad)

    def test_gradient_finite_at_corners(self):
        # R-operation corner (both arguments zero) and equivalence joins
        # produce the one-sided zero gradient, never NaN/inf
        d = Disjunction(Circle((0.0, 0.0), 1.0), Circle((2.0, 0.0), 1.0))
        g = d.gradient((1.0, 0.0)).grad  # both circle fields are zero here
        assert np.all(np.isfinite(g))
        seg = Segment((0.0, 0.0), (1.0, 0.0))
        g = seg.gradient((0.5, 0.0)).grad  # on the crease
        assert np.all(np.isfinite(g))
        e = Equivalence((seg, Segment((0.0, 1.0), (1.0, 1.0))), m=2)
        g = e.gradient((0.5, 0.0)).grad
        assert np.all(np.isfinite(g))

    def test_plane_gradient_is_normal_everywhere(self):
        g = Plane((0, 0, 0), (0, 0, 1)).gradient((3.3, -1.0, 9.9))
        assert np.array_equal(g.grad, [0.0, 0.0, 1.0])


class TestComposition:
    def test_disjunction_matches_scalar_composition(self, rng):
        # the two-circle union evaluated as a tree must equal the
        # R-disjunction of the member circle values, taken over X and Y
        c1 = Circle((0.0, 0.5), 0.75)
        c2 = Circle((0.0, -0.5), 0.75)
        expr = Disjunction(c1, c2, s=0.0)
        for x in [(0.0, 0.5), (0.3, -0.2), (1.0, 1.0), (0.0, 1.25)]:
            assert expr.eval(x) == Disjunction(X, Y, s=0.0).eval((c1.eval(x), c2.eval(x)))
        pts = rng.uniform(-2.0, 2.0, (500, 2))
        for s in (0.0, 0.4, 1.0):
            want = Disjunction(X, Y, s=s).eval(np.stack([c1.eval(pts), c2.eval(pts)], axis=1))
            assert Disjunction(c1, c2, s=s).eval(pts).tobytes() == want.tobytes()

    def test_conjunction_and_trim_match_scalar_composition(self, rng):
        # a node over its children has the bits of the same node over X
        # and Y, fed the children's values
        c = Circle((0.2, 0.0), 0.9)
        seg = Segment((-1.0, -0.5), (1.0, 0.5))
        plane = Plane((0.0, 0.0), (0.6, 0.8))
        pts = rng.uniform(-2.0, 2.0, (500, 2))
        for s in (0.0, 0.4, 1.0):
            want = Conjunction(X, Y, s=s).eval(np.stack([c.eval(pts), seg.eval(pts)], axis=1))
            assert Conjunction(c, seg, s=s).eval(pts).tobytes() == want.tobytes()
        want = Trim(X, Y).eval(np.stack([c.eval(pts), plane.eval(pts)], axis=1))
        assert Trim(c, plane).eval(pts).tobytes() == want.tobytes()

    def test_equivalence_matches_pairwise_composition(self):
        s1 = Segment((0.0, 0.0), (4.0, 0.0))
        s2 = Segment((0.0, 2.0), (4.0, 2.0))
        expr = Equivalence((s1, s2), m=2)
        x = (2.0, 1.0)  # equidistant from both segments
        v1 = s1.eval(x)
        v2 = s2.eval(x)
        assert v1 == v2
        # the tree is the n-ary rule bit-for-bit; the pairwise rule agrees
        # to rounding
        assert expr.eval(x) == Equivalence((X, Y), m=2).eval((v1, v2))
        assert expr.eval(x) == pytest.approx(equiv_pair(v1, v2, 2), rel=1e-13)
        assert expr.eval(x) == pytest.approx(v1 / math.sqrt(2.0), rel=1e-12)

    def test_equivalence_takes_abs_of_signed_children(self):
        c1 = Circle((0.0, 0.0), 0.5)
        c2 = Circle((5.0, 0.0), 0.5)
        e = Equivalence((c1, c2), m=2)
        x = (2.0, 0.0)  # both circle fields are negative here
        assert e.eval(x) == Equivalence((X, Y), m=2).eval((abs(c1.eval(x)), abs(c2.eval(x))))
        assert e.eval(x) > 0.0

    def test_trim_node_builds_arcs(self):
        # keep the left part of a circle: trimmer positive for x < 0
        arc = Trim(Circle((0.0, 0.0), 1.0), Plane((0.0, 0.0), (-1.0, 0.0)))
        assert arc.eval((-1.0, 0.0)) == 0.0  # kept part of the carrier
        assert arc.eval((1.0, 0.0)) == pytest.approx(1.0)  # lifted by |trimmer|
        pts = circle_boundary((0.0, 0.0), 1.0, 101)
        on = arc.eval(pts)
        kept = pts[:, 0] < -1e-9
        assert np.max(np.abs(on[kept])) < 1e-12
        assert np.all(on[pts[:, 0] > 1e-3] > 0.0)


# ---------------------------------------------------------------------------
# Validation and dimension handling
# ---------------------------------------------------------------------------

class TestValidate:
    def _pacman(self):
        r = 0.75
        mx, my = r * math.cos(math.pi / 6), r * math.sin(math.pi / 6)
        s1 = Segment((0.0, 0.0), (mx, my))
        s2 = Segment((0.0, 0.0), (mx, -my))
        arc = Trim(Circle((0.0, 0.0), r), Plane((mx, 0.0), (-1.0, 0.0)))
        return Equivalence((s1, s2, arc), m=2)

    def test_well_formed_pacman_is_clean(self):
        assert validate(self._pacman()) == []

    def test_degenerate_segment_reported(self):
        diags = validate(Segment((1.0, 1.0), (1.0, 1.0)))
        assert [d.code for d in diags] == ["degenerate-segment"]

    def test_mixed_dimensions_reported(self):
        expr = Disjunction(Circle((0.0, 0.0), 1.0), Sphere((0.0, 0.0, 0.0), 1.0))
        codes = [d.code for d in validate(expr)]
        assert "dimension-mismatch" in codes

    def test_s_above_one_reported(self):
        expr = Conjunction(Circle((0, 0), 1.0), Circle((1, 0), 1.0), s=2.0)
        codes = [d.code for d in validate(expr)]
        assert codes == ["s-above-one"]

    def test_diagnostic_paths_locate_nodes(self):
        bad = Negation(Segment((0.0, 0.0), (0.0, 0.0)))
        (diag,) = validate(bad)
        assert diag.path == "child"

    def test_shared_node_reported_once_at_its_first_path(self):
        seg = Segment((0.0, 0.0), (0.0, 0.0))
        lens = Conjunction(Circle((0, 0), 1.0), Circle((1, 0), 1.0), s=2.0)
        expr = Disjunction(Negation(Disjunction(seg, lens)), Disjunction(lens, seg))
        assert [(d.code, d.path) for d in validate(expr)] == [
            ("degenerate-segment", "left.child.left"),
            ("s-above-one", "left.child.right"),
        ]

    def test_shared_chain_visits_each_node_once(self, monkeypatch):
        # a_k = union(a_{k-1}, a_{k-1}) for 20 levels: 21 distinct nodes on
        # 2^21 - 1 paths, of which the walk follows one per node
        expr = Circle((0.0, 0.0), 0.5)
        for _ in range(20):
            expr = Disjunction(expr, expr)
        assert expr.dimension == 2  # the leaf dimensions are kept before counting
        visits = []
        children = Disjunction.children
        monkeypatch.setattr(
            Disjunction, "children", lambda self: visits.append(self) or children(self)
        )
        assert validate(expr) == []
        assert len(visits) == 20

    def test_eval_rejects_wrong_point_dimension(self):
        with pytest.raises(DimensionMismatchError):
            Circle((0.0, 0.0), 1.0).eval((1.0, 2.0, 3.0))

    def test_eval_rejects_mixed_tree(self):
        expr = Disjunction(Circle((0.0, 0.0), 1.0), Sphere((0.0, 0.0, 0.0), 1.0))
        with pytest.raises(DimensionMismatchError):
            expr.eval((0.0, 0.0))

    def test_expressions_are_immutable_and_hashable(self):
        a = Circle((0.0, 0.0), 1.0)
        b = Circle((0.0, 0.0), 1.0)
        assert a == b and hash(a) == hash(b)
        with pytest.raises(Exception):
            a.radius = 2.0


# ---------------------------------------------------------------------------
# Compiled plans against the node-at-a-time walker
# ---------------------------------------------------------------------------

_BATCHES = (1, 30, 10_000)


def _points(dim, n, seed):
    pts = np.random.default_rng(seed).uniform(-2.0, 2.0, (n, dim))
    pts[: max(1, n // 10), 0] = 0.0  # on-axis rows give signed-zero gradients
    return pts


def _assert_plan_matches_recursive(expr, seed=0):
    for n in _BATCHES:
        _assert_plan_matches_walker_at(expr, _points(expr.dimension, n, seed))


def _assert_plan_matches_walker_at(expr, pts):
    n = pts.shape[0]
    for want_grad in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # s > 1 clamps
            with np.errstate(invalid="ignore"):  # NaN points
                V_ref, G_ref = one_by_one(expr, pts, want_grad)
                V, G = _Plan((expr,))(pts, want_grad)
        assert V.shape == (1, n)
        assert same_bits(V, V_ref), (n, want_grad, expr)
        if want_grad:
            assert same_bits(G, G_ref), (n, expr)
        else:
            assert G is None


_S1 = Segment((0.0, 0.0), (1.0, 0.0))
_S2 = Segment((0.0, 0.0), (0.0, 1.0))
_ARC = Trim(Circle((0.0, 0.0), 1.0), Plane((0.0, 0.0), (1.0, 0.0)))
_RAY = Trim(Plane((0.0, 0.0), (0.0, 1.0)), Plane((0.5, 0.0), (-1.0, 0.0)))
# exactly on the pieces' zero sets (segment interiors and their shared
# corner, the arc and its ends, the ray), where the gradient takes the
# sqrt-corner rule; NaN points; points 1e6 m out
_ON_AND_OFF = np.array([
    [0.25, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, 0.5], [1.0, 0.0], [0.0, 1.0],
    [0.0, -1.0], [-0.5, 0.0], [0.75, 0.0], [0.5, -0.3], [-0.2, 0.4],
    [np.nan, 0.5], [np.nan, np.nan], [1e6, -1e6], [-1e6, 1e6], [1e6, 1e6],
])


def _masked_divide(num, den):
    """``_corner_div``'s rule a value at a time: 0 where the denominator is
    +0.0 or -0.0, else the quotient; ``num`` and ``den`` broadcast."""
    num, den = np.broadcast_arrays(num, den)
    out = np.zeros(num.shape)
    for idx in np.ndindex(num.shape):
        if den[idx] != 0.0:
            out[idx] = num[idx] / den[idx]
    return out


class TestDivRows:
    """The sqrt-corner quotient ``_corner_div``, which every combining
    kernel's partials divide through."""

    SPECIAL = np.array([np.nan, np.inf, -np.inf, 1e-300, -1e300, 2.5, -3.0])

    def _stacks(self, rng, zeros):
        num = rng.standard_normal((3, 2, 40))
        num.flat[::7] = np.resize(self.SPECIAL, num.flat[::7].shape)
        num.flat[3::11] = np.resize([0.0, -0.0], num.flat[3::11].shape)
        den = rng.standard_normal((3, 40))
        den.flat[::5] = np.resize(self.SPECIAL, den.flat[::5].shape)
        if zeros:
            den.flat[2::6] = np.resize([0.0, -0.0], den.flat[2::6].shape)
        return num, den

    @pytest.mark.parametrize("zeros", [False, True], ids=["plain", "masked"])
    def test_both_branches_give_the_masked_divides_bits(self, rng, zeros):
        num, den = self._stacks(rng, zeros)
        assert (np.count_nonzero(den) < den.size) == zeros
        with np.errstate(all="ignore"):
            # (k, n) partials over (k, n) values, as the kernels divide; a
            # (k, 1) column over them; a (k, d, n) stack over its values
            for part in (num[:, 0], num[:, 1, :1], num):
                over = den if part.ndim == 2 else den[:, None, :]
                assert same_bits(_corner_div((part,), over)[0], _masked_divide(part, over))
            # two numerators over one denominator, as the trim kernel divides
            pair = (num[:, 0], num[:, 1, :1])
            for got, part in zip(_corner_div(pair, den), pair, strict=True):
                assert same_bits(got, _masked_divide(part, den))

    def test_plan_matches_walker_at_exact_sqrt_corners(self, monkeypatch, rng):
        # segment ends and interiors, arc ends and R-operation corners zero
        # a denominator; random points do not.  Both branches must run
        masked = []

        def spy(nums, den):
            masked.append(np.count_nonzero(den) < den.size)
            return _corner_div(nums, den)

        monkeypatch.setattr(fields_module, "_corner_div", spy)
        corner = Conjunction(Plane((0.0, 0.0), (1.0, 0.0)), Plane((0.0, 0.0), (0.0, 1.0)))
        ridge = Disjunction(Plane((0.0, 0.0), (1.0, 0.0)), Plane((0.0, 0.0), (0.0, 1.0)), s=1.0)
        for expr in (_S1, Equivalence((_S1, _S2)), _ARC, Trim(_ARC, _RAY), corner, ridge):
            _assert_plan_matches_walker_at(expr, _ON_AND_OFF)
            _assert_plan_matches_walker_at(expr, rng.uniform(-2.0, 2.0, (30, 2)))
        assert set(masked) == {False, True}


def _shipped_trees():
    shapes = resources.files("shapefield") / "data" / "shapes"
    for entry in sorted(shapes.iterdir(), key=lambda e: e.name):
        prog = parse(entry.read_text())
        if prog.has_morph:
            sched = prog.morph_schedule()
            yield f"{entry.name}:initial", sched.initial
            yield f"{entry.name}:final", sched.final
        else:
            yield entry.name, prog.field_expr()


class TestCompiledPlan:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(expr=field_trees(2), seed=st.integers(0, 2**32 - 1))
    def test_random_2d_trees_match_recursive_bit_for_bit(self, expr, seed):
        _assert_plan_matches_recursive(expr, seed)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(expr=field_trees(3), seed=st.integers(0, 2**32 - 1))
    def test_random_3d_trees_match_recursive_bit_for_bit(self, expr, seed):
        _assert_plan_matches_recursive(expr, seed)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(expr=st.one_of(field_trees(2), field_trees(3)), seed=st.integers(0, 2**32 - 1))
    def test_each_row_has_the_bits_of_its_point_alone(self, expr, seed):
        # stacking many worlds' robots into one call, as a seed ensemble
        # would, is sound only if no row depends on its batch
        for n in (1, 2, 7, 30, 301):
            assert_rows_stand_alone(expr, _points(expr.dimension, n, seed), 0.0)

    def test_shipped_shapes_match_recursive_bit_for_bit(self):
        names = []
        for name, expr in _shipped_trees():
            _assert_plan_matches_recursive(expr)
            # a swarm's and the cube's batch sizes, with a NaN row, whose sign
            # bits a change in the order of a step's rows can move
            for n in (30, 162):
                pts = _points(expr.dimension, n, seed=n)
                pts[n // 2, 0] = np.nan
                _assert_plan_matches_walker_at(expr, pts)
            names.append(name)
        assert len(names) == 7  # six files; the morph has two trees
        assert "cube.shape" in names

    def test_unsigned_equivalences_skip_the_abs_step_bit_for_bit(self, rng):
        # pieces >= 0 by construction (segments, trims, equivalences), on
        # and off their zero sets: the plan gives the walker's bits, and a
        # zero set reads +0.0, never the -0.0 a sign flip could leave
        exprs = [
            Equivalence((_S1, _S2)),
            Equivalence((_ARC, _RAY), m=3),
            Equivalence((Equivalence((_S1, _S2)), _ARC, _S1), m=1),
            Equivalence((Equivalence((_RAY, _ARC), m=2), Equivalence((_S2, _S1), m=3))),
        ]
        pts = np.concatenate([_ON_AND_OFF, rng.uniform(-2.0, 2.0, (40, 2))])
        for expr in exprs:
            _assert_plan_matches_walker_at(expr, pts)
        assert same_bits(exprs[3].eval(_ON_AND_OFF[:9]), np.zeros(9))  # +0.0 on the zero sets

    def test_nan_points_give_nan_value_and_gradient(self, rng):
        # a NaN point makes its pieces NaN; the equivalence used to mask it
        # like a point on the zero set, to value 0 and gradient 0
        pacman = TestValidate()._pacman()
        for x in ([np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]):
            assert math.isnan(pacman.eval(x))
            gs = pacman.gradient(x)
            assert math.isnan(gs.value) and np.isnan(gs.grad).all()
        # in a batch: NaN rows, rows on a piece's zero set (+0.0, gradient
        # +0.0) and ordinary rows, with the walker's bits
        expr = Equivalence((_S1, _S2, Circle((0.0, 0.0), 0.5)))
        pts = np.concatenate([_ON_AND_OFF, rng.uniform(-2.0, 2.0, (20, 2))])
        with np.errstate(invalid="ignore"):
            v, g = expr.values_grads(pts, 0.0)
        nan = np.isnan(pts).any(axis=1)
        assert np.isnan(v[nan]).all() and np.isnan(g[nan]).all()
        on = np.array([0, 1, 2, 3, 4, 5])  # on _S1 or _S2
        assert same_bits(v[on], np.zeros(on.size)) and same_bits(g[on], np.zeros((on.size, 2)))
        assert np.isfinite(v[~nan]).all() and np.isfinite(g[~nan]).all()
        for tree in (expr, pacman, Equivalence((pacman, _ARC), m=3)):
            _assert_plan_matches_walker_at(tree, pts)

    def test_signed_pieces_keep_the_abs_step(self, rng):
        pts = np.concatenate([_ON_AND_OFF, rng.uniform(-2.0, 2.0, (40, 2))])
        for signed in (Circle((0.0, 0.0), 0.5), Plane((0.0, 0.0), (0.0, 1.0)), Negation(_S1)):
            for expr in (Equivalence((_S1, signed)), Equivalence((Equivalence((_S2, _ARC)), signed))):
                _assert_plan_matches_walker_at(expr, pts)
                # the |.| matters here: the signed piece is < 0 somewhere
                (v,), _ = one_by_one(signed, pts, want_grad=False)
                assert (v < 0.0).any()

    def test_public_entry_points_run_the_plan(self, rng):
        expr = TestValidate()._pacman()
        pts = rng.uniform(-1.0, 1.0, (30, 2))
        (v_ref,), (g_ref,) = one_by_one(expr, pts, want_grad=True)
        assert same_bits(expr.eval(pts), v_ref)
        gs = gradient(expr, pts)
        assert same_bits(gs.value, v_ref) and same_bits(gs.grad, g_ref.T)
        point = gradient(expr, pts[3])
        assert point.value == v_ref[3] and same_bits(point.grad, g_ref[:, 3])

    def test_equal_subtrees_are_evaluated_once(self):
        rim = Circle((0.0, 0.0), 0.75)
        seg = Segment((0.0, 0.0), (0.6, 0.4))
        expr = Equivalence((seg, Segment((0.0, 0.0), (0.6, 0.4)), Trim(rim, seg._tree.base)), m=2)
        plan = _Plan((expr, Negation(Circle((0.0, 0.0), 0.75))))
        (ball, balls, _), (plane, planes, _) = [step[:3] for step in plan._steps[:2]]
        # two ball rows (the rim and the segment's circle) and one plane row
        # serve both segments, the trim and the second root
        assert (ball.__name__, plane.__name__) == ("_ball_step", "_plane_step")
        assert balls[0].shape[0] == 2 and planes[0].shape[0] == 1
        _assert_plan_matches_recursive(expr)

    def test_signed_zero_parameters_stay_apart(self):
        # equal under ==, but their gradients differ in the sign of zero
        p0 = Plane((0.0, 0.0), (1.0, 0.0))
        p1 = Plane((0.0, 0.0), (1.0, -0.0))
        assert p0 == p1
        V, G = _Plan((p0, p1))(np.array([[0.5, 0.5]]), want_grad=True)
        assert np.signbit(G[:, 1, 0]).tolist() == [False, True]

    def test_gradient_is_fresh_writeable_array_for_every_node_kind(self, rng):
        plane2 = Plane((0.3, 0.0), (0.8, 0.6))
        exprs = [expr for expr, _ in _node_zoo()] + [plane2, Plane((0.0, 0.0), (1.0, 0.0))]
        for expr in exprs:
            d = expr.dimension
            pts = rng.uniform(-1.0, 1.0, (7, d))
            first, second = gradient(expr, pts), gradient(expr, pts)
            for gs in (first, second):
                assert gs.grad.shape == (7, d)
                assert gs.grad.flags.writeable, type(expr).__name__
                assert gs.grad.strides == (8 * d, 8), type(expr).__name__
            assert not np.shares_memory(first.grad, second.grad)
            assert not np.shares_memory(first.value, second.value)
            keep = second.grad.copy()
            first.grad[...] = np.nan
            first.value[...] = np.nan
            assert same_bits(second.grad, keep)
            assert same_bits(gradient(expr, pts).grad, keep)

    def test_dropped_tree_is_freed(self):
        # the plan and the leaf dimensions live on the nodes, so nothing
        # module-level keeps a tree alive once its caller lets it go
        expr = Disjunction(Circle((0.0, 0.0), 1.0), Segment((0.0, 0.0), (1.0, 0.0)))
        expr.gradient(np.zeros((3, 2)))
        assert validate(expr) == []
        ref = weakref.ref(expr)
        del expr
        gc.collect()
        assert ref() is None

    def test_degenerate_segment_raises_through_the_plan_every_time(self):
        expr = Disjunction(Circle((0.0, 0.0), 1.0), Segment((0.2, 0.2), (0.2, 0.2)))
        for _ in range(2):
            with pytest.raises(DegenerateSegmentError):
                expr.eval((0.0, 0.0))
            with pytest.raises(DegenerateSegmentError):
                gradient(expr, np.zeros((3, 2)))

    def test_s_above_one_warns_from_a_stacked_group(self):
        # two conjunctions at one height, each in the step of its own s.  At
        # s = 1 the radicand of two nearly equal circles rounds below 0 and is
        # clamped without a warning; only the s = 3 node warns, and the warning
        # names it and is attributed to the caller, not to the evaluation frames
        c1, c2, c3 = Circle((0.0, 0.0), 1.0), Circle((1e-9, 0.0), 1.0), Circle((0.5, 0.0), 1.0)
        expr = Disjunction(Conjunction(c1, c2, s=1.0), Conjunction(c1, c3, s=3.0))
        pts = np.random.default_rng(3).uniform(-2.0, 2.0, (1000, 2))
        for call in (expr.eval, lambda p: gradient(expr, p), lambda p: expr.eval(p[0])):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call(pts)
            assert {str(w.message) for w in caught} == {
                "R-function radicand clamped to 0 (s = 3.0 > 1)"
            }
            assert {w.filename for w in caught} == {__file__}  # the caller's line
