"""Space-time transfinite interpolation: ramp, weights, endpoints, gradients."""

import math
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from shapefield import morph
from shapefield import tolerances as tol
from shapefield.fields import (
    Circle,
    DimensionMismatchError,
    Segment,
    Sphere,
    _r_binary,
    _r_consts,
    _r_partial,
)
from shapefield.gridio import GridSpec, grid_points, sample_grid
from shapefield.lang import parse
from shapefield.morph import (
    DegenerateBlendError,
    MorphSchedule,
    ramp,
)

from conftest import (
    assert_rows_stand_alone,
    circle_boundary,
    fd_gradient,
    field_trees,
    one_by_one,
    same_bits,
)


@pytest.fixture
def sched():
    return MorphSchedule(
        initial=Circle((0.0, 0.0), 0.75),
        final=Circle((0.4, 0.1), 0.6),
        p=0.5,
    )


class TestRamp:
    def test_zero_at_start(self):
        assert ramp(0.0, 1.0) == 0.0
        assert ramp(0.0, 17.3) == 0.0

    def test_frozen_value(self):
        # (e - 1) / (e + 1), cross-checked against the exponential form
        assert ramp(1.0, 1.0) == pytest.approx(0.46211715726000974, abs=0.0)
        assert ramp(1.0, 1.0) == pytest.approx(
            (math.e - 1.0) / (math.e + 1.0), rel=1e-15
        )

    def test_asymptote(self):
        assert 1.0 - ramp(50.0, 2.0) < 1e-12
        assert ramp(50.0, 2.0) <= 1.0  # saturates to 1.0 exactly in float64

    def test_monotonicity(self, rng):
        # strictly increasing until float64 saturation (p t / 2 ~ 18),
        # non-decreasing beyond
        for p in (0.1, 1.0, 5.0):
            t = np.sort(rng.uniform(0.0, 30.0 / p, 200))
            f = ramp(t, p)
            assert np.all(np.diff(f) > 0.0)
            t = np.sort(rng.uniform(0.0, 1000.0, 200))
            assert np.all(np.diff(ramp(t, p)) >= 0.0)

    def test_negative_time_clamps_with_warning(self, sched):
        with pytest.warns(RuntimeWarning):
            assert ramp(-1.0, 1.0) == 0.0
        # through a schedule the warning still names the caller's line
        pts = np.zeros((2, 2))
        for fn in (sched.values, sched.values_grads):
            with pytest.warns(RuntimeWarning, match="negative t") as caught:
                fn(pts, -1.0)
            assert [w.filename for w in caught] == [__file__]

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            ramp(1.0, 0.0)

    def test_no_overflow_for_huge_times(self):
        assert ramp(1e6, 10.0) == 1.0  # saturates cleanly, no overflow warning


class TestSchedule:
    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            MorphSchedule(Circle((0, 0), 1.0), Sphere((0, 0, 0), 1.0), p=1.0)

    def test_rejects_nonpositive_p(self):
        for bad in ({"p": 0.0}, {"p": 1.0, "s": math.inf}, {"p": 1.0, "t_start": math.nan}):
            with pytest.raises(ValueError):
                MorphSchedule(Circle((0, 0), 1.0), Circle((1, 0), 1.0), **bad)

    def test_completion_threshold(self, sched):
        # tanh(p t / 2) >= 1 - eps  <=>  t >= 2 artanh(1 - eps) / p
        t_done = 2.0 * math.atanh(1.0 - tol.MORPH_COMPLETE_EPS) / sched.p
        assert not sched.is_complete(t_done - 1.0)
        assert sched.is_complete(t_done + 1.0)

    def test_nan_time_raises_before_anything_is_evaluated(self, sched):
        pts = np.zeros((3, 2))
        grid = GridSpec((-1.0, -1.0), 0.5, (5, 5))
        calls = [
            lambda: sched.values(pts, math.nan),
            lambda: sched.values_grads(pts, np.float64("nan")),
            lambda: sample_grid(sched, grid, t=math.nan),
            lambda: sample_grid(sched, grid, t=math.nan, include_gradmag=True),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="t=nan"):
                call()
        assert "_plan" not in vars(sched)  # the plan is built at the first evaluation

    def test_infinite_times_keep_their_meaning(self, sched):
        # +inf: the ramp is 1, so the final field; -inf: clamped to the start
        pts = grid_points(GridSpec((-1.0, -1.0), 0.5, (5, 5)))
        want = sched.final.gradient(pts)
        v, g = sched.values_grads(pts, math.inf)
        assert same_bits(v, want.value) and same_bits(g, want.grad)
        assert same_bits(sched.values(pts, math.inf), want.value)
        v0, g0 = sched.values_grads(pts, 0.0)
        with pytest.warns(RuntimeWarning, match="negative t"):
            v, g = sched.values_grads(pts, -math.inf)
        assert same_bits(v, v0) and same_bits(g, g0)
        with pytest.warns(RuntimeWarning, match="negative t"):
            assert same_bits(sched.values(pts, -math.inf), v0)

    def test_complete_schedule_evaluates_final_directly(self, sched):
        t = 1e4
        pts = np.array([[0.2, 0.3], [1.0, -1.0]])
        assert np.array_equal(sched.values(pts, t), sched.final.eval(pts))
        v, g = sched.values_grads(pts, t)
        gf = sched.final.gradient(pts)
        assert np.array_equal(v, gf.value)
        assert np.array_equal(g, gf.grad)


def _weights(sched, pts, t):
    """Blend weights (w1, w2, g1, g2) at each row of ``pts``, with ``w2``
    formed as ``1 - w1``, as the blend forms it."""
    _, _, (w1, g1, g2) = sched._blend_vg(
        np.atleast_2d(np.asarray(pts, dtype=float)), t, sched.ramp_value(t), want_grad=False
    )
    return w1, 1.0 - w1, g1, g2


class TestBlendWeights:
    def test_at_start_initial_dominates(self, sched):
        # any x with phi_i(x) > 0: g1 = R_conj(phi_i, 0) = 0, hence w1 = 1
        pts = np.array([(0.0, 0.0), (0.3, 0.2), (-0.5, 0.0)])
        assert np.all(sched.initial.eval(pts) > 0.0)
        w1, w2, g1, g2 = _weights(sched, pts, 0.0)
        assert np.all(g1 == 0.0)
        assert np.all(w1 == 1.0)
        assert np.all(w2 == 0.0)

    def test_partition_of_unity_exact(self, sched, rng):
        pts = rng.uniform(-2, 2, (10_000, 2))
        times = rng.uniform(0.0, 25.0, 10_000)
        for x, t in zip(pts[:200], times[:200]):
            w1, w2, _, _ = _weights(sched, x, float(t))
            assert np.all(w1 + w2 == 1.0)

    def test_near_completion_final_dominates(self, sched):
        # just below the completion threshold: f = 1 - 1e-5
        f_target = 1.0 - 1e-5
        t = 2.0 * math.atanh(f_target) / sched.p
        assert not sched.is_complete(t)
        pts = np.array([(0.4, 0.1), (0.6, 0.3)])
        assert np.all(sched.final.eval(pts) > 0.0)
        w1, w2, g1, g2 = _weights(sched, pts, t)
        assert np.all(np.abs(g2) < 1e-4)
        assert np.all(np.abs(w2 - 1.0) < 1e-3)

    def test_degenerate_blend_is_reported(self, sched):
        # unreachable through the public blend (g1 + g2 < 0 for all t >= 0),
        # so exercise the error type and its payload directly
        pts = np.array([[9.9, 9.9]])
        with pytest.raises(DegenerateBlendError) as err:
            raise DegenerateBlendError(pts, 1.5, np.array([True]))
        assert "9.9" in str(err.value)
        assert err.value.t == 1.5

    def test_blend_denominator_strictly_negative(self, sched, rng):
        # g1 and g2 are both <= 0 with at most one of them zero, so the
        # blend denominator never vanishes for t >= 0
        pts = rng.uniform(-3, 3, (2000, 2))
        for t in (0.0, 0.4, 3.0, 12.0):
            _, _, (w1, g1, g2) = sched._blend_vg(pts, t, sched.ramp_value(t), want_grad=False)
            assert np.all(g1 + g2 < 0.0)


class TestEvalMorph:
    """``MorphSchedule.values``."""

    def test_initial_zero_set_preserved_at_t0(self, sched):
        pts = circle_boundary(sched.initial.center, sched.initial.radius, 200)
        v = sched.values(pts, 0.0)
        assert np.max(np.abs(v)) < 1e-9

    def test_final_zero_set_reached_once_ramp_saturates(self, sched):
        # f(t) >= 1 - 1e-12 is far past the completion threshold
        t = 2.0 * math.atanh(1.0 - 1e-12) / sched.p + 1.0
        pts = circle_boundary(sched.final.center, sched.final.radius, 200)
        v = sched.values(pts, t)
        assert np.max(np.abs(v)) < 1e-6

    def test_identical_shapes_blend_to_themselves(self, rng):
        c = Circle((0.1, 0.2), 0.8)
        sched = MorphSchedule(c, c, p=1.0)
        pts = rng.uniform(-2, 2, (100, 2))
        want = c.eval(pts)
        for t in (0.0, 0.7, 3.0, 50.0):
            assert np.array_equal(sched.values(pts, t), want)

    def test_continuity_in_time(self, sched, rng):
        pts = rng.uniform(-2, 2, (100, 2))
        for t in (0.0, 0.5, 2.0, 10.0):
            a = sched.values(pts, t)
            b = sched.values(pts, t + 1e-6)
            assert np.max(np.abs(a - b)) < 1e-3

    def test_t_start_shifts_the_ramp(self):
        base = MorphSchedule(Circle((0, 0), 0.75), Circle((0.4, 0), 0.75), p=0.5)
        late = MorphSchedule(
            Circle((0, 0), 0.75), Circle((0.4, 0), 0.75), p=0.5, t_start=5.0
        )
        x = [(0.2, 0.2)]
        assert np.array_equal(late.values(x, 7.0), base.values(x, 2.0))


class TestGradientMorph:
    """``MorphSchedule.values_grads``."""

    def test_identical_shapes_gradient_matches_field(self, rng):
        c = Circle((0.1, 0.2), 0.8)
        sched = MorphSchedule(c, c, p=1.0)
        pts = rng.uniform(-2, 2, (50, 2))
        _, g = sched.values_grads(pts, 1.3)
        gc = c.gradient(pts)
        assert np.allclose(g, gc.grad, atol=1e-12)

    def test_matches_finite_differences(self, sched, rng):
        pts = rng.uniform(-2, 2, (100, 2))
        for t in (0.3, 1.7, 6.0):
            got = sched.values_grads(pts, t)[1]
            for k, x in enumerate(pts):
                want = fd_gradient(
                    lambda q: sched.values(q[None], t)[0], x, h=tol.GRAD_FD_STEP
                )
                denom = max(np.linalg.norm(want), 1e-12)
                assert np.linalg.norm(got[k] - want) / denom < tol.GRAD_FD_REL_TOL

    def test_value_agrees_bit_for_bit(self, sched, rng):
        pts = rng.uniform(-2, 2, (100, 2))
        for t in (0.0, 0.9, 4.2, 1e4):
            assert np.array_equal(sched.values_grads(pts, t)[0], sched.values(pts, t))

    def test_initial_gradient_in_positive_region_at_t0(self, sched):
        pts = np.array([(0.0, 0.0), (0.2, -0.1), (0.5, 0.4)])
        assert np.all(sched.initial.eval(pts) > 0.0)
        _, g = sched.values_grads(pts, 0.0)
        gi = sched.initial.gradient(pts)
        assert np.max(np.abs(g - gi.grad)) < 1e-9

    def test_blend_gradient_mixes_shapes_midway(self, sched):
        # sanity: mid-morph gradient differs from both endpoints
        x = [(0.2, 0.0)]
        t = 2.0
        gm = sched.values_grads(x, t)[1]
        gi = sched.initial.gradient(x).grad
        gf = sched.final.gradient(x).grad
        assert not np.allclose(gm, gi, atol=1e-6)
        assert not np.allclose(gm, gf, atol=1e-6)


class TestSegmentsMorph:
    def test_unsigned_fields_morph_too(self):
        sched = MorphSchedule(
            Segment((0.0, 0.0), (1.0, 0.0)),
            Segment((0.0, 1.0), (1.0, 1.0)),
            p=1.0,
        )
        v0 = sched.values([(0.5, 0.0)], 0.0)
        assert abs(v0[0]) < 1e-9
        t = 2.0 * math.atanh(1.0 - 1e-9)
        vf = sched.values([(0.5, 1.0)], t)
        assert abs(vf[0]) < 1e-6


# ---------------------------------------------------------------------------
# The compiled morph against the recursive blend
# ---------------------------------------------------------------------------

def _tree(expr, pts, want_grad):
    (v,), G = one_by_one(expr, pts, want_grad)
    return v, (G[0] if want_grad else None)


def _recursive_blend(sched, pts, t, want_grad):
    """The morph evaluated without the plan: each member tree a node at a
    time, each weight conjunction on its own with its constant as a full
    array, and the ramp evaluated twice.  The gradient composes the
    conjunctions' member partials as the blend does."""
    if sched.is_complete(t):
        v, g = _tree(sched.final, pts, want_grad)
        return v, (g.T if want_grad else None)
    fval = sched.ramp_value(t)
    vi, gi = _tree(sched.initial, pts, want_grad)
    vf, gf = _tree(sched.final, pts, want_grad)
    c1 = np.full_like(vi, -fval)
    c2 = np.full_like(vi, fval - 1.0)
    conj = _r_consts(sched.s, -1.0)
    g1, q1 = _r_binary(vi, c1, conj, want_grad)
    g2, q2 = _r_binary(vf, c2, conj, want_grad)
    total = g1 + g2
    w1 = g2 / total
    v = vf + w1 * (vi - vf)
    if not want_grad:
        return v, None, total
    p1, p2 = _r_partial(q1, conj, vi, c1), _r_partial(q2, conj, vf, c2)
    r = (vi - vf) / total
    g = (w1 * (1.0 - p1 * r)) * gi + ((1.0 - w1) * (1.0 + p2 * r)) * gf
    return v, g.T, total


def _assert_morph_matches(sched, pts, t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # s > 1 clamps
        want = _recursive_blend(sched, pts, t, want_grad=True)
        if not sched.is_complete(t):
            bad = np.abs(want[2]) < tol.BLEND_DEGENERACY_EPS
            if bad.any():
                for fn in (sched.values, sched.values_grads):
                    with pytest.raises(DegenerateBlendError) as err:
                        fn(pts, t)
                    assert np.array_equal(err.value.mask, bad)
                return
        v, g = sched.values_grads(pts, t)
        v_only = sched.values(pts, t)
    assert same_bits(v, want[0]), t
    assert same_bits(g, want[1]), t
    assert same_bits(v_only, want[0]), t


@pytest.fixture(scope="module")
def wrench():
    shape = resources.files("shapefield") / "data" / "shapes" / "wrench_morph.shape"
    return parse(shape.read_text()).morph_schedule()


class TestCompiledMorph:
    def test_wrench_matches_recursive_blend_bit_for_bit(self, wrench):
        t_done = 2.0 * math.atanh(1.0 - tol.MORPH_COMPLETE_EPS) / wrench.p
        blending = (0.0, 0.5, 3.0, 10.0, 40.0, 69.0)
        past = (t_done + 1.0, 200.0, 1e4)
        assert not any(wrench.is_complete(t) for t in blending)
        assert all(wrench.is_complete(t) for t in past)
        for n in (1, 30, 10_000):
            pts = np.random.default_rng(n).uniform(-1.2, 1.2, (n, 2))
            pts[: max(1, n // 10), 1] = 0.0  # on the axis: signed-zero gradients
            for t in blending + past:
                _assert_morph_matches(wrench, pts, t)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        initial=field_trees(2),
        final=field_trees(2),
        p=st.floats(0.05, 2.0),
        s=st.floats(0.0, 1.5),
        t=st.floats(0.0, 80.0),
        n=st.sampled_from((1, 30, 10_000)),
    )
    def test_random_morphs_match_recursive_blend_bit_for_bit(self, initial, final, p, s, t, n):
        sched = MorphSchedule(initial, final, p=p, s=s)
        pts = np.random.default_rng(n).uniform(-2.0, 2.0, (n, 2))
        _assert_morph_matches(sched, pts, t)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        coords=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        radii=st.tuples(st.floats(0.1, 1.5), st.floats(0.1, 1.5)),
        segments=st.booleans(),
        p=st.floats(0.05, 2.0),
        s=st.floats(0.0, 1.5),
        into_ramp=st.floats(0.0, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_row_has_the_bits_of_its_point_alone(
        self, coords, radii, segments, p, s, into_ramp, seed
    ):
        x1, y1, x2, y2, x3, y3, x4, y4 = coords
        if segments:
            pair = (Segment((x1, y1), (x2, y2)), Segment((x3, y3), (x4, y4)))
            assume(min(seg.length for seg in pair) > 0.05)
        else:
            pair = (Circle((x1, y1), radii[0]), Circle((x2, y2), radii[1]))
        sched = MorphSchedule(*pair, p=p, s=s)
        # a time inside the ramp, where the blend runs
        t = into_ramp * 2.0 * math.atanh(1.0 - tol.MORPH_COMPLETE_EPS) / p
        assert not sched.is_complete(t)
        rng = np.random.default_rng(seed)
        for n in (1, 2, 7, 30, 301):
            pts = rng.uniform(-2.0, 2.0, (n, 2))
            pts[: max(1, n // 10), 1] = 0.0  # on the axis: signed-zero gradients
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # s > 1 clamps
                try:
                    sched.values(pts, t)
                except DegenerateBlendError as err:  # keep the rows that blend
                    pts = pts[~err.mask]
            assert_rows_stand_alone(sched, pts, t)

    def test_ramp_is_evaluated_once_per_call(self, wrench, monkeypatch):
        calls = []

        def counted(t, p):
            calls.append(t)
            return ramp(t, p)

        monkeypatch.setattr(morph, "ramp", counted)
        pts = np.zeros((4, 2))
        for t in (3.0, 500.0):  # blending, then complete
            for fn in (wrench.values, wrench.values_grads):
                calls.clear()
                fn(pts, t)
                assert len(calls) == 1

    def test_degenerate_blend_keeps_its_mask(self, wrench, monkeypatch):
        # |g1 + g2| never falls below the real threshold, so raise it to the
        # median |g1 + g2| of a batch: about half the rows are degenerate
        pts = np.random.default_rng(5).uniform(-1.2, 1.2, (64, 2))
        t = 3.0
        _, _, total = _recursive_blend(wrench, pts, t, want_grad=False)
        eps = float(np.median(np.abs(total)))
        monkeypatch.setattr(morph, "BLEND_DEGENERACY_EPS", eps)
        want = np.abs(total) < eps
        assert 0 < want.sum() < len(pts)
        for fn in (wrench.values, wrench.values_grads):
            with pytest.raises(DegenerateBlendError) as err:
                fn(pts, t)
            assert np.array_equal(err.value.mask, want)
            assert same_bits(err.value.points, pts[want])
            assert err.value.t == t

    def test_s_above_one_still_warns(self):
        # outside the initial circle phi_i and the constant -f have one
        # sign and similar size, so the radicand is negative once s > 1
        sched = MorphSchedule(Circle((0.0, 0.0), 0.5), Circle((0.1, 0.0), 0.5), p=0.5, s=3.0)
        pts = np.stack([np.linspace(0.6, 1.5, 10), np.zeros(10)], axis=1)
        for fn in (sched.values, sched.values_grads):
            with pytest.warns(RuntimeWarning, match=r"s = 3\.0 > 1") as caught:
                fn(pts, 1.0)
            assert {w.filename for w in caught} == {__file__}
