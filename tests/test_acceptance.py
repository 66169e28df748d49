"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy simulation fixtures are module-scoped so the formation run is
computed once and reused by the determinism criterion.
"""

import math
import time
import warnings
from contextlib import contextmanager
from importlib import resources

import numpy as np
import pytest

from shapefield import tolerances as tol
from shapefield.fields import (
    Circle,
    Conjunction,
    Disjunction,
    Equivalence,
    Plane,
    Segment,
    Sphere,
)
from shapefield.gridio import export_trajectory
from shapefield.lang import ShapeLangError, parse, serialize
from shapefield.morph import MorphSchedule
from shapefield.sim import (
    Disturbance,
    SimConfig,
    build_world,
    ring_radius_of,
    run,
)

from conftest import (
    X3,
    Y3,
    Z3,
    circle_boundary,
    equiv_pair,
    fd_gradient,
    segment_interior,
    sphere_boundary,
)
from test_fields import _node_zoo, _smooth_points
from test_lang import _ProgramFuzzer


@contextmanager
def criterion(capsys, num, desc):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nCRITERION {num:2d} FAIL  {desc}")
        raise
    else:
        with capsys.disabled():
            print(f"\nCRITERION {num:2d} PASS  {desc}")


def quiet_run(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run(*args, **kwargs)


@pytest.fixture(scope="module")
def formation_setup():
    """Criterion-6 configuration: desk-scale circle formation."""
    cfg = SimConfig(duration=60.0, seed=7, target=(0.15, 0.0))
    ring = ring_radius_of(build_world(cfg))
    field = Circle((0.15, 0.0), ring)
    return cfg, field


@pytest.fixture(scope="module")
def formation_run(formation_setup):
    cfg, field = formation_setup
    t0 = time.perf_counter()
    traj = quiet_run(cfg, field)
    wall = time.perf_counter() - t0
    return traj, wall


class TestCriterion1:
    def test_primitive_zero_sets(self, capsys, rng):
        with criterion(capsys, 1, "primitive zero-sets vanish on sampled boundaries"):
            t0 = time.perf_counter()
            c = Circle((0.21, -0.43), 0.75)
            pts = circle_boundary(c.center, c.radius, 200)
            assert np.max(np.abs(c.eval(pts))) < 1e-12

            n = np.array([1.0, -2.0, 0.5])
            n /= np.linalg.norm(n)
            p = Plane((0.3, -0.1, 0.7), tuple(n))
            u = np.array([-n[1], n[0], 0.0])
            u /= np.linalg.norm(u)
            w = np.cross(n, u)
            ab = rng.uniform(-5, 5, (200, 2))
            plane_pts = np.asarray(p.origin) + ab[:, :1] * u + ab[:, 1:] * w
            assert np.max(np.abs(p.eval(plane_pts))) < 1e-12

            for normalized in (True, False):
                s = Sphere((0.1, 0.2, -0.3), 0.8, normalized)
                spts = sphere_boundary(s.center, s.radius, 200)
                assert np.max(np.abs(s.eval(spts))) < 1e-12

            seg = Segment((-0.4, 0.25), (0.8, -0.6))
            ipts = segment_interior(seg.p1, seg.p2, 200)
            assert np.max(np.abs(seg.eval(ipts))) < 1e-9
            elapsed = time.perf_counter() - t0
            assert elapsed < 1.0, f"runtime {elapsed:.2f}s"


class TestCriterion2:
    def test_normalization(self, capsys):
        with criterion(capsys, 2, "unit gradients on boundaries; m=2 join normalized"):
            c = Circle((0.0, 0.0), 0.75)
            g = c.gradient(circle_boundary(c.center, c.radius, 200)).grad
            assert np.max(np.abs(np.linalg.norm(g, axis=1) - 1.0)) < 1e-9

            p = Plane((0.0, 0.0, 0.0), (0.0, 0.6, 0.8))
            g = p.gradient(np.zeros((1, 3))).grad
            assert abs(np.linalg.norm(g[0]) - 1.0) < 1e-9

            s = Sphere((0.0, 0.1, 0.2), 0.6)
            g = s.gradient(sphere_boundary(s.center, s.radius, 200)).grad
            assert np.max(np.abs(np.linalg.norm(g, axis=1) - 1.0)) < 1e-9

            # unsigned segment fields crease exactly on the zero set, so
            # regular-point normalization is read a hair off the crease
            seg = Segment((0.0, 0.0), (1.0, 0.0))
            pts = segment_interior(seg.p1, seg.p2, 200)
            for off in (1e-6, -1e-6):
                g = seg.gradient(pts + [0.0, off]).grad
                assert np.max(np.abs(np.linalg.norm(g, axis=1) - 1.0)) < 1e-9

            # R-equivalence (m=2) of two disjoint segments, >= 10% of the
            # length away from the endpoints
            s1 = Segment((-0.6, -0.4), (0.5, -0.4))
            s2 = Segment((-0.5, 0.45), (0.6, 0.45))
            joined = Equivalence((s1, s2), m=2)
            for seg_prim in (s1, s2):
                base = segment_interior(seg_prim.p1, seg_prim.p2, 100, margin=0.1)
                for off in (1e-6, -1e-6):
                    g = joined.gradient(base + [0.0, off]).grad
                    mags = np.linalg.norm(g, axis=1)
                    assert np.all((mags > 0.999) & (mags < 1.001))


class TestCriterion3:
    def test_gradient_oracle(self, capsys, rng):
        with criterion(capsys, 3, "forward-mode gradients match finite differences"):
            t0 = time.perf_counter()
            for expr, reject in _node_zoo():
                pts = _smooth_points(expr, rng, 100, reject=reject)
                got = expr.gradient(pts).grad
                for k, x in enumerate(pts):
                    want = fd_gradient(expr.eval, x, h=tol.GRAD_FD_STEP)
                    denom = max(np.linalg.norm(want), 1e-12)
                    rel = np.linalg.norm(got[k] - want) / denom
                    assert rel < 1e-6, (type(expr).__name__, x, rel)

            sched = MorphSchedule(
                Circle((0.0, 0.0), 0.75), Circle((0.4, 0.1), 0.6), p=0.5
            )
            for t in rng.uniform(0.1, 20.0, 4):
                pts = rng.uniform(-2, 2, (25, 2))
                got = sched.values_grads(pts, float(t))[1]
                for k, x in enumerate(pts):
                    want = fd_gradient(
                        lambda q: sched.values(q[None], float(t))[0], x, h=tol.GRAD_FD_STEP
                    )
                    denom = max(np.linalg.norm(want), 1e-12)
                    assert np.linalg.norm(got[k] - want) / denom < 1e-6
            elapsed = time.perf_counter() - t0
            assert elapsed < 5.0, f"runtime {elapsed:.2f}s"


class TestCriterion4:
    def test_equivalence_associativity_and_rop_witness(self, capsys, rng):
        with criterion(capsys, 4, "equivalence associative; R-disjunction is not"):
            triples = rng.uniform(0.01, 10.0, (10_000, 3))
            a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
            for m in (1, 2, 3):
                nary = Equivalence((X3, Y3, Z3), m).eval(triples)
                # the closed pairwise form, nested, against the library's
                # n-ary kernel: two independent formulas
                nestings = [
                    equiv_pair(equiv_pair(a, b, m), c, m),
                    equiv_pair(equiv_pair(a, c, m), b, m),
                    equiv_pair(equiv_pair(b, c, m), a, m),
                    equiv_pair(a, equiv_pair(b, c, m), m),
                    equiv_pair(b, equiv_pair(a, c, m), m),
                    equiv_pair(c, equiv_pair(a, b, m), m),
                ]
                for nested in nestings:
                    assert np.max(np.abs(nested - nary)) < 1e-12

            left = Disjunction(Disjunction(X3, Y3), Z3).eval((1.0, -2.0, 3.0))
            right = Disjunction(X3, Disjunction(Y3, Z3)).eval((1.0, -2.0, 3.0))
            assert abs(left - right) > 1e-6


class TestCriterion5:
    def test_morph_endpoints_and_partition(self, capsys, rng):
        with criterion(capsys, 5, "morph preserves endpoint zero-sets; w1+w2=1"):
            sched = MorphSchedule(
                Circle((0.0, 0.0), 0.75), Circle((0.4, 0.1), 0.6), p=0.5
            )
            init_pts = circle_boundary((0.0, 0.0), 0.75, 200)
            assert np.max(np.abs(sched.values(init_pts, 0.0))) < 1e-9

            t_sat = 2.0 * math.atanh(1.0 - 1e-12) / sched.p + 1.0
            assert sched.ramp_value(t_sat) >= 1.0 - 1e-12
            final_pts = circle_boundary((0.4, 0.1), 0.6, 200)
            assert np.max(np.abs(sched.values(final_pts, t_sat))) < 1e-6

            pts = rng.uniform(-2.0, 2.0, (10_000, 2))
            times = rng.uniform(0.0, 30.0, 10)
            for t in times:
                _, _, (w1, _, _) = sched._blend_vg(
                    pts[:1000], float(t), sched.ramp_value(float(t)), want_grad=False
                )
                assert np.all(w1 + (1.0 - w1) == 1.0)
            for x, t in zip(pts[:200], rng.uniform(0.0, 30.0, 200)):
                _, _, (w1, _, _) = sched._blend_vg(
                    x[None], float(t), sched.ramp_value(float(t)), want_grad=False
                )
                assert w1[0] + (1.0 - w1[0]) == 1.0


class TestCriterion6:
    def test_circle_formation(self, capsys, formation_run):
        with criterion(capsys, 6, "30+180 swarm forms the circle within 60 s"):
            traj, wall = formation_run
            threshold = 0.5 * 0.03  # half the robot radius
            below = traj.shape_error < threshold
            assert np.any(below), "shape error never fell below 0.015 m"
            t_cross = traj.times[np.argmax(below)]
            assert t_cross <= 60.0
            assert traj.shape_error[-1] < threshold
            assert wall < 300.0, f"wall time {wall:.0f}s"


class TestCriterion7:
    def test_disturbance_recovery(self, capsys):
        with criterion(capsys, 7, "swarm recovers from impulses in [10 s, 15 s]"):
            cfg = SimConfig(duration=35.0, seed=7)
            ring = ring_radius_of(build_world(cfg))
            field = Circle((0.05, 0.0), ring)
            kicks = Disturbance.evenly(
                (0.06, 0.04), 10.0, 15.0, 6, tuple(range(0, 30, 4))
            )
            traj = quiet_run(cfg, field, disturbances=(kicks,))
            ts, se = traj.times, traj.shape_error
            pre = se[np.searchsorted(ts, 10.0) - 1]
            window_peak = se[(ts >= 10.0) & (ts <= 16.0)].max()
            assert window_peak > 2.0 * pre, "disturbance had no visible effect"
            recovered = se[-1]  # 20 s after the window closes
            assert ts[-1] >= 35.0 - 1e-9
            assert recovered <= 1.5 * pre, f"{recovered:.5f} vs pre {pre:.5f}"


class TestCriterion8:
    def test_morph_run(self, capsys, formation_setup):
        with criterion(capsys, 8, "circle-to-circle morph completes and settles"):
            cfg, _ = formation_setup
            ring = ring_radius_of(build_world(cfg))
            sched = MorphSchedule(
                Circle((0.0, 0.0), ring), Circle((0.15, 0.0), ring), p=1.0
            )
            traj = quiet_run(SimConfig(duration=60.0, seed=7), sched)
            assert sched.is_complete(traj.times[-1])
            assert np.all(np.isfinite(traj.shape_error))  # no hard failures
            assert traj.shape_error[-1] <= 0.015


class TestCriterion9:
    def test_cube_formation_3d(self, capsys):
        with criterion(capsys, 9, "162 agents converge onto the 3-D cube field"):
            half = 0.45
            faces = [
                Plane((half, 0, 0), (-1, 0, 0)),
                Plane((-half, 0, 0), (1, 0, 0)),
                Plane((0, half, 0), (0, -1, 0)),
                Plane((0, -half, 0), (0, 1, 0)),
                Plane((0, 0, half), (0, 0, -1)),
                Plane((0, 0, -half), (0, 0, 1)),
            ]
            cube = Conjunction(
                Conjunction(
                    Conjunction(faces[0], faces[1]), Conjunction(faces[2], faces[3])
                ),
                Conjunction(faces[4], faces[5]),
            )
            cfg = SimConfig(
                dimension=3,
                n_boundary=162,
                n_interior=0,
                duration=20.0,
                spawn_radius=0.8,
                seed=1,
            )
            t0 = time.perf_counter()
            traj = quiet_run(cfg, cube)
            wall = time.perf_counter() - t0
            assert traj.positions.shape[1] == 162
            assert traj.shape_error[-1] < 0.01
            assert wall < 120.0, f"wall time {wall:.0f}s"


class TestCriterion10:
    def test_determinism(self, capsys, formation_setup, formation_run):
        with criterion(capsys, 10, "same seed gives byte-identical trajectories"):
            cfg, field = formation_setup
            first, _ = formation_run
            second = quiet_run(cfg, field)
            a = export_trajectory(first, include_positions=True)
            b = export_trajectory(second, include_positions=True)
            assert a == b


class TestCriterion11:
    def test_parser_round_trip_and_fuzz(self, capsys):
        with criterion(capsys, 11, "parser round-trips; fuzz errors are positioned"):
            shapes_dir = resources.files("shapefield") / "data" / "shapes"
            shipped = [p for p in shapes_dir.iterdir() if p.name.endswith(".shape")]
            assert len(shipped) >= 5
            for path in shipped:
                prog = parse(path.read_text())
                assert parse(serialize(prog)) == prog, path.name

            fuzz = _ProgramFuzzer(np.random.default_rng(20220523))
            checked = 0
            for _ in range(1200):
                src = fuzz.program()
                try:
                    prog = parse(src)
                except ShapeLangError:
                    continue  # rare dimension clash in a random morph pick
                assert parse(serialize(prog)) == prog
                checked += 1
                if checked >= 1000:
                    break
            assert checked >= 1000

            mut_rng = np.random.default_rng(5150)
            errored = 0
            for k in range(300):
                src = fuzz.program()
                mode = k % 3
                if mode == 0:
                    pos = int(mut_rng.integers(0, len(src)))
                    src = src[:pos] + "$" + src[pos:]
                elif mode == 1:
                    src = src[: int(mut_rng.integers(0, len(src)))]
                else:
                    pos = int(mut_rng.integers(0, len(src)))
                    src = src[:pos] + src[pos + 1 :]
                try:
                    parse(src)
                except ShapeLangError as err:
                    errored += 1
                    lines = src.split("\n")
                    assert 1 <= err.line <= max(1, len(lines))
                    line_text = lines[err.line - 1] if lines else ""
                    assert 1 <= err.col <= len(line_text) + 1
            assert errored > 50
