"""Simulator: world construction, forces, integration, metrics, determinism."""

import dataclasses
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapefield.fields import Circle, DimensionMismatchError, Plane, Sphere
from shapefield.morph import DegenerateBlendError, MorphSchedule
from shapefield.sim import (
    Disturbance,
    PackingError,
    SimConfig,
    SimulationDivergenceError,
    Trajectory,
    WorldState,
    _GRAIN_SPACING_MARGIN,
    _PairCache,
    _hex_packing,
    _near_pairs,
    _scatter_pairs,
    apply_disturbance,
    as_field_driver,
    build_world,
    com_distance,
    contact_forces,
    control_forces,
    parse_sim_config,
    ring_radius_of,
    run,
    shape_error,
    spring_forces,
    stability_dt_bound,
    step,
)
from shapefield.tolerances import CONTACT_ROOM_MARGIN, CONTACT_SKIN_FRACTION

QUIET = {"category": RuntimeWarning, "match": "stability"}
RADII = (0.03, 0.0325, 0.0325 * math.sqrt(2.0))


def small_config(**kw):
    # dt below the documented stability bound so runs stay warning-free
    base = dict(n_boundary=8, n_interior=12, duration=1.0, seed=3, dt=4e-4)
    base.update(kw)
    return SimConfig(**base)


def free_world(positions, velocities=None, mass=0.2, radius=0.03, springs=None, nb=None):
    """Hand-built world for focused force tests (no ring invariant implied)."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    n = pos.shape[0]
    vel = np.zeros_like(pos) if velocities is None else np.atleast_2d(
        np.asarray(velocities, dtype=float)
    )
    if springs is None:
        si = sj = np.zeros(0, dtype=np.intp)
        sk = sr = np.zeros(0)
    else:
        si = np.asarray([s[0] for s in springs], dtype=np.intp)
        sj = np.asarray([s[1] for s in springs], dtype=np.intp)
        sk = np.asarray([s[2] for s in springs], dtype=float)
        sr = np.asarray([s[3] for s in springs], dtype=float)
    mass = np.full(n, mass) if np.isscalar(mass) else np.asarray(mass, dtype=float)
    radius = np.full(n, radius) if np.isscalar(radius) else np.asarray(radius, dtype=float)
    return WorldState(
        pos=pos,
        vel=vel,
        radius=radius,
        mass=mass,
        boundary_count=n if nb is None else nb,
        spring_i=si,
        spring_j=sj,
        spring_k=sk,
        spring_rest=sr,
        time=0.0,
    )


def brute_force_hits(pos, radius, skin=0.0):
    """Pairs i < j with |p_i - p_j| < r_i + r_j + skin in row-major order,
    from direct differences; with no skin, the overlapping pairs.  Rows go
    in blocks, so that n x n arrays never exist."""
    rows, cols = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, pos.shape[0], 256):
            diff = pos[lo:lo + 256, None, :] - pos[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            reach = radius[lo:lo + 256, None] + radius[None, :] + skin
            i, j = np.nonzero(np.triu(d2 < reach * reach, k=lo + 1))
            rows.append(i + lo)
            cols.append(j)
    return np.concatenate(rows), np.concatenate(cols)


def listed_hits(cache, world):
    i, j, *_ = cache.hits(world)
    return i, j


def assert_same_pairs(got, want):
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def assert_list_is_brute_force(pos, radius):
    """The neighbour list at the pair cache's skin is the brute-force list:
    each unordered pair once, as i < j, sorted by (i, j).  Returns its length."""
    skin = CONTACT_SKIN_FRACTION * float(radius.min())
    got = _near_pairs(pos, radius, skin)
    assert_same_pairs(got, brute_force_hits(pos, radius, skin))
    return got[0].size


def add_at_reference(pair, i, j, n):
    """Per-body sums of +pair on i and -pair on j by ``np.add.at``."""
    want = np.zeros((n, pair.shape[1]))
    np.add.at(want, i, pair)
    np.add.at(want, j, -pair)
    return want


def squeezed_world(config, scale):
    """The built world with every position scaled toward the origin."""
    w = build_world(config)
    return dataclasses.replace(w, pos=w.pos * scale)


@st.composite
def packings(draw):
    """Random mixed-radius packings with an exactly touching pair (bodies 0
    and 1), coincident centres (bodies 2 and 3) and optionally one body at
    1e12 m."""
    n = draw(st.integers(5, 40))
    half = draw(st.floats(0.05, 0.6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = rng.uniform(-half, half, (n, 2))
    radius = rng.choice(RADII, n)
    pos[0] = (0.0, pos[0, 1])
    pos[1] = (radius[0] + radius[1], pos[0, 1])
    pos[3] = pos[2]
    if draw(st.booleans()):
        pos[draw(st.integers(4, n - 1))] = (1e12, -1e12)
    return free_world(pos, radius=radius), rng


@st.composite
def spaced_packings(draw):
    """Jittered square grids of mixed radii in which no two bodies touch and
    neighbours sit within the list's skin, so the no-contact certificate
    can hold.  Optionally the grid sits at 1e12 m, bodies 0 and 1 touch
    exactly, or one body is NaN."""
    side = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radius = rng.choice(RADII, side * side)
    spacing = 2.0 * max(RADII) + draw(st.floats(2e-4, 6e-3))
    free = 0.5 * (spacing - 2.0 * max(RADII))
    grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)), axis=-1).reshape(-1, 2)
    pos = grid * spacing + rng.uniform(-0.4 * free, 0.4 * free, grid.shape)
    case = draw(st.sampled_from(["apart", "at_1e12", "touching", "nan"]))
    if case == "at_1e12":
        pos += (1e12, -1e12)
    elif case == "touching":
        pos[1] = pos[0] + (radius[0] + radius[1], 0.0)
    elif case == "nan":
        pos[draw(st.integers(0, side * side - 1))] = (np.nan, 0.0)
    return free_world(pos, radius=radius), rng, case


def hex_reference(n, r_large):
    """The first n points of a square-bounded hex lattice, ordered by the
    three-key lexsort (|p|^2, row, column) with |p|^2 from ``einsum``."""
    pitch = 2.0 * r_large * (1.0 + _GRAIN_SPACING_MARGIN)
    k = int(2.0 * math.sqrt(n)) + 3
    jj, ii = np.meshgrid(np.arange(-k, k + 1), np.arange(-k, k + 1), indexing="ij")
    pts = np.stack(
        [((ii + 0.5 * (jj % 2)) * pitch).ravel(), (jj * (pitch * math.sqrt(3.0) / 2.0)).ravel()],
        axis=1,
    )
    order = np.lexsort((ii.ravel(), jj.ravel(), np.einsum("ij,ij->i", pts, pts)))
    return pts[order[:n]]


class NoJitter:
    """Stands in for the packing's random generator: every jitter is zero."""

    def uniform(self, low, high, size):
        return np.zeros(size)


class TestBuildWorld:
    def test_default_counts(self):
        w = build_world(SimConfig())
        assert w.n == 210
        assert w.boundary_count == 30
        assert w.spring_i.size == 30

    def test_ring_only_world(self):
        w = build_world(SimConfig(n_interior=0))
        assert w.n == 30
        assert w.spring_i.size == 30

    def test_same_seed_is_bit_identical(self):
        a = build_world(SimConfig(seed=42))
        b = build_world(SimConfig(seed=42))
        for name in ("pos", "vel", "radius", "mass"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_different_seed_changes_packing(self):
        a = build_world(SimConfig(seed=1))
        b = build_world(SimConfig(seed=2))
        assert a.pos.tobytes() != b.pos.tobytes()

    def test_ring_topology_is_one_cycle(self):
        w = build_world(SimConfig(n_boundary=12, n_interior=0))
        neighbors = {k: set() for k in range(12)}
        for i, j in zip(w.spring_i, w.spring_j):
            neighbors[int(i)].add(int(j))
            neighbors[int(j)].add(int(i))
        assert all(len(v) == 2 for v in neighbors.values())
        seen = {0}
        prev, cur = None, 0
        for _ in range(12):
            nxt = [k for k in neighbors[cur] if k != prev]
            prev, cur = cur, nxt[0]
            seen.add(cur)
        assert seen == set(range(12))

    def test_no_initial_overlaps(self):
        w = build_world(SimConfig(seed=11))
        d = np.linalg.norm(w.pos[:, None, :] - w.pos[None, :, :], axis=2)
        rsum = w.radius[:, None] + w.radius[None, :]
        np.fill_diagonal(d, np.inf)
        assert np.all(d >= rsum - 1e-12)

    def test_grain_radii_equal_mixture(self):
        w = build_world(SimConfig())
        grains = w.radius[30:]
        small = np.sum(np.isclose(grains, 0.0325))
        large = np.sum(np.isclose(grains, 0.0325 * math.sqrt(2)))
        assert small == 90 and large == 90

    def test_robots_on_enclosing_circle(self):
        w = build_world(SimConfig(seed=5))
        rr = np.linalg.norm(w.pos[:30], axis=1)
        assert np.allclose(rr, rr[0])
        grain_extent = np.max(np.linalg.norm(w.pos[30:], axis=1) + w.radius[30:])
        assert rr[0] >= grain_extent + w.radius[0]

    def test_packing_limit_reports_achieved_count(self):
        with pytest.raises(PackingError) as err:
            build_world(SimConfig(max_packing_radius=0.3))
        assert err.value.achieved < err.value.requested

    @pytest.mark.parametrize("n", [6, 7, 8, 18, 19, 20, 36, 37, 38, 2880])
    def test_hex_order_is_the_lexsort_order(self, n):
        # n on and around full hex shells (1 + 6 + 12 + 18 points), where
        # equal distances tie and the (row, column) order decides
        cfg = SimConfig(n_interior=n)
        pts, _ = _hex_packing(cfg, NoJitter())
        want = hex_reference(n, max(cfg.grain_radii)) + np.zeros((n, 2))
        assert pts.tobytes() == want.tobytes()

    def test_3d_point_agents(self):
        w = build_world(SimConfig(dimension=3, n_boundary=162, n_interior=0))
        assert w.n == 162
        assert w.dimension == 3
        assert w.spring_i.size == 0
        assert np.allclose(np.linalg.norm(w.pos, axis=1), 0.7)

    def test_3d_rejects_interior(self):
        with pytest.raises(ValueError):
            SimConfig(dimension=3, n_boundary=162, n_interior=10)


class TestSpringForces:
    def test_rest_ring_has_zero_force(self):
        w = build_world(SimConfig(n_interior=0))
        F = spring_forces(w)
        assert np.max(np.abs(F)) < 1e-12

    def test_hookes_law_example(self):
        # k = 50 N/m, rest 0.1 m, separation 0.12 m -> 1.0 N attraction each
        w = free_world(
            [[0.0, 0.0], [0.12, 0.0]], springs=[(0, 1, 50.0, 0.1)]
        )
        F = spring_forces(w)
        assert F[0] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert F[1] == pytest.approx([-1.0, 0.0], abs=1e-12)

    def test_newtons_third_law(self, rng):
        w = build_world(SimConfig(n_boundary=10, n_interior=0, seed=1))
        w = step(w, SimConfig(n_boundary=10, n_interior=0))  # perturb slightly
        F = spring_forces(w)
        assert np.max(np.abs(F.sum(axis=0))) < 1e-12

    def test_accumulation_matches_add_at(self, rng):
        # reference: the np.add.at scatter, with repeated link endpoints
        pos = rng.uniform(-0.2, 0.2, (9, 2))
        links = [(a, b, 50.0, 0.05) for a, b in rng.integers(0, 9, (40, 2)) if a != b]
        w = free_world(pos, springs=links)
        dvec = w.pos[w.spring_j] - w.pos[w.spring_i]
        dist = np.sqrt(np.einsum("ij,ij->i", dvec, dvec))
        pair = dvec * (w.spring_k * (dist - w.spring_rest) / dist)[:, None]
        want = add_at_reference(pair, w.spring_i, w.spring_j, w.n)
        assert spring_forces(w).tobytes() == want.tobytes()

    def test_coincident_endpoints_zero_force(self, caplog):
        w = free_world([[0.0, 0.0], [0.0, 0.0]], springs=[(0, 1, 50.0, 0.1)])
        with caplog.at_level(logging.WARNING, logger="shapefield.sim"):
            F = spring_forces(w)
        assert np.all(F == 0.0)
        assert any("coincide" in r.message for r in caplog.records)

    def test_one_coincident_link_among_several(self, caplog):
        # links share no body, so each body's force is its own link's force
        pos = [[0.0, 0.0], [0.12, 0.01], [0.3, 0.0], [0.3, 0.07], [0.5, 0.5], [0.5, 0.5],
               [-0.2, 0.1], [-0.31, -0.02]]
        links = [(0, 1, 50.0, 0.1), (2, 3, 40.0, 0.1), (4, 5, 50.0, 0.1), (6, 7, 30.0, 0.05)]
        w = free_world(pos, springs=links)
        with caplog.at_level(logging.WARNING, logger="shapefield.sim"):
            F = spring_forces(w)
        logged = [r.getMessage() for r in caplog.records if "coincide" in r.getMessage()]
        assert len(logged) == 1 and "links [2];" in logged[0]
        assert np.all(F[[4, 5]] == 0.0)
        for a, b, k, rest in (links[0], links[1], links[3]):
            dvec = w.pos[b] - w.pos[a]
            dist = np.sqrt(np.einsum("i,i->", dvec, dvec))
            want = dvec * (k * (dist - rest) / dist)
            # each body's sum starts from +0.0
            assert F[a].tobytes() == (0.0 + want).tobytes()
            assert F[b].tobytes() == (0.0 - want).tobytes()


class TestScatterPairs:
    def test_contact_shaped_input_matches_add_at(self, rng):
        # the default world squeezed until thousands of pairs overlap, so
        # most bodies get many terms in each component
        w = squeezed_world(SimConfig(), 0.93)
        i, j, d, d2, _ = _PairCache(w).hits(w)
        assert np.bincount(np.concatenate([i, j])).max() > 4
        pair = d * rng.uniform(-1e3, 1e3, d2.shape)[:, None]
        got = _scatter_pairs(pair.T, i, j, w.n)
        assert got.shape == (w.n, 2) and got.flags.c_contiguous
        assert got.tobytes() == add_at_reference(pair, i, j, w.n).tobytes()

    def test_three_component_rows_match_add_at(self, rng):
        n = 11
        i, j = rng.integers(0, n, (2, 300))
        pair = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-6, 7, (300, 1))
        got = _scatter_pairs(pair.T, i, j, n)
        assert got.shape == (n, 3) and got.flags.c_contiguous
        assert got.tobytes() == add_at_reference(pair, i, j, n).tobytes()


class TestContactForces:
    def test_no_overlap_no_force(self):
        w = free_world([[0.0, 0.0], [1.0, 0.0]], radius=0.0325)
        F = contact_forces(w, SimConfig())
        assert np.all(F == 0.0)

    def test_static_normal_force_example(self):
        # two grains r = 0.0325 m at 0.06 m apart, k_c = 5000 -> 25 N
        w = free_world([[0.0, 0.0], [0.06, 0.0]], radius=0.0325)
        cfg = SimConfig(contact_stiffness=5000.0)
        F = contact_forces(w, cfg)
        assert F[0, 0] == pytest.approx(-25.0, rel=1e-12)
        assert F[1, 0] == pytest.approx(25.0, rel=1e-12)
        assert F[0, 1] == F[1, 1] == 0.0

    def test_friction_cone_clamped(self, rng):
        cfg = SimConfig()
        mu = cfg.friction
        for _ in range(200):
            gap = rng.uniform(-0.02, -0.001)  # overlapping
            d = 0.065 + gap
            ang = rng.uniform(0, 2 * math.pi)
            p2 = [d * math.cos(ang), d * math.sin(ang)]
            w = free_world(
                [[0.0, 0.0], p2],
                velocities=rng.uniform(-1, 1, (2, 2)),
                radius=0.0325,
            )
            F = contact_forces(w, cfg)
            nvec = -np.asarray(p2) / d
            fn = float(F[0] @ nvec)
            ft = float(np.linalg.norm(F[0] - fn * nvec))
            assert fn >= 0.0
            assert ft <= mu * fn + 1e-12

    def test_friction_cone_holds_for_near_normal_slip(self):
        # a near-normal slip (1.1e-4 of the relative speed): a friction
        # direction that leans off the tangent by rounding alone leaves the
        # cone here by more than the 1e-12 slack
        p2 = [-0.040130276740064856, 0.03165054085887241]
        vel = [[0.7134915329280875, -0.1297558362675435],
               [-0.0026687994790473013, 0.43520506457457486]]
        cfg = SimConfig()
        F = contact_forces(free_world([[0.0, 0.0], p2], velocities=vel, radius=0.0325), cfg)
        nvec = -np.asarray(p2) / math.hypot(*p2)
        fn = float(F[0] @ nvec)
        ft = float(np.linalg.norm(F[0] - fn * nvec))
        assert fn > 0.0 and ft > 0.0
        assert ft <= cfg.friction * fn + 1e-12

    def test_pairwise_forces_cancel(self, rng):
        pos = rng.uniform(-0.1, 0.1, (12, 2))
        w = free_world(pos, velocities=rng.uniform(-1, 1, (12, 2)), radius=0.04)
        F = contact_forces(w, SimConfig())
        assert np.max(np.abs(F.sum(axis=0))) < 1e-12

    def test_damping_reduces_separating_force(self):
        cfg = SimConfig(contact_stiffness=5000.0, contact_damping=5.0)
        approaching = free_world(
            [[0.0, 0.0], [0.06, 0.0]], velocities=[[0.5, 0.0], [-0.5, 0.0]], radius=0.0325
        )
        separating = free_world(
            [[0.0, 0.0], [0.06, 0.0]], velocities=[[-0.5, 0.0], [0.5, 0.0]], radius=0.0325
        )
        Fa = contact_forces(approaching, cfg)[1, 0]
        Fs = contact_forces(separating, cfg)[1, 0]
        assert Fa > 25.0 > Fs

    def test_far_from_origin_matches_origin(self):
        # moving the whole world must not move its contacts; a hit test
        # that expands |a|^2 + |b|^2 - 2 a.b loses the pairs near touching
        cfg = SimConfig()
        w = squeezed_world(cfg, 0.93)
        far = dataclasses.replace(w, pos=w.pos + np.array([1e6, -1e6]))
        F0 = contact_forces(w, cfg)
        assert np.max(np.abs(F0)) > 10.0
        assert np.max(np.abs(contact_forces(far, cfg) - F0)) < 1e-5


class TestNeighbourList:
    @settings(max_examples=150, deadline=None)
    @given(packings())
    def test_hits_equal_brute_force(self, packing):
        w, rng = packing
        assert_list_is_brute_force(w.pos, w.radius)
        cache = _PairCache(w)
        assert_same_pairs(listed_hits(cache, w), brute_force_hits(w.pos, w.radius))
        i, j = listed_hits(cache, w)
        assert not np.any((i == 0) & (j == 1))  # touching exactly is no hit
        assert np.any((i == 2) & (j == 3))  # coincident centres are one
        # moves below half the skin reuse the list and still find every hit
        moved = dataclasses.replace(w, pos=w.pos + rng.uniform(-2.6e-3, 2.6e-3, w.pos.shape))
        assert_same_pairs(listed_hits(cache, moved), brute_force_hits(moved.pos, moved.radius))
        assert cache.builds == 1

    @pytest.mark.filterwarnings("error")  # no overflow while building the grid
    @pytest.mark.parametrize(
        "case", ["swarm_3000", "one_cell", "row_x", "row_y", "at_1e12", "non_finite"]
    )
    def test_list_equals_brute_force_on_hostile_worlds(self, case, rng):
        radius = rng.choice(RADII, 300)
        pos = rng.uniform(-0.5, 0.5, (300, 2))
        if case == "swarm_3000":
            w = build_world(SimConfig(n_boundary=120, n_interior=2880))
            pos, radius = w.pos, w.radius
        elif case == "one_cell":
            pos = rng.uniform(-0.01, 0.01, (300, 2))
        elif case.startswith("row"):
            # some neighbours within the cutoff, some second neighbours too
            pos = np.zeros((300, 2))
            pos[:, int(case == "row_y")] = np.cumsum(rng.uniform(0.04, 0.1, 300))
        elif case == "at_1e12":
            pos[7] = (1e12, 1e12)
        else:
            pos[5:10] = [(1.7e308, -1.7e308), (-1.7e308, 1.7e308), (1.7e308, -1.7e308),
                         (np.nan, 0.0), (np.inf, 0.0)]
        assert assert_list_is_brute_force(pos, radius) > 0

    @pytest.mark.filterwarnings("error")  # no overflow while building the grid
    def test_extreme_and_non_finite_coordinates(self, rng):
        pos = rng.uniform(-0.1, 0.1, (30, 2))
        pos[5] = (1.7e308, -1.7e308)
        pos[6] = (-1.7e308, 1.7e308)
        pos[7] = (np.nan, 0.0)
        pos[8] = (np.inf, 0.0)
        w = free_world(pos, radius=0.04)
        i, j = listed_hits(_PairCache(w), w)
        assert i.size > 0
        assert_same_pairs((i, j), brute_force_hits(w.pos, w.radius))

    @settings(max_examples=150, deadline=None)
    @given(spaced_packings(), st.sampled_from([1.0 - 1e-6, 1.0 + 1e-6, "random"]))
    def test_reused_list_hits_equal_brute_force_around_the_room(self, packing, factor):
        # the tightest listed pair closes by just under or just over the
        # room the list recorded, or every body moves at random
        w, rng, case = packing
        cache = _PairCache(w)
        i, j = cache.i, cache.j
        d = w.pos[i] - w.pos[j]
        gap = np.sqrt(np.einsum("ij,ij->i", d, d)) - (w.radius[i] + w.radius[j])
        if case == "touching":
            assert cache.clear2 < 0.0  # no room: the certificate never holds
        pos = w.pos.copy()
        if factor == "random":
            pos += rng.uniform(-3e-3, 3e-3, pos.shape)
        elif i.size and np.isfinite(gap).any():
            k = int(np.nanargmin(gap))
            margin = CONTACT_ROOM_MARGIN * (w.radius[i[k]] + w.radius[j[k]])
            half_room = 0.5 * factor * (gap[k] - margin)
            toward = d[k] / np.linalg.norm(d[k])
            pos[i[k]] -= half_room * toward
            pos[j[k]] += half_room * toward
        moved = dataclasses.replace(w, pos=pos)
        got = cache.hits(moved)
        assert_same_pairs(got[:2], brute_force_hits(moved.pos, moved.radius))
        assert [a.dtype for a in got] == [np.intp, np.intp, float, float, float]
        assert got[2].shape == (got[0].size, 2)
        if case == "apart" and factor == 1.0 - 1e-6:
            assert got[0].size == 0 and cache.builds == 1

    def test_certificate_skips_only_worlds_without_contacts(self):
        # a built 3000-body world without overlaps leaves room, and a step
        # that moves no body far skips the narrow phase; squeezed, thousands
        # of pairs overlap and the certificate never holds
        cfg = SimConfig(n_boundary=120, n_interior=2880, seed=1)
        w = build_world(cfg)
        cache = _PairCache(w)
        assert cache.clear2 > 0.0 and cache.hits(w) is cache.no_hits
        nudged = dataclasses.replace(w, pos=w.pos + 0.5 * math.sqrt(cache.clear2))
        assert cache.hits(nudged) is cache.no_hits and cache.builds == 1
        squeezed = squeezed_world(cfg, 0.93)
        dense = _PairCache(squeezed)
        assert dense.clear2 < 0.0 and dense.hits(squeezed)[0].size > 3000

    def test_rebuilds_when_radii_or_count_change(self, rng):
        pos = rng.uniform(-0.1, 0.1, (20, 2))
        cache = _PairCache(free_world(pos, radius=0.001))
        grown = free_world(pos, radius=0.03)
        assert_same_pairs(listed_hits(cache, grown), brute_force_hits(grown.pos, grown.radius))
        fewer = free_world(pos[:12], radius=0.03)
        assert_same_pairs(listed_hits(cache, fewer), brute_force_hits(fewer.pos, fewer.radius))
        assert cache.builds == 3

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kick=st.integers(10, 120))
    def test_reused_list_steps_bit_identical(self, seed, kick):
        cfg = small_config(seed=seed % 1000, alpha=3.0)
        w = squeezed_world(cfg, 0.9)
        rng = np.random.default_rng(seed)
        w = dataclasses.replace(w, vel=rng.uniform(-0.5, 0.5, w.vel.shape))
        drv = as_field_driver(Circle((0.0, 0.0), 0.5 * ring_radius_of(w)))
        cache = _PairCache(w)
        fresh = w
        hits = 0
        for k in range(150):
            if k == kick:
                w = apply_disturbance(w, (0.05, -0.03), (0.0, 1.0), (0, 3))
                fresh = apply_disturbance(fresh, (0.05, -0.03), (0.0, 1.0), (0, 3))
            hits += listed_hits(cache, w)[0].size
            w = step(w, cfg, drv, cfg.dt, cache)
            fresh = step(fresh, cfg, drv, cfg.dt, None)
            assert w.pos.tobytes() == fresh.pos.tobytes()
            assert w.vel.tobytes() == fresh.vel.tobytes()
        assert hits > 0 and cache.builds > 2


class TestControlForces:
    def test_zero_on_zero_set_in_squared_mode(self):
        field = as_field_driver(Circle((0.0, 0.0), 0.75))
        w = free_world([[0.75, 0.0]])
        F, u = control_forces(w, field, alpha=1.0, mode="squared")
        assert np.allclose(F, 0.0, atol=1e-15)

    def test_zero_gradient_at_center_in_paper_mode(self):
        field = as_field_driver(Circle((0.0, 0.0), 0.75))
        w = free_world([[0.0, 0.0]])
        F, u = control_forces(w, field, alpha=1.0, mode="paper")
        assert np.allclose(F, 0.0)

    def test_squared_mode_pushes_toward_boundary(self):
        # phi = 0.2083..., grad = (-2/3, 0): u = -phi*grad = (+0.1389, 0) N
        field = as_field_driver(Circle((0.0, 0.0), 0.75))
        w = free_world([[0.5, 0.0]])
        F, u = control_forces(w, field, alpha=1.0, mode="squared")
        assert F[0, 0] == pytest.approx(0.1388888888888889, rel=1e-12)
        assert F[0, 1] == 0.0

    def test_interior_grains_get_zero(self):
        cfg = small_config()
        w = build_world(cfg)
        field = as_field_driver(Circle((0.0, 0.0), ring_radius_of(w)))
        F, u = control_forces(w, field, alpha=1.0, mode="squared")
        assert np.all(F[w.boundary_count:] == 0.0)
        assert u.shape == (w.boundary_count, 2)

    def test_paper_mode_descends_phi(self):
        # paper-literal control pushes down-gradient: outward for an
        # inside-positive field
        field = as_field_driver(Circle((0.0, 0.0), 0.75))
        w = free_world([[0.5, 0.0]])
        F, _ = control_forces(w, field, alpha=1.0, mode="paper")
        assert F[0, 0] > 0.0

    @pytest.mark.parametrize("mode", ["squared", "paper"])
    def test_degenerate_blend_falls_back_per_robot(self, mode, caplog):
        # robots with x > 0 see a degenerate blend; the rest follow the law
        circle = as_field_driver(Circle((0.05, 0.0), 0.3))

        class HalfDegenerate:
            def values_grads(self, q, t):
                bad = q[:, 0] > 0.0
                if bad.any():
                    raise DegenerateBlendError(q[bad], t, bad)
                return circle.values_grads(q, t)

        w = free_world([[0.2, 0.1], [-0.2, 0.1], [0.1, -0.3], [-0.1, -0.2]])
        want, _ = control_forces(w, circle, alpha=1.5, mode=mode)
        prev = np.arange(8.0).reshape(4, 2)
        bad = w.pos[:, 0] > 0.0
        with caplog.at_level(logging.WARNING, logger="shapefield.sim"):
            F, u = control_forces(w, HalfDegenerate(), 1.5, mode, prev)
            F0, _ = control_forces(w, HalfDegenerate(), 1.5, mode)
        assert np.array_equal(F[~bad], want[~bad]) and np.array_equal(u, F)
        assert np.array_equal(F[bad], prev[bad])
        assert np.array_equal(F0[~bad], want[~bad]) and np.all(F0[bad] == 0.0)
        assert any("robots [0, 2]" in r.message for r in caplog.records)


class TestStep:
    def test_no_force_no_motion(self):
        w = free_world([[0.3, -0.2]])
        cfg = SimConfig(drag=0.0)
        w2 = step(w, cfg, None, dt=0.01)
        assert np.array_equal(w2.pos, w.pos)
        assert np.array_equal(w2.vel, w.vel)
        assert w2.time == pytest.approx(0.01)

    def test_constant_force_velocity_exact(self):
        # dyadic constants so the semi-implicit recurrence is exact in
        # binary floating point: v_n = n * (F/m) * dt bit-for-bit
        class ConstantPull:
            """Duck-typed driver: unit force along +x in paper mode."""

            dimension = 2

            def values(self, pts, t):
                return np.zeros(pts.shape[0])

            def values_grads(self, pts, t):
                return np.zeros(pts.shape[0]), np.tile([-1.0, 0.0], (pts.shape[0], 1))

        cfg = SimConfig(drag=0.0, alpha=1.0, control_mode="paper", dt=1.0 / 1024.0)
        w = free_world([[0.0, 0.0]], mass=0.25)
        drv = ConstantPull()
        n = 1000
        for _ in range(n):
            w = step(w, cfg, drv, cfg.dt)
        assert w.vel[0, 0] == n * (1.0 / 0.25) * cfg.dt

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_velocity_is_the_broadcast_formula(self, dimension, rng):
        # v + F * (dt / m[:, None]), byte for byte, with every force term on
        if dimension == 2:
            cfg = small_config(alpha=3.0, grain_mass=0.07)
            w = squeezed_world(cfg, 0.9)
            drv = as_field_driver(Circle((0.0, 0.0), 0.5 * ring_radius_of(w)))
        else:
            cfg = SimConfig(dimension=3, n_boundary=40, n_interior=0)
            w = build_world(cfg)
            drv = as_field_driver(Sphere((0.1, 0.0, 0.0), 0.5))
        w = dataclasses.replace(
            w, vel=rng.uniform(-0.5, 0.5, w.vel.shape), mass=rng.uniform(0.01, 0.3, w.n)
        )
        F = spring_forces(w) + contact_forces(w, cfg)
        F += control_forces(w, drv, cfg.alpha, cfg.control_mode)[0]
        F -= cfg.drag * w.vel
        assert np.count_nonzero(F) > w.n
        want = w.vel + F * (cfg.dt / w.mass[:, None])
        got = step(w, cfg, drv)
        assert got.vel.tobytes() == want.tobytes()
        assert got.pos.tobytes() == (w.pos + want * cfg.dt).tobytes()

    def test_spring_pair_energy_conservation(self):
        # isolated oscillator at dt = 1e-4: energy within 2% over 10 periods
        k, rest, m = 50.0, 0.1, 0.2
        w = free_world(
            [[0.0, 0.0], [0.12, 0.0]],
            mass=m,
            radius=1e-4,
            springs=[(0, 1, k, rest)],
        )
        cfg = SimConfig(drag=0.0, dt=1e-4)

        def energy(world):
            stretch = np.linalg.norm(world.pos[1] - world.pos[0]) - rest
            kinetic = 0.5 * (world.mass[:, None] * world.vel ** 2).sum()
            return kinetic + 0.5 * k * stretch ** 2

        e0 = energy(w)
        period = 2 * math.pi / math.sqrt(k / (m / 2.0))
        steps = int(round(10 * period / cfg.dt))
        worst = 0.0
        cache = _PairCache(w)
        for i in range(steps):
            w = step(w, cfg, None, cfg.dt, cache)
            worst = max(worst, abs(energy(w) - e0) / e0)
        assert worst < 0.02

    def test_divergence_is_reported_with_body(self):
        w = build_world(SimConfig(n_boundary=6, n_interior=0, seed=0))
        pos = w.pos.copy()
        pos[0] *= 1.5  # stretch one link hard
        import dataclasses

        w = dataclasses.replace(w, pos=pos)
        cfg = SimConfig(n_boundary=6, n_interior=0, dt=10.0, drag=0.0)
        cache = _PairCache(w)
        # the guarded overflows of a diverging state warn nothing
        with warnings.catch_warnings(), pytest.raises(SimulationDivergenceError) as err:
            warnings.simplefilter("error", RuntimeWarning)
            for _ in range(2000):
                w = step(w, cfg, None, cfg.dt, cache)
        assert "body 0 has a non-finite spring force" in str(err.value)

    def test_control_blow_up_is_reported(self):
        # phi overflows to -inf far from the circle, so the control force
        # is the first non-finite term
        w = free_world([[1e200, 0.0]])
        drv = as_field_driver(Circle((0.0, 0.0), 0.75))
        with np.errstate(all="ignore"), pytest.raises(SimulationDivergenceError) as err:
            step(w, SimConfig(), drv)
        assert "body 0 has a non-finite control force" in str(err.value)

    def test_momentum_conserved_without_control_and_drag(self, rng):
        cfg = SimConfig(n_boundary=8, n_interior=12, drag=0.0, dt=1e-4, seed=9)
        w = build_world(cfg)
        import dataclasses

        w = dataclasses.replace(
            w, vel=rng.uniform(-0.5, 0.5, w.vel.shape)
        )
        p0 = (w.mass[:, None] * w.vel).sum(axis=0)
        from shapefield.sim import _PairCache

        cache = _PairCache(w)
        for _ in range(10_000):
            w = step(w, cfg, None, cfg.dt, cache)
        p1 = (w.mass[:, None] * w.vel).sum(axis=0)
        assert np.max(np.abs(p1 - p0)) < 1e-9

    def test_spring_topology_never_changes(self):
        cfg = small_config()
        w = build_world(cfg)
        si, sj = w.spring_i.tobytes(), w.spring_j.tobytes()
        for _ in range(50):
            w = step(w, cfg, None)
        assert w.spring_i.tobytes() == si and w.spring_j.tobytes() == sj


class TestTranslationInvariance:
    # Shifting the world and the target by (1e3, -1e3) changes each
    # coordinate's rounding only, so positions (less the shift) and shape
    # errors agree to 100 ulp of the shift's length, about 3.1e-11 m; over
    # these 2500 steps the difference stays near 4e-12.
    SHIFT = np.array([1e3, -1e3])
    TOL = 100.0 * np.finfo(float).eps * float(np.hypot(*SHIFT))

    @pytest.mark.parametrize("n_interior", [0, 12])
    def test_shifted_world_follows_the_same_path(self, n_interior):
        cfg = small_config(n_interior=n_interior)
        # squeezed so that the grains touch: the contact layer takes part
        w = squeezed_world(cfg, 0.9)
        ring = ring_radius_of(w)
        field = Circle((0.05, 0.0), 0.8 * ring)
        moved = Circle(tuple(np.add((0.05, 0.0), self.SHIFT)), 0.8 * ring)
        a, b = w, dataclasses.replace(w, pos=w.pos + self.SHIFT)
        cache_a, cache_b = _PairCache(a), _PairCache(b)
        drv_a, drv_b = as_field_driver(field), as_field_driver(moved)
        hits = 0
        for _ in range(round(cfg.duration / cfg.dt)):
            a = step(a, cfg, drv_a, cfg.dt, cache_a)
            b = step(b, cfg, drv_b, cfg.dt, cache_b)
            hits += listed_hits(cache_a, a)[0].size
            assert np.max(np.abs((b.pos - self.SHIFT) - a.pos)) < self.TOL
            assert abs(shape_error(a, field) - shape_error(b, moved)) < self.TOL
        assert a.time == pytest.approx(1.0)
        assert hits > 0 or n_interior == 0


class TestDisturbance:
    def test_zero_impulse_is_noop(self):
        w = build_world(small_config())
        w2 = apply_disturbance(w, (0.0, 0.0), (0.0, 1.0), (0, 1))
        assert np.array_equal(w2.vel, w.vel)

    def test_velocity_increment(self):
        # 0.1 N s on a 0.2 kg robot -> 0.5 m/s
        w = build_world(small_config())
        w2 = apply_disturbance(w, (0.1, 0.0), (0.0, 1.0), (0,))
        assert w2.vel[0, 0] == pytest.approx(0.5, abs=0.0)
        assert np.all(w2.vel[1:] == 0.0)

    def test_confined_to_window(self):
        import dataclasses

        w = dataclasses.replace(build_world(small_config()), time=20.0)
        w2 = apply_disturbance(w, (0.1, 0.0), (10.0, 15.0), (0,))
        assert np.array_equal(w2.vel, w.vel)

    def test_empty_targets_rejected(self):
        w = build_world(small_config())
        with pytest.raises(ValueError):
            apply_disturbance(w, (0.1, 0.0), (0.0, 1.0), ())

    def test_bad_window_rejected(self):
        w = build_world(small_config())
        with pytest.raises(ValueError):
            apply_disturbance(w, (0.1, 0.0), (5.0, 5.0), (0,))

    def test_out_of_range_targets_rejected(self):
        w = build_world(small_config())
        for targets in ((-1,), (0, w.n), (99,)):
            with pytest.raises(ValueError, match="targets must lie in"):
                apply_disturbance(w, (0.1, 0.0), (0.0, 1.0), targets)

    @pytest.mark.parametrize(
        "impulse, t0, t1, n_pulses, targets",
        [
            ((0.02, 0.0), 0.6, 0.2, 3, (0,)),
            ((0.02, 0.0), 0.4, 0.4, 1, (0,)),
            ((0.02, 0.0), 0.1, float("nan"), 3, (0,)),
            ((0.02, 0.0), 0.1, 0.2, 0, (0,)),
            ((0.02, 0.0), 0.1, 0.2, -2, (0,)),
            ((0.02, 0.0), 0.1, 0.2, 3, ()),
            ((float("nan"), 0.0), 0.1, 0.2, 3, (0,)),
            ((0.02, float("inf")), 0.1, 0.2, 3, (0,)),
        ],
    )
    def test_bad_disturbance_rejected_at_construction(self, impulse, t0, t1, n_pulses, targets):
        with pytest.raises(ValueError):
            Disturbance.evenly(impulse, t0, t1, n_pulses, targets)

    def test_direct_construction_is_checked(self):
        with pytest.raises(ValueError, match="t0 < t1"):
            Disturbance((0.02, 0.0), 0.5, 0.5, (0,), (0.5,))
        with pytest.raises(ValueError, match="empty"):
            Disturbance((0.02, 0.0), 0.1, 0.5, (), (0.3,))

    @pytest.mark.parametrize(
        "impulse, targets, match",
        [
            ((0.02, 0.0), (0, 999), "targets must lie in"),
            ((0.02, 0.0), (-1,), "targets must lie in"),
            ((0.02, 0.0, 0.0), (0,), "impulse must have 2 components"),
        ],
    )
    def test_run_checks_disturbance_before_first_step(self, monkeypatch, impulse, targets, match):
        # the pulse fires at t = 0.5, but the mismatch is known at t = 0
        def no_step(*args, **kwargs):
            raise AssertionError("stepped before checking the disturbance")

        monkeypatch.setattr("shapefield.sim.step", no_step)
        dist = Disturbance.evenly(impulse, 0.5, 0.6, 2, targets)
        with pytest.raises(ValueError, match=match):
            run(small_config(), Circle((0.0, 0.0), 0.3), disturbances=(dist,))


class TestMetrics:
    def test_shape_error_zero_on_zero_set(self):
        w = build_world(SimConfig(n_boundary=12, n_interior=0))
        field = Circle((0.0, 0.0), ring_radius_of(w))
        assert shape_error(w, field) < 1e-12

    def test_shape_error_single_robot_at_center(self):
        w = free_world([[0.0, 0.0]])
        assert shape_error(w, Circle((0.0, 0.0), 0.75)) == 0.375

    def test_shape_error_nonnegative(self, rng):
        w = build_world(small_config())
        assert shape_error(w, Circle((0.3, 0.1), 0.4)) >= 0.0

    def test_com_distance_examples(self):
        w = free_world([[0.0, 0.0], [2.0, 0.0]], mass=1.0)
        assert com_distance(w, (1.0, 0.0)) == 0.0
        assert com_distance(w, (1.0, 3.0)) == 3.0

    def test_shape_error_rejects_a_field_of_another_dimension(self):
        w3 = build_world(SimConfig(dimension=3, n_boundary=162, n_interior=0))
        with pytest.raises(DimensionMismatchError):
            shape_error(w3, Circle((0.0, 0.0), 1.0))
        with pytest.raises(DimensionMismatchError):
            shape_error(build_world(small_config()), Sphere((0.0, 0.0, 0.0), 1.0))


class TestFieldDriver:
    def test_static_and_morph_drivers_reject_wrong_point_dimension(self):
        c = Circle((0.0, 0.0), 1.0)
        for source in (c, MorphSchedule(c, Circle((0.1, 0.0), 1.0), p=1.0)):
            drv = as_field_driver(source)
            for fn in (drv.values, drv.values_grads):
                for pts in (np.zeros((4, 1)), np.zeros((4, 3))):
                    with pytest.raises(DimensionMismatchError):
                        fn(pts, 0.0)


class TestRun:
    def test_zero_duration_single_sample(self):
        cfg = small_config(duration=0.0, target=(0.0, 0.0))
        traj = run(cfg, Circle((0.0, 0.0), 0.5))
        assert traj.times.shape == (1,)
        assert traj.times[0] == 0.0
        assert traj.positions.shape[0] == 1

    def test_times_strictly_increasing(self):
        cfg = small_config(duration=0.5)
        traj = run(cfg, Circle((0.0, 0.0), 0.5))
        assert np.all(np.diff(traj.times) > 0.0)

    def test_determinism_bitwise(self):
        cfg = small_config(duration=0.5, seed=21)
        field = Circle((0.05, 0.0), 0.45)
        a = run(cfg, field)
        b = run(cfg, field)
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.shape_error.tobytes() == b.shape_error.tobytes()

    def test_dt_above_bound_warns_but_runs(self):
        cfg = small_config(duration=0.02, dt=1e-3)  # above the documented bound
        with pytest.warns(RuntimeWarning, match="stability"):
            traj = run(cfg, Circle((0.0, 0.0), 0.5))
        assert np.all(np.isfinite(traj.shape_error))

    def test_squared_mode_descends_phi_squared(self):
        # a single overdamped free robot: phi(q)^2 must be non-increasing
        # between samples once the velocity transient has died out
        field = Circle((0.0, 0.0), 0.75)
        cfg = SimConfig(drag=2.0, alpha=1.0, control_mode="squared", dt=1e-3)
        w = free_world([[0.3, 0.1]])
        drv = as_field_driver(field)
        vals = []
        for i in range(4000):
            w = step(w, cfg, drv, cfg.dt)
            if i % 100 == 0:
                vals.append(field.eval(w.pos[0]) ** 2)
        vals = np.asarray(vals[5:])  # skip the initial transient
        assert np.all(np.diff(vals) <= 1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run(small_config(), Plane((0, 0, 0), (0, 0, 1)))

    def test_run_with_morph_and_disturbances(self):
        cfg = small_config(duration=0.3)
        w = build_world(cfg)
        R = ring_radius_of(w)
        sched = MorphSchedule(Circle((0, 0), R), Circle((0.05, 0), R), p=1.0)
        dist = Disturbance.evenly((0.02, 0.0), 0.1, 0.2, 3, (0, 1))
        traj = run(cfg, sched, disturbances=(dist,))
        assert isinstance(traj, Trajectory)
        assert np.all(np.isfinite(traj.shape_error))


class TestConfigFile:
    def test_round_trip_keys(self):
        text = """
        # comment
        n_boundary = 12
        n_interior = 0
        duration = 2.5       # trailing comment
        seed = 9
        control_mode = paper
        target = 0.15, 0.0
        grain_radii = 0.03, 0.04
        dimension = 2
        drag = 0
        """
        cfg = parse_sim_config(text)
        assert cfg.n_boundary == 12
        assert cfg.duration == 2.5
        assert cfg.control_mode == "paper"
        assert cfg.target == (0.15, 0.0)
        assert cfg.grain_radii == (0.03, 0.04)
        assert cfg.drag == 0.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_sim_config("gravity = 9.81")

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_sim_config("just words")

    @pytest.mark.parametrize(
        "override",
        [
            {"robot_mass": math.inf},
            {"grain_radii": (0.03, math.nan)},
            {"target": (0.0, math.inf)},
            {"max_packing_radius": math.nan},
        ],
    )
    def test_non_finite_values_rejected(self, override):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(**override)

    @pytest.mark.parametrize("radii", [(), (0.03,), (0.03, 0.04, 0.05)])
    def test_grain_radii_must_be_a_pair(self, radii):
        with pytest.raises(ValueError, match="grain_radii"):
            SimConfig(grain_radii=radii)
        text = "grain_radii = " + ", ".join(map(str, radii))
        if radii:
            with pytest.raises(ValueError, match="grain_radii"):
                parse_sim_config(text)

    def test_target_dimension_checked(self):
        with pytest.raises(ValueError, match="target must have 2 coordinates"):
            SimConfig(target=(0.5,))
        with pytest.raises(ValueError, match="target must have 3 coordinates"):
            SimConfig(dimension=3, n_interior=0, target=(0.0, 0.0))

    def test_defaults_match_reference_platform(self):
        cfg = SimConfig()
        assert cfg.n_boundary == 30
        assert cfg.n_interior == 180
        assert cfg.robot_radius == 0.03
        assert cfg.robot_mass == 0.2
        assert cfg.grain_radii[0] == 0.0325
        assert cfg.grain_radii[1] == pytest.approx(0.0325 * math.sqrt(2))
        assert cfg.grain_mass == 0.03
        assert cfg.friction == 0.2
        assert cfg.spring_stiffness == 50.0

    def test_stability_bound_formula(self):
        cfg = SimConfig()
        assert stability_dt_bound(cfg) == pytest.approx(
            0.2 * math.sqrt(0.03 / 5000.0)
        )
        ring_only = SimConfig(n_interior=0)
        assert stability_dt_bound(ring_only) == pytest.approx(
            0.2 * math.sqrt(0.2 / 5000.0)
        )
        # 3-D point agents have no contacts to ring
        assert stability_dt_bound(SimConfig(dimension=3, n_interior=0)) == math.inf
