"""Simulator: world construction, forces, integration, metrics, determinism."""

import dataclasses
import logging
import math
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapefield.fields import Circle, DimensionMismatchError, Plane, Sphere
from shapefield.lang import parse
from shapefield.morph import DegenerateBlendError, MorphSchedule
from shapefield.sim import (
    Disturbance,
    PackingError,
    SimConfig,
    SimulationDivergenceError,
    Trajectory,
    WorldState,
    _CELL_MARGIN,
    _DENSE_CELLS_PER_BODY,
    _GRAIN_SPACING_MARGIN,
    _PairCache,
    _center_of_mass,
    _first_step_at,
    _hex_packing,
    _hex_sites,
    _near_pairs,
    _scatter_bins,
    _scatter_pairs,
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
from shapefield.tolerances import CONTACT_ROOM_MARGIN, CONTACT_SKIN_FRACTION, PULSE_STEP_TOL

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
    in blocks, each against the columns from its first row on, so that
    n x n arrays never exist."""
    rows, cols = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, pos.shape[0], 256):
            diff = pos[lo:lo + 256, None, :] - pos[None, lo:, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            reach = radius[lo:lo + 256, None] + radius[None, lo:] + skin
            i, j = np.nonzero(np.triu(d2 < reach * reach, k=1))
            rows.append(i + lo)
            cols.append(j + lo)
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


def own_rooms(cache, world):
    """Each body's room, pair by pair: the smallest gap |p_i - p_j| - (r_i +
    r_j)(1 + margin) among its listed pairs, or the skin, which every listed
    gap is below, for a body without one."""
    room = np.full(world.n, cache.skin)
    for a, b in zip(cache.i, cache.j):
        dx, dy = world.pos[a] - world.pos[b]
        gap = math.sqrt(dx * dx + dy * dy) - (world.radius[a] + world.radius[b]) * (
            1.0 + CONTACT_ROOM_MARGIN
        )
        room[a], room[b] = min(room[a], gap), min(room[b], gap)
    return room


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
def spaced_packings(draw, cases=("apart", "at_1e12", "touching", "nan")):
    """Jittered square grids of mixed radii in which no two bodies touch and
    neighbours sit within the list's skin, so the no-contact certificate
    can hold.  Optionally the grid sits at 1e12 m, bodies 0 and 1 touch
    exactly, one body is NaN, or ("lone") bodies 0 and 1 sit a metre or
    more from the grid and from each other, so that neither has a listed
    pair."""
    side = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radius = rng.choice(RADII, side * side)
    spacing = 2.0 * max(RADII) + draw(st.floats(2e-4, 6e-3))
    free = 0.5 * (spacing - 2.0 * max(RADII))
    grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)), axis=-1).reshape(-1, 2)
    pos = grid * spacing + rng.uniform(-0.4 * free, 0.4 * free, grid.shape)
    case = draw(st.sampled_from(cases))
    if case == "at_1e12":
        pos += (1e12, -1e12)
    elif case == "touching":
        pos[1] = pos[0] + (radius[0] + radius[1], 0.0)
    elif case == "nan":
        pos[draw(st.integers(0, side * side - 1))] = (np.nan, 0.0)
    elif case == "lone":
        pos[:2] = [(-1.0, -1.0), (-1.0, 1.0)]
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

    def test_lattice_memo_cold_and_warm_runs_are_byte_identical(self):
        # the swarm benchmark's 3000-body operation, first with an empty memo
        cfg = SimConfig(n_boundary=120, n_interior=2880, seed=3, duration=0.02, target=(0.15, 0.0))
        field = Circle((0.15, 0.0), 1.6)
        _hex_sites.cache_clear()
        with pytest.warns(RuntimeWarning, match="stability"):
            cold = run(cfg, field)
        assert _hex_sites.cache_info().misses == 1
        with pytest.warns(RuntimeWarning, match="stability"):
            warm = run(cfg, field)
        assert _hex_sites.cache_info().hits == 1
        for name in ("times", "positions", "com", "shape_error", "target_distance"):
            assert getattr(cold, name).tobytes() == getattr(warm, name).tobytes()

    def test_memoized_lattice_is_read_only_and_equals_a_fresh_one(self):
        r_small, r_large = SimConfig().grain_radii
        entry = _hex_sites(180, r_small, r_large)
        fresh = _hex_sites.__wrapped__(180, r_small, r_large)
        sites, radii, clearance = entry
        assert sites.tobytes() == fresh[0].tobytes() and radii.tobytes() == fresh[1].tobytes()
        assert clearance == fresh[2]
        with pytest.raises(ValueError, match="read-only"):
            sites[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            radii[0] = 1.0
        # a built world owns its arrays
        w = build_world(SimConfig(seed=4))
        w.pos[-1, 0] += 1.0
        w.radius[-1] = 1.0
        assert _hex_sites(180, r_small, r_large)[0].tobytes() == fresh[0].tobytes()

    def test_configs_with_other_grain_radii_do_not_share_an_entry(self):
        _hex_sites.cache_clear()
        base = build_world(SimConfig(seed=2))
        wider = build_world(SimConfig(seed=2, grain_radii=(0.0325, 0.05)))
        smaller = build_world(SimConfig(seed=2, grain_radii=(0.02, 0.0325 * math.sqrt(2.0))))
        assert _hex_sites.cache_info().currsize == 3
        assert base.pos.tobytes() != wider.pos.tobytes()
        assert not np.array_equal(base.radius, smaller.radius)
        # the sites and the jitter follow r_large only; the ring follows the radii
        assert smaller.pos[30:].tobytes() == base.pos[30:].tobytes()
        # the pair's order does not matter, nor whether it is given as ints
        swapped = build_world(SimConfig(seed=2, grain_radii=tuple(reversed(SimConfig().grain_radii))))
        assert _hex_sites.cache_info().currsize == 3
        assert swapped.pos.tobytes() == base.pos.tobytes()
        ints = build_world(SimConfig(n_interior=40, grain_radii=(1, 2)))
        floats = build_world(SimConfig(n_interior=40, grain_radii=(1.0, 2.0)))
        assert ints.radius.tobytes() == floats.radius.tobytes()
        assert ints.pos.tobytes() == floats.pos.tobytes()

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
        # a cache built for other links scatters by this world's links
        other = free_world(pos, springs=[(0, 1, 50.0, 0.05)])
        assert spring_forces(w, _PairCache(other)).tobytes() == want.tobytes()

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
        got = _scatter_pairs(pair.T, _scatter_bins(i, j, 2), w.n)
        assert got.shape == (w.n, 2) and got.flags.c_contiguous
        assert got.tobytes() == add_at_reference(pair, i, j, w.n).tobytes()

    def test_three_component_rows_match_add_at(self, rng):
        n = 11
        i, j = rng.integers(0, n, (2, 300))
        pair = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-6, 7, (300, 1))
        got = _scatter_pairs(pair.T, _scatter_bins(i, j, 3), n)
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

    def test_sparse_world_binary_searches_and_equals_brute_force(self, rng):
        # 300 bodies over a 1 km square, four pairs of them overlapping: the
        # cell keys span far more cells per body than a cell-start table may
        # hold, so the list's runs come from binary search
        radius = rng.choice(RADII, 300)
        pos = rng.uniform(0.0, 1000.0, (300, 2))
        for a in range(0, 8, 2):
            pos[a + 1] = pos[a] + (0.9 * (radius[a] + radius[a + 1]), 0.0)
        skin = CONTACT_SKIN_FRACTION * float(radius.min())
        cell = (2.0 * float(radius.max()) + skin) * (1.0 + _CELL_MARGIN)
        rows, cols = np.floor((pos.max(axis=0) - pos.min(axis=0)) / cell) + 1.0
        assert rows * (cols + 2.0) > _DENSE_CELLS_PER_BODY * 300
        assert assert_list_is_brute_force(pos, radius) >= 4
        w = free_world(pos, radius=radius)
        i, j = listed_hits(_PairCache(w), w)
        assert i.size >= 4
        assert_same_pairs((i, j), brute_force_hits(pos, radius))

    @pytest.mark.parametrize(
        "n_boundary, n_interior, seed",
        [
            (nb, ni, seed)
            for nb, ni in ((30, 180), (60, 940), (120, 2880), (200, 5800))
            for seed in (1, 2, 3)
        ]
        # swarm_3000 seed 1000 overlaps as built, so its certificate never holds
        + [(120, 2880, 1000)],
    )
    def test_list_equals_brute_force_on_built_worlds(self, n_boundary, n_interior, seed):
        w = build_world(SimConfig(n_boundary=n_boundary, n_interior=n_interior, seed=seed))
        assert assert_list_is_brute_force(w.pos, w.radius) > w.n // 2
        cache = _PairCache(w)
        assert_same_pairs(listed_hits(cache, w), brute_force_hits(w.pos, w.radius))
        # the sums and the bounds the build recorded, recomputed from positions
        i, j = cache.i, cache.j
        rsum = w.radius[i] + w.radius[j]
        assert cache.rsum.tobytes() == rsum.tobytes()
        assert cache.rsum2.tobytes() == (rsum * rsum).tobytes()
        half = 0.5 * np.maximum(own_rooms(cache, w), 0.0)
        assert cache.bound2.tobytes() == (half * half).tobytes()
        if seed == 1000:
            assert cache.bound2.min() == 0.0 and listed_hits(cache, w)[0].size > 0

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
            # no room: bodies 0 and 1 may not move at all
            assert cache.bound2[0] == cache.bound2[1] == 0.0
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
        assert cache.bound2.min() > 0.0 and cache.hits(w) is cache.no_hits
        nudged = dataclasses.replace(w, pos=w.pos + 0.5 * math.sqrt(cache.bound2.min()))
        assert cache.hits(nudged) is cache.no_hits and cache.builds == 1
        squeezed = squeezed_world(cfg, 0.93)
        dense = _PairCache(squeezed)
        assert dense.bound2.min() == 0.0 and dense.hits(squeezed)[0].size > 3000

    @settings(max_examples=150, deadline=None)
    @given(spaced_packings(cases=("apart", "at_1e12", "touching", "nan", "lone")),
           st.sampled_from([1.0 - 1e-6, 1.0 + 1e-6, "random"]), st.floats(0.1, 1.0))
    def test_hits_equal_brute_force_around_each_bodys_room(self, packing, factor, share):
        # a random share of the bodies each move by just under or just over
        # half their own room, the smallest gap among their listed pairs,
        # while the rest stay put, as robots move around resting grains; or
        # every body moves at random.  In the "lone" case bodies 0 and 1,
        # without a listed pair, move too, by just under or just over half
        # the skin, the bound of a body without one
        w, rng, case = packing
        cache = _PairCache(w)
        room = own_rooms(cache, w)
        lone = np.zeros(w.n, bool)
        if case == "lone":
            assert not np.isin([0, 1], np.concatenate([cache.i, cache.j])).any()
            lone[:2] = True
        pos = w.pos.copy()
        movers = np.flatnonzero((rng.random(w.n) < share) | lone)
        if factor == "random":
            pos += rng.uniform(-3e-3, 3e-3, pos.shape)
        else:
            angle = rng.uniform(0.0, 2.0 * math.pi, movers.size)
            # no mover but a lone body reaches half the skin, which would
            # rebuild the list
            cap = np.where(lone[movers], 1.0, 1.0 - 1e-6) * cache.skin
            reach = 0.5 * np.minimum(room[movers], cap)
            step_len = factor * np.where(room[movers] > 0.0, reach, 0.0)
            pos[movers] += (step_len * np.stack([np.cos(angle), np.sin(angle)])).T
        moved = dataclasses.replace(w, pos=pos)
        got = cache.hits(moved)
        assert_same_pairs(got[:2], brute_force_hits(moved.pos, moved.radius))
        assert got[2].shape == (got[0].size, 2)
        if case in ("apart", "lone") and factor == 1.0 - 1e-6:
            # every mover stayed within its own bound: no pair tested
            assert got[0].size == 0 and cache.builds == 1 and cache.narrow_steps == 0
        if case == "lone" and factor == 1.0 + 1e-6:
            assert cache.builds == 2  # past half the skin: the list is rebuilt

    @settings(max_examples=40, deadline=None)
    @given(spaced_packings(cases=("apart",)), st.floats(0.5, 0.99), st.floats(0.0, 1.0))
    def test_resting_grains_and_clear_robots_skip_every_narrow_test(self, packing, reach, share):
        # a share of the bodies with more than the smallest room (the robots)
        # drift at constant speed, each covering ``reach`` of half its own
        # room in 30 steps, and the rest rest: no step tests a listed pair,
        # and each step has the bits of a step on a fresh list
        w, rng, _ = packing
        cache = _PairCache(w)
        room = own_rooms(cache, w)
        cfg = SimConfig(drag=0.0, dt=4e-4)
        steps = 30
        robots = (rng.random(w.n) < share) & (room > room.min())
        angle = rng.uniform(0.0, 2.0 * math.pi, w.n)
        speed = np.where(robots, reach * 0.5 * room / (steps * cfg.dt), 0.0)
        vel = (speed * np.stack([np.cos(angle), np.sin(angle)])).T
        w = fresh = dataclasses.replace(w, vel=vel)
        for _ in range(steps):
            w = step(w, cfg, None, cache)
            fresh = step(fresh, cfg, None, None)
            assert w.pos.tobytes() == fresh.pos.tobytes()
            assert w.vel.tobytes() == fresh.vel.tobytes()
        assert cache.narrow_steps == 0 and cache.builds == 1
        assert brute_force_hits(w.pos, w.radius)[0].size == 0

    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_a_morph_run_skips_every_narrow_test(self, seed):
        # the wrench morph's first 300 steps: the robots move past the
        # smallest bound within them, the grains rest, and each body's own
        # bound keeps the narrow phase skipped; each step has the bits of a
        # step on a fresh list
        data = resources.files("shapefield") / "data"
        cfg = parse_sim_config((data / "configs" / "formation_2d.cfg").read_text())
        cfg = dataclasses.replace(cfg, seed=seed)
        drv = as_field_driver(parse((data / "shapes" / "wrench_morph.shape").read_text()))
        w = fresh = build_world(cfg)
        cache = _PairCache(w)
        for _ in range(300):
            w = step(w, cfg, drv, cache)
            fresh = step(fresh, cfg, drv, None)
            assert w.pos.tobytes() == fresh.pos.tobytes()
            assert w.vel.tobytes() == fresh.vel.tobytes()
        moved2 = np.max(np.sum((w.pos - cache.pos) ** 2, axis=1))
        assert moved2 >= cache.bound2.min() > 0.0  # past the smallest bound
        assert cache.narrow_steps == 0 and cache.builds == 1

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
                vel = w.vel.copy()
                vel[[0, 3]] += np.array([0.05, -0.03]) / w.mass[[0, 3], None]
                w = dataclasses.replace(w, vel=vel)
                fresh = dataclasses.replace(fresh, vel=vel.copy())
            hits += listed_hits(cache, w)[0].size
            w = step(w, cfg, drv, cache)
            fresh = step(fresh, cfg, drv, None)
            assert w.pos.tobytes() == fresh.pos.tobytes()
            assert w.vel.tobytes() == fresh.vel.tobytes()
        assert hits > 0 and cache.builds > 2


class TestControlForces:
    def test_zero_on_zero_set_in_squared_mode(self):
        field = as_field_driver(Circle((0.0, 0.0), 0.75))
        w = free_world([[0.75, 0.0]])
        u = control_forces(w, SimConfig(alpha=1.0, control_mode="squared"), field)
        assert np.allclose(u, 0.0, atol=1e-15)

    def test_zero_gradient_at_center_in_paper_mode(self):
        field = as_field_driver(Circle((0.0, 0.0), 0.75))
        w = free_world([[0.0, 0.0]])
        u = control_forces(w, SimConfig(alpha=1.0, control_mode="paper"), field)
        assert np.allclose(u, 0.0)

    def test_squared_mode_pushes_toward_boundary(self):
        # phi = 0.2083..., grad = (-2/3, 0): u = -phi*grad = (+0.1389, 0) N
        field = as_field_driver(Circle((0.0, 0.0), 0.75))
        w = free_world([[0.5, 0.0]])
        u = control_forces(w, SimConfig(alpha=1.0, control_mode="squared"), field)
        assert u[0, 0] == pytest.approx(0.1388888888888889, rel=1e-12)
        assert u[0, 1] == 0.0

    def test_interior_grains_get_zero(self):
        # grains get no control: only the robots have rows, and step adds
        # nothing to the grains' forces
        cfg = small_config()
        w = build_world(cfg)
        assert w.n > w.boundary_count
        field = as_field_driver(Circle((0.0, 0.0), ring_radius_of(w)))
        u = control_forces(w, SimConfig(alpha=1.0, control_mode="squared"), field)
        assert u.shape == (w.boundary_count, 2)
        with_control = step(w, small_config(alpha=1.0), field)
        without = step(w, small_config(alpha=0.0), field)
        grains = slice(w.boundary_count, None)
        assert with_control.vel[grains].tobytes() == without.vel[grains].tobytes()

    def test_paper_mode_descends_phi(self):
        # paper-literal control pushes down-gradient: outward for an
        # inside-positive field
        field = as_field_driver(Circle((0.0, 0.0), 0.75))
        w = free_world([[0.5, 0.0]])
        u = control_forces(w, SimConfig(alpha=1.0, control_mode="paper"), field)
        assert u[0, 0] > 0.0

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
        cfg = SimConfig(alpha=1.5, control_mode=mode)
        want = control_forces(w, cfg, circle)
        prev = np.arange(8.0).reshape(4, 2)
        bad = w.pos[:, 0] > 0.0
        with caplog.at_level(logging.WARNING, logger="shapefield.sim"):
            u = control_forces(dataclasses.replace(w, last_control=prev), cfg, HalfDegenerate())
            u0 = control_forces(w, cfg, HalfDegenerate())
        assert np.array_equal(u[~bad], want[~bad])
        assert np.array_equal(u[bad], prev[bad])
        assert np.array_equal(u0[~bad], want[~bad]) and np.all(u0[bad] == 0.0)
        assert any("robots [0, 2]" in r.message for r in caplog.records)


class TestStep:
    def test_no_force_no_motion(self):
        w = free_world([[0.3, -0.2]])
        cfg = SimConfig(drag=0.0)
        w2 = step(w, dataclasses.replace(cfg, dt=0.01), None)
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
            w = step(w, cfg, drv)
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
        F[: w.boundary_count] += control_forces(w, cfg, drv)
        F -= cfg.drag * w.vel
        assert np.count_nonzero(F) > w.n
        want = w.vel + F * (cfg.dt / w.mass[:, None])
        got = step(w, cfg, drv)
        assert got.vel.tobytes() == want.tobytes()
        assert got.pos.tobytes() == (w.pos + want * cfg.dt).tobytes()

    def test_cache_keeps_step_constants_per_mass_dt_and_springs(self, rng):
        # one cache through worlds with other masses, another dt and a
        # reordered ring: each step has the bits of a step without a cache
        cfg = small_config(alpha=3.0)
        w = squeezed_world(cfg, 0.9)
        w = dataclasses.replace(w, vel=rng.uniform(-0.5, 0.5, w.vel.shape))
        drv = as_field_driver(Circle((0.0, 0.0), 0.5 * ring_radius_of(w)))
        cache = _PairCache(w)
        stepped = step(w, cfg, drv, cache)
        assert cache.dt_over_m(stepped, cfg.dt) is cache.dt_over_m(w, cfg.dt)
        assert cache.spring_bins(stepped) is cache.spring_bins(w)
        heavier = dataclasses.replace(w, mass=rng.uniform(0.01, 0.3, w.n))
        rolled = dataclasses.replace(
            w, spring_i=np.roll(w.spring_i, 1), spring_j=np.roll(w.spring_j, 1)
        )
        for world, c in (
            (w, cfg),
            (w, dataclasses.replace(cfg, dt=2e-4)),
            (heavier, cfg),
            (rolled, cfg),
            (stepped, cfg),
        ):
            got, want = step(world, c, drv, cache), step(world, c, drv)
            assert got.vel.tobytes() == want.vel.tobytes()
            assert got.pos.tobytes() == want.pos.tobytes()

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
            w = step(w, cfg, None, cache)
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
                w = step(w, cfg, None, cache)
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
            w = step(w, cfg, None, cache)
        p1 = (w.mass[:, None] * w.vel).sum(axis=0)
        assert np.max(np.abs(p1 - p0)) < 1e-9

    def test_spring_topology_never_changes(self):
        cfg = small_config()
        w = build_world(cfg)
        si, sj = w.spring_i.tobytes(), w.spring_j.tobytes()
        for _ in range(50):
            w = step(w, cfg, None)
        assert w.spring_i.tobytes() == si and w.spring_j.tobytes() == sj

    def test_stepped_world_shares_the_arrays_it_never_updates(self):
        # the identity, not just equal values: _PairCache checks the radius
        # array by identity before comparing it, on every step of a run
        cfg = small_config()
        w = build_world(cfg)
        cache = _PairCache(w)
        drv = as_field_driver(Circle((0.0, 0.0), 0.5))
        for _ in range(3):
            w1 = step(w, cfg, drv, cache)
            updated = {"pos", "vel", "time", "last_control"}
            for field in dataclasses.fields(WorldState):
                if field.name not in updated:
                    assert getattr(w1, field.name) is getattr(w, field.name), field.name
            assert w1.time == w.time + cfg.dt and w1.last_control.shape == (cfg.n_boundary, 2)
            assert cache.radius_of is w1.radius
            w = w1


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
            a = step(a, cfg, drv_a, cache_a)
            b = step(b, cfg, drv_b, cache_b)
            hits += listed_hits(cache_a, a)[0].size
            assert np.max(np.abs((b.pos - self.SHIFT) - a.pos)) < self.TOL
            assert abs(shape_error(a, field) - shape_error(b, moved)) < self.TOL
        assert a.time == pytest.approx(1.0)
        assert hits > 0 or n_interior == 0


class TestRotationInvariance:
    # A quarter turn, (x, y) -> (-y, x), is exact in floating point.  Under
    # it every sum of a step keeps its operands or swaps them, and every
    # difference keeps or negates them, so the turned world follows the
    # turned path to the bit, and == holds (it takes -0.0 for 0.0).  The
    # field is centred on the origin, so the turn maps it onto itself.

    @staticmethod
    def turn(a):
        return np.stack([-a[:, 1], a[:, 0]], axis=1)

    @staticmethod
    def turn_back(a):
        return np.stack([a[:, 1], -a[:, 0]], axis=1)

    @pytest.mark.parametrize("n_interior", [0, 12])
    def test_turned_world_follows_the_turned_path(self, n_interior, rng):
        cfg = small_config(n_interior=n_interior)
        # squeezed so that the grains touch: the contact layer takes part;
        # random velocities give friction a slip to work on
        w = squeezed_world(cfg, 0.9)
        w = dataclasses.replace(w, vel=rng.uniform(-0.2, 0.2, w.vel.shape))
        field = Circle((0.0, 0.0), 0.8 * ring_radius_of(w))
        a = w
        b = dataclasses.replace(w, pos=self.turn(w.pos), vel=self.turn(w.vel))
        cache_a, cache_b = _PairCache(a), _PairCache(b)
        drv = as_field_driver(field)
        hits = 0
        for _ in range(round(cfg.duration / cfg.dt)):
            a = step(a, cfg, drv, cache_a)
            b = step(b, cfg, drv, cache_b)
            hits += listed_hits(cache_a, a)[0].size
            assert np.array_equal(self.turn_back(b.pos), a.pos)
            assert np.array_equal(self.turn_back(b.vel), a.vel)
            assert shape_error(a, field) == shape_error(b, field)
        assert a.time == pytest.approx(1.0)
        assert hits > 0 or n_interior == 0
        assert cache_a.builds == cache_b.builds


def ring_config(**kw):
    # a spring ring with no grains, control or drag: only pulses change its
    # momentum, and dt = 1e-3 is below its stability bound
    base = dict(n_boundary=8, n_interior=0, alpha=0.0, drag=0.0, dt=1e-3)
    base.update(kw)
    return SimConfig(**base)


def velocities_before_each_step(monkeypatch, cfg, disturbances):
    """The velocities each step of ``run`` starts from, under a step that
    only advances the clock, so that what changes them is a pulse's kick."""
    seen = []

    def clock_only(world, config, driver, cache):
        seen.append(world.vel.copy())
        return dataclasses.replace(world, time=world.time + config.dt)

    monkeypatch.setattr("shapefield.sim.step", clock_only)
    run(cfg, Circle((0.0, 0.0), 0.3), disturbances=disturbances)
    return np.asarray(seen)


class TestDisturbance:
    def test_zero_impulse_is_noop(self):
        cfg = small_config(duration=0.1)
        field = Circle((0.0, 0.0), 0.3)
        dist = Disturbance((0.0, 0.0), 0.0, 1.0, (0, 1), (0.0, 0.04))
        a = run(cfg, field, disturbances=(dist,))
        b = run(cfg, field)
        assert a.positions.tobytes() == b.positions.tobytes()

    def test_velocity_increment(self, monkeypatch):
        # 0.1 N s on a 0.2 kg robot -> 0.5 m/s, before the first step
        dist = Disturbance((0.1, 0.0), 0.0, 1.0, (0,), (0.0,))
        seen = velocities_before_each_step(monkeypatch, small_config(duration=0.01), (dist,))
        assert seen[0, 0, 0] == 0.5
        assert np.all(seen[0, 1:] == 0.0) and seen[0, 0, 1] == 0.0

    def test_confined_to_window(self, monkeypatch):
        dist = Disturbance((0.1, 0.0), 0.1, 0.2, (0,), (0.05, 0.25))
        seen = velocities_before_each_step(monkeypatch, small_config(duration=0.3), (dist,))
        assert np.all(seen == 0.0)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Disturbance((0.1, 0.0), 0.0, 1.0, (), (0.5,))

    @pytest.mark.parametrize("targets, repeated", [((0, 0), 0), ((3, 1, 4, 1), 1), ((2, 5, 2, 5), 2)])
    def test_repeated_target_rejected(self, targets, repeated):
        # numpy's fancy-index += kicks a repeated body once, not once per
        # listing, so a repeated target would silently lose impulse
        with pytest.raises(ValueError, match=f"target {repeated} is repeated"):
            Disturbance((0.02, 0.0), 0.0, 1.0, targets, (0.0,))
        with pytest.raises(ValueError, match="repeated"):
            Disturbance.evenly((0.02, 0.0), 0.0, 1.0, 3, targets)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="t0 < t1"):
            Disturbance((0.1, 0.0), 5.0, 5.0, (0,), (5.0,))

    def test_out_of_range_targets_rejected(self):
        cfg = small_config(duration=0.01)
        n = build_world(cfg).n
        for targets in ((-1,), (0, n), (99,)):
            dist = Disturbance((0.1, 0.0), 0.0, 1.0, targets, (0.0,))
            with pytest.raises(ValueError, match="targets must lie in"):
                run(cfg, Circle((0.0, 0.0), 0.3), disturbances=(dist,))

    @pytest.mark.parametrize(
        "t0, t1, times",
        [
            (0.1, 0.4, (math.nan, 0.3)),
            (0.1, 0.4, (0.3, math.inf)),
            (-math.inf, 0.4, (0.3,)),
        ],
    )
    def test_non_finite_window_or_time_rejected(self, t0, t1, times):
        # a NaN time sorted first and, never reached, held back every later pulse
        with pytest.raises(ValueError, match="finite"):
            Disturbance((0.06, 0.04), t0, t1, (0,), times)

    @pytest.mark.parametrize(
        "disturbances, momentum",
        [
            # three pulses on two targets, the last at t1 itself
            ((Disturbance.evenly((0.02, -0.01), 0.1, 0.2, 3, (0, 2)),), (0.12, -0.06)),
            # the pulses before t0 and after t1 add nothing
            ((Disturbance((0.02, -0.01), 0.1, 0.2, (0, 2), (0.05, 0.15, 0.25)),), (0.04, -0.02)),
            # two disturbances whose pulses land on step 101
            (
                (
                    Disturbance((0.02, 0.0), 0.1, 0.2, (0,), (0.1005,)),
                    Disturbance((0.0, 0.03), 0.1, 0.2, (0, 1), (0.101,)),
                ),
                (0.02, 0.06),
            ),
        ],
    )
    def test_momentum_budget_counts_every_pulse(self, disturbances, momentum):
        traj, w = run(
            ring_config(duration=0.3), Circle((0.0, 0.0), 0.3),
            disturbances=disturbances, return_world=True,
        )
        p = (w.mass[:, None] * w.vel).sum(axis=0)
        assert p == pytest.approx(momentum, abs=1e-12)

    def test_pulse_fires_before_first_step_at_or_after_its_time(self, monkeypatch):
        # the acceptance-criterion schedule: pulses at 10, 11, ..., 15 s
        kicks = Disturbance.evenly((0.06, 0.04), 10.0, 15.0, 6, (0, 4))
        same_step = (
            Disturbance((0.02, 0.0), 0.1, 0.2, (0,), (0.1005,)),
            Disturbance((0.0, 0.03), 0.1, 0.2, (0, 1), (0.101,)),
        )
        seen = velocities_before_each_step(
            monkeypatch, ring_config(duration=15.5), (kicks, *same_step)
        )
        fired = np.nonzero(np.any(np.diff(seen, axis=0) != 0.0, axis=(1, 2)))[0] + 1
        assert fired.tolist() == [101, 10000, 11000, 12000, 13000, 14000, 15000]
        assert np.all(seen[100] == 0.0)
        assert seen[101, :2].tolist() == [[0.02 / 0.2, 0.03 / 0.2], [0.0, 0.03 / 0.2]]

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

    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 1000, 5000])
    def test_center_of_mass_has_the_row_sum_bits(self, n, dimension, rng):
        def reference(mass, pos):
            return (mass[:, None] * pos).sum(axis=0) / mass.sum()

        mass = rng.uniform(0.01, 0.3, n)
        for magnitude in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            stack = magnitude * (rng.standard_normal((3, n, dimension)) + rng.uniform(-2.0, 2.0))
            got = _center_of_mass(mass, stack)
            assert got.shape == (3, dimension)
            for k, pos in enumerate(stack):
                want = reference(mass, pos)
                assert got[k].tobytes() == want.tobytes()
                assert _center_of_mass(mass, pos).tobytes() == want.tobytes()

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

    @pytest.mark.parametrize(
        "duration, steps",
        # 6.25, 0.4 and 50.5 steps of 0.4 ms, a hair over 2, a hair under 3
        [(0.0025, 7), (1.6e-4, 1), (0.0202, 51), (8e-4 * (1.0 + 1e-9), 2),
         (1.2e-3 * (1.0 - 1e-9), 3), (1e-12, 0)],
    )
    def test_runs_the_fewest_whole_steps_that_reach_the_duration(self, duration, steps):
        cfg = small_config(duration=duration, sample_interval=4e-4)
        traj = run(cfg, Circle((0.0, 0.0), 0.5))
        assert traj.times.size == steps + 1  # a sample at every step
        # the last sample reaches the duration, within the tolerance of a step
        assert traj.times[-1] >= duration - PULSE_STEP_TOL * cfg.dt

    @pytest.mark.parametrize(
        "interval, every", [(1.0, 1), (2.0, 2), (1.5, 2), (2.5, 3), (3.5, 4)]
    )
    def test_samples_every_fewest_steps_that_reach_the_interval(self, interval, every):
        # in steps of 0.4 ms: an interval between whole steps samples at the
        # first step at or after it, as the duration ends, not at the
        # nearest one rounded half to even; the last step is sampled too
        cfg = small_config(duration=25 * 4e-4, sample_interval=interval * 4e-4)
        traj = run(cfg, Circle((0.0, 0.0), 0.5))
        steps = np.round(traj.times / cfg.dt).astype(int).tolist()
        assert steps == list(range(0, 26, every)) + ([25] if 25 % every else [])

    def test_whole_step_durations_keep_their_step_count(self):
        # 0.01 s to 60 s in 10-ms steps, and every count of steps up to
        # 2 * 10^5, at both shipped step sizes: the rounded count, as before
        for dt in (1e-3, 4e-4):
            for k in range(1, 6001):
                duration = k / 100.0
                assert _first_step_at(duration, dt) == round(duration / dt), (duration, dt)
            for k in range(200_001):
                assert _first_step_at(k * dt, dt) == k, (k, dt)

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
            w = step(w, cfg, drv)
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

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError, match=r"^config line 3: key 'seed' is repeated$"):
            parse_sim_config("seed = 1\n# a comment\nseed = 2\n")

    @pytest.mark.parametrize(
        "key, value",
        [("dimension", "3.0"), ("drag", "fast"), ("target", "0, zero"),
         ("max_packing_radius", "wide")],
    )
    def test_bad_value_names_its_line(self, key, value):
        with pytest.raises(ValueError, match=rf"^config line 2: bad {key}: "):
            parse_sim_config(f"seed = 1\n{key} = {value}\n")

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
