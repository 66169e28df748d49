"""Deterministic rigid-body simulator for a boundary-constrained granular robot.

The 2-D robot is a closed elastic ring of actively driven boundary disks
(linked by linear springs) around a bed of passive granular disks.  Boundary
robots feel a control force derived from a distance field's gradient; all
bodies interact through penalty contacts with Coulomb friction and a linear
viscous drag.  The field is a static tree or a morph; the simulator reads
either only through ``values(pts, t)`` and ``values_grads(pts, t)``.
Integration is semi-implicit Euler with a fixed body order, so a run is
bit-reproducible from its configuration and seed alone.

Contacts are found through a Verlet neighbour list built from a uniform
cell list, in which each body reads only the forward half of its 3 x 3
cell neighbourhood, so each nearby pair is a candidate once.  The list
holds the pairs within a small skin of touching, is reused while no body
has moved more than half the skin, and each step tests only the listed
pairs, by direct coordinate differences.  Each build also records the
smallest gap between listed bodies, less a rounding margin: while no body
has moved half that far, no listed pair can touch, and a step skips the
narrow phase.  Contact memory is O(n + listed pairs).

The 3-D mode drives independent point agents (no membrane, no grains,
no contacts) with the same control law, which is how the cube-forming demo
operates.

Units are SI throughout: meters, kilograms, seconds, newtons.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .fields import FieldExpr
from .lang import ShapeProgram
from .morph import DegenerateBlendError, MorphSchedule
from .tolerances import (
    CONTACT_COINCIDENT_EPS,
    CONTACT_ROOM_MARGIN,
    CONTACT_SKIN_FRACTION,
    CONTACT_SLIP_EPS,
    SPRING_COINCIDENT_EPS,
    STABILITY_SAFETY,
)

__all__ = [
    "SimConfig",
    "WorldState",
    "Disturbance",
    "Trajectory",
    "PackingError",
    "SimulationDivergenceError",
    "FieldDriver",
    "as_field_driver",
    "build_world",
    "spring_forces",
    "contact_forces",
    "control_forces",
    "step",
    "apply_disturbance",
    "shape_error",
    "com_distance",
    "stability_dt_bound",
    "run",
    "parse_sim_config",
]

log = logging.getLogger(__name__)

_GRAIN_SPACING_MARGIN = 0.05   # hex pitch = 2 r_max (1 + margin)
_GRAIN_JITTER_FRACTION = 0.8   # of the per-grain clearance
_RING_CLEARANCE = 0.01         # gap between packing and ring robots (m)
_RING_PACK_FACTOR = 1.25       # min robot spacing, in robot diameters
_CELL_MARGIN = 1e-6            # relative cell padding: rounding in a cell index
                               # never puts a near pair two cells apart
_MAX_CELLS_PER_AXIS = 1 << 20  # wider worlds get wider cells; keeps int64 keys small


class PackingError(RuntimeError):
    """Interior packing could not fit the requested grain count."""

    def __init__(self, requested: int, achieved: int, message: str):
        self.requested = requested
        self.achieved = achieved
        super().__init__(f"{message} (requested {requested}, achieved {achieved})")


class SimulationDivergenceError(RuntimeError):
    """A body reached a non-finite state; names the body and the force term."""


@dataclass(frozen=True)
class SimConfig:
    """Physical and numerical parameters of a run.

    Defaults follow the reference robot: 30 boundary disks (radius 3 cm,
    mass 200 g) around 180 grains in an equal mixture of radii r and
    sqrt(2) r with r = 3.25 cm and mass 30 g each, friction 0.2, ring
    springs of 50 N/m.  Contact stiffness/damping, drag, thrust, and dt
    are simulation choices, documented here and overridable.
    """

    n_boundary: int = 30
    n_interior: int = 180
    robot_radius: float = 0.03
    robot_mass: float = 0.2
    grain_radii: tuple[float, float] = (0.0325, 0.0325 * math.sqrt(2.0))
    grain_mass: float = 0.03
    friction: float = 0.2
    spring_stiffness: float = 50.0
    alpha: float = 1.0
    control_mode: str = "squared"  # "squared" (-a*phi*grad) or "paper" (-a*grad)
    contact_stiffness: float = 5000.0
    contact_damping: float = 5.0
    drag: float = 2.0
    dt: float = 1e-3
    duration: float = 10.0
    seed: int = 0
    dimension: int = 2
    sample_interval: float = 0.1
    target: tuple[float, ...] | None = None
    spawn_radius: float = 0.7   # 3-D agent shell radius (m)
    max_packing_radius: float | None = None

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")
        if self.control_mode not in ("squared", "paper"):
            raise ValueError(f"unknown control mode {self.control_mode!r}")
        for name in (
            "robot_radius",
            "robot_mass",
            "grain_mass",
            "spring_stiffness",
            "contact_stiffness",
            "dt",
            "sample_interval",
            "spawn_radius",
        ):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("friction", "contact_damping", "drag", "alpha", "duration"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if self.n_boundary < 1 or self.n_interior < 0:
            raise ValueError("body counts out of range")
        if self.dimension == 2 and self.n_boundary < 3:
            raise ValueError("2-D ring needs at least 3 boundary robots")
        if self.dimension == 3 and self.n_interior != 0:
            raise ValueError("3-D mode drives point agents only; set n_interior=0")
        if len(self.grain_radii) != 2 or not all(0.0 < r < math.inf for r in self.grain_radii):
            raise ValueError("grain_radii must be two positive and finite radii")
        if not all(map(math.isfinite, self.target or ())):
            raise ValueError("target must be finite")
        if self.target is not None and len(self.target) != self.dimension:
            raise ValueError(f"target must have {self.dimension} coordinates")
        if self.max_packing_radius is not None and not math.isfinite(self.max_packing_radius):
            raise ValueError("max_packing_radius must be finite")


@dataclass(frozen=True)
class WorldState:
    """Everything the physics reads or updates; arrays are treated as immutable.

    Bodies carry position, velocity, radius and mass only: the model has
    no torques, so there is no orientation.  Body order is fixed: boundary
    robots first (``boundary_count`` of them), then interior grains.  In a
    built 2-D world the boundary robots form one closed spring ring (each
    has exactly two spring neighbors).  ``last_control`` carries the
    previous step's control forces so a degenerate morph blend can fall
    back per robot.
    """

    pos: np.ndarray  # (n, d)
    vel: np.ndarray  # (n, d)
    radius: np.ndarray  # (n,)
    mass: np.ndarray  # (n,)
    boundary_count: int
    spring_i: np.ndarray  # (ns,) int
    spring_j: np.ndarray  # (ns,) int
    spring_k: np.ndarray  # (ns,)
    spring_rest: np.ndarray  # (ns,)
    time: float
    last_control: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.pos.shape[0]

    @property
    def dimension(self) -> int:
        return self.pos.shape[1]


@dataclass(frozen=True)
class Disturbance:
    """External impulse pulses confined to a time window.

    ``impulse`` (N s) is applied to each target body at each time in
    ``times``; times outside [t0, t1] are dropped by the window check.
    The window, the targets and the impulse are checked here; :func:`run`
    checks the target range and the impulse length against its world
    before the first step.
    """

    impulse: tuple[float, ...]
    t0: float
    t1: float
    targets: tuple[int, ...]
    times: tuple[float, ...]

    def __post_init__(self):
        if not self.t0 < self.t1:
            raise ValueError(f"disturbance window must have t0 < t1, got ({self.t0}, {self.t1})")
        if len(self.targets) == 0:
            raise ValueError("disturbance target set is empty")
        if not all(map(math.isfinite, self.impulse)):
            raise ValueError(f"disturbance impulse must be finite, got {self.impulse}")

    @classmethod
    def evenly(cls, impulse, t0: float, t1: float, n_pulses: int, targets):
        """n_pulses (at least one) equally spaced through [t0, t1]."""
        if n_pulses < 1:
            raise ValueError(f"n_pulses must be at least 1, got {n_pulses}")
        times = tuple(np.linspace(t0, t1, n_pulses)) if n_pulses > 1 else (t0,)
        return cls(tuple(impulse), float(t0), float(t1), tuple(targets), times)


@dataclass(frozen=True)
class Trajectory:
    """Sampled run: times are strictly increasing; one row per sample."""

    times: np.ndarray  # (k,)
    positions: np.ndarray  # (k, n, d)
    com: np.ndarray  # (k, d)
    shape_error: np.ndarray  # (k,)
    target_distance: np.ndarray  # (k,), NaN when no target configured
    boundary_count: int
    dimension: int


# ---------------------------------------------------------------------------
# Field drivers: one interface over static fields, morphs, and programs
# ---------------------------------------------------------------------------

class FieldDriver:
    """The simulator's field source, a static tree or a morph, to which each
    method forwards.  It stays a class because every field call of a run
    passes through it, and ``perfbench/spans.py`` times those calls by
    wrapping its two methods by name."""

    def __init__(self, source: FieldExpr | MorphSchedule):
        self.source = source
        self.dimension = source.dimension

    def values(self, pts: np.ndarray, t: float) -> np.ndarray:
        return self.source.values(pts, t)

    def values_grads(self, pts: np.ndarray, t: float):
        return self.source.values_grads(pts, t)


def as_field_driver(program) -> FieldDriver:
    """Build a driver from a FieldExpr, MorphSchedule, or ShapeProgram."""
    if isinstance(program, FieldDriver):
        return program
    if isinstance(program, ShapeProgram):
        source = program.morph_schedule() if program.has_morph else program.field_expr()
        return FieldDriver(source)
    if isinstance(program, (FieldExpr, MorphSchedule)):
        return FieldDriver(program)
    raise TypeError(f"cannot drive the simulator with {type(program).__name__}")


# ---------------------------------------------------------------------------
# World construction
# ---------------------------------------------------------------------------

def _hex_packing(config: SimConfig, rng: np.random.Generator):
    """Jittered hex lattice of grains, radii alternating for an equal mixture."""
    n = config.n_interior
    r_small, r_large = sorted(config.grain_radii)
    pitch = 2.0 * r_large * (1.0 + _GRAIN_SPACING_MARGIN)
    # lattice sized generously from the target count
    est_radius = pitch * math.sqrt(n * math.sqrt(3.0) / (2.0 * math.pi)) + 3.0 * pitch
    rows = int(math.ceil(est_radius / (pitch * math.sqrt(3.0) / 2.0))) + 1
    cols = int(math.ceil(est_radius / pitch)) + 1
    jj, ii = np.meshgrid(
        np.arange(-rows, rows + 1), np.arange(-cols, cols + 1), indexing="ij"
    )
    xs = ((ii + 0.5 * (jj % 2)) * pitch).ravel()
    ys = (jj * (pitch * math.sqrt(3.0) / 2.0)).ravel()
    if xs.size < n:
        raise PackingError(n, xs.size, "hex lattice too small")
    # nearest the centre first; a stable sort keeps ties in (row, column) order
    order = np.argsort(xs * xs + ys * ys, kind="stable")[:n]
    pts = np.stack([xs.take(order), ys.take(order)], axis=1)
    radii = np.where(np.arange(n) % 2 == 0, r_small, r_large)
    clearance = 0.5 * (pitch - 2.0 * r_large)
    jitter = rng.uniform(
        -_GRAIN_JITTER_FRACTION * clearance,
        _GRAIN_JITTER_FRACTION * clearance,
        size=(n, 2),
    )
    pts = pts + jitter
    if config.max_packing_radius is not None:
        extent = np.linalg.norm(pts, axis=1) + radii
        inside = int(np.sum(extent <= config.max_packing_radius))
        if inside < n:
            raise PackingError(n, inside, "packing exceeds max_packing_radius")
    return pts, radii


def _fibonacci_sphere(n: int, radius: float) -> np.ndarray:
    k = np.arange(n, dtype=float)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    z = 1.0 - 2.0 * (k + 0.5) / n
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return radius * np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def build_world(config: SimConfig) -> WorldState:
    """Assemble the initial world; bit-identical for identical configs.

    2-D: grains packed on a seeded jittered hex lattice, boundary robots
    placed uniformly on a circle just enclosing the packing, ring springs
    at rest.  3-D: point agents on a Fibonacci sphere shell, no springs.
    """
    rng = np.random.default_rng(config.seed)
    nb = config.n_boundary
    if config.dimension == 3:
        pos = _fibonacci_sphere(nb, config.spawn_radius)
        return WorldState(
            pos=pos,
            vel=np.zeros_like(pos),
            radius=np.full(nb, config.robot_radius),
            mass=np.full(nb, config.robot_mass),
            boundary_count=nb,
            spring_i=np.zeros(0, dtype=np.intp),
            spring_j=np.zeros(0, dtype=np.intp),
            spring_k=np.zeros(0),
            spring_rest=np.zeros(0),
            time=0.0,
        )

    if config.n_interior > 0:
        grain_pos, grain_radii = _hex_packing(config, rng)
        gx, gy = grain_pos.T
        packing_radius = float(np.max(np.sqrt(gx * gx + gy * gy) + grain_radii))
    else:
        grain_pos = np.zeros((0, 2))
        grain_radii = np.zeros(0)
        packing_radius = 0.0

    min_ring = nb * (2.0 * config.robot_radius) * _RING_PACK_FACTOR / (2.0 * math.pi)
    ring_radius = max(
        packing_radius + config.robot_radius + _RING_CLEARANCE, min_ring
    )
    angles = 2.0 * math.pi * np.arange(nb) / nb
    robot_pos = ring_radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rest = 2.0 * ring_radius * math.sin(math.pi / nb)

    pos = np.concatenate([robot_pos, grain_pos], axis=0)
    radius = np.concatenate([np.full(nb, config.robot_radius), grain_radii])
    mass = np.concatenate(
        [np.full(nb, config.robot_mass), np.full(grain_pos.shape[0], config.grain_mass)]
    )
    return WorldState(
        pos=pos,
        vel=np.zeros_like(pos),
        radius=radius,
        mass=mass,
        boundary_count=nb,
        spring_i=np.arange(nb, dtype=np.intp),
        spring_j=(np.arange(nb, dtype=np.intp) + 1) % nb,
        spring_k=np.full(nb, config.spring_stiffness),
        spring_rest=np.full(nb, rest),
        time=0.0,
    )


def ring_radius_of(world: WorldState) -> float:
    """Radius of the boundary ring as built (robots sit on one circle)."""
    return float(np.linalg.norm(world.pos[0]))


# ---------------------------------------------------------------------------
# Forces
# ---------------------------------------------------------------------------

def spring_forces(world: WorldState) -> np.ndarray:
    """Linear spring forces: k (|d| - rest) along the link, equal/opposite."""
    if world.spring_i.size == 0:
        return np.zeros_like(world.pos)
    dvec = world.pos.take(world.spring_j, axis=0) - world.pos.take(world.spring_i, axis=0)
    with np.errstate(over="ignore"):
        # a diverging state may overflow here; step() reports it right after
        dist = np.sqrt(np.einsum("ij,ij->i", dvec, dvec))
    ok = dist > SPRING_COINCIDENT_EPS
    if not ok.all():
        log.warning(
            "spring endpoints coincide for links %s; zero force applied",
            np.nonzero(~ok)[0].tolist(),
        )
    fmag = np.where(ok, world.spring_k * (dist - world.spring_rest), 0.0)
    with np.errstate(invalid="ignore"):
        scale = fmag / np.where(ok, dist, 1.0)
    return _scatter_pairs(dvec.T * scale, world.spring_i, world.spring_j, world.n)


def _scatter_pairs(pair: np.ndarray, i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Per-body (n, d) sums of +pair on bodies i and -pair on bodies j.

    ``pair`` holds one row per axis, (d, k).  One ``np.bincount`` over
    bins body * d + axis, fed axis by axis, adds each bin's terms in the
    order ``np.add.at`` on i then on j would, so the result is
    bit-identical to that.
    """
    d = pair.shape[0]
    flat = (np.concatenate([i, j]) * d + np.arange(d)[:, None]).ravel()
    terms = np.concatenate([pair, -pair], axis=1).ravel()
    return np.bincount(flat, weights=terms, minlength=n * d).reshape(n, d)


def _near_pairs(pos: np.ndarray, radius: np.ndarray, skin: float):
    """Pairs i < j with |p_i - p_j| < r_i + r_j + skin, sorted by (i, j).

    Broad phase on a uniform cell list over (n, 2) positions: cells are at
    least as wide as the largest cutoff, so a near pair sits in the same or
    an adjacent cell.  Bodies are sorted by row-major cell key; each reads a
    half stencil as two runs of that order, found by binary search: the
    members after it in its own cell plus the next cell of its row, and the
    three cells of the next row around its column.  So each candidate pair
    comes up once, kept by direct coordinate differences.  A world too wide
    for ``_MAX_CELLS_PER_AXIS`` cells per axis gets wider cells, which only
    adds candidates.  Bodies with non-finite coordinates touch nothing.
    """
    none = np.zeros(0, dtype=np.intp)
    x, y = pos.T
    body = np.flatnonzero(np.isfinite(x) & np.isfinite(y))
    cutoff = 2.0 * float(radius.take(body).max(initial=-np.inf)) + skin
    if body.size < 2 or not cutoff > 0.0:
        return none, none
    bx, by = x.take(body), y.take(body)
    # halves keep the span finite for any finite coordinates
    lo_x, lo_y = 0.5 * bx.min(), 0.5 * by.min()
    half_span = max(0.5 * bx.max() - lo_x, 0.5 * by.max() - lo_y)
    half_cell = 0.5 * max(
        cutoff * (1.0 + _CELL_MARGIN), half_span * (2.0 / _MAX_CELLS_PER_AXIS)
    )
    row = np.floor((0.5 * bx - lo_x) / half_cell).astype(np.int64)
    col = np.floor((0.5 * by - lo_y) / half_cell).astype(np.int64)
    # one spare column per row takes the probes of column -1 and of the last + 1
    width = int(col.max()) + 2
    key = row * width + col
    order = np.argsort(key)  # any order within a cell: the pairs are sorted last
    key, body = key.take(order), body.take(order)
    # a body's runs: from just after it to the first of key + 2, and from the
    # first of key + width - 1 to that of key + width + 2 (the next row)
    ends = np.searchsorted(key, key + np.array([[2], [width - 1], [width + 2]]))
    first = np.concatenate([np.arange(1, body.size + 1), ends[1]])
    count = np.concatenate([ends[0], ends[2]]) - first
    a = np.repeat(np.tile(body, 2), count)
    run_start = np.cumsum(count) - count
    b = body.take(np.arange(a.size) - np.repeat(run_start - first, count))
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dy = x.take(a) - x.take(b), y.take(a) - y.take(b)
        reach = radius.take(a) + radius.take(b) + skin
        near = np.flatnonzero(dx * dx + dy * dy < reach * reach)
    a, b = a.take(near), b.take(near)
    i, j = np.minimum(a, b), np.maximum(a, b)
    by_pair = np.argsort(i * pos.shape[0] + j)
    return i.take(by_pair), j.take(by_pair)


class _PairCache:
    """Verlet neighbour list of the contact layer.

    Holds every pair i < j with |p_i - p_j| < r_i + r_j + skin at the
    positions it was built from, with r_i + r_j for each pair; the skin
    is ``CONTACT_SKIN_FRACTION`` of the smallest radius.  While no body
    has moved more than skin/2 since the build, every overlapping pair is
    still on the list, so :meth:`hits` reuses it.  It rebuilds when a body
    moves farther, when the body count changes, or when the radii change.
    ``builds`` counts the builds.

    Each build also records a no-contact certificate.  The room is the
    smallest |p_i - p_j| - (r_i + r_j)(1 + ``CONTACT_ROOM_MARGIN``) over
    the listed pairs, from direct differences; the margin outweighs the
    rounding of every distance and move involved.  Two bodies that each
    moved less than half the room cannot have closed it, so while no body
    has, :meth:`hits` returns no pairs without testing any.  A listed
    pair that touches, or is closer than the margin, leaves no room, and
    the certificate never holds.
    """

    def __init__(self, world: WorldState):
        self.builds = 0
        self._build(world)

    def _build(self, world: WorldState):
        self.pos = world.pos.copy()
        self.radius = world.radius.copy()
        self.skin = CONTACT_SKIN_FRACTION * float(self.radius.min()) if world.n else 0.0
        self.i, self.j = _near_pairs(self.pos, self.radius, self.skin)
        self.rsum = self.radius[self.i] + self.radius[self.j]
        self.rsum2 = self.rsum * self.rsum
        # listed pairs are nearer than their cutoff, so nothing here overflows
        dx, dy = (self.pos.take(self.i, axis=0) - self.pos.take(self.j, axis=0)).T
        gap = np.sqrt(dx * dx + dy * dy) - self.rsum * (1.0 + CONTACT_ROOM_MARGIN)
        room = float(gap.min(initial=np.inf))
        # squared half room; no room admits no move, not even a zero one
        self.clear2 = (0.5 * room) ** 2 if room > 0.0 else -1.0
        empty = self.rsum[:0]
        self.no_hits = (self.i[:0], self.j[:0], self.pos[:0], empty, empty)
        self.builds += 1

    def _moved2(self, world: WorldState) -> float:
        """Largest squared move of a body since the build; inf when the body
        count or the radii changed."""
        if world.pos.shape != self.pos.shape or not np.array_equal(world.radius, self.radius):
            return math.inf
        moved = world.pos - self.pos
        moved *= moved
        return (moved[:, 0] + moved[:, 1]).max()

    def hits(self, world: WorldState):
        """Overlapping pairs of ``world``: (i, j, p_i - p_j, |p_i - p_j|^2, r_i + r_j).

        Pairs come sorted by (i, j), the row-major order of the upper
        triangle, and are exactly those with |p_i - p_j|^2 < (r_i + r_j)^2,
        squared by column as dx dx + dy dy from direct coordinate
        differences.  One index array takes the hits from the list.  While
        the certificate holds, the result is empty arrays of the same
        dtypes and trailing shapes.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            # a diverging state may overflow here; step() reports it right after
            moved2 = self._moved2(world)
            # NaN (a non-finite body) compares False, so it forces a rebuild too
            if not moved2 <= (0.5 * self.skin) ** 2:
                self._build(world)
                moved2 = 0.0
            if moved2 < self.clear2:
                return self.no_hits
            d = world.pos.take(self.i, axis=0) - world.pos.take(self.j, axis=0)
            dx, dy = d.T
            d2 = dx * dx + dy * dy
            hit = np.flatnonzero(d2 < self.rsum2)
        i, j, rsum = self.i, self.j, self.rsum
        return i.take(hit), j.take(hit), d.take(hit, axis=0), d2.take(hit), rsum.take(hit)


def contact_forces(
    world: WorldState, config: SimConfig, cache: _PairCache | None = None
) -> np.ndarray:
    """Penalty contacts with Coulomb friction for every overlapping pair.

    Normal force ``max(k_c * penetration - c_c * separation_rate, 0)``;
    tangential force opposes slip with magnitude clamped to mu |F_n|
    (ramped linearly below CONTACT_SLIP_EPS to avoid chatter).

    Overlapping pairs come from ``cache``, a neighbour list reused across
    steps; without one a fresh list is built for this call.  The force law
    runs on coordinate columns, one length-k array per axis.
    """
    if world.dimension == 3 or world.n < 2:
        return np.zeros_like(world.pos)  # 3-D point agents do not collide
    if cache is None:
        cache = _PairCache(world)
    i, j, dph, d2, rsum = cache.hits(world)
    if i.size == 0:
        return np.zeros_like(world.pos)
    dist = np.sqrt(d2)
    ok = dist > CONTACT_COINCIDENT_EPS
    dist = np.where(ok, dist, 1.0)
    nvec = dph.T / dist  # from j toward i, one row per axis
    nx, ny = nvec
    pen = rsum - dist
    dvx, dvy = (world.vel.take(i, axis=0) - world.vel.take(j, axis=0)).T
    vn = dvx * nx + dvy * ny  # separation rate along the normal
    fn = np.maximum(config.contact_stiffness * pen - config.contact_damping * vn, 0.0)
    fn = np.where(ok, fn, 0.0)
    # the tangent (-ny, nx) is the normal turned a quarter, so that friction
    # has no normal component, not even a rounding one
    vt = dvy * nx - dvx * ny  # signed slip speed along the tangent
    ft = config.friction * fn * np.minimum(1.0, np.abs(vt) / CONTACT_SLIP_EPS)
    slip = np.sign(vt) * ft
    # fn n - slip (-ny, nx), by axis
    pair = fn * nvec
    pair[0] += slip * ny
    pair[1] -= slip * nx
    return _scatter_pairs(pair, i, j, world.n)


def control_forces(
    world: WorldState,
    driver: FieldDriver | None,
    alpha: float,
    mode: str,
    prev: np.ndarray | None = None,
):
    """Gradient control on boundary robots; grains get zero.

    ``paper`` mode is the literal law -alpha grad(phi); ``squared`` mode is
    -alpha phi grad(phi), the descent direction of phi^2/2, which attracts
    to the zero set from both sides.  Returns (full forces, control rows).
    If a morph blend is degenerate at some robot, that robot reuses its
    previous control ``prev``, or gets zero without one (logged).
    """
    F = np.zeros_like(world.pos)
    nb = world.boundary_count
    if driver is None or alpha == 0.0 or nb == 0:
        return F, np.zeros((nb, world.dimension))
    if mode not in ("squared", "paper"):
        raise ValueError(f"unknown control mode {mode!r}")
    q = world.pos[:nb]
    bad = None
    try:
        v, g = driver.values_grads(q, world.time)
    except DegenerateBlendError as err:
        bad = err.mask
        v = np.zeros(nb)
        g = np.zeros((nb, world.dimension))
        if not np.all(bad):
            v[~bad], g[~bad] = driver.values_grads(q[~bad], world.time)
    u = -alpha * v[:, None] * g if mode == "squared" else -alpha * g
    if bad is not None:
        u[bad] = 0.0 if prev is None else prev[bad]
        log.warning(
            "degenerate morph blend at t=%.6f for robots %s; reusing previous control",
            world.time,
            np.nonzero(bad)[0].tolist(),
        )
    F[:nb] = u
    return F, u


def stability_dt_bound(config: SimConfig) -> float:
    """Documented step bound: dt <= 0.2 sqrt(m_min / k_c); infinite in 3-D,
    where point agents have no contact springs to ring."""
    if config.dimension == 3:
        return math.inf
    m_min = config.robot_mass
    if config.n_interior > 0:
        m_min = min(m_min, config.grain_mass)
    return STABILITY_SAFETY * math.sqrt(m_min / config.contact_stiffness)


def step(
    world: WorldState,
    config: SimConfig,
    driver: FieldDriver | None = None,
    dt: float | None = None,
    cache: _PairCache | None = None,
) -> WorldState:
    """One semi-implicit Euler step (v then x), fixed body order.

    Total force = springs + contacts + control - drag * v.  Raises
    :class:`SimulationDivergenceError` naming the body and term if any
    state goes non-finite.
    """
    dt = config.dt if dt is None else dt
    Fs = spring_forces(world)
    Fc = contact_forces(world, config, cache)
    Fu, u = control_forces(
        world, driver, config.alpha, config.control_mode, world.last_control
    )
    F = Fs + Fc
    F += Fu
    F -= config.drag * world.vel
    # v + F (dt / m) by column and in place: the same bits as the (n, 1)
    # broadcast, which numpy would run row by row
    dt_over_m = dt / world.mass
    for col in F.T:
        col *= dt_over_m
    vel = F
    vel += world.vel
    pos = vel * dt
    pos += world.pos
    # a non-finite velocity always gives a non-finite position
    if not np.isfinite(pos).all():
        bad = int(np.nonzero(~np.isfinite(pos).all(axis=1))[0][0])
        term = "state"
        for name, arr in (("spring", Fs), ("contact", Fc), ("control", Fu)):
            if not np.all(np.isfinite(arr[bad])):
                term = name
                break
        raise SimulationDivergenceError(
            f"body {bad} has a non-finite {term} force/state at t={world.time:.6f}"
        )
    return replace(world, pos=pos, vel=vel, time=world.time + dt, last_control=u)


def _pulse_arrays(world: WorldState, impulse, targets):
    """The impulse and target index arrays, checked against ``world``."""
    targets = np.asarray(list(targets), dtype=np.intp)
    if targets.size == 0:
        raise ValueError("disturbance target set is empty")
    if not np.all((targets >= 0) & (targets < world.n)):
        raise ValueError(
            f"disturbance targets must lie in [0, {world.n}), got {targets.tolist()}"
        )
    imp = np.asarray(impulse, dtype=float)
    if imp.shape != (world.dimension,):
        raise ValueError(f"impulse must have {world.dimension} components")
    return imp, targets


def apply_disturbance(
    world: WorldState, impulse, window: tuple[float, float], targets
) -> WorldState:
    """Instantaneous velocity kicks impulse/m on ``targets``.

    ``targets`` are body indices in [0, n); any other index is rejected.
    A no-op when the world clock is outside [t0, t1]: disturbances stay
    confined to their window.
    """
    t0, t1 = window
    if not t0 < t1:
        raise ValueError(f"disturbance window must have t0 < t1, got {window}")
    imp, targets = _pulse_arrays(world, impulse, targets)
    if not (t0 <= world.time <= t1):
        return world
    vel = world.vel.copy()
    vel[targets] += imp / world.mass[targets, None]
    return replace(world, vel=vel)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def shape_error(world: WorldState, field, t: float | None = None) -> float:
    """Mean |phi| over the boundary robots (m); zero when all sit on the zero set."""
    driver = as_field_driver(field)
    t = world.time if t is None else t
    v = driver.values(world.pos[: world.boundary_count], t)
    return float(np.mean(np.abs(v)))


def com_distance(world: WorldState, target) -> float:
    """Distance from the mass-weighted center of all bodies to ``target``."""
    com = (world.mass[:, None] * world.pos).sum(axis=0) / world.mass.sum()
    return float(np.linalg.norm(com - np.asarray(target, dtype=float)))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run(
    config: SimConfig,
    program,
    disturbances: tuple[Disturbance, ...] = (),
    return_world: bool = False,
):
    """Build a world and step it for ``config.duration``, sampling metrics.

    ``program`` may be a FieldExpr, MorphSchedule, ShapeProgram, or
    FieldDriver.  Identical (config, program, disturbances) give
    bit-identical trajectories.  With ``return_world`` the final
    :class:`WorldState` is returned alongside the trajectory.
    """
    driver = as_field_driver(program)
    if driver.dimension != config.dimension:
        raise ValueError(
            f"field is {driver.dimension}-D but the simulation is {config.dimension}-D"
        )
    world = build_world(config)
    for d in disturbances:
        _pulse_arrays(world, d.impulse, d.targets)
    cache = _PairCache(world) if config.dimension == 2 else None
    if config.dt > stability_dt_bound(config):
        warnings.warn(
            f"dt={config.dt} exceeds the documented stability bound "
            f"{stability_dt_bound(config):.2e}; contacts may ring",
            RuntimeWarning,
            stacklevel=2,
        )

    pulses = sorted(
        ((t, d) for d in disturbances for t in d.times), key=lambda p: p[0]
    )
    pulse_idx = 0

    n_steps = int(round(config.duration / config.dt))
    sample_every = max(1, int(round(config.sample_interval / config.dt)))

    times = []
    positions = []
    errors = []

    def record(w: WorldState):
        times.append(w.time)
        positions.append(w.pos.copy())
        errors.append(shape_error(w, driver))

    record(world)
    for k in range(n_steps):
        while pulse_idx < len(pulses) and pulses[pulse_idx][0] <= world.time + 1e-12:
            t_pulse, d = pulses[pulse_idx]
            world = apply_disturbance(world, d.impulse, (d.t0, d.t1), d.targets)
            pulse_idx += 1
        world = step(world, config, driver, config.dt, cache)
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            record(world)

    com = np.array(
        [
            (world.mass[:, None] * p).sum(axis=0) / world.mass.sum()
            for p in positions
        ]
    )
    if config.target is None:
        dists = [math.nan] * len(times)
    else:
        target = np.asarray(config.target, dtype=float)
        dists = [float(np.linalg.norm(c - target)) for c in com]
    traj = Trajectory(
        times=np.asarray(times),
        positions=np.asarray(positions),
        com=com,
        shape_error=np.asarray(errors),
        target_distance=np.asarray(dists),
        boundary_count=world.boundary_count,
        dimension=world.dimension,
    )
    if return_world:
        return traj, world
    return traj


# ---------------------------------------------------------------------------
# Flat key=value configuration files
# ---------------------------------------------------------------------------

_TUPLE_KEYS = {"grain_radii", "target"}
_INT_KEYS = {"n_boundary", "n_interior", "seed", "dimension"}
_STR_KEYS = {"control_mode"}


def parse_sim_config(text: str) -> SimConfig:
    """Parse a flat ``key = value`` config file into a :class:`SimConfig`.

    Unknown keys are rejected.  Tuples use commas: ``target = 0.15, 0.0``.
    """
    valid = set(SimConfig.__dataclass_fields__)
    overrides: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in valid:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in _STR_KEYS:
            overrides[key] = value
        elif key in _TUPLE_KEYS:
            overrides[key] = tuple(float(v) for v in value.split(","))
        elif key in _INT_KEYS:
            overrides[key] = int(value)
        elif key == "max_packing_radius":
            overrides[key] = None if value.lower() == "none" else float(value)
        else:
            overrides[key] = float(value)
    return SimConfig(**overrides)
