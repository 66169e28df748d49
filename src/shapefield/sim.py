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
cell neighbourhood, so each nearby pair is a candidate once.  Bodies are
sorted by cell, and each cell's first slot is read from a dense cell-start
table, one ``bincount`` and ``cumsum`` over the sorted keys, whenever the
table holds at most ``_DENSE_CELLS_PER_BODY`` cells per body, as every
built world does; a wide or sparse world, such as one with a body far
from the rest, binary-searches its sorted keys instead.  The broad phase
tests its candidates on copies of the coordinates and radii gathered once
into cell order, and hands back the listed pairs' squared distances and
radius sums, from which the list forms its contact sums without a second
gather.  The list holds the pairs within a small skin of touching, is
reused while no body has moved more than half the skin, and each step
tests only the listed pairs, by direct coordinate differences.  Each build
also records one bound per body: half the smallest gap among its listed
pairs, less a rounding margin, and at most half the skin.  While every
body has moved less than its bound, no pair can touch, and a step skips
the narrow phase, as in a resting world or in a morph run whose robots
move while its grains rest.  Contact memory is O(n + listed pairs).

The same object keeps what a run's steps share and never change: dt / m as
an (n, d) array and the spring ring's scatter bins.  A step without one
builds the same arrays for itself, so both give the same bits.  A run's
centres of mass are summed in one pass over its stacked samples.

The 2-D grain packing's hex lattice sites depend only on the grain count
and radii, so a small cache keeps them; each world draws only its seeded
jitter.

The 3-D mode drives independent point agents (no membrane, no grains,
no contacts) with the same control law, which is how the cube-forming demo
operates.

Units are SI throughout: meters, kilograms, seconds, newtons.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
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
    PULSE_STEP_TOL,
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
_DENSE_CELLS_PER_BODY = 4      # a cell-start table at most this long per body; built
                               # worlds need 1.06-1.35, sparser ones binary-search
_CONTROL_MODES = ("squared", "paper")  # the laws control_forces applies
_INT_SETTINGS = ("n_boundary", "n_interior", "seed", "dimension")  # kept as Python ints


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
        for name in _INT_SETTINGS:
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")
        if self.control_mode not in _CONTROL_MODES:
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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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
    ``times`` that lies in [t0, t1]; :func:`run` leaves the other times
    out of its schedule, so they never fire.  The window, the times, the
    targets and the impulse are checked here.  Targets must be integers,
    kept as Python ints, and distinct: a pulse gives each listed body one
    impulse, and listing a body twice would not give it two.  :func:`run`
    checks the target range and the impulse length against its world
    before the first step.
    """

    impulse: tuple[float, ...]
    t0: float
    t1: float
    targets: tuple[int, ...]
    times: tuple[float, ...]

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t0, self.t1, *self.times))):
            raise ValueError(
                f"disturbance window and times must be finite, got "
                f"({self.t0}, {self.t1}) and {self.times}"
            )
        if not self.t0 < self.t1:
            raise ValueError(f"disturbance window must have t0 < t1, got ({self.t0}, {self.t1})")
        if len(self.targets) == 0:
            raise ValueError("disturbance target set is empty")
        seen = {}  # the targets as Python ints, in order
        for target in self.targets:
            try:
                index = operator.index(target)
            except TypeError:
                raise ValueError(f"disturbance target {target!r} is not an integer") from None
            if index in seen:
                raise ValueError(
                    f"disturbance target {index} is repeated in {self.targets}; "
                    f"each target takes the impulse once per pulse"
                )
            seen[index] = None
        object.__setattr__(self, "targets", tuple(seen))
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

@functools.lru_cache(maxsize=8)
def _hex_sites(n: int, r_small: float, r_large: float):
    """The n hex lattice sites nearest the centre, their radii alternating
    for an equal mixture, and the clearance each grain has to its site's
    neighbours.  Only the jitter depends on the seed, so the sites are
    memoized; the arrays are read-only, since every caller shares them."""
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
    # nearest the centre first; a stable sort keeps ties in (row, column) order
    order = np.argsort(xs * xs + ys * ys, kind="stable")[:n]
    sites = np.stack([xs.take(order), ys.take(order)], axis=1)
    radii = np.where(np.arange(n) % 2 == 0, r_small, r_large)
    sites.flags.writeable = radii.flags.writeable = False
    return sites, radii, 0.5 * (pitch - 2.0 * r_large)


def _hex_packing(config: SimConfig, rng: np.random.Generator):
    """Jittered hex lattice of grains, radii alternating for an equal mixture."""
    n = config.n_interior
    # as floats: radii given as ints would share a float entry's key, not its dtype
    sites, radii, clearance = _hex_sites(n, *sorted(map(float, config.grain_radii)))
    jitter = rng.uniform(
        -_GRAIN_JITTER_FRACTION * clearance,
        _GRAIN_JITTER_FRACTION * clearance,
        size=(n, 2),
    )
    pts = sites + jitter
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
    at rest.  3-D: point agents on a Fibonacci sphere shell, no grains, no
    springs.  Each branch supplies its robots, grains and links only.
    """
    rng = np.random.default_rng(config.seed)
    nb = config.n_boundary
    grain_pos, grain_radii = np.zeros((0, config.dimension)), np.zeros(0)
    if config.dimension == 3:
        robot_pos = _fibonacci_sphere(nb, config.spawn_radius)
        links, rest = 0, 0.0
    else:
        if config.n_interior > 0:
            grain_pos, grain_radii = _hex_packing(config, rng)
        gx, gy = grain_pos.T
        packing_radius = float(np.max(np.sqrt(gx * gx + gy * gy) + grain_radii, initial=0.0))
        min_ring = nb * (2.0 * config.robot_radius) * _RING_PACK_FACTOR / (2.0 * math.pi)
        ring_radius = max(packing_radius + config.robot_radius + _RING_CLEARANCE, min_ring)
        angles = 2.0 * math.pi * np.arange(nb) / nb
        robot_pos = ring_radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        links, rest = nb, 2.0 * ring_radius * math.sin(math.pi / nb)

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
        spring_i=np.arange(links, dtype=np.intp),
        spring_j=(np.arange(links, dtype=np.intp) + 1) % nb,
        spring_k=np.full(links, config.spring_stiffness),
        spring_rest=np.full(links, rest),
        time=0.0,
    )


def ring_radius_of(world: WorldState) -> float:
    """Radius of the boundary ring as built (robots sit on one circle)."""
    return float(np.linalg.norm(world.pos[0]))


# ---------------------------------------------------------------------------
# Forces
# ---------------------------------------------------------------------------

def spring_forces(world: WorldState, cache: _PairCache | None = None) -> np.ndarray:
    """Linear spring forces: k (|d| - rest) along the link, equal/opposite.

    The scatter bins of the links come from ``cache``, which keeps them for
    a run; without one they are built for this call.
    """
    if world.spring_i.size == 0:
        return np.zeros(world.pos.shape)
    dvec = world.pos.take(world.spring_j, axis=0) - world.pos.take(world.spring_i, axis=0)
    # a diverging state may overflow here; step() reports it right after
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.sqrt(np.einsum("ij,ij->i", dvec, dvec))
        ok = dist > SPRING_COINCIDENT_EPS
        if np.count_nonzero(ok) == ok.size:
            scale = world.spring_k * (dist - world.spring_rest) / dist
        else:
            log.warning(
                "spring endpoints coincide for links %s; zero force applied",
                np.nonzero(~ok)[0].tolist(),
            )
            fmag = np.where(ok, world.spring_k * (dist - world.spring_rest), 0.0)
            scale = fmag / np.where(ok, dist, 1.0)
    bins = _spring_bins(world) if cache is None else cache.spring_bins(world)
    return _scatter_pairs(dvec.T * scale, bins, world.n)


_AXIS_COLUMN = np.arange(3)[:, None]  # axis offsets of the scatter's bins


def _scatter_bins(i: np.ndarray, j: np.ndarray, d: int) -> np.ndarray:
    """The bins body * d + axis of :func:`_scatter_pairs`, axis by axis:
    first for every i, then for every j."""
    return (np.concatenate([i, j]) * d + _AXIS_COLUMN[:d]).ravel()


def _spring_bins(world: WorldState) -> np.ndarray:
    return _scatter_bins(world.spring_i, world.spring_j, world.dimension)


def _dt_over_m(world: WorldState, dt: float) -> np.ndarray:
    """dt / m as an (n, d) array, one column per axis."""
    return np.repeat((dt / world.mass)[:, None], world.dimension, axis=1)


def _scatter_pairs(pair: np.ndarray, bins: np.ndarray, n: int) -> np.ndarray:
    """Per-body (n, d) sums of +pair on bodies i and -pair on bodies j.

    ``pair`` holds one row per axis, (d, k), and ``bins`` are
    ``_scatter_bins(i, j, d)``.  One ``np.bincount`` over those bins, fed
    axis by axis, adds each bin's terms in the order ``np.add.at`` on i
    then on j would, so the result is bit-identical to that.
    """
    d = pair.shape[0]
    terms = np.concatenate([pair, -pair], axis=1).ravel()
    return np.bincount(bins, weights=terms, minlength=n * d).reshape(n, d)


def _near_pairs(pos: np.ndarray, radius: np.ndarray, skin: float):
    """Pairs i < j with |p_i - p_j| < r_i + r_j + skin, sorted by (i, j):
    (i, j, |p_i - p_j|^2, r_i + r_j).

    Broad phase on a uniform cell list over (n, 2) positions: cells are at
    least as wide as the largest cutoff, so a near pair sits in the same or
    an adjacent cell.  Bodies are sorted by row-major cell key, and their
    coordinates and radii are copied once into that order.  Each body reads
    a half stencil as two runs of the copies: the members after it in its
    own cell plus the next cell of its row, and the three cells of the next
    row around its column.  The runs' ends come from a cell-start table,
    the running count of bodies per key, when the keys probed span at most
    ``_DENSE_CELLS_PER_BODY`` cells per body; otherwise, as in a world with
    one body far from the rest, from binary search over the sorted keys,
    which costs no memory per empty cell.  Both give the same slots.  So
    each candidate pair comes up once, and is tested on nearly contiguous
    reads of the copies by direct coordinate differences, squared as
    dx dx + dy dy.  The listed pairs keep those squared distances and
    radius sums, which have the bits of the same sums taken in (i, j)
    order.  A world too wide for ``_MAX_CELLS_PER_AXIS`` cells per axis
    gets wider cells, which only adds candidates.  Bodies with non-finite
    coordinates touch nothing; when every body is finite, none is gathered
    out.
    """
    none = np.zeros(0, dtype=np.intp)
    x, y = pos.T
    finite = np.isfinite(x) & np.isfinite(y)
    if np.count_nonzero(finite) == finite.size:
        body, bx, by, br = None, x, y, radius
    else:
        body = np.flatnonzero(finite)
        bx, by, br = x.take(body), y.take(body), radius.take(body)
    cutoff = 2.0 * float(br.max(initial=-np.inf)) + skin
    if br.size < 2 or not cutoff > 0.0:
        return none, none, np.zeros(0), np.zeros(0)
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
    key = key.take(order)
    body = order if body is None else body.take(order)
    # cell-ordered copies: the candidates of one run sit side by side
    cx, cy, cr = bx.take(order), by.take(order), br.take(order)
    # a slot's runs: from just after it to the first of key + 2, and from the
    # first of key + width - 1 to that of key + width + 2 (the next row)
    cells = int(key[-1]) + width + 2
    if cells <= _DENSE_CELLS_PER_BODY * key.size:
        # the count of bodies in cells up to c is the first slot of cell c + 1
        upto = np.cumsum(np.bincount(key, minlength=cells))
        ends = upto.take(key + np.array([[1], [width - 2], [width + 1]]))
    else:
        ends = np.searchsorted(key, key + np.array([[2], [width - 1], [width + 2]]))
    first = np.concatenate([np.arange(1, body.size + 1), ends[1]])
    count = np.concatenate([ends[0], ends[2]]) - first
    a = np.repeat(np.tile(np.arange(body.size), 2), count)
    b = np.repeat(first - (np.cumsum(count) - count), count)
    b += np.arange(b.size)
    # dx dx + dy dy, then (r_a + r_b + skin)^2, in place with one scratch
    # array: arrays as long as the candidate list are most of the memory
    # here, and each fresh one costs the allocator new pages
    with np.errstate(over="ignore", invalid="ignore"):
        d2, scratch = cx.take(a), cx.take(b)
        d2 -= scratch
        d2 *= d2
        cy.take(a, out=scratch)
        scratch -= cy.take(b)
        scratch *= scratch
        d2 += scratch
        rsum = cr.take(a)
        rsum += cr.take(b, out=scratch)
        np.add(rsum, skin, out=scratch)
        scratch *= scratch
        near = np.flatnonzero(d2 < scratch)
    a, b = body.take(a.take(near)), body.take(b.take(near))
    i, j = np.minimum(a, b), np.maximum(a, b)
    by_pair = np.argsort(i * pos.shape[0] + j)
    near = near.take(by_pair)
    return i.take(by_pair), j.take(by_pair), d2.take(near), rsum.take(near)


class _PairCache:
    """What a run keeps between steps: the contact layer's Verlet neighbour
    list, and two arrays that the steps of a run share and never change.

    The list holds every pair i < j with |p_i - p_j| < r_i + r_j + skin
    at the positions it was built from, with r_i + r_j for each pair; the
    skin is ``CONTACT_SKIN_FRACTION`` of the smallest radius.  Each build
    also records one bound per body.  A listed pair's gap is
    |p_i - p_j| - (r_i + r_j)(1 + ``CONTACT_ROOM_MARGIN``), from direct
    differences; the margin outweighs the rounding of every distance and
    move involved.  A body may move half its smallest listed gap, capped
    at half the skin, and ``bound2`` holds that distance squared; a listed
    pair that touches, or is closer than the margin, leaves its bodies a
    bound of 0, which admits no move, not even a zero one.  On each call
    :meth:`hits` does one of three things:

    - while every body has moved less than its bound, no listed pair can
      have closed its gap and no unlisted pair its skin, so it returns no
      pairs without testing any;
    - while no body has moved more than skin/2, every overlapping pair is
      still on the list, so it tests the listed pairs;
    - otherwise, or when the body count changes or the radius array is
      not the one the list was built for, it rebuilds the list, and then
      tests as above.

    Every listed gap is below the skin, so the cap binds only on bodies
    without a listed pair; it keeps every body inside its bound also
    inside half the skin, so the first test never holds on a stale list.
    ``builds`` counts the builds, and ``narrow_steps`` the calls that
    tested the listed pairs.

    :meth:`dt_over_m` keeps dt / m as an (n, d) array, and
    :meth:`spring_bins` the spring links' scatter bins: the arrays a step
    without a cache builds for itself.  Each is kept while the world
    arrays it comes from are the same objects, and dt / m while dt is the
    same, and is built again otherwise; the arrays of a world are treated
    as immutable, and a step hands them on to the next world.
    """

    def __init__(self, world: WorldState):
        self.builds = self.narrow_steps = 0
        self._build(world)
        self._mass_of = self._dt = self._i_of = self._j_of = None

    def dt_over_m(self, world: WorldState, dt: float) -> np.ndarray:
        """dt / m as an (n, d) array; see :func:`_dt_over_m`."""
        if world.mass is not self._mass_of or dt != self._dt:
            self._mass_of, self._dt = world.mass, dt
            self._scale = _dt_over_m(world, dt)
        return self._scale

    def spring_bins(self, world: WorldState) -> np.ndarray:
        """The scatter bins of the spring links; see :func:`_scatter_bins`."""
        if world.spring_i is not self._i_of or world.spring_j is not self._j_of:
            self._i_of, self._j_of = world.spring_i, world.spring_j
            self._bins = _spring_bins(world)
        return self._bins

    def _build(self, world: WorldState):
        self.pos = world.pos.copy()
        # the radius array the list was built for; a run's worlds share it
        self.radius_of = world.radius
        self.skin = CONTACT_SKIN_FRACTION * float(world.radius.min()) if world.n else 0.0
        self.i, self.j, d2, self.rsum = _near_pairs(self.pos, world.radius, self.skin)
        self.rsum2 = self.rsum * self.rsum
        # listed pairs are nearer than their cutoff, so nothing here overflows
        half_gap = 0.5 * (np.sqrt(d2) - self.rsum * (1.0 + CONTACT_ROOM_MARGIN))
        bound = np.full(world.n, 0.5 * self.skin)
        np.minimum.at(bound, self.i, half_gap)
        np.minimum.at(bound, self.j, half_gap)
        # a pair without room leaves its bodies 0, which no move is below
        np.maximum(bound, 0.0, out=bound)
        self.bound2 = bound * bound
        self._move2 = np.empty(world.n)
        empty = self.rsum[:0]
        self.no_hits = (self.i[:0], self.j[:0], self.pos[:0], empty, empty)
        self.builds += 1

    def _moved2(self, world: WorldState) -> np.ndarray | None:
        """Each body's squared move since the build, or None when the body
        count changed or the radius array is not the list's."""
        if world.pos.shape != self.pos.shape or world.radius is not self.radius_of:
            return None
        moved = world.pos - self.pos
        moved *= moved
        return np.add(moved[:, 0], moved[:, 1], out=self._move2)

    def hits(self, world: WorldState):
        """Overlapping pairs of ``world``: (i, j, p_i - p_j, |p_i - p_j|^2, r_i + r_j).

        Pairs come sorted by (i, j), the row-major order of the upper
        triangle, and are exactly those with |p_i - p_j|^2 < (r_i + r_j)^2,
        squared by column as dx dx + dy dy from direct coordinate
        differences.  One index array takes the hits from the list.  While
        every body is inside its bound, the result is empty arrays of the
        same dtypes and trailing shapes.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            # a diverging state may overflow here; step() reports it right after
            move2 = self._moved2(world)
            # NaN (a non-finite body) compares False in both tests, so it
            # forces a rebuild
            if move2 is not None and (move2 < self.bound2).all():
                return self.no_hits
            if move2 is None or not move2.max() <= (0.5 * self.skin) ** 2:
                self._build(world)
                if (self.bound2 > 0.0).all():  # as built, no body has moved
                    return self.no_hits
            self.narrow_steps += 1
            d = world.pos.take(self.i, axis=0) - world.pos.take(self.j, axis=0)
            dx, dy = d.T
            d2 = dx * dx + dy * dy
            hit = np.flatnonzero(d2 < self.rsum2)
        if hit.size == 0:
            return self.no_hits
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
        return np.zeros(world.pos.shape)  # 3-D point agents do not collide
    if cache is None:
        cache = _PairCache(world)
    i, j, dph, d2, rsum = cache.hits(world)
    if i.size == 0:
        return np.zeros(world.pos.shape)
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
    return _scatter_pairs(pair, _scatter_bins(i, j, 2), world.n)


def control_forces(world: WorldState, config: SimConfig, driver: FieldDriver | None):
    """Gradient control on the boundary robots: their (nb, d) control rows.

    The law is ``config.control_mode`` with thrust ``config.alpha``:
    ``paper`` mode is the literal law -alpha grad(phi); ``squared`` mode is
    -alpha phi grad(phi), the descent direction of phi^2/2, which attracts
    to the zero set from both sides.  The field is read at ``world.time``.
    Grains get no control, so they have no rows; a robot's row is the force
    on ``world.pos[i]``, i < nb.  If a morph blend is degenerate at some
    robot, that robot reuses its row of ``world.last_control``, or gets
    zero without one (logged).
    """
    nb = world.boundary_count
    alpha = config.alpha
    if driver is None or alpha == 0.0 or nb == 0:
        return np.zeros((nb, world.dimension))
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
    u = -alpha * v[:, None] * g if config.control_mode == "squared" else -alpha * g
    if bad is not None:
        prev = world.last_control
        u[bad] = 0.0 if prev is None else prev[bad]
        log.warning(
            "degenerate morph blend at t=%.6f for robots %s; reusing previous control",
            world.time,
            np.nonzero(bad)[0].tolist(),
        )
    return u


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
    cache: _PairCache | None = None,
) -> WorldState:
    """One semi-implicit Euler step (v then x) of ``config.dt``, fixed body order.

    Total force = springs + contacts + control - drag * v, the contacts
    found through ``cache`` when given (see :func:`contact_forces`); the
    cache also keeps the step's dt / m and spring scatter bins.
    Raises :class:`SimulationDivergenceError` naming the body and term if
    any state goes non-finite.
    """
    dt = config.dt
    F = spring_forces(world, cache)
    Fc = contact_forces(world, config, cache)
    u = control_forces(world, config, driver)
    # summed in the fresh array spring_forces returns; the grains have no
    # control rows
    F += Fc
    F[: world.boundary_count] += u
    F -= config.drag * world.vel
    # v + F (dt / m) in place, through dt / m as an (n, d) array: one
    # contiguous multiply with the bits of the (n, 1) broadcast, which
    # numpy would run row by row
    F *= _dt_over_m(world, dt) if cache is None else cache.dt_over_m(world, dt)
    vel = F
    vel += world.vel
    pos = vel * dt
    pos += world.pos
    # a non-finite velocity always gives a non-finite position
    finite = np.isfinite(pos)
    if np.count_nonzero(finite) != finite.size:
        bad = int(np.nonzero(~finite.all(axis=1))[0][0])
        term = "state"
        # the spring forces were summed in place, so they are evaluated again
        for name, arr in (("spring", spring_forces(world)), ("contact", Fc), ("control", u)):
            if bad < len(arr) and not np.all(np.isfinite(arr[bad])):
                term = name
                break
        raise SimulationDivergenceError(
            f"body {bad} has a non-finite {term} force/state at t={world.time:.6f}"
        )
    # built directly, not with dataclasses.replace, which costs about three
    # times as much; the shared radius array keeps _PairCache's identity check
    return WorldState(
        pos, vel, world.radius, world.mass, world.boundary_count,
        world.spring_i, world.spring_j, world.spring_k, world.spring_rest,
        world.time + dt, u,
    )


def _pulse_kicks(world: WorldState, disturbances, dt: float) -> dict:
    """The velocity kicks ``(targets, impulse / mass)`` of every pulse,
    keyed by the index k of the step they fire before, the step that
    :func:`_first_step_at` gives for the pulse time.  Pulse times outside their window are
    left out.  Kicks on one step keep the order of their times, then of
    their disturbances.  Targets and impulses are checked against ``world``."""
    pulses = []
    for d in disturbances:
        targets = np.asarray(d.targets, dtype=np.intp)
        if not np.all((targets >= 0) & (targets < world.n)):
            raise ValueError(
                f"disturbance targets must lie in [0, {world.n}), got {targets.tolist()}"
            )
        imp = np.asarray(d.impulse, dtype=float)
        if imp.shape != (world.dimension,):
            raise ValueError(f"impulse must have {world.dimension} components")
        kick = (targets, imp / world.mass[targets, None])
        pulses += [(t, kick) for t in d.times if d.t0 <= t <= d.t1]
    kicks = {}
    for t, kick in sorted(pulses, key=lambda p: p[0]):
        kicks.setdefault(_first_step_at(t, dt), []).append(kick)
    return kicks


def _first_step_at(t: float, dt: float) -> int:
    """The first step index k >= 0 whose nominal time k dt is at or after
    ``t``, within ``PULSE_STEP_TOL`` of a step, so that a time that is a
    whole number of steps up to rounding counts as that step."""
    return max(0, math.ceil(t / dt - PULSE_STEP_TOL))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def shape_error(world: WorldState, field) -> float:
    """Mean |phi| over the boundary robots at ``world.time`` (m); zero when
    all sit on the zero set."""
    v = as_field_driver(field).values(world.pos[: world.boundary_count], world.time)
    return float(np.mean(np.abs(v)))


def _center_of_mass(mass: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Mass-weighted centres of (..., n, d) positions, one per sample: (..., d).

    Each axis of each sample is summed body by body in body order, the
    order in which ``(mass[:, None] * pos).sum(axis=0)`` adds its rows, so
    each centre has its bits.  The running sums run along contiguous
    (sample, axis) rows of the weighted positions, so one pass serves a
    whole stack of samples.
    """
    weighted = np.multiply(np.swapaxes(pos, -1, -2), mass, order="C")
    return np.add.accumulate(weighted, axis=-1)[..., -1] / mass.sum()


def com_distance(world: WorldState, target) -> float:
    """Distance from the mass-weighted center of all bodies to ``target``."""
    com = _center_of_mass(world.mass, world.pos)
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

    The run takes the fewest whole steps of ``config.dt`` that reach
    ``config.duration`` (within ``PULSE_STEP_TOL`` of a step), so its last
    sample's time is at or after the duration; a duration of 0 takes none.
    It samples the initial world, every m-th step, where m is by the same
    rule the fewest steps that reach ``config.sample_interval`` (at least
    one), and the last step.

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
    kicks = _pulse_kicks(world, disturbances, config.dt)
    cache = _PairCache(world) if config.dimension == 2 else None
    bound = stability_dt_bound(config)
    if config.dt > bound:
        warnings.warn(
            f"dt={config.dt} exceeds the documented stability bound "
            f"{bound:.2e}; contacts may ring",
            RuntimeWarning,
            stacklevel=2,
        )

    # the fewest whole steps that reach the duration, and that reach the
    # sample interval (at least one)
    n_steps = _first_step_at(config.duration, config.dt)
    sample_every = max(1, _first_step_at(config.sample_interval, config.dt))

    times = []
    positions = []
    errors = []

    def record(w: WorldState):
        times.append(w.time)
        positions.append(w.pos.copy())
        errors.append(shape_error(w, driver))

    record(world)
    for k in range(n_steps):
        for targets, dv in kicks.get(k, ()):
            vel = world.vel.copy()
            vel[targets] += dv
            world = replace(world, vel=vel)
        world = step(world, config, driver, cache)
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            record(world)

    positions = np.asarray(positions)
    com = _center_of_mass(world.mass, positions)
    if config.target is None:
        dists = [math.nan] * len(times)
    else:
        target = np.asarray(config.target, dtype=float)
        dists = [float(np.linalg.norm(c - target)) for c in com]
    traj = Trajectory(
        times=np.asarray(times),
        positions=positions,
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
_STR_KEYS = {"control_mode"}


def parse_sim_config(text: str) -> SimConfig:
    """Parse a flat ``key = value`` config file into a :class:`SimConfig`.

    Unknown and repeated keys are rejected, as are values of the wrong
    type, each naming its line.  Tuples use commas: ``target = 0.15, 0.0``.
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
        if key in overrides:
            raise ValueError(f"config line {lineno}: key {key!r} is repeated")
        try:
            if key in _STR_KEYS:
                overrides[key] = value
            elif key in _TUPLE_KEYS:
                overrides[key] = tuple(float(v) for v in value.split(","))
            elif key in _INT_SETTINGS:
                overrides[key] = int(value)
            elif key == "max_packing_radius":
                overrides[key] = None if value.lower() == "none" else float(value)
            else:
                overrides[key] = float(value)
        except ValueError as err:
            raise ValueError(f"config line {lineno}: bad {key}: {err}") from None
    return SimConfig(**overrides)
