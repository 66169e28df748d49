"""Regular-grid field sampling and text exports (CSV, legacy VTK).

Grids are sampled row-major over ``dims`` (last index fastest), one field
value per node, optionally with the gradient magnitude.  Exports are
plain text with 17-significant-digit decimals so every value reads back
bit-exactly, through the matching ``parse_*`` function where there is
one.  The byte layout of each export is a compatibility contract covered
by golden-file tests: the grid CSV and VTK files, the trajectory CSV and
``simulate``'s ``final_state.csv``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .sim import Trajectory, as_field_driver
from .tolerances import GRID_NODE_CAP

__all__ = [
    "GridSpec",
    "GridSamples",
    "grid_points",
    "sample_grid",
    "export_grid",
    "parse_grid_csv",
    "parse_grid_vtk",
    "export_trajectory",
    "parse_trajectory_csv",
]


_SAMPLE_BLOCK = 1 << 16  # grid nodes per field evaluation
_EXPORT_BLOCK = 1 << 14  # rows per formatting call


def _csv_bytes(head: str, columns, row: str | None = None) -> bytes:
    """``head``, then the rows of ``columns`` (arrays of equal length; a 2-D
    one adds several columns) in ASCII, each through the ``%``-template
    ``row``: by default every column as ``%.17g``, comma-separated, one
    line per row.  Each block of rows is one ``%``-format call.  Blocks
    bound the memory of the formatting, and ``BytesIO.getvalue`` hands
    over its buffer without a copy."""
    out = io.BytesIO()
    out.write(head.encode("ascii"))
    for lo in range(0, len(columns[0]), _EXPORT_BLOCK):
        block = np.column_stack([c[lo:lo + _EXPORT_BLOCK] for c in columns])
        row = row or ",".join(["%.17g"] * block.shape[1]) + "\n"
        out.write(((row * block.shape[0]) % tuple(block.ravel().tolist())).encode("ascii"))
    return out.getvalue()


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned sampling grid: node (i, j[, k]) sits at
    ``origin + spacing * (i, j[, k])``."""

    origin: tuple[float, ...]
    spacing: float
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(c) for c in self.origin))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing", float(self.spacing))
        if len(self.origin) not in (2, 3) or len(self.dims) != len(self.origin):
            raise ValueError("origin and dims must both be 2-D or 3-D")
        if not all(np.isfinite(self.origin)):
            raise ValueError("origin must be finite")
        if not 0.0 < self.spacing < np.inf:
            raise ValueError("spacing must be positive and finite")
        if any(d < 1 for d in self.dims):
            raise ValueError("dims must be positive")
        if self.count > GRID_NODE_CAP:
            raise ValueError(
                f"grid has {self.count} nodes, above the cap {GRID_NODE_CAP}"
            )

    @property
    def dimension(self) -> int:
        return len(self.dims)

    @property
    def count(self) -> int:
        return math.prod(self.dims)  # exact: np.prod wraps in int64


@dataclass(frozen=True)
class GridSamples:
    """Field values (and optional |grad|) in row-major node order."""

    phi: np.ndarray
    gradmag: np.ndarray | None = None


def grid_points(grid: GridSpec) -> np.ndarray:
    """(N, d) node coordinates in row-major order over ``grid.dims``."""
    axes = [
        grid.origin[k] + grid.spacing * np.arange(grid.dims[k])
        for k in range(grid.dimension)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def sample_grid(
    field,
    grid: GridSpec,
    t: float | None = None,
    include_gradmag: bool = False,
) -> GridSamples:
    """Evaluate ``field`` at every node; morph fields need a frozen ``t``.

    Each sample equals a direct evaluation at that node (no interpolation).
    Nodes go to the field in blocks of ``_SAMPLE_BLOCK``, which bounds the
    memory of the evaluation's per-node stacks; values do not depend on
    the block size.
    """
    driver = as_field_driver(field)
    if driver.dimension != grid.dimension:
        raise ValueError(
            f"field is {driver.dimension}-D but the grid is {grid.dimension}-D"
        )
    if t is None:
        t = 0.0
    pts = grid_points(grid)
    blocks = [pts[lo:lo + _SAMPLE_BLOCK] for lo in range(0, pts.shape[0], _SAMPLE_BLOCK)]
    if include_gradmag:
        phi, gradmag = [], []
        for block in blocks:
            v, g = driver.values_grads(block, t)
            phi.append(v)
            gradmag.append(np.linalg.norm(g, axis=1))
        return GridSamples(phi=np.concatenate(phi), gradmag=np.concatenate(gradmag))
    return GridSamples(phi=np.concatenate([driver.values(block, t) for block in blocks]))


# ---------------------------------------------------------------------------
# Grid exports
# ---------------------------------------------------------------------------

def _check_grid_format(format: str, gradmag: bool) -> None:
    """Reject an unknown grid format, and ``gradmag`` with ``vtk``, whose
    export holds phi only.  Needs no samples, so a caller can check its
    flags before it samples the grid."""
    if format not in ("csv", "vtk"):
        raise ValueError(f"unknown grid format {format!r}")
    if format == "vtk" and gradmag:
        raise ValueError("the vtk grid format holds phi only; export gradmag as csv")


def export_grid(samples: GridSamples, grid: GridSpec, format: str = "csv") -> bytes:
    """Serialize grid samples; ``format`` is ``csv`` or ``vtk``
    (legacy structured-points ASCII)."""
    n = samples.phi.shape[0]
    if n != grid.count:
        raise ValueError(f"{n} samples for a grid of {grid.count} nodes")
    _check_grid_format(format, samples.gradmag is not None)
    return _grid_csv(samples, grid) if format == "csv" else _grid_vtk(samples, grid)


def _grid_csv(samples: GridSamples, grid: GridSpec) -> bytes:
    coords = grid_points(grid)
    cols = ["x", "y", "z"][: grid.dimension] + ["phi"]
    arrays = [coords[:, k] for k in range(grid.dimension)] + [samples.phi]
    if samples.gradmag is not None:
        cols.append("gradmag")
        arrays.append(samples.gradmag)
    return _csv_bytes(",".join(cols) + "\n", arrays)


def parse_grid_csv(data: bytes):
    """Inverse of the CSV grid export: (coords (N, d), GridSamples)."""
    lines = data.decode("ascii").splitlines()
    header = lines[0].split(",")
    dim = header.index("phi")
    has_grad = header[-1] == "gradmag"
    rows = np.array(
        [[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float
    )
    coords = rows[:, :dim]
    phi = rows[:, dim]
    gradmag = rows[:, dim + 1] if has_grad else None
    return coords, GridSamples(phi=phi, gradmag=gradmag)


def _grid_vtk(samples: GridSamples, grid: GridSpec) -> bytes:
    dims3 = tuple(grid.dims) + (1,) * (3 - grid.dimension)
    origin3 = tuple(grid.origin) + (0.0,) * (3 - grid.dimension)
    # row-major samples have the last index fastest; VTK structured points
    # want x fastest, so permute
    cube = samples.phi.reshape(grid.dims)
    vtk_order = cube.transpose(tuple(reversed(range(grid.dimension)))).ravel()
    out = io.StringIO()
    out.write("# vtk DataFile Version 3.0\n")
    out.write("shapefield grid export\n")
    out.write("ASCII\n")
    out.write("DATASET STRUCTURED_POINTS\n")
    out.write("DIMENSIONS {} {} {}\n".format(*dims3))
    out.write("ORIGIN " + " ".join("%.17g" % c for c in origin3) + "\n")
    out.write("SPACING " + " ".join(["%.17g" % grid.spacing] * 3) + "\n")
    out.write(f"POINT_DATA {grid.count}\n")
    out.write("SCALARS phi double 1\n")
    out.write("LOOKUP_TABLE default\n")
    return _csv_bytes(out.getvalue(), [vtk_order])


def parse_grid_vtk(data: bytes):
    """Inverse of the VTK grid export: (GridSpec-like info, phi row-major)."""
    lines = data.decode("ascii").splitlines()
    if lines[3] != "DATASET STRUCTURED_POINTS":
        raise ValueError("not a structured-points VTK file")
    dims3 = tuple(int(v) for v in lines[4].split()[1:])
    origin3 = tuple(float(v) for v in lines[5].split()[1:])
    spacing = float(lines[6].split()[1])
    count = int(lines[7].split()[1])
    values = np.array([float(v) for v in lines[10 : 10 + count]], dtype=float)
    dim = 2 if dims3[2] == 1 else 3
    dims = dims3[:dim]
    # undo the x-fastest permutation back to row-major over dims
    cube = values.reshape(tuple(reversed(dims)))
    phi = cube.transpose(tuple(reversed(range(dim)))).ravel()
    return {"dims": dims, "origin": origin3[:dim], "spacing": spacing}, phi


# ---------------------------------------------------------------------------
# Trajectory and final-state exports
# ---------------------------------------------------------------------------

def export_trajectory(traj: Trajectory, *, include_positions: bool = False) -> bytes:
    """CSV with one row per sample: time, center of mass, shape error,
    target distance, and optionally every body position."""
    d = traj.dimension
    cols = ["t"] + [f"com_{a}" for a in "xyz"[:d]] + ["shape_error", "target_distance"]
    if include_positions:
        nbodies = traj.positions.shape[1]
        for b in range(nbodies):
            cols.extend(f"b{b}_{a}" for a in "xyz"[:d])
    columns = [traj.times, traj.com, traj.shape_error, traj.target_distance]
    if include_positions:
        k, nbodies, _ = traj.positions.shape
        columns.append(traj.positions.reshape(k, nbodies * d))
    return _csv_bytes(",".join(cols) + "\n", columns)


def parse_trajectory_csv(data: bytes) -> Trajectory:
    """Inverse of :func:`export_trajectory` (positions empty if not exported)."""
    lines = data.decode("ascii").splitlines()
    header = lines[0].split(",")
    d = sum(1 for h in header if h.startswith("com_"))
    has_pos = any(h.startswith("b0_") for h in header)
    rows = np.array(
        [[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float
    )
    k = rows.shape[0]
    times = rows[:, 0]
    com = rows[:, 1 : 1 + d]
    err = rows[:, 1 + d]
    dist = rows[:, 2 + d]
    if has_pos:
        body_cols = rows[:, 3 + d :]
        nbodies = body_cols.shape[1] // d
        positions = body_cols.reshape(k, nbodies, d)
    else:
        positions = np.zeros((k, 0, d))
    return Trajectory(
        times=times,
        positions=positions,
        com=com,
        shape_error=err,
        target_distance=dist,
        boundary_count=0,
        dimension=d,
    )


def _final_state_csv(world) -> bytes:
    """``final_state.csv``: a row per body, ``body,kind,x,y[,z],vx,vy[,vz],
    radius,mass``, in two blocks, the robots and then the grains, each with
    its kind as literal text of its row template."""
    nb, axes = world.boundary_count, "xyz"[: world.dimension]
    head = ",".join(["body", "kind", *axes, *(f"v{a}" for a in axes), "radius", "mass"])
    columns = [np.arange(world.n), world.pos, world.vel, world.radius, world.mass]
    values = ",%.17g" * (2 * len(axes) + 2) + "\n"
    robots = _csv_bytes(head + "\n", [c[:nb] for c in columns], "%d,boundary-robot" + values)
    return robots + _csv_bytes("", [c[nb:] for c in columns], "%d,interior-grain" + values)
