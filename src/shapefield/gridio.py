"""Regular-grid field sampling and text exports (CSV, legacy VTK).

Grids are sampled row-major over ``dims`` (last index fastest), one field
value per node, optionally with the gradient magnitude.  Exports are
plain text with 17-significant-digit decimals so every value reads back
bit-exactly, through the matching ``parse_*`` function where there is
one.  The byte layout of each export is a compatibility contract covered
by golden-file tests: the grid CSV and VTK files, the trajectory CSV and
``simulate``'s ``final_state.csv``.  The grid and trajectory CSV headers
are each stated once, by a ``_*_columns`` function: the writer emits its
header, and the reader checks it, so the readers accept exactly the
headers the writers emit and raise ``ValueError`` on any other.
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
_FLOAT = "%.17g"  # every float of every export: 17 digits read back bit-exactly
_GRID_FORMATS = ("csv", "vtk")


def _csv_bytes(head: str, columns, row: str | None = None) -> bytes:
    """``head``, then the rows of ``columns`` (arrays of equal length; a 2-D
    one adds several columns) in ASCII, each through the ``%``-template
    ``row``: by default every column as ``_FLOAT``, comma-separated, one
    line per row.  Each block of rows is one ``%``-format call.  Blocks
    bound the memory of the formatting, and ``BytesIO.getvalue`` hands
    over its buffer without a copy."""
    out = io.BytesIO()
    out.write(head.encode("ascii"))
    for lo in range(0, len(columns[0]), _EXPORT_BLOCK):
        block = np.column_stack([c[lo:lo + _EXPORT_BLOCK] for c in columns])
        row = row or ",".join([_FLOAT] * block.shape[1]) + "\n"
        out.write(((row * block.shape[0]) % tuple(block.ravel().tolist())).encode("ascii"))
    return out.getvalue()


def _csv_table(data: bytes, what: str):
    """(header names, float rows (k, columns)) of a CSV export; ``what``
    names the table in the errors."""
    lines = data.decode("ascii").splitlines()
    if not lines:
        raise ValueError(f"empty {what} CSV: no header line")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if not rows or any(len(row) != len(header) for row in rows):
        raise ValueError(f"{what} CSV needs rows of {len(header)} values under its header")
    return header, np.array(rows, dtype=float)


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
    if format not in _GRID_FORMATS:
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


def _grid_columns(dim: int, gradmag: bool) -> list[str]:
    """The grid CSV header: ``x,y[,z],phi[,gradmag]``."""
    return [*"xyz"[:dim], "phi"] + ["gradmag"] * gradmag


def _grid_csv(samples: GridSamples, grid: GridSpec) -> bytes:
    gradmag = samples.gradmag is not None
    columns = [grid_points(grid), samples.phi] + [samples.gradmag] * gradmag
    return _csv_bytes(",".join(_grid_columns(grid.dimension, gradmag)) + "\n", columns)


def parse_grid_csv(data: bytes):
    """Inverse of the CSV grid export: (coords (N, d), GridSamples)."""
    header, rows = _csv_table(data, "grid")
    gradmag = header[-1] == "gradmag"
    dim = len(header) - 1 - gradmag
    if dim not in (2, 3) or header != _grid_columns(dim, gradmag):
        raise ValueError(f"grid CSV header {','.join(header)!r} is not x,y[,z],phi[,gradmag]")
    return rows[:, :dim], GridSamples(
        phi=rows[:, dim], gradmag=rows[:, dim + 1] if gradmag else None
    )


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
    out.write("ORIGIN " + " ".join(_FLOAT % c for c in origin3) + "\n")
    out.write("SPACING " + " ".join([_FLOAT % grid.spacing] * 3) + "\n")
    out.write(f"POINT_DATA {grid.count}\n")
    out.write("SCALARS phi double 1\n")
    out.write("LOOKUP_TABLE default\n")
    return _csv_bytes(out.getvalue(), [vtk_order])


def _vtk_numbers(line: str, key: str, n: int, kind) -> tuple:
    """The ``n`` numbers of the VTK header line ``key v1 ... vn``."""
    words = line.split()
    if words[:1] != [key] or len(words) != n + 1:
        raise ValueError(f"bad VTK header line {line!r}: expected {key}" + " <v>" * n)
    return tuple(kind(v) for v in words[1:])


def parse_grid_vtk(data: bytes):
    """Inverse of the VTK grid export: (GridSpec-like info, phi row-major)."""
    lines = data.decode("ascii").splitlines()
    # the ten header lines come before the values
    if len(lines) < 10 or lines[3] != "DATASET STRUCTURED_POINTS":
        raise ValueError("not a structured-points VTK file")
    dims3 = _vtk_numbers(lines[4], "DIMENSIONS", 3, int)
    origin3 = _vtk_numbers(lines[5], "ORIGIN", 3, float)
    spacing = _vtk_numbers(lines[6], "SPACING", 3, float)[0]
    (count,) = _vtk_numbers(lines[7], "POINT_DATA", 1, int)
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

def _trajectory_columns(d: int, nbodies: int) -> list[str]:
    """The trajectory CSV header: ``t,com_*,shape_error,target_distance,b{i}_*``."""
    axes = "xyz"[:d]
    head = ["t", *(f"com_{a}" for a in axes), "shape_error", "target_distance"]
    return head + [f"b{b}_{a}" for b in range(nbodies) for a in axes]


def export_trajectory(traj: Trajectory, *, include_positions: bool = False) -> bytes:
    """CSV with one row per sample: time, center of mass, shape error,
    target distance, and optionally every body position."""
    d = traj.dimension
    columns = [traj.times, traj.com, traj.shape_error, traj.target_distance]
    nbodies = 0
    if include_positions:
        k, nbodies, _ = traj.positions.shape
        columns.append(traj.positions.reshape(k, nbodies * d))
    return _csv_bytes(",".join(_trajectory_columns(d, nbodies)) + "\n", columns)


def parse_trajectory_csv(data: bytes) -> Trajectory:
    """Inverse of :func:`export_trajectory` (positions empty if not exported)."""
    header, rows = _csv_table(data, "trajectory")
    d = sum(h.startswith("com_") for h in header)
    nbodies = (len(header) - 3 - d) // max(d, 1)  # d = 0 fails the check below
    if d not in (2, 3) or header != _trajectory_columns(d, nbodies):
        raise ValueError(
            f"trajectory CSV header {','.join(header)!r} is not "
            "t,com_*,shape_error,target_distance[,b{i}_*]"
        )
    return Trajectory(
        times=rows[:, 0],
        positions=rows[:, 3 + d :].reshape(len(rows), nbodies, d),
        com=rows[:, 1 : 1 + d],
        shape_error=rows[:, 1 + d],
        target_distance=rows[:, 2 + d],
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
    values = ("," + _FLOAT) * (2 * len(axes) + 2) + "\n"
    robots = _csv_bytes(head + "\n", [c[:nb] for c in columns], "%d,boundary-robot" + values)
    return robots + _csv_bytes("", [c[nb:] for c in columns], "%d,interior-grain" + values)
