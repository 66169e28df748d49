"""Command-line front end: compile shapes, sample grids, verify gradients,
run simulations.

Subcommands
    grid        sample a shape's field on a regular grid and export it
    check-grad  compare forward-mode gradients against finite differences
    simulate    run the granular-robot simulation from a shape and a config
    morph-grid  export a morph's field at a list of times

Exit codes are a stable contract: 0 ok, 1 parse error, 2 semantic/usage
error, 3 I/O error, 4 gradient check failed, 5 simulation divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .gridio import (
    _FLOAT,
    _GRID_FORMATS,
    GridSpec,
    _check_grid_format,
    _final_state_csv,
    export_grid,
    export_trajectory,
    sample_grid,
)
from .lang import ParseError, SemanticError, format_number, parse
from .sim import _CONTROL_MODES, PackingError, SimulationDivergenceError, parse_sim_config, run
from .tolerances import GRAD_FD_STEP

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SEMANTIC = 2
EXIT_IO = 3
EXIT_CHECK_FAILED = 4
EXIT_DIVERGED = 5

_CHECK_GRAD_BLOCK = 4096  # candidates drawn and evaluated per batch


def _read_text(path: Path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_program(path: Path):
    return parse(_read_text(path))


def _parse_grid_flag(spec: str) -> GridSpec:
    """--grid ox,oy[,oz]:spacing:nx,ny[,nz]"""
    try:
        origin_s, spacing_s, dims_s = spec.split(":")
        origin = tuple(float(v) for v in origin_s.split(","))
        dims = tuple(int(v) for v in dims_s.split(","))
        return GridSpec(origin=origin, spacing=float(spacing_s), dims=dims)
    except ValueError as err:
        raise ValueError(f"bad --grid {spec!r}: {err}") from None


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shapefield",
        description="Approximate distance fields, morphing, and swarm simulation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grid", help="sample a shape field on a grid")
    g.add_argument("shape", type=Path, help=".shape file with a field export")
    g.add_argument(
        "--grid",
        required=True,
        metavar="ox,oy[,oz]:spacing:nx,ny[,nz]",
        help="grid origin, spacing (m), and node counts; use --grid=-1,... "
        "for negative origins",
    )
    g.add_argument("--out", required=True, type=Path, help="output file")
    g.add_argument("--format", choices=_GRID_FORMATS, default="csv")
    g.add_argument("--gradmag", action="store_true", help="also export |grad phi|")

    c = sub.add_parser("check-grad", help="verify gradients against finite differences")
    c.add_argument("shape", type=Path)
    c.add_argument("--samples", type=int, default=100, help="random points (default 100)")
    c.add_argument("--tol", type=float, default=1e-6, help="max relative error (default 1e-6)")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument(
        "--box",
        default="-2:2",
        metavar="LO:HI",
        help="sampling box per axis in meters (default -2:2)",
    )

    s = sub.add_parser("simulate", help="run the granular soft-robot simulation")
    s.add_argument("--shape", required=True, type=Path, help=".shape file (field or morph)")
    s.add_argument("--config", required=True, type=Path, help="key=value sim config")
    s.add_argument("--out", required=True, type=Path, help="output directory")
    s.add_argument("--seed", type=int, default=None, help="override config seed")
    s.add_argument("--mode", choices=_CONTROL_MODES, default=None)
    s.add_argument("--duration", type=float, default=None, help="seconds")
    s.add_argument("--dt", type=float, default=None, help="step (s)")
    s.add_argument("--alpha", type=float, default=None, help="thrust (N)")
    s.add_argument(
        "--positions", action="store_true", help="include body positions in the csv"
    )

    m = sub.add_parser("morph-grid", help="export a morph field at several times")
    m.add_argument("shape", type=Path, help=".shape file with a morph export")
    m.add_argument("--times", required=True, help="comma-separated times (s)")
    m.add_argument(
        "--grid", required=True, metavar="ox,oy[,oz]:spacing:nx,ny[,nz]"
    )
    m.add_argument("--out", required=True, type=Path, help="output directory")
    m.add_argument("--format", choices=_GRID_FORMATS, default="csv")
    return ap


def cmd_grid(args) -> int:
    program = _load_program(args.shape)
    grid = _parse_grid_flag(args.grid)
    _check_grid_format(args.format, args.gradmag)
    samples = sample_grid(program.field_expr(), grid, include_gradmag=args.gradmag)
    data = export_grid(samples, grid, args.format)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_bytes(data)
    print(
        f"nodes={grid.count} min_phi={samples.phi.min():.6g} "
        f"max_phi={samples.phi.max():.6g} -> {args.out}"
    )
    return EXIT_OK


def _gradient_errors(expr, pts: np.ndarray) -> np.ndarray:
    """The relative error of ``expr``'s gradient against central finite
    differences at each row of ``pts``, from one batch of gradients and one
    of the 2d shifted copies of ``pts``."""
    n, dim = pts.shape
    h = GRAD_FD_STEP
    shifts = np.repeat(pts[None], 2 * dim, axis=0)  # +h, then -h, along each axis
    for k in range(dim):
        shifts[2 * k, :, k] += h
        shifts[2 * k + 1, :, k] -= h
    v = expr.values(shifts.reshape(-1, dim), 0.0).reshape(dim, 2, n)
    fd = ((v[:, 0] - v[:, 1]) / (2.0 * h)).T
    err = np.linalg.norm(expr.values_grads(pts, 0.0)[1] - fd, axis=1)
    return err / np.maximum(np.linalg.norm(fd, axis=1), 1e-12)


def cmd_check_grad(args) -> int:
    if args.samples <= 0:
        raise ValueError("--samples must be positive")
    program = _load_program(args.shape)
    expr = program.field_expr()
    dim = expr.dimension
    try:
        lo, hi = (float(v) for v in args.box.split(":"))
    except ValueError:
        raise ValueError(f"bad --box {args.box!r}") from None
    if not (lo < hi and np.isfinite(hi - lo)):  # a finite width implies finite ends
        raise ValueError(f"--box needs finite LO < HI, got {args.box!r}")
    if not (args.tol >= 0.0 and np.isfinite(args.tol)):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    rng = np.random.default_rng(args.seed)
    # candidates drawn in blocks from one stream and kept in draw order: the
    # points of a one-at-a-time draw, each block evaluated as one batch
    max_attempts = 200 * args.samples
    blocks, errors = [], []
    checked = attempts = 0
    while checked < args.samples and attempts < max_attempts:
        size = min(args.samples - checked, max_attempts - attempts, _CHECK_GRAD_BLOCK)
        cand = rng.uniform(lo, hi, (size, dim))
        attempts += size
        # skip the measure-zero crease neighborhood of unsigned fields,
        # where finite differences straddle the kink
        blocks.append(cand[~(np.abs(expr.values(cand, 0.0)) < 1e-3)])
        errors.append(_gradient_errors(expr, blocks[-1]))
        checked += len(blocks[-1])
    if not checked:
        raise ValueError("could not sample smooth points in the box")
    pts, rel = np.concatenate(blocks), np.concatenate(errors)
    worst = int(np.argmax(rel))  # the first worst point; a NaN error is the worst
    worst_err, worst_pt = float(rel[worst]), pts[worst]
    print(
        f"checked {len(pts)} points: worst relative error {worst_err:.3e} "
        f"at {tuple(round(float(c), 6) for c in worst_pt)}"
    )
    if worst_err < args.tol:
        print("gradient check passed")
        return EXIT_OK
    print(f"gradient check FAILED (tolerance {args.tol:g})", file=sys.stderr)
    return EXIT_CHECK_FAILED


def cmd_simulate(args) -> int:
    program = _load_program(args.shape)
    try:
        config = parse_sim_config(_read_text(args.config))
    except ValueError as err:
        raise SemanticError(1, 1, f"bad sim config: {err}") from None
    overrides = {
        "seed": args.seed,
        "control_mode": args.mode,
        "duration": args.duration,
        "dt": args.dt,
        "alpha": args.alpha,
    }
    config = dataclasses.replace(
        config, **{key: value for key, value in overrides.items() if value is not None}
    )
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        # each distinct warning of the run once, as it is raised: a fresh
        # filter also forgets the warnings an earlier command printed
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        traj, world = run(config, program, return_world=True)
    wall = time.perf_counter() - t0

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "trajectory.csv").write_bytes(
        export_trajectory(traj, include_positions=args.positions)
    )
    (out / "final_state.csv").write_bytes(_final_state_csv(world))
    final_err = float(traj.shape_error[-1])
    # the summary stays byte-deterministic: wall time goes to stdout only
    summary = (
        f"samples={traj.times.shape[0]}\n"
        f"final_time={format_number(float(traj.times[-1]))}\n"
        f"final_shape_error={_FLOAT % final_err}\n"
        f"seed={config.seed}\n"
        f"mode={config.control_mode}\n"
    )
    (out / "summary.txt").write_text(summary, encoding="ascii")
    print(
        f"simulated {traj.times[-1]:.3f} s in {wall:.2f} s wall; "
        f"final shape_error={final_err:.6g} m -> {out}"
    )
    return EXIT_OK


def cmd_morph_grid(args) -> int:
    sched = _load_program(args.shape).morph_schedule()
    grid = _parse_grid_flag(args.grid)
    try:
        times = [float(v) for v in args.times.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"bad --times {args.times!r}") from None
    if not times:
        raise ValueError("--times is empty")
    # checked before anything is sampled or written, so a bad time leaves no files
    if not all(map(math.isfinite, times)):
        raise ValueError(f"bad --times {args.times!r}: every time must be finite")
    args.out.mkdir(parents=True, exist_ok=True)
    ext = args.format
    for t in times:
        samples = sample_grid(sched, grid, t=t)
        path = args.out / f"morph_t{format_number(t)}.{ext}"
        path.write_bytes(export_grid(samples, grid, args.format))
        print(f"t={format_number(t)} -> {path}")
    return EXIT_OK


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return EXIT_SEMANTIC if exc.code not in (0, None) else EXIT_OK
    handler = {
        "grid": cmd_grid,
        "check-grad": cmd_check_grad,
        "simulate": cmd_simulate,
        "morph-grid": cmd_morph_grid,
    }[args.command]
    try:
        return handler(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except SemanticError as err:
        print(f"semantic error: {err}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (ValueError, PackingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SEMANTIC
    except RecursionError:
        print("error: the shape is nested too deeply to evaluate", file=sys.stderr)
        return EXIT_SEMANTIC
    except SimulationDivergenceError as err:
        print(f"simulation diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
