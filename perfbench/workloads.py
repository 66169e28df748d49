"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop of identical-shaped operations run by one
client in one process.  A workload splits into

``setup(seed)``
    what ``setup_s`` measures: reading and parsing inputs and building the
    world or grid the operations need;
``op(seed)``
    one timed operation through the program's public entry point;
``check(result, seed)``
    the output checks behind ``failed_ops_frac``, run outside the timing;
``fingerprint(result)``
    a digest of the outputs, compared between two operations with the same
    seed (determinism) and between a traced and an untraced one.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
refuses any other copy of ``shapefield``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if not (SRC / "shapefield" / "__init__.py").is_file():
    raise ImportError(f"no shapefield sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import shapefield  # noqa: E402
from shapefield import cli  # noqa: E402
from shapefield.sim import ring_radius_of  # noqa: E402

if not Path(shapefield.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"shapefield imported from {shapefield.__file__}, not {SRC}")

DATA = SRC / "shapefield" / "data"
STABILITY_MARK = "stability bound"
FALLBACK_MARK = "degenerate morph blend"


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def _all_finite(line: str) -> bool:
    return all(math.isfinite(float(v)) for v in line.split(","))


@dataclasses.dataclass
class OpResult:
    """What one operation returned, kept for its checks."""

    exit_code: int = 0
    stability_warnings: int = 0
    traj: object = None  # shapefield Trajectory, swarm workload only


class WrenchMorph:
    """``shapefield simulate`` on the shipped wrench morph, in-process."""

    name = "wrench_morph"
    work_unit = "steps"
    bodies = 210  # 30 ring robots, 180 grains, as formation_2d.cfg sets
    duration = 1.0  # s of simulated time per operation; ramp completes near 70 s
    expected_spans = frozenset(
        {
            "cli.main",
            "lang.parse",
            "sim.parse_sim_config",
            "sim.run",
            "sim.build_world",
            "sim.step",
            "sim.spring_forces",
            "sim.contact_forces",
            "sim.control_forces",
            "sim.shape_error",
            "fields.driver_values_grads",
            "fields.driver_values",
            "morph.values_grads",
            "morph.values",
            "gridio.export_trajectory",
        }
    )

    def __init__(self, workdir: Path, small: bool = False):
        self.shape = DATA / "shapes" / "wrench_morph.shape"
        self.config = DATA / "configs" / "formation_2d.cfg"
        self.out = workdir / self.name
        if small:
            self.duration = 0.05

    def setup(self, seed: int):
        program = shapefield.parse(self.shape.read_text(encoding="utf-8"))
        program.morph_schedule()
        cfg = shapefield.sim.parse_sim_config(self.config.read_text(encoding="utf-8"))
        cfg = dataclasses.replace(cfg, seed=seed, duration=self.duration)
        self.steps = int(round(cfg.duration / cfg.dt))
        shapefield.build_world(cfg)

    def work(self) -> int:
        return self.steps

    def op(self, seed: int) -> OpResult:
        argv = [
            "simulate",
            "--shape", str(self.shape),
            "--config", str(self.config),
            "--out", str(self.out),
            "--seed", str(seed),
            "--duration", repr(self.duration),
        ]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return OpResult(exit_code=code, stability_warnings=err.getvalue().count(STABILITY_MARK))

    def check(self, result: OpResult, seed: int) -> list[str]:
        if result.exit_code != 0:
            return [f"exit code {result.exit_code}"]
        problems = []
        with open(self.out / "trajectory.csv", encoding="ascii") as fh:
            header = fh.readline().rstrip("\n").split(",")
            last = None
            for line in fh:
                if not _all_finite(line):
                    problems.append(f"non-finite trajectory row {line.strip()!r}")
                    break
                last = line
        if header[0] != "t" or last is None:
            return problems + ["trajectory.csv has no samples"]
        if float(last.split(",")[0]) < self.duration - 1e-9:
            problems.append(f"trajectory ends at t={last.split(',')[0]}")
        summary = dict(
            line.split("=", 1)
            for line in (self.out / "summary.txt").read_text(encoding="ascii").splitlines()
        )
        if float(summary["final_time"]) < self.duration - 1e-9:
            problems.append(f"summary final_time={summary['final_time']}")
        if int(summary["seed"]) != seed:
            problems.append(f"summary seed={summary['seed']}, expected {seed}")
        with open(self.out / "final_state.csv", encoding="ascii") as fh:
            fh.readline()
            if not all(_all_finite(",".join(line.split(",")[2:])) for line in fh):
                problems.append("non-finite final state")
        return problems

    def fingerprint(self, result: OpResult) -> str:
        return _sha256_files(
            self.out / f for f in ("trajectory.csv", "summary.txt", "final_state.csv")
        )


class Swarm3000:
    """``shapefield.run`` on a 120-robot ring around 2880 grains."""

    name = "swarm_3000"
    work_unit = "steps"
    bodies = 3000
    steps = 20
    expected_spans = frozenset(
        {
            "sim.run",
            "sim.build_world",
            "sim.step",
            "sim.spring_forces",
            "sim.contact_forces",
            "sim.control_forces",
            "sim.shape_error",
            "fields.driver_values_grads",
            "fields.driver_values",
        }
    )

    def __init__(self, workdir: Path, small: bool = False):
        if small:
            self.steps = 2

    def setup(self, seed: int):
        cfg = shapefield.SimConfig(
            n_boundary=120,
            n_interior=2880,
            seed=seed,
            duration=self.steps * 1e-3,
            target=(0.15, 0.0),
        )
        # the target is a static circle of the ring's radius, offset by 0.15 m
        ring = ring_radius_of(shapefield.build_world(cfg))
        self.config = cfg
        self.field = shapefield.Circle((0.15, 0.0), ring)

    def work(self) -> int:
        return self.steps

    def op(self, seed: int) -> OpResult:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = shapefield.run(dataclasses.replace(self.config, seed=seed), self.field)
        warned = sum(STABILITY_MARK in str(w.message) for w in caught)
        return OpResult(stability_warnings=warned, traj=traj)

    def _arrays(self, traj):
        return (traj.times, traj.positions, traj.com, traj.shape_error, traj.target_distance)

    def check(self, result: OpResult, seed: int) -> list[str]:
        traj = result.traj
        problems = []
        if not all(np.all(np.isfinite(a)) for a in self._arrays(traj)):
            problems.append("non-finite trajectory sample")
        if traj.positions.shape[1:] != (3000, 2):
            problems.append(f"positions shape {traj.positions.shape}")
        if traj.times[-1] < self.config.duration - 1e-9:
            problems.append(f"trajectory ends at t={traj.times[-1]!r}")
        return problems

    def fingerprint(self, result: OpResult) -> str:
        h = hashlib.sha256()
        for a in self._arrays(result.traj):
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()


class GridPacman:
    """``shapefield grid`` on the shipped pac-man, 1001 x 1001 nodes, csv."""

    name = "grid_pacman"
    work_unit = "grid_nodes"
    origin = (-1.0, -1.0)
    spacing = 0.002
    dims = (1001, 1001)
    spot_checks = 200
    expected_spans = frozenset(
        {
            "cli.main",
            "lang.parse",
            "gridio.sample_grid",
            "fields.driver_values_grads",
            "gridio.export_grid",
        }
    )

    def __init__(self, workdir: Path, small: bool = False):
        self.shape = DATA / "shapes" / "pacman.shape"
        self.out = workdir / self.name / "pacman.csv"
        if small:
            self.spacing, self.dims = 0.02, (101, 101)

    def setup(self, seed: int):
        self.expr = shapefield.parse(self.shape.read_text(encoding="utf-8")).field_expr()
        self.grid = shapefield.GridSpec(self.origin, self.spacing, self.dims)

    def work(self) -> int:
        return self.grid.count

    def op(self, seed: int) -> OpResult:
        flag = "--grid={},{}:{!r}:{},{}".format(*self.origin, self.spacing, *self.dims)
        argv = ["grid", str(self.shape), flag, "--gradmag", "--format", "csv", "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return OpResult(exit_code=code)

    def check(self, result: OpResult, seed: int) -> list[str]:
        if result.exit_code != 0:
            return [f"exit code {result.exit_code}"]
        count = self.grid.count
        rng = np.random.default_rng(seed)
        wanted = set(rng.choice(count, size=min(self.spot_checks, count), replace=False).tolist())
        rows = {}
        with open(self.out, encoding="ascii") as fh:
            header = fh.readline().rstrip("\n")
            n = 0
            for n, line in enumerate(fh, start=1):
                if n - 1 in wanted:
                    rows[n - 1] = line
        problems = []
        if header != "x,y,phi,gradmag":
            problems.append(f"header {header!r}")
        if n != count:
            problems.append(f"{n} rows for {count} nodes")
        eps = np.finfo(float).eps
        for idx, line in sorted(rows.items()):
            x, y, phi, gradmag = (float(v) for v in line.split(","))
            i, j = divmod(idx, self.dims[1])
            node = (self.origin[0] + self.spacing * i, self.origin[1] + self.spacing * j)
            if (x, y) != node:
                problems.append(f"node {idx} written at {(x, y)}, expected {node}")
                continue
            want_phi = float(shapefield.evaluate(self.expr, node))
            want_grad = float(np.linalg.norm(shapefield.gradient(self.expr, node).grad))
            if phi != want_phi:
                problems.append(f"node {idx}: phi {phi!r} != evaluate {want_phi!r}")
            if abs(gradmag - want_grad) > 4.0 * eps * max(1.0, want_grad):
                problems.append(f"node {idx}: gradmag {gradmag!r} vs {want_grad!r}")
        return problems

    def fingerprint(self, result: OpResult) -> str:
        return _sha256_files([self.out])


WORKLOADS = {w.name: w for w in (WrenchMorph, Swarm3000, GridPacman)}
