"""Grid sampling and text exports: pointwise equality, round-trips, goldens."""

from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from shapefield.fields import Circle, Plane
from shapefield.gridio import (
    _SAMPLE_BLOCK,
    GridSamples,
    _final_state_csv,
    GridSpec,
    export_grid,
    export_trajectory,
    grid_points,
    parse_grid_csv,
    parse_grid_vtk,
    parse_trajectory_csv,
    sample_grid,
)
from shapefield.lang import parse
from shapefield.morph import MorphSchedule
from shapefield.sim import SimConfig, Trajectory, WorldState, as_field_driver, run

from conftest import same_bits

GOLDEN = Path(__file__).parent / "golden"
SHAPES = resources.files("shapefield") / "data" / "shapes"


class TestGridSpec:
    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            GridSpec((0.0, 0.0), 0.0, (2, 2))
        with pytest.raises(ValueError):
            GridSpec((0.0, 0.0), 0.1, (0, 2))
        with pytest.raises(ValueError):
            GridSpec((0.0, 0.0, 0.0), 0.1, (2, 2))

    def test_node_cap(self):
        # the last two node counts wrap in int64, to 0 and to a negative
        # number; only the specs are built, since sampling them would allocate
        for n in (4000, 2**32, 3037000500):
            with pytest.raises(ValueError, match="cap"):
                GridSpec((0.0, 0.0), 0.1, (n, n))

    def test_points_row_major(self):
        grid = GridSpec((0.0, 10.0), 1.0, (2, 3))
        pts = grid_points(grid)
        # last index (y) fastest
        assert pts[0] == pytest.approx([0.0, 10.0])
        assert pts[1] == pytest.approx([0.0, 11.0])
        assert pts[3] == pytest.approx([1.0, 10.0])


class TestSampleGrid:
    def test_single_node_on_circle_boundary(self):
        grid = GridSpec((0.75, 0.0), 1.0, (1, 1))
        s = sample_grid(Circle((0.0, 0.0), 0.75), grid)
        assert s.phi.shape == (1,)
        assert s.phi[0] == 0.0

    def test_plane_grid_linear_along_normal(self):
        grid = GridSpec((0.0, 0.0, 0.0), 0.5, (3, 3, 3))
        s = sample_grid(Plane((0, 0, 0), (0, 0, 1)), grid)
        cube = s.phi.reshape(3, 3, 3)
        for k in range(3):
            assert np.allclose(cube[:, :, k], 0.5 * k)

    def test_samples_equal_direct_eval(self, rng):
        expr = Circle((0.2, -0.1), 0.6)
        grid = GridSpec((-1.0, -1.0), 0.13, (17, 19))
        s = sample_grid(expr, grid)
        pts = grid_points(grid)
        assert np.array_equal(s.phi, expr.eval(pts))

    def test_morph_sampled_at_frozen_time(self):
        sched = MorphSchedule(Circle((0, 0), 0.75), Circle((0.4, 0), 0.75), p=0.5)
        grid = GridSpec((-1.0, -1.0), 0.25, (9, 9))
        s0 = sample_grid(sched, grid, t=0.0)
        s5 = sample_grid(sched, grid, t=5.0)
        assert not np.array_equal(s0.phi, s5.phi)
        assert np.array_equal(s0.phi, sched.values(grid_points(grid), 0.0))

    def test_gradmag_column(self):
        grid = GridSpec((-1.0, -1.0, -1.0), 0.5, (5, 5, 5))
        s = sample_grid(Plane((0, 0, 0), (0, 0, 1)), grid, include_gradmag=True)
        assert np.allclose(s.gradmag, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sample_grid(Circle((0, 0), 1.0), GridSpec((0, 0, 0), 0.1, (2, 2, 2)))

    @pytest.mark.parametrize("name", ["pacman.shape", "wrench_morph.shape"])
    def test_blocked_sampling_gives_the_bytes_of_one_driver_call(self, name):
        program = parse((SHAPES / name).read_text(encoding="utf-8"))
        field = program.morph_schedule() if program.has_morph else program.field_expr()
        grid = GridSpec((-1.0, -1.0), 0.007, (301, 263))
        assert grid.count > _SAMPLE_BLOCK and grid.count % _SAMPLE_BLOCK != 0
        driver = as_field_driver(field)
        pts = grid_points(grid)
        v, g = driver.values_grads(pts, 3.0)
        s = sample_grid(field, grid, t=3.0, include_gradmag=True)
        assert same_bits(s.phi, v)
        assert same_bits(s.gradmag, np.linalg.norm(g, axis=1))
        assert same_bits(sample_grid(field, grid, t=3.0).phi, driver.values(pts, 3.0))


class TestGridExports:
    def test_csv_shape(self):
        grid = GridSpec((0.0, 0.0), 1.0, (2, 2))
        s = sample_grid(Circle((0, 0), 1.0), grid)
        lines = export_grid(s, grid, "csv").decode().splitlines()
        assert lines[0] == "x,y,phi"
        assert len(lines) == 5  # header + 4 nodes

    def test_csv_round_trip_bit_exact(self, rng):
        grid = GridSpec((-0.85, -0.85), 0.171, (11, 13))
        s = sample_grid(Circle((0.1, 0.2), 0.66), grid, include_gradmag=True)
        data = export_grid(s, grid, "csv")
        coords, parsed = parse_grid_csv(data)
        assert np.array_equal(parsed.phi, s.phi)
        assert np.array_equal(parsed.gradmag, s.gradmag)
        assert np.array_equal(coords, grid_points(grid))
        assert export_grid(parsed, grid, "csv") == data

    def test_vtk_header_and_round_trip(self):
        grid = GridSpec((-1.0, -1.0, -1.0), 0.25, (4, 5, 6))
        s = sample_grid(Plane((0, 0, 0), (0, 0, 1)), grid)
        data = export_grid(s, grid, "vtk")
        text = data.decode()
        assert "DIMENSIONS 4 5 6" in text
        info, phi = parse_grid_vtk(data)
        assert info["dims"] == (4, 5, 6)
        assert info["spacing"] == 0.25
        assert np.array_equal(phi, s.phi)

    def test_vtk_2d_padded_to_three_axes(self):
        grid = GridSpec((0.0, 0.0), 0.5, (3, 2))
        s = sample_grid(Circle((0, 0), 1.0), grid)
        text = export_grid(s, grid, "vtk").decode()
        assert "DIMENSIONS 3 2 1" in text
        info, phi = parse_grid_vtk(export_grid(s, grid, "vtk"))
        assert np.array_equal(phi, s.phi)

    def test_vtk_rejects_gradmag(self):
        # the VTK export holds phi only, so a |grad| column is refused, not dropped
        grid = GridSpec((0.0, 0.0), 1.0, (2, 2))
        s = sample_grid(Circle((0, 0), 1.0), grid, include_gradmag=True)
        with pytest.raises(ValueError, match="gradmag"):
            export_grid(s, grid, "vtk")

    def test_length_mismatch_rejected(self):
        grid = GridSpec((0.0, 0.0), 1.0, (2, 2))
        with pytest.raises(ValueError):
            export_grid(GridSamples(phi=np.zeros(3)), grid, "csv")

    def test_golden_csv(self):
        grid = GridSpec(origin=(-1.0, -0.5), spacing=0.5, dims=(2, 3))
        samples = GridSamples(
            phi=np.array([0.0, 0.125, -1.5, 0.3333333333333333, 7e-10, 2.0]),
            gradmag=np.array([1.0, 0.9999999999, 1.0000001, 1.0, 0.5, 0.25]),
        )
        assert export_grid(samples, grid, "csv") == (GOLDEN / "grid_2x3.csv").read_bytes()

    def test_golden_vtk(self):
        grid = GridSpec(origin=(-1.0, -0.5), spacing=0.5, dims=(2, 3))
        samples = GridSamples(
            phi=np.array([0.0, 0.125, -1.5, 0.3333333333333333, 7e-10, 2.0])
        )
        assert export_grid(samples, grid, "vtk") == (GOLDEN / "grid_2x3.vtk").read_bytes()
        grid3 = GridSpec(origin=(0.0, 0.0, 0.0), spacing=1.0, dims=(2, 2, 2))
        s3 = GridSamples(phi=np.arange(8, dtype=float) / 7.0)
        assert (
            export_grid(s3, grid3, "vtk") == (GOLDEN / "grid_2x2x2.vtk").read_bytes()
        )


class TestTrajectoryExport:
    def _traj(self):
        return Trajectory(
            times=np.array([0.0, 0.1, 0.2]),
            positions=np.array(
                [
                    [[0.0, 0.0], [1.0, 0.0]],
                    [[0.01, -0.02], [1.01, 0.02]],
                    [[0.02, -0.04], [1.02, 0.04]],
                ]
            ),
            com=np.array([[0.5, 0.0], [0.51, 0.0], [0.52, 0.0]]),
            shape_error=np.array([0.375, 0.25, 0.12500000000000003]),
            target_distance=np.array([1.0, 0.9, float("nan")]),
            boundary_count=2,
            dimension=2,
        )

    def test_one_sample_run_exports_one_row(self):
        cfg = SimConfig(n_boundary=6, n_interior=0, duration=0.0, dt=4e-4)
        traj = run(cfg, Circle((0.0, 0.0), 0.5))
        lines = export_trajectory(traj).decode().splitlines()
        assert len(lines) == 2

    def test_times_increase_down_the_file(self):
        traj = self._traj()
        data = export_trajectory(traj)
        parsed = parse_trajectory_csv(data)
        assert np.all(np.diff(parsed.times) > 0.0)

    def test_round_trip_bit_exact_with_positions(self):
        traj = self._traj()
        data = export_trajectory(traj, include_positions=True)
        parsed = parse_trajectory_csv(data)
        assert np.array_equal(parsed.times, traj.times)
        assert np.array_equal(parsed.com, traj.com)
        assert np.array_equal(parsed.shape_error, traj.shape_error)
        assert np.array_equal(
            parsed.target_distance, traj.target_distance, equal_nan=True
        )
        assert np.array_equal(parsed.positions, traj.positions)
        assert export_trajectory(parsed, include_positions=True) == data

    def test_golden_trajectory(self):
        assert (
            export_trajectory(self._traj(), include_positions=True)
            == (GOLDEN / "trajectory.csv").read_bytes()
        )

    def test_header_without_positions(self):
        lines = export_trajectory(self._traj()).decode().splitlines()
        assert lines[0] == "t,com_x,com_y,shape_error,target_distance"


def hand_built_world(pos, vel, radius, mass, boundary_count):
    """A world of the given bodies, with no springs."""
    return WorldState(
        pos=np.array(pos, dtype=float),
        vel=np.array(vel, dtype=float),
        radius=np.array(radius, dtype=float),
        mass=np.array(mass, dtype=float),
        boundary_count=boundary_count,
        spring_i=np.zeros(0, dtype=np.intp),
        spring_j=np.zeros(0, dtype=np.intp),
        spring_k=np.zeros(0),
        spring_rest=np.zeros(0),
        time=0.0,
    )


# signed zeros, the smallest subnormal, huge and whole values
FINAL_STATE_WORLDS = {
    # two robots, then three grains
    "final_state_2d.csv": hand_built_world(
        [[-0.0, 0.5], [1e300, -1.0], [5e-324, 2.0], [0.1, -0.25], [3.0, 0.30000000000000004]],
        [[0.0, -0.0], [1.5, -2.0], [0.0, 1e-5], [-1e300, -5e-324], [7.0, 0.1]],
        [0.03, 0.03, 0.0325, 0.045961940777125593, 1.0],
        [0.2, 0.2, 0.03, 0.03, 2.0],
        2,
    ),
    # three 3-D agents, every body a robot
    "final_state_3d.csv": hand_built_world(
        [[0.0, -0.0, 0.7], [5e-324, 1e300, -0.7], [1.0, 2.0, 3.0]],
        [[-0.0, 0.0, 1e-300], [0.5, -0.25, 0.0], [2.0, -3.0, 4.0]],
        [0.03, 0.03, 0.03],
        [0.2, 0.2, 1.0],
        3,
    ),
}


class TestFinalStateExport:
    @pytest.mark.parametrize("name", sorted(FINAL_STATE_WORLDS))
    def test_golden_final_state(self, name):
        assert _final_state_csv(FINAL_STATE_WORLDS[name]) == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("name", sorted(FINAL_STATE_WORLDS))
    def test_rows_read_back_bit_exact(self, name):
        world = FINAL_STATE_WORLDS[name]
        lines = (GOLDEN / name).read_text(encoding="ascii").splitlines()
        d = world.dimension
        axes = "xyz"[:d]
        assert lines[0].split(",") == [
            "body", "kind", *axes, *(f"v{a}" for a in axes), "radius", "mass"
        ]
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(world.n))
        assert [r[1] for r in rows] == (
            ["boundary-robot"] * world.boundary_count
            + ["interior-grain"] * (world.n - world.boundary_count)
        )
        values = np.array([[float(v) for v in r[2:]] for r in rows])
        expected = np.column_stack([world.pos, world.vel, world.radius, world.mass])
        assert values.tobytes() == expected.tobytes()  # -0.0 keeps its sign

    def test_rows_span_formatting_blocks(self, monkeypatch):
        # robots and grains cross a block boundary each: the bytes do not
        # depend on the block size
        world = hand_built_world(
            np.arange(14.0).reshape(7, 2) / 3.0, np.zeros((7, 2)), np.full(7, 0.03),
            np.full(7, 0.2), 3,
        )
        whole = _final_state_csv(world)
        monkeypatch.setattr("shapefield.gridio._EXPORT_BLOCK", 2)
        assert _final_state_csv(world) == whole
