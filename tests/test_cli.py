"""CLI surface: exit codes, outputs, reproducibility."""

from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from shapefield.cli import main
from shapefield.gridio import _final_state_csv, parse_grid_csv, parse_grid_vtk
from shapefield.lang import parse
from shapefield.sim import parse_sim_config, run
from shapefield.tolerances import GRAD_FD_STEP

from conftest import fd_gradient

DATA = resources.files("shapefield") / "data"


def data_path(rel: str) -> str:
    return str(DATA / rel)


@pytest.fixture
def circle_shape(tmp_path):
    p = tmp_path / "circle.shape"
    p.write_text("field = circle(c=(0, 0), r=0.75);\n")
    return p


@pytest.fixture
def quick_config(tmp_path):
    p = tmp_path / "quick.cfg"
    p.write_text(
        "n_boundary = 8\nn_interior = 10\nduration = 0.2\ndt = 0.0004\n"
        "seed = 5\ntarget = 0, 0\n"
    )
    return p


class TestGridCommand:
    def test_valid_circle_grid(self, circle_shape, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(
            ["grid", str(circle_shape), "--grid=-1,-1:0.02:101,101", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "nodes=10201" in printed
        coords, samples = parse_grid_csv(out.read_bytes())
        assert samples.phi.shape == (10201,)

    def test_vtk_format(self, circle_shape, tmp_path):
        out = tmp_path / "grid.vtk"
        code = main(
            ["grid", str(circle_shape), "--grid=-1,-1:0.5:5,5", "--out", str(out),
             "--format", "vtk"]
        )
        assert code == 0
        info, phi = parse_grid_vtk(out.read_bytes())
        assert info["dims"] == (5, 5)

    def test_vtk_with_gradmag_exits_2(self, circle_shape, tmp_path, capsys):
        out = tmp_path / "grid.vtk"
        code = main(
            ["grid", str(circle_shape), "--grid=-1,-1:1:2,2", "--out", str(out),
             "--format", "vtk", "--gradmag"]
        )
        assert code == 2
        assert not out.exists()
        assert "gradmag" in capsys.readouterr().err

    def test_vtk_with_gradmag_is_refused_before_sampling(
        self, circle_shape, tmp_path, capsys, monkeypatch
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled the grid before refusing the flags")

        monkeypatch.setattr("shapefield.cli.sample_grid", no_sampling)
        out = tmp_path / "grid.vtk"
        code = main(
            ["grid", str(circle_shape), "--grid=-1,-1:1:2,2", "--out", str(out),
             "--format", "vtk", "--gradmag"]
        )
        assert code == 2
        assert not out.exists()
        assert "gradmag" in capsys.readouterr().err

    def test_malformed_shape_exits_1_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.shape"
        bad.write_text("field = circle(c=(0,0), r=0.75\n")  # missing );
        code = main(["grid", str(bad), "--grid", "0,0:1:2,2", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "line" in capsys.readouterr().err

    def test_semantic_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.shape"
        bad.write_text("field = circle(c=(0,0), r=-1);\n")
        code = main(["grid", str(bad), "--grid", "0,0:1:2,2", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_overflowing_segment_exits_2(self, tmp_path, quick_config, capsys):
        # the segment's length or midpoint overflows; grid and simulate both
        # stop at parse with an error naming the endpoints
        for k, (p1, p2) in enumerate([("-1e308, 0", "1e308, 0"), ("1.5e308, 0", "1.6e308, 0")]):
            bad = tmp_path / f"overflow{k}.shape"
            bad.write_text(f"field = segment(p1=({p1}), p2=({p2}));\n")
            out = tmp_path / f"x{k}.csv"
            assert main(["grid", str(bad), "--grid", "0,0:1:2,2", "--out", str(out)]) == 2
            assert not out.exists()
            assert "p1=" in capsys.readouterr().err
            code = main(["simulate", "--shape", str(bad), "--config", str(quick_config),
                         "--out", str(tmp_path / f"sim{k}")])
            assert code == 2
            err = capsys.readouterr().err
            assert "p1=" in err and "normal" not in err and "center" not in err

    def test_missing_file_exits_3(self, tmp_path):
        code = main(
            ["grid", str(tmp_path / "none.shape"), "--grid", "0,0:1:2,2",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 3

    def test_morph_shape_exits_2(self, tmp_path):
        code = main(
            ["grid", data_path("shapes/wrench_morph.shape"), "--grid", "0,0:1:2,2",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_bad_grid_flag_exits_2(self, circle_shape, tmp_path):
        for spec in ("nonsense", "0,0:nan:3,3", "0,0:inf:3,3", "nan,0:0.1:3,3"):
            code = main(
                ["grid", str(circle_shape), f"--grid={spec}", "--out", str(tmp_path / "x.csv")]
            )
            assert code == 2, spec
        assert not (tmp_path / "x.csv").exists()


class TestCheckGradCommand:
    def test_circle_passes(self, circle_shape, capsys):
        code = main(["check-grad", str(circle_shape), "--samples", "100", "--tol", "1e-6"])
        assert code == 0
        assert "worst relative error" in capsys.readouterr().out

    def test_zero_tolerance_always_fails(self, circle_shape):
        code = main(["check-grad", str(circle_shape), "--tol", "0"])
        assert code == 4

    def test_zero_samples_usage_error(self, circle_shape, capsys):
        code = main(["check-grad", str(circle_shape), "--samples", "0"])
        assert code == 2
        for flags in (
            ["--box", "nan:nan"],
            ["--box", "0:inf"],
            ["--box", "1:-1"],
            ["--box", "1:1"],
            ["--box=-1e308:1e308"],
            ["--tol", "nan"],
            ["--tol", "-1"],
        ):
            capsys.readouterr()
            code = main(["check-grad", str(circle_shape), "--samples", "3", *flags])
            err = capsys.readouterr().err
            assert code == 2, flags
            assert "error:" in err and "Traceback" not in err, flags

    @pytest.mark.parametrize("box", ["1", "a:b", "0:1:2", ":"])
    def test_malformed_box_exits_2(self, circle_shape, box, capsys):
        code = main(["check-grad", str(circle_shape), "--samples", "3", "--box", box])
        assert code == 2
        assert f"bad --box {box!r}" in capsys.readouterr().err

    def test_non_finite_error_fails_the_check(self, circle_shape, capsys):
        # 1e200 m out the circle's value is -inf, so every central difference
        # is NaN; a NaN error is the worst error, not a point to skip
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["check-grad", str(circle_shape), "--samples", "3", "--box=-1e200:1e200"])
        out, err = capsys.readouterr()
        assert code == 4
        assert "worst relative error nan" in out and "Traceback" not in err

    def test_box_on_the_zero_set_is_a_usage_error(self, circle_shape, capsys):
        # every candidate lies within 1e-3 of the circle, so every block of
        # candidates is rejected until the attempt cap
        code = main(["check-grad", str(circle_shape), "--samples", "3", "--box", "0.5303:0.5304"])
        assert code == 2
        assert "could not sample smooth points" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shape, samples, seed, box",
        [
            ("two_segments", 300, 4, (0.0, 0.05)),
            ("pacman", 40, 2, (-40.0, 40.0)),
            ("cube", 25, 1, (-2.0, 2.0)),
        ],
    )
    def test_batches_print_the_one_at_a_time_line(self, shape, samples, seed, box, capsys):
        # the reference draws, filters and differences one point at a time;
        # two_segments' small box rejects candidates near the zero set, so
        # the command draws more than one block there
        path = data_path(f"shapes/{shape}.shape")
        lo, hi = box
        flags = ["--samples", str(samples), "--seed", str(seed), f"--box={lo}:{hi}"]
        assert main(["check-grad", path, *flags]) == 0
        expr = parse(Path(path).read_text()).field_expr()
        rng = np.random.default_rng(seed)
        worst, worst_pt, kept = -1.0, None, 0
        while kept < samples:
            x = rng.uniform(lo, hi, expr.dimension)
            if abs(expr.eval(x)) < 1e-3:
                continue
            kept += 1
            fd = fd_gradient(expr.eval, x, h=GRAD_FD_STEP)
            rel = np.linalg.norm(expr.gradient(x).grad - fd) / max(np.linalg.norm(fd), 1e-12)
            if rel > worst:
                worst, worst_pt = rel, x
        want = (
            f"checked {kept} points: worst relative error {worst:.3e} "
            f"at {tuple(round(float(c), 6) for c in worst_pt)}"
        )
        assert capsys.readouterr().out.splitlines()[0] == want

    def test_pacman_passes(self):
        code = main(
            ["check-grad", data_path("shapes/pacman.shape"), "--samples", "60"]
        )
        assert code == 0

    def test_cube_passes(self):
        code = main(["check-grad", data_path("shapes/cube.shape"), "--samples", "60"])
        assert code == 0


class TestSimulateCommand:
    def test_pacman_manifest_runs(self, quick_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["simulate", "--shape", data_path("shapes/pacman.shape"),
             "--config", str(quick_config), "--out", str(out)]
        )
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "final_state.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert "final_shape_error=" in summary
        assert "wall" in capsys.readouterr().out

    def test_seed_repeat_identical_bytes(self, circle_shape, quick_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(
                ["simulate", "--shape", str(circle_shape), "--config", str(quick_config),
                 "--out", str(out), "--seed", "123", "--positions"]
            )
            assert code == 0
            outs.append(out)
        for fname in ("trajectory.csv", "final_state.csv", "summary.txt"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_final_state_is_the_runs_world(self, circle_shape, quick_config, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["simulate", "--shape", str(circle_shape), "--config", str(quick_config),
             "--out", str(out)]
        )
        assert code == 0
        config = parse_sim_config(quick_config.read_text())
        _, world = run(config, parse(circle_shape.read_text()), return_world=True)
        assert (out / "final_state.csv").read_bytes() == _final_state_csv(world)

    def test_dt_above_bound_warns_but_runs(self, circle_shape, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("n_boundary = 6\nn_interior = 4\nduration = 0.05\ndt = 0.001\n")
        code = main(
            ["simulate", "--shape", str(circle_shape), "--config", str(cfg),
             "--out", str(tmp_path / "o")]
        )
        assert code == 0
        assert "stability bound" in capsys.readouterr().err

    def test_3d_run_has_no_stability_warning(self, tmp_path, capsys):
        # 3-D point agents have no contacts, so no dt is above the bound
        code = main(
            ["simulate", "--shape", data_path("shapes/cube.shape"),
             "--config", data_path("configs/cube_3d.cfg"), "--out", str(tmp_path / "o"),
             "--dt", "0.002", "--duration", "0.02"]
        )
        assert code == 0
        assert "stability bound" not in capsys.readouterr().err

    def test_radicand_clamp_warning_reaches_stderr(self, tmp_path, capsys):
        # a morph blend with s > 1 clamps its radicand where the two fields
        # have like signs, as they do outside both circles, on the reference
        # ring
        shape = tmp_path / "clamp.shape"
        shape.write_text(
            "a = circle(c=(0, 0), r=0.5);\nb = circle(c=(0.1, 0), r=0.5);\n"
            "morph(initial=a, final=b, p=0.5, s=3);\n"
        )
        code = main(
            ["simulate", "--shape", str(shape), "--config", data_path("configs/formation_2d.cfg"),
             "--out", str(tmp_path / "o"), "--duration", "0.02"]
        )
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines.count("warning: R-function radicand clamped to 0 (s = 3.0 > 1)") == 1

    def test_field_with_s_above_one_simulates_and_warns_once(self, tmp_path, capsys):
        # the same two circles intersected with s = 3, as a field definition
        shape = tmp_path / "inter.shape"
        shape.write_text(
            "a = circle(c=(0, 0), r=0.5);\nb = circle(c=(0.1, 0), r=0.5);\n"
            "field = inter(a, b, s=3);\n"
        )
        code = main(
            ["simulate", "--shape", str(shape), "--config", data_path("configs/formation_2d.cfg"),
             "--out", str(tmp_path / "o"), "--duration", "0.02"]
        )
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines.count("warning: R-function radicand clamped to 0 (s = 3.0 > 1)") == 1

    def test_each_command_prints_the_stability_warning_once(self, tmp_path, capsys):
        # the benchmark counts these lines per in-process command
        for k in range(2):
            code = main(
                ["simulate", "--shape", data_path("shapes/wrench_morph.shape"),
                 "--config", data_path("configs/formation_2d.cfg"),
                 "--out", str(tmp_path / f"o{k}"), "--duration", "0.02"]
            )
            assert code == 0
            err = capsys.readouterr().err
            assert err.count("stability bound") == 1, err
            assert err.startswith("warning: dt=0.001 exceeds the documented stability bound")

    def test_repeated_config_key_exits_2_naming_the_line(self, circle_shape, quick_config,
                                                        tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(quick_config.read_text() + "seed = 6\n")
        code = main(
            ["simulate", "--shape", str(circle_shape), "--config", str(cfg),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "config line 7: key 'seed' is repeated" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_config_exits_2(self, circle_shape, quick_config, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("gravity = 9.81\n")
        nan_drag = tmp_path / "nan_drag.cfg"
        nan_drag.write_text(quick_config.read_text() + "drag = nan\n")
        cases = [
            (bad, []),
            (nan_drag, []),
            (quick_config, ["--duration", "inf"]),
            (quick_config, ["--dt", "inf"]),
            (quick_config, ["--alpha", "nan"]),
        ]
        for cfg, extra in cases:
            code = main(
                ["simulate", "--shape", str(circle_shape), "--config", str(cfg),
                 "--out", str(tmp_path / "o")] + extra
            )
            assert code == 2, (cfg.name, extra)

    def test_one_grain_radius_exits_2_naming_the_key(self, circle_shape, quick_config,
                                                     tmp_path, capsys):
        cfg = tmp_path / "one_radius.cfg"
        cfg.write_text(quick_config.read_text() + "grain_radii = 0.03\n")
        code = main(
            ["simulate", "--shape", str(circle_shape), "--config", str(cfg),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "grain_radii" in capsys.readouterr().err

    def test_divergence_exits_5(self, circle_shape, tmp_path):
        cfg = tmp_path / "explode.cfg"
        cfg.write_text(
            "n_boundary = 6\nn_interior = 4\nduration = 5\ndt = 0.5\n"
            "contact_stiffness = 500000\ndrag = 0\nalpha = 50\n"
        )
        code = main(
            ["simulate", "--shape", str(circle_shape), "--config", str(cfg),
             "--out", str(tmp_path / "o")]
        )
        assert code == 5

    def test_mode_override(self, circle_shape, quick_config, tmp_path):
        out = tmp_path / "paper_mode"
        code = main(
            ["simulate", "--shape", str(circle_shape), "--config", str(quick_config),
             "--out", str(out), "--mode", "paper", "--duration", "0.05"]
        )
        assert code == 0
        assert "mode=paper" in (out / "summary.txt").read_text()


class TestMorphGridCommand:
    def test_time_zero_matches_initial_on_positive_region(self, tmp_path):
        out = tmp_path / "m"
        code = main(
            ["morph-grid", data_path("shapes/wrench_morph.shape"),
             "--times", "0", "--grid=-1,-1:0.05:41,41", "--out", str(out)]
        )
        assert code == 0
        coords, morph_at_0 = parse_grid_csv((out / "morph_t0.csv").read_bytes())

        ring = tmp_path / "ring.shape"
        ring.write_text("field = circle(c=(0, 0), r=0.75);\n")
        code = main(
            ["grid", str(ring), "--grid=-1,-1:0.05:41,41",
             "--out", str(tmp_path / "ring.csv")]
        )
        assert code == 0
        _, ring_samples = parse_grid_csv((tmp_path / "ring.csv").read_bytes())
        pos = ring_samples.phi > 0.0
        assert np.max(np.abs(morph_at_0.phi[pos] - ring_samples.phi[pos])) < 1e-9

    def test_five_times_five_files(self, tmp_path):
        out = tmp_path / "m"
        code = main(
            ["morph-grid", data_path("shapes/wrench_morph.shape"),
             "--times", "0,2.5,5,7.5,10", "--grid=-1,-1:0.2:11,11", "--out", str(out)]
        )
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "morph_t0.csv",
            "morph_t10.csv",
            "morph_t2.5.csv",
            "morph_t5.csv",
            "morph_t7.5.csv",
        ]

    def test_field_shape_exits_2(self, circle_shape, tmp_path):
        code = main(
            ["morph-grid", str(circle_shape), "--times", "0",
             "--grid", "0,0:1:2,2", "--out", str(tmp_path / "m")]
        )
        assert code == 2

    @pytest.mark.parametrize("times", ["0,nan", "inf", "0,1,-inf"])
    def test_non_finite_time_exits_2_before_writing(self, tmp_path, times):
        out = tmp_path / "m"
        out.mkdir()
        code = main(
            ["morph-grid", data_path("shapes/wrench_morph.shape"),
             "--times", times, "--grid=-1,-1:0.5:5,5", "--out", str(out)]
        )
        assert code == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "times, message", [("0,x", "bad --times '0,x'"), (",", "--times is empty"), ("", "--times is empty")]
    )
    def test_malformed_or_empty_times_exit_2_before_writing(self, tmp_path, times, message, capsys):
        out = tmp_path / "m"
        code = main(
            ["morph-grid", data_path("shapes/wrench_morph.shape"),
             "--times", times, "--grid=-1,-1:0.5:5,5", "--out", str(out)]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["grid", "a.shape"],  # no --grid, no --out
            ["simulate", "--shape", "a.shape", "--config", "a.cfg", "--out", "o", "--mode", "x"],
            ["check-grad", "a.shape", "--samples", "many"],
        ],
    )
    def test_argparse_usage_errors_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out


class TestShippedData:
    def test_all_shipped_shapes_parse(self):
        from shapefield.lang import parse

        shapes = [p for p in (DATA / "shapes").iterdir() if p.name.endswith(".shape")]
        assert len(shapes) >= 5
        for p in shapes:
            parse(p.read_text())

    def test_shipped_configs_parse(self):
        from shapefield.sim import parse_sim_config

        for p in (DATA / "configs").iterdir():
            parse_sim_config(p.read_text())
