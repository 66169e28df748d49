"""The public-name contract: ``shapefield.__all__`` is pinned, and every
module's ``__all__`` names only what the module defines."""

import importlib

import pytest

import shapefield

PUBLIC_NAMES = [
    "Circle",
    "Conjunction",
    "DegenerateBlendError",
    "DegenerateSegmentError",
    "Diagnostic",
    "DimensionMismatchError",
    "Disjunction",
    "Disturbance",
    "Equivalence",
    "FieldError",
    "FieldExpr",
    "GradientSample",
    "GridSpec",
    "MorphSchedule",
    "Negation",
    "ParseError",
    "Plane",
    "Segment",
    "SemanticError",
    "ShapeProgram",
    "SimConfig",
    "Sphere",
    "Trajectory",
    "Trim",
    "WorldState",
    "__version__",
    "build_world",
    "evaluate",
    "export_grid",
    "export_trajectory",
    "gradient",
    "parse",
    "ramp",
    "run",
    "sample_grid",
    "serialize",
    "validate",
]


def test_package_exports_are_pinned():
    assert sorted(shapefield.__all__) == PUBLIC_NAMES
    assert len(set(shapefield.__all__)) == len(shapefield.__all__)
    for name in shapefield.__all__:
        assert hasattr(shapefield, name), name


@pytest.mark.parametrize("module", ["fields", "sim", "morph", "lang", "gridio"])
def test_every_module_export_resolves(module):
    mod = importlib.import_module(f"shapefield.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing
