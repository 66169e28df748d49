"""Every Python source parses under the oldest Python that pyproject.toml
allows, whichever interpreter runs the tests."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_REQUIRES = re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M
)
OLDEST = (int(_REQUIRES[1]), int(_REQUIRES[2]))


def test_every_source_parses_under_the_oldest_python():
    sources = sorted(
        path
        for top in ("src", "tests", "scripts", "perfbench")
        for path in (ROOT / top).rglob("*.py")
    )
    assert ROOT / "src" / "shapefield" / "gridio.py" in sources
    refused = []
    for path in sources:
        try:
            ast.parse(path.read_bytes(), filename=str(path), feature_version=OLDEST)
        except SyntaxError as err:
            refused.append(f"{path.relative_to(ROOT)}:{err.lineno}: {err.msg}")
    assert not refused, f"not Python {OLDEST[0]}.{OLDEST[1]} grammar:\n" + "\n".join(refused)


def test_a_newer_construct_is_refused():
    # except* came in 3.11
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
