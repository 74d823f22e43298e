"""The CLI's exit codes, stdout and written files, pinned byte for byte.

The corpus lives in ``tests/golden/``; ``tests/golden/regenerate.py``
rewrites it after a deliberate change of output.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_loader = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(regenerate)


@pytest.mark.parametrize("name", sorted(regenerate.SPECS))
def test_cli_output_matches_golden(name):
    path = GOLDEN / f"{name}.json"
    assert regenerate.render(regenerate.golden(regenerate.SPECS[name])) == \
        path.read_text(encoding="utf-8")
