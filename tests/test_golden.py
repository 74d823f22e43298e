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


def test_check_passes_on_the_corpus(capsys):
    assert regenerate.main(["--check"]) == 0
    assert capsys.readouterr().out == ""


def test_check_lists_what_would_change_and_writes_nothing(tmp_path, monkeypatch, capsys):
    doc = regenerate.golden(regenerate.SPECS["readme"])
    doc["runs"][0]["stdout"] += " "
    doc["runs"][4]["exit"] = 1
    doc["runs"][4]["files"]["matrix.csv"] = ""
    stale = regenerate.render(doc)
    (tmp_path / "readme.json").write_text(stale, encoding="utf-8")
    monkeypatch.setattr(regenerate, "HERE", tmp_path)
    monkeypatch.setattr(regenerate, "SPECS", {name: regenerate.SPECS[name]
                                              for name in ("readme", "decoupled")})
    assert regenerate.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "readme: eval {spec} --alpha 0.3 --beta 0.9: stdout",
        "readme: classical {spec} --csv {dir}/matrix.csv: exit, files",
        "decoupled: no golden file",
    ]
    assert (tmp_path / "readme.json").read_text(encoding="utf-8") == stale
    assert sorted(p.name for p in tmp_path.iterdir()) == ["readme.json"]
