"""``tools/cli_bytes.py --compare`` on two hand-made output trees."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "cli_bytes", Path(__file__).resolve().parents[1] / "tools" / "cli_bytes.py")
cli_bytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_bytes)


def _tree(root: Path, re0="1.0", result=None, stderr="", extra=None):
    d = root / "gaussian" / "cf"
    d.mkdir(parents=True)
    (d / "cf.csv").write_text(f"y,re,im,se\n0,{re0},0,0.25\n1,0.5,-0.125,0.25\n")
    (d / "run_info.json").write_text(json.dumps(
        {"command": "cf", "result": result or {"all_pass": True, "err": 0.5}}))
    (d / "exit_code").write_text("0\n")
    (d / "stderr.txt").write_text(stderr)
    for name, text in (extra or {}).items():
        (d / name).write_text(text)
    return root


def test_numbers_may_differ_and_are_reported(tmp_path, capsys):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", re0="1.0000000000000002",
              result={"all_pass": True, "err": 0.25})
    assert cli_bytes.main(["--compare", str(a), str(b)]) == 0
    lines = dict(line.split("\t", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["gaussian/cf/cf.csv"] == "2.22e-16\t2.22e-16"
    assert lines["gaussian/cf/run_info.json"] == "0.25\t0.5"
    assert lines["gaussian/cf/exit_code"] == "0\t0"


@pytest.mark.parametrize("edit", [
    {"result": {"all_pass": False, "err": 0.5}},  # a boolean
    {"result": {"all_pass": True, "error": 0.5}},  # a key
    {"result": {"all_pass": True, "err": "0.5"}},  # a number turned string
    {"re0": "nan"},  # a number turned non-finite
    {"re0": "1.0,0"},  # a cell count
    {"extra": {"cf.csv": "y,re,im\n"}},  # a header
    {"extra": {"cf.csv": "y,re,im,se\n0,1.0,0,0.25\n"}},  # a row count
    {"stderr": "warning\n"},  # any other file's bytes
    {"extra": {"density_0.25.csv": "x,q\n"}},  # a file in one tree only
])
def test_anything_but_a_number_is_a_mismatch(tmp_path, capsys, edit):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", **edit)
    assert cli_bytes.main(["--compare", str(a), str(b)]) == 1
    assert "DIFFERS" in capsys.readouterr().out
