import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exit_info.value.code


def test_scripts_run_on_small_grids(monkeypatch, capsys, tmp_path):
    assert run_script(monkeypatch, "reproduce_dynamics.py", "--outdir", str(tmp_path), "--points", "3") == 0
    # one sweep per (channel, locality) pair plus the dephasing surface
    assert len(list(tmp_path.glob("*.csv"))) == 16
    assert len(capsys.readouterr().out.splitlines()) == 16
    # a sweep the CLI rejects stops the script with its exit code
    assert run_script(monkeypatch, "reproduce_dynamics.py", "--outdir", str(tmp_path / "bad"), "--b", "nan") == 2
    assert not list((tmp_path / "bad").glob("*.csv"))


def test_output_digests_repeat(monkeypatch, capsys):
    runs = []
    for _ in range(2):
        assert run_script(monkeypatch, "output_digests.py", "--quick") == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    fields = [line.split(" ", 2) for line in runs[0]]
    assert all(len(digest) == 64 for digest, _, _ in fields)
    codes = {argv: int(code) for _, code, argv in fields}
    # the list holds passing runs, a failing verify and rejected inputs
    assert codes["verify --quick"] == 0
    assert codes["verify --quick --inject-fault"] == 1
    assert codes["compute --b 0.2 --c 0.1 --time -1"] == 2
    assert codes["compute --b 0.2 --c 0.4000000000015"] == 0
    assert codes["compute --b 0.2 --c 0.1 --a 0.15"] == 2
    assert codes["channels --output no-such-dir/out.txt"] == 3
    assert codes["verify --quick --output no-such-dir/report.json"] == 3
