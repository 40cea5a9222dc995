"""The real process entry: ``python -m qschmidt`` in a child process, and
the garbage-collector freeze that only the entry point makes."""

import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qschmidt.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: e["name"])
def test_golden_call_through_python_m(entry):
    p = subprocess.run([sys.executable, "-m", "qschmidt", *entry["argv"]],
                       input=entry["stdin"].encode(), capture_output=True,
                       env=child_env(), cwd=ROOT, timeout=120)
    assert p.returncode == entry["exit"]
    assert p.stdout == entry["stdout"].encode()
    assert p.stderr == entry["stderr"].encode()


def test_main_in_process_does_not_freeze(capsys, monkeypatch):
    entry = GOLDEN[0]
    monkeypatch.setattr("sys.stdin", io.StringIO(entry["stdin"]))
    before = gc.get_freeze_count()
    assert main(list(entry["argv"])) == entry["exit"]
    assert gc.get_freeze_count() == before
    assert capsys.readouterr().out == entry["stdout"]


def test_entry_freezes_then_runs_main():
    entry = GOLDEN[0]
    code = ("import gc, sys\n"
            "from qschmidt.cli import entry\n"
            "assert gc.get_freeze_count() == 0\n"
            f"sys.argv = ['qschmidt', *{entry['argv']!r}]\n"
            "code = entry()\n"
            "sys.stderr.write(f'{code} {gc.get_freeze_count() > 0}')\n")
    p = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=child_env(), cwd=ROOT, timeout=120)
    assert p.stdout == entry["stdout"]
    assert p.stderr == f"{entry['exit']} True"


def test_console_script_runs_the_same_entry():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert 'qschmidt = "qschmidt.cli:entry"' in pyproject.splitlines()
