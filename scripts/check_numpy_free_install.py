"""Check the installed ``qschmidt`` command in an environment without numpy.

Makes a fresh virtual environment (no system site-packages, so no numpy),
runs ``pip install --no-deps`` of this checkout in it, then runs every
golden call in ``perfbench/golden.json`` through the installed ``qschmidt``
command and compares its exit code, stdout and stderr with the transcript;
no golden call imports numpy.  Run it from anywhere:

    python scripts/check_numpy_free_install.py [pip install options]

Options after the script name go to ``pip install``.  Offline, pass
``--no-build-isolation --no-index`` to build with the setuptools that
``ensurepip`` puts in the fresh environment; a setuptools older than 70.1
also needs the ``wheel`` package there, which ``ensurepip`` does not
install.  The environment lives in a temporary directory that is removed
afterwards.  The exit code is 0 when every call matches.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import venv
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def golden_mismatches(command: list, env: dict, cwd: str) -> int:
    """Run every golden call through ``command``, print one line per call,
    and return how many differ from the transcript."""
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    failed = 0
    for call in golden:
        run = subprocess.run([*command, *call["argv"]], input=call["stdin"],
                             capture_output=True, text=True, env=env, cwd=cwd)
        got = (run.returncode, run.stdout, run.stderr)
        ok = got == (call["exit"], call["stdout"], call["stderr"])
        failed += not ok
        print(f"{'ok' if ok else 'MISMATCH'}: golden call {call['name']!r}")
        if not ok:
            print(f"  got {got!r}", file=sys.stderr)
    return failed


def main(pip_options: list) -> int:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PIP_DISABLE_PIP_VERSION_CHECK"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        home = Path(tmp) / "venv"
        venv.create(home, with_pip=True)
        bindir = home / ("Scripts" if os.name == "nt" else "bin")
        python = str(bindir / "python")
        subprocess.run([python, "-m", "pip", "install", "--quiet", "--no-deps",
                        *pip_options, str(ROOT)], check=True, env=env, cwd=tmp)
        if subprocess.run([python, "-c", "import numpy"], capture_output=True,
                          env=env, cwd=tmp).returncode == 0:
            print("numpy is importable in the fresh environment", file=sys.stderr)
            return 1
        return 1 if golden_mismatches([str(bindir / "qschmidt")], env, tmp) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
