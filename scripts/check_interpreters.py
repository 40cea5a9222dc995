"""Check the pinned output bytes on other Python interpreters.

Runs this checkout's package (``PYTHONPATH=src``, numpy made unimportable)
on each interpreter given and compares it with the interpreter running this
script:

* every golden call in ``perfbench/golden.json``, through
  `check_numpy_free_install.golden_mismatches`, as a ``python -m qschmidt``
  child;
* per family, a sha256 of the exit codes and stdout of ``sample`` at seeds
  0, 7 and 2024 with count 20, the stream ``tests/test_jsonio_bytes.py``
  pins in ``SAMPLE_STDOUT_DIGEST``, run in one child through ``cli.main``.

Prints one line per golden call and per family and interpreter.  Run it
from anywhere:

    python scripts/check_interpreters.py PYTHON [PYTHON ...]

The exit code is 0 when nothing differs.  Nothing is written to the
checkout: the children run with ``-B``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

from check_numpy_free_install import ROOT, golden_mismatches

# numpy is set to None in sys.modules, so any import of it raises ImportError.
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None; "

RUN_CLI = BLOCK_NUMPY + (
    "import runpy; runpy.run_module('qschmidt', run_name='__main__', "
    "alter_sys=True)")

# Prints [Python version, {family: sha256 of its sample exit codes and
# stdout}].
FAMILY_HASHES = BLOCK_NUMPY + """
import contextlib, hashlib, io, json, platform
from qschmidt.cli import main
from qschmidt.sampling import FAMILIES
out = {}
for set_type, case_id, variant in FAMILIES:
    name = '-'.join(str(x) for x in (set_type, case_id, variant) if x is not None)
    h = hashlib.sha256()
    for seed in (0, 7, 2024):
        argv = ['sample', '--type', set_type, '--seed', str(seed),
                '--count', '20']
        if case_id is not None:
            argv += ['--case', str(case_id)]
        if variant is not None:
            argv += ['--variant', variant]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        h.update(f'{code}\\n{buf.getvalue()}'.encode())
    out[name] = h.hexdigest()
print(json.dumps([platform.python_version(), out]))
"""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def family_hashes(python: str, env: dict, cwd: str) -> tuple:
    """``(version, {family: hash})`` of one interpreter."""
    run = subprocess.run([python, "-B", "-c", FAMILY_HASHES], env=env,
                         cwd=cwd, capture_output=True, text=True, check=True)
    return tuple(json.loads(run.stdout))


def main(pythons: list) -> int:
    if not pythons:
        print(__doc__, file=sys.stderr)
        return 2
    env = child_env()
    failed = 0
    with tempfile.TemporaryDirectory() as cwd:
        ref_version, reference = family_hashes(sys.executable, env, cwd)
        print(f"reference: Python {ref_version} ({sys.executable})")
        for python in pythons:
            got_version, got = family_hashes(python, env, cwd)
            tag = f"Python {got_version}"
            print(f"{tag} ({python}):")
            failed += golden_mismatches([python, "-B", "-c", RUN_CLI], env, cwd)
            for name, want in reference.items():
                ok = got.get(name) == want
                failed += not ok
                print(f"{'ok' if ok else 'MISMATCH'}: {tag} family {name!r} "
                      f"sha256 {got.get(name)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
