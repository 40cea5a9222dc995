"""Write the `cli` workload's golden transcript, ``golden.json``.

Run from the repository root:  python3 perfbench/make_golden.py

Each rotation call in `wl_cli.ROTATION` runs once as ``python -m qschmidt``
and its exit code, stdout and stderr are recorded.  Regenerate only when
the CLI's output is meant to change; the benchmark gates every call on
this file.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from common import child_env  # noqa: E402
from wl_cli import GOLDEN, ROTATION  # noqa: E402


def main() -> int:
    env = child_env(ROOT)
    entries, stdout_of = [], {}
    for name, argv, stdin_from in ROTATION:
        stdin = stdout_of[stdin_from] if stdin_from else ""
        p = subprocess.run([sys.executable, "-m", "qschmidt", *argv],
                           input=stdin, capture_output=True, text=True,
                           env=env, cwd=ROOT, timeout=120)
        stdout_of[name] = p.stdout
        entries.append({"name": name, "argv": argv, "stdin": stdin,
                        "exit": p.returncode, "stdout": p.stdout,
                        "stderr": p.stderr})
        print(f"{name}: exit {p.returncode}")
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
