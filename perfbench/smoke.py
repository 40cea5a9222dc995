"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root:  python3 perfbench/smoke.py

Checks that every run prints a well-formed result line naming every metric
in ``BENCHMARK.json`` with its unit, that each workload prints its
end-to-end metrics under their design names, that exact counts and digests
repeat across two runs at one seed and the digests change with the seed,
and that the benchmark refuses to run without the package next to it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import ALIASES, WORKLOADS  # noqa: E402

LINE = re.compile(r"^(\S+) = (\S+) (\S+)(  \(.*\))?$")


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=600)


def parsed(p):
    if p.returncode != 0:
        raise AssertionError(f"exit {p.returncode}: {p.stderr}")
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys: {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        raise AssertionError(f"gate failed: {lines[-1][:200]}")
    shown = {}
    section, exact = None, []
    for line in lines[:-1]:
        if line.startswith("# "):
            section = line
            continue
        m = LINE.match(line)
        if m:
            shown[m.group(1)] = m.group(3)
            if section == "# exact counts":
                exact.append(line)
    return result, shown, exact


def check_metrics(result, shown, declared):
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        raise AssertionError(f"metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(want))}")
    for name, m in metrics.items():
        if m["unit"] != want[name] or shown.get(name) != want[name]:
            raise AssertionError(f"{name}: unit {m['unit']!r}, printed "
                                 f"{shown.get(name)!r}, declared {want[name]!r}")
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{name}: value {m['value']!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    if [m["metric"] for m in layers["per_layer"]] != [m["name"] for m in spec["per_layer"]]:
        raise AssertionError("layers.json and BENCHMARK.json list different per-layer metrics")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from run.py")

    for workload in WORKLOADS:
        first, shown, exact = parsed(run(workload, 1, 0))
        check_metrics(first, shown, spec["end_to_end"])
        for name, _, _, unit in ALIASES[workload]:
            if shown.get(name) != unit:
                raise AssertionError(f"{workload}: {name} not printed in {unit}")
        for name in (f"{workload}.ops", f"{workload}.failed"):
            if name not in shown:
                raise AssertionError(f"{workload}: {name} not printed")
        _, _, again = parsed(run(workload, 1, 0))
        if exact != again:
            raise AssertionError(f"{workload}: exact counts differ at one seed:\n"
                                 + "\n".join(set(exact) ^ set(again)))
        _, _, other = parsed(run(workload, 2, 0))
        digests = lambda lines: {l for l in lines if l.endswith(" sha256/16")}
        if not digests(exact) or digests(exact) & digests(other):
            raise AssertionError(f"{workload}: digests do not change with the seed")
        print(f"{workload}: ok ({len(exact)} exact lines)")

    traced, shown, _ = parsed(run("decompose", 1, 1))
    check_metrics(traced, shown, spec["per_layer"])
    print(f"trace: ok ({len(traced['metrics'])} per-layer metrics)")

    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run("decompose", 1, 0, cwd=bare)
    shutil.rmtree(bare)
    if p.returncode == 0 or p.stdout.strip():
        raise AssertionError("benchmark ran without the package")
    print("bare checkout: refused, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
