"""`cli` workload: ``python -m qschmidt`` child processes, one at a time.

A cycle makes the fixed rotation of short calls in `ROTATION`, whose
outputs must match the golden transcript, then one bulk ``sample`` call
on a 4-state family seeded from the workload seed.  Short calls decode
sets and are dominated by process start and imports; the bulk call
encodes many sets and is dominated by JSON encoding.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import qschmidt
import qschmidt.cli
import qschmidt.jsonio
from common import CHECK_TOL, Record, child_env, digest, median, now_ns
from wl_sets import family_key

_R = 0.7071067811865476
_BELL = ('[[[%r,0],[0,0],[0,0],[%r,0]],[[0,0],[%r,0],[%r,0],[0,0]],'
         '[[0,0],[%r,0],[%r,0],[0,0]]]' % (_R, _R, _R, _R, _R, -_R))

#: (name, argv after ``-m qschmidt``, stdin taken from the golden stdout of
#: the named entry or None).  Inputs are fixed and well conditioned.
ROTATION = (
    ("decompose", ["decompose", "--state",
                   "[[0.5,0.1],[0.3,-0.2],[0.1,0.4],[-0.6,0.25]]"], None),
    ("construct", ["construct", "--type", "ppee", "--case", "2", "--params",
                   '{"a": [0.6, 0.2], "b": [-0.3, 0.7], "c": [0.5, -0.4], '
                   '"d": [0.2, 0.75]}'], None),
    ("classify", ["classify", "--set", _BELL], None),
    ("mix", ["mix", "--set", _BELL, "--weights", "[0.5, 0.3, 0.2]",
             "--reduce", "a"], None),
    ("verify", ["verify"], "construct"),
    ("sample", ["sample", "--type", "pmee", "--count", "1", "--seed", "7"], None),
    ("sample-refused", ["sample", "--type", "pppe"], None),
)
BULK_FAMILY = ("ppee", 2, None)
GOLDEN = Path(__file__).with_name("golden.json")
LAUNCHER = Path(__file__).with_name("launcher.py")


def close_enough(got, want) -> bool:
    """Same JSON structure, equal strings and numbers within 1e-12."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(close_enough(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(close_enough(g, w) for g, w in zip(got, want)))
    if isinstance(want, bool) or not isinstance(want, (int, float)):
        return got == want
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and abs(got - want) <= CHECK_TOL)


def matches_golden(entry: dict, code: int, out: str, err: str) -> bool:
    if code != entry["exit"]:
        return False
    try:
        if entry["stdout"]:
            return close_enough(json.loads(out), json.loads(entry["stdout"]))
        return (out == "" and json.loads(err)["error"]
                == json.loads(entry["stderr"])["error"])
    except (json.JSONDecodeError, KeyError, TypeError):
        return False


def bulk_sets_ok(objs, count: int) -> bool:
    """Every emitted set decodes to states that pass `verify_set`."""
    if not isinstance(objs, list) or len(objs) != count:
        return False
    for obj in objs:
        raw = obj["states"] if "states" in obj else [obj["first"], obj["second"]]
        states = [np.array([complex(re, im) for re, im in s]) for s in raw]
        if not qschmidt.verify_set(states).passed:
            return False
    return True


class Cli:
    name = "cli"

    def __init__(self, seed: int, smoke: bool, root: Path):
        self.seed = seed
        self.count = 20 if smoke else 500
        self.probe_reps = 2 if smoke else 5
        self.root = root

    def setup(self):
        self.golden = {e["name"]: e for e in json.loads(GOLDEN.read_text())}
        self.env = child_env(self.root)
        self.calls = []
        for name, argv, stdin_from in ROTATION:
            stdin = self.golden[stdin_from]["stdout"] if stdin_from else ""
            self.calls.append((name, argv, stdin))
        set_type, case_id, _ = BULK_FAMILY
        self.bulk_argv = ["sample", "--type", set_type, "--case", str(case_id),
                          "--count", str(self.count), "--seed", str(self.seed)]

    def run(self, seconds: float) -> dict:
        """Whole cycles until ``seconds`` have passed, each call made by
        `launcher.py`, which also reports the children's peak RSS."""
        deadline = now_ns() + int(seconds * 1e9)
        rec = Record(1 << 12)  # latencies: short calls; rates: bulk calls
        failed, calls, cycle = 0, 0, 0
        mismatched, first_bulk = 0, None
        launcher = subprocess.Popen(
            [sys.executable, "-I", "-S", str(LAUNCHER)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, cwd=self.root)
        try:
            def child(argv, stdin=""):
                launcher.stdin.write(json.dumps({
                    "argv": [sys.executable, "-m", "qschmidt", *argv],
                    "stdin": stdin, "env": self.env, "cwd": str(self.root)}) + "\n")
                launcher.stdin.flush()
                return json.loads(launcher.stdout.readline())

            while cycle == 0 or now_ns() < deadline:
                for name, argv, stdin in self.calls:
                    ns, code, out, err, _ = child(argv, stdin)
                    rec.add(ns)
                    rec.window(0, ns, 1)
                    calls += 1
                    entry = self.golden[name]
                    failed += not matches_golden(entry, code, out, err)
                    if cycle == 0:
                        mismatched += out != entry["stdout"] or err != entry["stderr"]
                ns, code, out, _, peak_kb = child(self.bulk_argv)
                rec.window(self.count, ns, 0)
                calls += 1
                if cycle == 0:
                    first_bulk = out
                failed += code != 0 or out != first_bulk
                cycle += 1
        finally:
            launcher.stdin.close()
            launcher.wait(timeout=120)
        try:
            objs = json.loads(first_bulk)
        except json.JSONDecodeError:
            objs = None
        exact = {"cli.golden_byte_mismatch_n": mismatched}
        digests = {}
        if bulk_sets_ok(objs, self.count):
            exact["cli.bulk_sets_n"] = len(objs)
            digests["cli.bulk.params"] = digest([o["params"] for o in objs])
        else:
            failed += cycle  # every bulk call repeated the first one's output
        return {
            "ops": calls, "failed": failed, "gate_failures": failed,
            "record": rec,
            "exact": exact,
            "digests": digests,
            "peak_rss_mb": peak_kb / 1024.0,
        }

    def main_in_process(self, argv, stdin):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = qschmidt.cli.main(list(argv))
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    def work_once(self, tracer=None):
        """The rotation and the bulk call's library work, in process:
        (busy s, ops, failed, gate failures)."""
        busy = mismatched = failed = 0
        for name, argv, stdin in self.calls:
            if tracer is not None:
                tracer.new_op()
                root = tracer.begin("cli.main." + name)
            t0 = now_ns()
            code, out, err = self.main_in_process(argv, stdin)
            busy += now_ns() - t0
            if tracer is not None:
                tracer.end(root)
            entry = self.golden[name]
            failed += not matches_golden(entry, code, out, err)
            mismatched += out != entry["stdout"] or err != entry["stderr"]
        set_type, case_id, variant = BULK_FAMILY
        spec = qschmidt.SampleSpec(set_type=set_type, case_id=case_id,
                                   variant=variant, seed=self.seed,
                                   count=self.count)
        jsonio = qschmidt.jsonio
        if tracer is not None:
            tracer.new_op()
            root = tracer.begin("cli.bulk")
        t0 = now_ns()
        payload = [jsonio.set_to_obj(s) for s in qschmidt.sample(spec)]
        if tracer is not None:
            dumps = tracer.begin("jsonio.dumps")
        json.dump(payload, io.StringIO())  # as the CLI writes its payload
        if tracer is not None:
            tracer.end(dumps)
        busy += now_ns() - t0
        if tracer is not None:
            tracer.end(root)
        self.byte_mismatch = mismatched
        return busy * 1e-9, len(self.calls) + 1, failed, failed

    def probes(self) -> dict:
        """Median wall ms of bare interpreter start and of each import."""
        codes = {"pass": "pass", "numpy": "import numpy",
                 "qschmidt": "import qschmidt"}
        times = {k: [] for k in codes}
        for _ in range(self.probe_reps):
            for key, code in codes.items():
                t0 = now_ns()
                subprocess.run([sys.executable, "-c", code], check=True,
                               env=self.env, cwd=self.root, timeout=120)
                times[key].append((now_ns() - t0) * 1e-6)
        med = {k: median(sorted(v)) for k, v in times.items()}
        return {
            "cli.python_start_ms": (med["pass"], "ms"),
            "cli.import_numpy_ms": (med["numpy"] - med["pass"], "ms"),
            "cli.import_qschmidt_ms": (med["qschmidt"] - med["pass"], "ms"),
        }

    def layers(self, tracer) -> dict:
        out = {}
        for name, _, _ in self.calls:
            s = tracer.summary(root="cli.main." + name)
            calls, total, _ = s["cli.main." + name]
            out["cli.main_ms." + name] = (total / calls * 1e-6, "ms")
        bulk = tracer.summary(root="cli.bulk")
        n_bulk = bulk["cli.bulk"][0] * self.count
        per_set = lambda name: (bulk[name][1] / n_bulk * 1e-3, "us/set")
        whole = tracer.summary()
        per_call = lambda name: (whole[name][1] / whole[name][0] * 1e-3, "us/set")
        out.update({
            "jsonio.set_to_obj_us": per_set("jsonio.set_to_obj"),
            "jsonio.dumps_us": per_set("jsonio.dumps"),
            "jsonio.schmidt_to_obj_us": per_set("jsonio.schmidt_to_obj"),
            "jsonio.report_to_obj_us": per_call("jsonio.report_to_obj"),
            "jsonio.states_from_obj_us": per_call("jsonio.states_from_obj"),
            "oracle.sample_us.bulk": per_set("oracle.sample." + family_key(*BULK_FAMILY)),
            "cli.golden_byte_mismatch_n": (self.byte_mismatch, "count"),
        })
        out.update(self.probes())
        return out
