"""Layered benchmark for qschmidt.

Run from the repository root:

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 20 --trace 0

``--workload`` is ``decompose``, ``sets``, ``cli`` or ``all`` (the three
in turn, each in its own process).  With ``--trace 0`` the run measures
the end-to-end metrics with nothing traced.  With ``--trace 1`` it times
each layer's public calls from outside the package instead (see
`tracing.py`), for every workload, and reports how much slower the named
workload's work ran traced than untraced.  Each run is one single-threaded
process driving a closed loop with one client; ``cli`` runs one child
process at a time.

Report lines come first; the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when the run completes, also when a correctness gate fails
(``correct`` is then false), and 2 when the package is not there to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("decompose", "sets", "cli")
SETUP_REPEATS = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import numpy, qschmidt, qschmidt.cli; "
                "print(time.perf_counter() - t)")
OVERHEAD_PAIRS = 5  # most untraced/traced pairs of the named workload's work

# What each generic end-to-end metric means on each workload, under the
# names the design notes use: {workload: [(name, metric, scale, unit)]}.
ALIASES = {
    "decompose": [("decompose.states_per_s", "throughput_per_s", 1.0, "1/s"),
                  ("decompose.op_us_p50", "latency_p50_ms", 1e3, "us"),
                  ("decompose.op_us_p99", "latency_tail_ms", 1e3, "us")],
    "sets": [("sets.sets_per_s", "throughput_per_s", 1.0, "1/s"),
             ("sets.set_us_p50", "latency_p50_ms", 1e3, "us"),
             ("sets.set_us_tail", "latency_tail_ms", 1e3, "us")],
    "cli": [("cli.bulk_sets_per_s", "throughput_per_s", 1.0, "1/s"),
            ("cli.call_ms_p50", "latency_p50_ms", 1.0, "ms"),
            ("cli.call_ms_tail", "latency_tail_ms", 1.0, "ms")],
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own smoke test")
    return p.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def show(name, value, unit, note=""):
    print(f"{name} = {value!r} {unit}{note}")


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined, correct, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=900)
        sys.stderr.write(p.stderr)
        lines = p.stdout.splitlines()
        if p.returncode != 0 or not lines:
            print(f"workload {workload} exited with {p.returncode}", file=sys.stderr)
            return p.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            combined[f"{workload}.{name}"] = m
    emit(correct, attempted, failed, combined)
    return 0


def make(workload, seed, smoke):
    if workload == "decompose":
        from wl_decompose import Decompose
        return Decompose(seed, smoke)
    if workload == "sets":
        from wl_sets import Sets
        return Sets(seed, smoke)
    from wl_cli import Cli
    return Cli(seed, smoke, ROOT)


def trace_targets():
    """(function, span name, name_of) for every traced public call."""
    import qschmidt
    import qschmidt.core
    import qschmidt.jsonio
    from wl_sets import sample_span_name
    j = qschmidt.jsonio
    return [
        (qschmidt.core.amplitudes, "core.amplitudes", None),
        (qschmidt.schmidt, "schmidt.schmidt", None),
        (qschmidt.schmidt_diagonal, "schmidt.schmidt_diagonal", None),
        (qschmidt.schmidt_nondiagonal, "schmidt.schmidt_nondiagonal", None),
        (qschmidt.reconstruct, "schmidt.reconstruct", None),
        (qschmidt.oracle_schmidt, "oracle.oracle_schmidt", None),
        (qschmidt.sample, "oracle.sample", sample_span_name),
        (qschmidt.verify_set, "oracle.verify_set",
         lambda a, k: f"oracle.verify_set.n{len(a[0] if a else k['states'])}"),
        (qschmidt.classify, "oracle.classify", None),
        (qschmidt.spectral_mix, "mixed.spectral_mix", None),
        (qschmidt.reduce_a, "mixed.reduce_a", None),
        (qschmidt.reduce_b, "mixed.reduce_b", None),
        (j.set_to_obj, "jsonio.set_to_obj", None),
        (j.schmidt_to_obj, "jsonio.schmidt_to_obj", None),
        (j.report_to_obj, "jsonio.report_to_obj", None),
        (j.states_from_obj, "jsonio.states_from_obj", None),
    ]


def timed_setup(bench) -> float:
    """Set-up time: importing numpy and qschmidt in a fresh interpreter,
    plus generating the workload's inputs, each the median of
    `SETUP_REPEATS` tries, scaled to the reference speed like every timing
    (see `common.Record`)."""
    from common import (REFERENCE_CAL_NS, calibration_kernel, child_env,
                        median, now_ns)
    env = child_env(ROOT)
    imports, gens, cals = [], [], []
    for _ in range(SETUP_REPEATS):
        p = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                           capture_output=True, text=True, env=env, cwd=ROOT,
                           timeout=120)
        imports.append(float(p.stdout))
        t0 = now_ns()
        bench.setup()
        gens.append((now_ns() - t0) * 1e-9)
        t0 = now_ns()
        calibration_kernel()
        cals.append(now_ns() - t0)
    raw = median(sorted(imports)) + median(sorted(gens))
    scaled = raw * REFERENCE_CAL_NS / median(sorted(cals))
    print(f"import_s = {median(sorted(imports))!r}  (median of {SETUP_REPEATS} "
          "fresh interpreters)")
    print(f"input_generation_s = {median(sorted(gens))!r}  (median of "
          f"{SETUP_REPEATS})")
    print(f"setup_raw_s = {raw!r}")
    return scaled


def measured(args, bench, setup_s):
    """Untraced run: the end-to-end metrics."""
    import numpy as np
    from common import median, tail
    r = bench.run(args.seconds)
    rec = r["record"]
    values = {}
    for scaled in (True, False):
        lat = rec.latencies(scaled)
        p, tail_ns, beyond = tail(lat)
        values[scaled] = {"throughput_per_s": median(rec.rates(scaled)),
                          "latency_p50_ms": median(lat) * 1e-6,
                          "latency_tail_ms": tail_ns * 1e-6}
    # The tail is printed but not in the result: on a shared machine its
    # run-to-run spread is too wide to hold to a regression bound.
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB"}}
    for name, unit in (("throughput_per_s", "1/s"), ("latency_p50_ms", "ms")):
        metrics[name] = {"value": values[True][name], "unit": unit}
    print("# end-to-end (timings scaled to the reference machine speed; "
          "raw in brackets)")
    show(f"{args.workload}.ops", r["ops"], "count")
    show(f"{args.workload}.failed", r["failed"], "count")
    for key in ("timed_ops", "unstable"):
        if key in r:
            show(f"{args.workload}.{key}", r[key], "count")
    for name, metric, scale, unit in ALIASES[args.workload]:
        note = f"  (raw {values[False][metric] * scale!r}"
        if metric == "latency_tail_ms":
            note += f"; p{p:g} of {len(lat)} samples, {beyond} beyond it"
        show(name, values[True][metric] * scale, unit, note + ")")
    show("machine_slowness", median(np.sort(rec.slowness())), "x",
         f"  (median over {len(rec.windows)} windows; 1 is the reference speed)")
    for name, m in metrics.items():
        show(name, m["value"], m["unit"])
    print("# exact counts")
    for name, value in sorted(r["exact"].items()):
        show(name, value, "count")
    for name, value in sorted(r["digests"].items()):
        show(name, value, "sha256/16")
    correct = r["gate_failures"] == 0
    emit(correct, r["ops"], r["failed"], metrics)


def traced(args, bench):
    """Traced run: per-layer metrics for every workload, and the overhead
    of tracing on the named one.  Per-layer timings are scaled to the
    reference speed by calibrations around each traced pass."""
    from common import REFERENCE_CAL_NS, calibration_kernel, median, now_ns
    from tracing import Tracer

    def calibrate():
        t0 = now_ns()
        calibration_kernel()
        return now_ns() - t0

    targets = trace_targets()
    out_dir = ROOT / ".bench_out"
    benches = {args.workload: bench}
    for w in WORKLOADS:
        if w not in benches:
            benches[w] = make(w, args.seed, args.smoke)
            benches[w].setup()
    metrics, attempted, failed, gates = {}, 0, 0, 0
    ratios, tracers = [], {}
    print("# per-layer (traced; timings scaled to the reference machine speed)")
    for w in WORKLOADS:
        b = benches[w]
        tracer = tracers[w] = Tracer()
        cals = [calibrate()]
        deadline = time.monotonic() + args.seconds
        pairs = OVERHEAD_PAIRS if w == args.workload else 1
        for i in range(pairs):
            if i and time.monotonic() >= deadline:
                break
            plain = b.work_once()[0] if w == args.workload else None
            tracer.install(targets)
            try:
                busy, ops, bad, gate = b.work_once(tracer)
            finally:
                tracer.uninstall()
            cals.append(calibrate())
            if i == 0:  # later passes repeat the same inputs
                attempted += ops
                failed += bad
            gates += gate
            if plain is not None:
                ratios.append(busy / plain)
        slowness = median(sorted(cals)) / REFERENCE_CAL_NS
        layers = b.layers(tracer)
        show(f"{w}.machine_slowness", slowness, "x")
        for name in sorted(layers):
            value, unit = layers[name]
            if unit != "count":
                value /= slowness
            metrics[name] = {"value": value, "unit": unit}
            show(name, value, unit)
    for w, tracer in tracers.items():
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}-{w}.npz")
    overhead = (median(sorted(ratios)) - 1.0) * 100.0
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    show("trace.overhead_pct", overhead, "%",
         f"  ({args.workload} work traced vs untraced, median of {len(ratios)} pairs)")
    emit(gates == 0, attempted, failed, metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "qschmidt" / "__init__.py").is_file():
        print(f"benchmark: no qschmidt package under {src}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    load = os.getloadavg()

    import numpy
    sys.path.insert(0, str(src))
    import qschmidt
    import qschmidt.cli  # noqa: F401  (loaded before anything is timed)

    print("# environment")
    for name, value in (("workload", args.workload), ("seed", args.seed),
                        ("seconds", args.seconds), ("trace", args.trace),
                        ("python", platform.python_version()),
                        ("numpy", numpy.__version__),
                        ("qschmidt", qschmidt.__version__),
                        ("nproc", os.cpu_count()), ("cpu", cpu_model()),
                        ("loadavg_1m_at_start", load[0])):
        print(f"{name} = {value}")

    bench = make(args.workload, args.seed, args.smoke)
    if args.trace:
        bench.setup()
        traced(args, bench)
    else:
        measured(args, bench, timed_setup(bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
