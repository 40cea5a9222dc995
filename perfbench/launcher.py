"""Runs the `cli` workload's child processes on behalf of the benchmark.

Reads one JSON request per line on stdin, ``{"argv": [...], "stdin": str,
"env": {...}, "cwd": str}``, runs the command, and answers one JSON line:
``[wall ns, exit code, stdout, stderr, peak RSS kB of any child so far]``
with the outputs decoded as Latin-1, which keeps every byte.

A child's peak RSS as the kernel reports it includes the peak of the
process it was started from, so the children are started from this small
process rather than from the benchmark, which holds numpy and qschmidt.
"""

import json
import resource
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        t0 = time.perf_counter_ns()
        p = subprocess.run(req["argv"], input=req["stdin"].encode("latin-1"),
                           capture_output=True, env=req["env"], cwd=req["cwd"],
                           timeout=120)
        ns = time.perf_counter_ns() - t0
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write(json.dumps([ns, p.returncode, p.stdout.decode("latin-1"),
                                     p.stderr.decode("latin-1"), peak]) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
