"""Runs the CLI stages for the benchmark from a small process.

A child's ``ru_maxrss`` starts at its parent's high-water mark: ``exec``
records the address space it replaces, and ``subprocess`` starts children
with ``vfork``, which borrows the parent's.  Stages started directly by the
harness, which holds numpy, scipy and the checked outputs, would report the
harness's peak instead of their own.  This launcher (``python3 -S``, no
numpy) starts each stage instead, so a stage's peak RSS is its own.

Protocol: one JSON request per stdin line, ``{"argv": [...], "stderr": path}``;
one JSON reply per stdout line, ``{"returncode", "wall_s", "cpu_s", "maxrss_kib"}``
with the usage of the stage and its reaped pool workers.  Exits at end of input.
"""
import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=subprocess.DEVNULL, stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "returncode": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
