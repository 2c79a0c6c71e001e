"""liqdrop benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload crystal --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src``; nothing is installed).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the full record (machine, passes, per-operation failures).

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: interpreter start until ``liqdrop.cli`` is imported, median
  over fresh interpreters;
- ``wall_s``: wall time of one pass over the workload's operations (median
  over the passes that fit in ``--seconds``; at least one);
- ``cpu_s``: user plus system CPU time of that pass, all threads included;
- ``peak_rss_mb``: peak resident memory of the workload process.

The failure ratio is ``failed / attempted`` in the result line.  ``--trace 1``
reports the per-layer metrics of ``spans.py`` from one traced pass, after
one untraced pass that sets the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import BUILDERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, "_run")
SETUP_PROBES = 5
# a workload process that outlives this is stuck; the run must end in 180 s
WORKER_TIMEOUT = 170.0

_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import liqdrop.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


def setup_seconds():
    """Median time from spawning an interpreter until the CLI is importable."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _PROBE, SRC],
                              stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("liqdrop.cli failed to import")
    return statistics.median(times)


def run_worker(args):
    fd, record_path = tempfile.mkstemp(prefix="record-", suffix=".json", dir=RUN_DIR)
    os.close(fd)
    try:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--record", record_path]
        with subprocess.Popen(cmd, stdout=subprocess.DEVNULL, cwd=ROOT) as proc:
            try:
                proc.wait(timeout=WORKER_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RuntimeError("workload process timed out")
        if proc.returncode != 0:
            raise RuntimeError(f"workload process exited with {proc.returncode}")
        with open(record_path, encoding="utf-8") as fp:
            return json.load(fp)
    finally:
        os.unlink(record_path)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(SRC, "liqdrop", "cli.py")):
        print(f"perfbench: no liqdrop sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    try:
        setup = None if args.trace else setup_seconds()
        record = run_worker(args)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in record["per_layer"].items()}
    else:
        record["setup_s"] = setup
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": record["wall_s_median"], "unit": "s"},
            "cpu_s": {"value": record["cpu_s_median"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    record["fail_ratio"] = record["failed"] / record["attempted"]
    for msg in record["failures"]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
