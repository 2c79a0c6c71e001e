"""One workload in a fresh process: timed passes, output checks, trace.

Run by ``run.py``; writes its record as JSON to ``--record``.  A pass runs
every operation of the workload once, one after the other (a closed loop
with one client).  Passes repeat while another one fits in ``--seconds``.
With ``--trace 1`` one untraced pass is followed by one traced pass.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_DIR = os.path.join(ROOT, "perfbench", "_run")
HASHES = os.path.join(RUN_DIR, "hashes.json")


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _digest(outdir):
    """SHA-256 over the names and bytes of an operation's output files."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        if name.endswith((".csv", ".json", ".dat")):
            h.update(name.encode() + b"\0")
            with open(os.path.join(outdir, name), "rb") as fp:
                h.update(fp.read())
    return h.hexdigest()


def _load_hashes():
    try:
        with open(HASHES, encoding="utf-8") as fp:
            return json.load(fp)
    except FileNotFoundError:
        return {}


def _save_hashes(hashes):
    tmp = HASHES + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fp:
        json.dump(hashes, fp, sort_keys=True, indent=0)
    os.replace(tmp, HASHES)


def run_pass(ops, workdir, tracer=None):
    """Run every operation once; returns (wall s, cpu s, exit codes, op s)."""
    codes, times = [], []
    t0, c0 = time.perf_counter(), _cpu_seconds()
    for i, op in enumerate(ops):
        outdir = os.path.join(workdir, f"{i:02d}")
        if tracer is not None:
            tracer.begin_op(i)
            span = tracer.open("op")
        t_op = time.perf_counter()
        try:
            codes.append(op.run(outdir))
        except Exception as exc:  # an operation that raises counts as failed
            print(f"perfbench: {op.label} raised {exc!r}", file=sys.stderr)
            codes.append(None)
        finally:
            if tracer is not None:
                tracer.close(span)
            times.append(time.perf_counter() - t_op)
    return time.perf_counter() - t0, _cpu_seconds() - c0, codes, times


def judge(ops, workdir, codes, key, hashes):
    """Failure messages per operation: exit code, output check, byte identity
    against the first run with the same workload and seed."""
    failures = []
    for i, (op, rc) in enumerate(zip(ops, codes)):
        outdir = os.path.join(workdir, f"{i:02d}")
        if rc != 0:
            failures.append([f"{op.label}: exit code {rc}"])
            continue
        try:
            msgs = [f"{op.label}: {m}" for m in op.check(outdir)]
        except Exception as exc:  # a check that cannot read its output fails
            msgs = [f"{op.label}: unreadable output ({exc!r})"]
        digest = _digest(outdir)
        first = hashes.setdefault(f"{key}/{i}:{op.label}", digest)
        if digest != first:
            msgs.append(f"{op.label}: output bytes differ from the first run")
        failures.append(msgs)
    return failures


def _blas():
    """BLAS library and its thread count, read from the loaded library."""
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fp:
            libs = {line.split()[-1] for line in fp if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return {"library": name, "threads": threads}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fp:
            ref = fp.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fp:
            return fp.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def machine():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--record", required=True)
    args = p.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import liqdrop.cli  # noqa: F401  (the CLI is ready before timing)

    import spans
    import workloads

    ops = workloads.build(args.workload, args.seed)
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    hashes = _load_hashes()
    key = f"{args.workload}/{args.seed}"
    walls, cpus, op_times, failures = [], [], [], []
    record = {"workload": args.workload, "seed": args.seed, "ops": [op.label for op in ops]}

    def one_pass(tracer=None):
        shutil.rmtree(workdir, ignore_errors=True)
        wall, cpu, codes, times = run_pass(ops, workdir, tracer)
        op_times.append(times)
        failures.extend(judge(ops, workdir, codes, key, hashes))
        return wall, cpu

    try:
        start = time.perf_counter()
        while True:
            wall, cpu = one_pass()
            walls.append(wall)
            cpus.append(cpu)
            elapsed = time.perf_counter() - start
            if args.trace or elapsed + wall > args.seconds:
                break
        if args.trace:
            tr = spans.Tracer()
            missing = spans.install(tr)
            traced_wall, _ = one_pass(tr)
            record["per_layer"] = spans.layer_metrics(tr, traced_wall, walls[0])
            record["ewald_calls_by_n"] = spans.ewald_sizes(tr)
            gaps = missing + [f"no call recorded in layer {name}"
                              for name in spans.coverage(tr, args.workload)]
            failures.append([f"trace: {g}" for g in gaps])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _save_hashes(hashes)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record.update(
        passes=len(walls),
        wall_s=walls,
        cpu_s=cpus,
        op_s=op_times,
        wall_s_median=statistics.median(walls),
        cpu_s_median=statistics.median(cpus),
        peak_rss_mb=max(own, kids) / 1024.0,  # ru_maxrss is in KiB on Linux
        attempted=len(failures),
        failed=sum(1 for f in failures if f),
        failures=[m for f in failures for m in f],
        machine=machine(),
    )
    with open(args.record, "w", encoding="utf-8") as fp:
        json.dump(record, fp)


if __name__ == "__main__":
    main()
