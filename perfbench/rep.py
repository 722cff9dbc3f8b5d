"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --workdir DIR \\
        --result FILE [--trace]

Imports groupapprox from the checkout's ``src/``, generates the workload's
inputs (both are set-up, timed as ``setup_s``), then runs every step through
``groupapprox.cli.main`` in this process, timing each call alone and
checking its output afterwards. Writes one JSON result to ``--result``.
``run.py`` starts this script once per repetition, one at a time.

Every time is recorded twice: as wall seconds, and as wall seconds divided
by the machine's slowdown on fixed reference loops measured right before
and after (see ``slowdown``). The second is what the benchmark gates on;
both are reported.
"""
import argparse
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import groupapprox from this checkout only, never from elsewhere."""
    sys.path.insert(0, SRC)
    import groupapprox
    where = os.path.dirname(os.path.abspath(groupapprox.__file__))
    if where != os.path.join(SRC, "groupapprox"):
        raise SystemExit(f"groupapprox imported from {where}, not {SRC}")


def _python_work(_):
    table = {}
    for i in range(20000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i


def _numpy_work(arrays):
    table, rows = arrays
    for i in range(24):
        (table[i][table[rows]] != table[rows]).sum(axis=1)


def numpy_reference_data():
    """A 641 x 641 index table (0.8 MB, small beside the peak memory of
    the workloads that use it) and rows to gather from it."""
    import numpy as np
    i = np.arange(641)
    table = np.empty((641, 641), dtype=np.int16)
    for r in range(641):  # row by row, so no large temporary is allocated
        table[r] = (r * 389 + i * 211) % 641
    return table, (i[:64] * 97) % 641


# Times of the two reference loops on an idle machine of the kind the
# benchmark was written on (2-vCPU x86-64 VM, Python 3.11, numpy 2.4).
NOMINAL_PYTHON_S = 0.0025
NOMINAL_NUMPY_S = 0.0030


def _typical_time(work, arg):
    """The third fastest of seven runs: a low quantile, which bursts of
    load from other tenants move less than the median."""
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        work(arg)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[2]


def slowdown(numpy_data=None):
    """How much slower than nominal this machine runs a fixed pure-Python
    loop right now, averaged with a numpy gather like the verifier's when
    ``numpy_data`` is given; 1.0 means nominal speed.

    On a shared machine the speed of one vCPU drifts by a third within
    minutes. Dividing a step's wall time by the slowdown measured just
    before and after it removes most of that drift from the result."""
    factor = _typical_time(_python_work, None) / NOMINAL_PYTHON_S
    if numpy_data is None:
        return factor
    return (factor
            + _typical_time(_numpy_work, numpy_data) / NOMINAL_NUMPY_S) / 2


def run_step(cli, step, workdir):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    gc.collect()
    sys.stdout, sys.stderr = out, err
    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(step.argv)
    except Exception:
        rc = None
        error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
    finally:
        seconds = time.perf_counter() - t0
        sys.stdout, sys.stderr = saved
    stdout = out.getvalue()
    if error is None and rc != step.expect_rc:
        error = (f"exit {rc}, expected {step.expect_rc}: "
                 f"{err.getvalue().strip()[:200]}")
    if error is None and step.check is not None:
        try:
            step.check(stdout, workdir)
        except Exception as e:  # any crash of a check is a failed check
            error = f"check: {type(e).__name__}: {e}"
    digest = hashlib.sha256(stdout.encode())
    size = len(stdout.encode())
    for name in step.artifacts:
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            with open(path, "rb") as f:
                data = f.read()
            digest.update(data)
            size += len(data)
    return {"name": step.name, "kind": step.kind, "seconds": seconds,
            "rc": rc, "probe": step.probe, "error": error,
            "digest": digest.hexdigest(), "bytes": size}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--rep", type=int, default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true",
                      help="time the set-up alone, run no step")
    args = ap.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    slow_before = slowdown()
    t0 = time.perf_counter()
    import_package()
    from groupapprox import cli
    import workloads
    steps = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.perf_counter() - t0
    setup_slowdown = (slow_before + slowdown()) / 2
    result = {"wall_setup_s": setup_s, "setup_s": setup_s / setup_slowdown}
    if args.setup_only:
        with open(args.result, "w") as f:
            json.dump(result, f)
        return
    numpy_data = (numpy_reference_data()
                  if args.workload in workloads.NUMPY_HEAVY else None)

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer(args.rep)
        tracer.install()
    results = []
    slow_before = slowdown(numpy_data)
    for step in steps:
        res = run_step(cli, step, args.workdir)
        slow_after = slowdown(numpy_data)
        res["norm_seconds"] = res["seconds"] * 2 / (slow_before + slow_after)
        results.append(res)
        slow_before = slow_after

    result.update({
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps": results,
        "versions": {"python": sys.version.split()[0],
                     "numpy": metadata.version("numpy"),
                     "sympy": metadata.version("sympy")},
    })
    if tracer is not None:
        result["trace"] = tracer.summary()
        spans = os.path.join(args.workdir, "spans.jsonl")
        tracer.write_spans(spans)
        result["spans_file"] = spans
    with open(args.result, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
