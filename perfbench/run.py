"""groupapprox benchmark: seeded CLI pipelines, end to end and per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S \\
        --trace 0|1 [--out RESULTS.json]

Run from the root of a checkout. Each repetition of a workload runs in a
fresh interpreter (``rep.py``), one process at a time, so no cache survives
from one repetition to the next. Repetitions fill ``--seconds`` (at least
two, so that artifacts can be compared byte for byte).

With ``--trace 0`` the end-to-end metrics are medians over the repetitions:
``pipeline_s`` (all timed steps), ``setup_s`` (importing groupapprox and
generating inputs) and ``peak_rss_mb``. The two times are wall seconds
divided by the machine's slowdown on a fixed reference loop measured
around each step (``rep.slowdown``), which keeps them steady on a shared
machine whose speed drifts; the raw wall seconds are reported beside them.
With ``--trace 1`` the run alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones; ``trace.overhead_s`` is
traced minus untraced ``pipeline_s``. The last line of standard output is
one JSON object; the lines before it are the human-readable report. With
``--workload all`` every workload runs in turn and the metrics in the last
line are named ``<workload>.<metric>``.

``correct`` is false when a step on well-formed input fails its check or
exit code, when repetitions write different artifacts, or when the work
counters of two traced repetitions differ. ``failed`` counts every failed
step, including the malformed-input probes of ``verify_received``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layertrace import LAYERS  # noqa: E402
from workloads import KINDS, STRESSORS, WORKLOADS  # noqa: E402

WORK = os.path.join(HERE, ".work")
REP = os.path.join(HERE, "rep.py")
MIN_REPS = 2
SETUP_SAMPLES = 5  # set-up is short and noisy: time it at least this often
RUN_LIMIT_S = 170  # a whole run, set-up included, ends before this
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# Metric names and units come from BENCHMARK.json. Per-layer times there
# are only those nonzero on every workload; the full trace goes to --out.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
COUNTERS = [name for name, unit in PER_LAYER.items() if unit == "count"]
# Reported beside the end-to-end metrics, without a bound: per-kind times (a
# workload without steps of a kind has no such metric), raw wall times and
# the error rate.
REPORTED = {**END_TO_END, **{f"{kind}_s": "s" for kind in KINDS},
            "wall_pipeline_s": "s", "wall_setup_s": "s", "error_rate": "ratio"}


class BenchError(Exception):
    pass


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    return env


def run_rep(workload, seed, rep, deadline, flag=None):
    """One repetition in a fresh interpreter; ``flag`` is ``--trace`` or
    ``--setup-only``."""
    workdir = os.path.join(WORK, f"{workload}-{seed}-{rep}")
    shutil.rmtree(workdir, ignore_errors=True)
    result_path = workdir + ".json"
    cmd = [sys.executable, REP, "--workload", workload, "--seed", str(seed),
           "--workdir", workdir, "--result", result_path, "--rep", str(rep)]
    if flag:
        cmd.append(flag)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a repetition could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition {rep} of {workload} timed out")
    if proc.returncode != 0:
        raise BenchError(f"repetition {rep} of {workload} exited "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(result_path) as f:
        result = json.load(f)
    os.remove(result_path)
    if flag == "--trace":
        with open(result.pop("spans_file")) as f:
            result["spans"] = f.read()
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def warm_up():
    """Import the package once untimed, so byte-compilation is not set-up."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import groupapprox.cli")
    proc = subprocess.run([sys.executable, "-c", code,
                           os.path.join(ROOT, "src")],
                          cwd=ROOT, env=child_env(), timeout=60,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"cannot import groupapprox from {ROOT}/src:\n"
                         f"{proc.stderr[-2000:]}")


def rep_metrics(result):
    steps = result["steps"]
    out = {"pipeline_s": sum(s["norm_seconds"] for s in steps),
           "setup_s": result["setup_s"],
           "wall_pipeline_s": sum(s["seconds"] for s in steps),
           "wall_setup_s": result["wall_setup_s"],
           "peak_rss_mb": result["peak_rss_mb"],
           "error_rate": sum(s["error"] is not None for s in steps)
           / len(steps)}
    for kind in KINDS:
        if any(s["kind"] == kind for s in steps):
            out[f"{kind}_s"] = sum(s["norm_seconds"] for s in steps
                                   if s["kind"] == kind)
    return out


def layer_metrics(workload, result):
    """Per-layer metrics of one traced repetition. Times are scaled by the
    repetition's slowdown, like the end-to-end times."""
    wall = sum(s["seconds"] for s in result["steps"])
    norm = sum(s["norm_seconds"] for s in result["steps"])
    out = {k: v * norm / wall if k.endswith(("_s", ".s")) else v
           for k, v in result["trace"].items()}
    out["trace.pipeline_s"] = norm
    verify_s = out.get("certify.verify_D.s", 0.0)
    out["certify.verify_D.pairs_per_s"] = (
        out.get("certify.verify_D.pairs", 0) / verify_s if verify_s else 0.0)
    selfs = {k[:-len(".self_s")]: v for k, v in out.items()
             if k.endswith(".self_s") and not k.startswith("layer.")}
    selfs.pop("trace.internal", None)
    names = STRESSORS[workload]
    stressor = sum(selfs.get(n, 0.0) for n in names)
    others = [v for n, v in selfs.items() if n not in names]
    out["stressor.self_s"] = stressor
    out["stressor.share"] = stressor / sum(selfs.values())
    out["stressor.lead"] = stressor / max(others)
    out["trace.accounted"] = (sum(selfs.values())
                              + out.get("trace.internal.self_s", 0.0)) / norm
    return out


def summarize(samples):
    value = statistics.median(samples)
    q1, q3 = quartiles(samples)
    return {"value": value, "q1": q1, "q3": q3, "n": len(samples)}


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    loadavg_start = os.getloadavg()
    warm_up()
    plain, traced = [], []
    start = time.monotonic()
    # Start another repetition (or traced pair) only if it should end
    # within --seconds, judging by the ones so far.
    while True:
        plain.append(run_rep(workload, seed, len(plain) + len(traced),
                             deadline))
        if trace:
            traced.append(run_rep(workload, seed, len(plain) + len(traced),
                                  deadline, "--trace"))
        elapsed = time.monotonic() - start
        if (len(plain) >= (1 if trace else MIN_REPS)
                and elapsed * (len(plain) + 1) / len(plain) > seconds):
            break
    reps = plain + traced

    failures = []
    correct = True
    for i, r in enumerate(reps):
        for s in r["steps"]:
            if s["error"] is not None:
                failures.append(f"rep {i} {s['name']}: {s['error']}")
                correct &= s["probe"]
    digests = {tuple(s["digest"] for s in r["steps"]) for r in reps}
    if len(digests) > 1:
        correct = False
        failures.append("repetitions wrote different artifacts")

    per_rep = [rep_metrics(r) for r in plain]
    samples = {name: [m[name] for m in per_rep]
               for name in REPORTED if name in per_rep[0]}
    while not trace and len(samples["setup_s"]) < SETUP_SAMPLES:
        extra = run_rep(workload, seed, len(reps) + len(samples["setup_s"]),
                        deadline, "--setup-only")
        samples["setup_s"].append(extra["setup_s"])
        samples["wall_setup_s"].append(extra["wall_setup_s"])
    metrics = {name: dict(summarize(values), unit=REPORTED[name])
               for name, values in samples.items()}
    layers = {}
    if trace:
        traced_layers = [layer_metrics(workload, r) for r in traced]
        counts = {tuple(lm.get(c, 0) for c in COUNTERS)
                  for lm in traced_layers}
        if len(counts) > 1:
            correct = False
            failures.append("work counters differ between repetitions")
        for name in sorted(set().union(*traced_layers)):
            vals = [lm.get(name, 0) for lm in traced_layers]
            layers[name] = summarize(vals)
            if layer_unit(name) == "count":  # exact: report it as counted
                layers[name]["value"] = vals[0]
        sizes = [sum(s["bytes"] for s in r["steps"]) for r in traced]
        layers["cli.artifact_bytes"] = dict(summarize(sizes), value=sizes[0])
        layers["trace.overhead_s"] = summarize(
            [layers["trace.pipeline_s"]["value"]
             - metrics["pipeline_s"]["value"]])
        os.makedirs(WORK, exist_ok=True)
        spans_path = os.path.join(WORK, f"{workload}-{seed}.spans.jsonl")
        spans_file = os.path.relpath(spans_path, ROOT)
        with open(spans_path, "w") as f:
            for r in traced:
                f.write(r["spans"])

    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": bool(trace), "correct": correct,
        "attempted": sum(len(r["steps"]) for r in reps),
        "failed": sum(s["error"] is not None for r in reps
                      for s in r["steps"]),
        "failures": failures,
        "env": {**reps[0]["versions"], "nproc": os.cpu_count(),
                "machine": platform.machine(),
                "loadavg_start": loadavg_start,
                "loadavg_end": os.getloadavg(), "pinned": PINNED_ENV},
        "samples": samples,
        "metrics": metrics,
        "per_layer": layers,
        "spans_file": spans_file if trace else None,
    }


def layer_unit(name):
    if name in PER_LAYER:
        return PER_LAYER[name]
    if name == "trace.accounted":
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    return "bytes" if name.endswith("bytes") else "count"


def report(res):
    """Human-readable lines for one workload's result."""
    env = res["env"]
    lines = [f"== {res['workload']} seed={res['seed']} "
             f"trace={int(res['trace'])} python={env['python']} "
             f"numpy={env['numpy']} sympy={env['sympy']} "
             f"nproc={env['nproc']} load={env['loadavg_start'][0]:.2f}"]
    rows = dict(res["metrics"])
    if res["trace"]:
        rows.update({k: dict(v, unit=layer_unit(k))
                     for k, v in res["per_layer"].items()
                     if k in PER_LAYER
                     or k.endswith(".self_s") and v["value"] > 0.01})
    for name, m in rows.items():
        lines.append(f"  {name:44s} {m['value']:14.6g} {m.get('unit', ''):6s}"
                     f" q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}")
    if res["trace"]:
        pl = res["per_layer"]
        layer = ", ".join(f"{name} {pl[f'layer.{name}.self_s']['value']:.4g}"
                          for name in LAYERS + ("trace",))
        lines.append(f"  layer self s: {layer}; sum/traced pipeline_s = "
                     f"{pl['trace.accounted']['value']:.4f}")
        lines.append(f"  stressor {'+'.join(STRESSORS[res['workload']])}: "
                     f"share {pl['stressor.share']['value']:.3f}, "
                     f"lead over the next name "
                     f"{pl['stressor.lead']['value']:.3f}")
        lines.append(f"  spans: {res['spans_file']}")
    lines.append(f"  steps attempted={res['attempted']} "
                 f"failed={res['failed']} correct={res['correct']}")
    lines += [f"  FAILED {f}" for f in res["failures"]]
    return lines


def contract_line(results):
    """The last line: end-to-end or per-layer metrics with their units."""
    metrics = {}
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        if res["trace"]:
            for name, unit in PER_LAYER.items():
                # a counter a workload never touches was never recorded
                got = res["per_layer"].get(name) if unit == "count" \
                    else res["per_layer"][name]
                metrics[prefix + name] = {
                    "value": got["value"] if got else 0, "unit": unit}
        else:
            for name, unit in END_TO_END.items():
                metrics[prefix + name] = {
                    "value": res["metrics"][name]["value"], "unit": unit}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the full results as JSON")
    args = ap.parse_args()

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace)
                   for w in names]
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    for res in results:
        print("\n".join(report(res)))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    print(json.dumps(contract_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
