"""pufsec benchmark harness.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run from the repository root; pufsec is imported from ./src.  With
``--trace 0`` the run repeats the workload's pass (its fixed, checked work)
while the time left allows another pass, at least once, and prints the
end-to-end metrics.  With ``--trace 1`` it runs pass 0 untraced and then
again with every public pufsec function wrapped in a span, and prints the
per-layer metrics.  ``--workload all`` runs every workload in turn, each in
its own process, and prints all their metrics.  The last line of stdout is
always one JSON object: {"correct", "attempted", "failed", "metrics"}.
Results, with their provenance, and traced spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
# One BLAS/OpenMP thread: on a 2-vCPU VM a second thread's spin-waits made
# every workload slower (the optimizer-bound one by 15%), never faster.
BLAS_THREADS = 1
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

# Pin BLAS/OpenMP pools before numpy is imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (imports pufsec)
from pufsec import stats  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, one set-up sample (for tests)")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (times setup_s)")
    return ap.parse_args(argv)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "nproc": NPROC, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
            "git_commit": git_commit(), "machine": platform.machine()}


def _child_cmd(args, workload, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    return cmd + ["--tiny"] if args.tiny else cmd


def time_setup(args) -> float:
    """Seconds from starting a fresh process until its workload is set up:
    imports, input generation and one warm-up call."""
    t0 = time.perf_counter()
    with subprocess.Popen(_child_cmd(args, args.workload, "--setup-only"),
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return elapsed


@dataclasses.dataclass
class Counts:
    attempted: int = 0
    failed: int = 0


def execute(ops, tracer=None):
    """Run ops in order; return (outputs, op latencies, pass seconds).  An
    op that raises yields its exception as output."""
    outputs, lat = [], []
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.call()
            else:
                tracer.op = i
                out = tracer.call(tracing.HARNESS_OP, op.call)
        except Exception as exc:            # an op that raises is a failure
            traceback.print_exc()
            out = exc
        lat.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs, lat, time.perf_counter() - t_pass


def record(wl, p, outputs, counts: Counts):
    """Check the outputs of pass p and count attempts and failures."""
    for i, (out, err) in enumerate(zip(outputs, wl.check(p, outputs))):
        counts.attempted += 1
        if isinstance(out, BaseException) or err:
            counts.failed += 1
            print(f"FAILED {wl.name} pass {p} op {i}: {err or out!r}",
                  file=sys.stderr)


def timed_run(wl, seconds, counts) -> dict:
    walls, lats, items = [], [], 0
    start = time.perf_counter()
    p = 0
    while True:
        ops = wl.ops(p)
        outputs, lat, wall = execute(ops)
        record(wl, p, outputs, counts)
        walls.append(wall)
        lats += lat
        items += sum(op.items for op in ops)
        p += 1
        # start another pass only if it should end within the budget
        if time.perf_counter() - start + wall > seconds:
            break
    p50, p90 = np.percentile(lats, [50, 90])
    return {"wall_s": (statistics.median(walls), "s"),
            "query_p50_ms": (1e3 * p50, "ms"),
            "query_p90_ms": (1e3 * p90, "ms"),
            "samples_per_s": (items / sum(walls), "1/s")}


def traced_run(wl, counts, spans_path) -> dict:
    outputs, _, untraced = execute(wl.ops(0))
    record(wl, 0, outputs, counts)
    ops = wl.ops(0)             # inputs are built before the tracer is on
    tracer = tracing.Tracer()
    wl.span = tracer.call
    tracer.install()
    try:
        outputs, _, traced = execute(ops, tracer)
    finally:
        tracer.uninstall()
        del wl.span
    record(wl, 0, outputs, counts)
    m = tracing.layer_metrics(tracer.spans, tracer.stream_passes,
                              stats.unit_interval_rule.cache_info().misses)
    m["trace.wall_s"] = (traced, "s")
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    m["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio")
    m["trace.self_coverage"] = (sum(tracing.self_times(tracer.spans)) / traced,
                                "ratio")
    tracer.write(spans_path)
    return m


def run_one(args) -> dict:
    setups = [] if args.trace else [
        time_setup(args) for _ in range(1 if args.tiny else SETUP_REPEATS)]
    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    wl.setup()
    counts = Counts()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = traced_run(wl, counts, OUT / f"{stem}.spans.jsonl.gz")
    else:
        metrics = timed_run(wl, args.seconds, counts)
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    result = {"correct": counts.failed == 0, "attempted": counts.attempted,
              "failed": counts.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in sorted(metrics.items())}}
    prov = provenance(args)
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"provenance": prov, "setup_samples_s": setups,
         "fail_frac": counts.failed / counts.attempted, **result}, indent=1))
    print(json.dumps({"provenance": prov}))
    print(f"fail_frac {counts.failed / counts.attempted:.6g} ratio"
          f" ({counts.failed}/{counts.attempted})")
    return result


def run_all(args) -> dict:
    """Every workload in its own process; metrics are keyed workload.metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(_child_cmd(args, name), stdout=subprocess.PIPE,
                              text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S + 60)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
        print(f"{name}.fail_frac {res['failed'] / res['attempted']:.6g} ratio"
              f" ({res['failed']}/{res['attempted']})")
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, tiny=args.tiny).setup()
        print("ready", flush=True)
        return 0
    result = run_all(args) if args.workload == "all" else run_one(args)
    for k, v in result["metrics"].items():
        print(f"{k} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
