"""Benchmark of hosvd3 through its CLI entry ``hosvd3.cli.run(argv)``.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  A caller that measures passes all four
options; --seconds defaults to ``run_seconds`` in BENCHMARK.json.  For each
workload (all three when --workload is not given) it writes the seeded
inputs, starts fresh worker processes (see worker.py) to measure set-up and
then a timed run, checks every output against values computed apart from
the program (checks.py), and prints one JSON line: ``correct``,
``attempted``, ``failed`` and the metrics.  With --trace 0 these are the
end-to-end metrics; with --trace 1 the per-layer metrics of a traced run
(tracer.py).  Every time is rescaled to the host speed at which the
calibration kernel takes calibrate.NOMINAL_S; the figures as measured go to
standard error.  See README.md.
"""

import os

# Pin BLAS to one thread, here and in the workers that inherit it (README).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The program's default tolerance, which the checks assume, not the caller's.
os.environ.pop("HOSVD3_TOL", None)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("sample_haar", "classify_files", "decompose_tensors")
SETUP_RUNS = 11  # fresh workers that time set-up alone, per run
KERNELS_AROUND_SETUP = 3  # kernel timings taken here before and after each
# A call's time is rescaled by the median of the kernel timings in this
# window around it: the one before the call, the one after it, and one more
# on each side.
SPEED_WINDOW = (-1, 3)
WORKER_GRACE_S = 150


def spawn_worker(plan_path, out_dir, seconds=0.0, trace=0, setup_only=False):
    argv = [sys.executable, os.path.join(BENCH, "worker.py"), "--plan", plan_path,
            "--out", out_dir, "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          timeout=seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def verify(workload, plan, truths, records, out_dir):
    """Check every output; return (correct, failed ops, problems)."""
    problems, failed = [], 0
    partner_docs = {}
    ext = "csv" if plan["kind"] == "sample" else "json"
    for r, i, _, code, _ in records:
        if code != 0:
            problems.append(f"round {r} call {i} exited {code}")
            continue
        with open(os.path.join(out_dir, f"r{r}_{i}.{ext}"), encoding="utf-8") as fh:
            raw = fh.read()
        if workload == "sample_haar":
            found = checks.check_sample(raw, plan["seed_base"] + r, plan["count"])
        elif workload == "classify_files":
            found = checks.check_classify(json.loads(raw), truths[i]["amps"],
                                          truths[i]["expected_tag"])
        else:
            doc = json.loads(raw)
            found = checks.check_decompose(doc, truths[i]["data"],
                                           partner_docs.get(truths[i]["partner"]))
            partner_docs.setdefault(i, doc)
        if workload == "decompose_tensors" and truths[i]["partner"] is not None \
                and checks.known_fault(found):
            failed += 1
        elif found:
            problems.append(f"round {r} call {i}: " + "; ".join(found[:3]))
    return not problems, failed, problems


def timed_setups(plan_path, out_dir):
    """Set-up times of SETUP_RUNS fresh workers, as measured and rescaled to
    the nominal host speed by the kernel timings this process takes just
    before and just after each."""
    def kernel_s():
        return [calibrate.timed_kernel() for _ in range(KERNELS_AROUND_SETUP)]

    around, measured = [kernel_s()], []
    for _ in range(SETUP_RUNS):
        measured.append(spawn_worker(plan_path, out_dir, setup_only=True)["setup_s"])
        around.append(kernel_s())
    nominal = [t * calibrate.NOMINAL_S / statistics.median(before + after)
               for t, before, after in zip(measured, around, around[1:])]
    return measured, nominal


def nominal_call_s(res):
    """Each call's time, rescaled to the nominal host speed by the kernel
    timings around it."""
    kernel_s, (lo, hi) = res["kernel_s"], SPEED_WINDOW
    out = []
    for rec in res["records"]:
        k = rec[4]
        out.append(rec[2] * calibrate.NOMINAL_S
                   / statistics.median(kernel_s[max(0, k + lo):k + hi]))
    return out


def timing_metrics(setups, call_s, ops):
    """setup_s, ops_per_s and the latency percentiles, as (value, unit)."""
    lat_ms = [1e3 * t for t in call_s]
    p90 = (statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
           if len(lat_ms) > 1 else lat_ms[0])
    return {"setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (ops / sum(call_s), "1/s"),
            "latency_p50_ms": (statistics.median(lat_ms), "ms"),
            "latency_p90_ms": (p90, "ms")}


def run_workload(workload, seed, seconds, trace):
    work = os.path.join(BENCH, "_work", f"{workload}-{os.getpid()}")
    in_dir, out_dir = os.path.join(work, "in"), os.path.join(work, "out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(in_dir)
    os.makedirs(out_dir)
    try:
        plan, truths = inputs.build(workload, seed, in_dir)
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        setups, nominal_setups = timed_setups(plan_path, out_dir)
        res = spawn_worker(plan_path, out_dir, seconds, trace)
        correct, failed, problems = verify(workload, plan, truths, res["records"], out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still works there
    for p in problems[:20]:
        print(f"{workload}: {p}", file=sys.stderr)

    per_call = plan["count"] if plan["kind"] == "sample" else 1
    attempted = len(res["records"]) * per_call
    failed *= per_call
    speed = calibrate.NOMINAL_S / statistics.median(res["kernel_s"])
    measured = timing_metrics(setups, [rec[2] for rec in res["records"]], attempted - failed)
    print(f"{workload}: as measured, at {speed:.3f} x the nominal host speed: "
          + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in measured.items()), file=sys.stderr)
    if trace:
        # per-layer times, rescaled by the run's median kernel time
        metrics = {k: {"value": m["value"] * (speed if m["unit"] in ("ms", "us") else 1.0),
                       "unit": m["unit"]} for k, m in res["layers"].items()}
    else:
        metrics = timing_metrics(nominal_setups, nominal_call_s(res), attempted - failed)
        metrics["peak_rss_mib"] = (res["maxrss_kib"] / 1024.0, "MiB")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "calls": len(res["records"]), "rounds": res["rounds"]}


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, help="default: all three in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=run_seconds())
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "hosvd3", "cli.py")):
        p.exit(2, f"no hosvd3 source under {os.path.join(ROOT, 'src')}\n")

    if args.workload:
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        res = run_workload(workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"workload": workload, **res}), flush=True)
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for name, metric in res["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
