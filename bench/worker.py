"""The measured process: one workload driven through ``hosvd3.cli.run(argv)``.

Started by run.py in a fresh interpreter with the BLAS pool pinned to one
thread.  It imports the program from the checkout's ``src``, makes one
untimed warm-up call (set-up ends there), then calls ``run`` in whole
rounds until the timed total reaches --seconds, writing every output to its
own file.  Before the first call, between calls at least every
CALIBRATE_EVERY_S, and after the last, it times the calibration kernel
(calibrate.py).  It prints one JSON line: with --setup-only the set-up
time alone; otherwise kernel times, per-call latencies, exit codes and the
kernel time each call follows, ``ru_maxrss`` and, with --trace 1, the
per-layer figures.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CALIBRATE_EVERY_S = 0.05


def import_cli():
    """hosvd3.cli from this checkout's src, never from anywhere else."""
    sys.path.insert(0, SRC)
    import hosvd3.cli as cli

    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        raise SystemExit(f"hosvd3 imported from {cli.__file__}, not from {SRC}")
    return cli


def round_argvs(plan, r, out_dir):
    """The calls of round r, each with its own output file."""
    if plan["kind"] == "sample":
        seed = plan["seed_base"] + r
        return [["sample", "--count", str(plan["count"]), "--seed", str(seed),
                 "--output", os.path.join(out_dir, f"r{r}_0.csv")]]
    return [[plan["kind"], path, "--output", os.path.join(out_dir, f"r{r}_{i}.json")]
            for i, path in enumerate(plan["inputs"])]


def sample_alloc_kib_per_state(cli, plan, out_dir):
    """tracemalloc peak of one untimed sample call of plan["alloc_count"]
    states, per state."""
    argv = round_argvs(plan, -1, out_dir)[0]
    argv[argv.index("--count") + 1] = str(plan["alloc_count"])
    tracemalloc.start()
    try:
        cli.run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    os.remove(argv[-1])
    return peak / 1024.0 / plan["alloc_count"]


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    cli = import_cli()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    warm_out = os.path.join(args.out, "warmup")
    if cli.run(plan["warmup"] + ["--output", warm_out]) != 0:
        raise SystemExit(f"warm-up call {plan['warmup']} failed")
    os.remove(warm_out)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    alloc = 0.0
    run = cli.run
    tracer = None
    import calibrate  # only now, so that set-up does not include its numpy import

    if args.trace:
        from tracer import TRACED_MODULES, Tracer

        if plan["kind"] == "sample":
            alloc = sample_alloc_kib_per_state(cli, plan, args.out)
        tracer = Tracer()
        tracer.install([sys.modules[m] for m in TRACED_MODULES])

        def run(argv):
            return tracer.call("cli.run", cli.run, argv)

    records = []  # [round, index, seconds, exit code, index of the kernel time before]
    kernel_s = []
    start = last_kernel = time.perf_counter()
    r = 0
    while time.perf_counter() - start < args.seconds:
        for i, argv in enumerate(round_argvs(plan, r, args.out)):
            if not kernel_s or time.perf_counter() - last_kernel >= CALIBRATE_EVERY_S:
                kernel_s.append(calibrate.timed_kernel())
                last_kernel = time.perf_counter()
            t0 = time.perf_counter()
            code = run(argv)
            records.append([r, i, time.perf_counter() - t0, code, len(kernel_s) - 1])
        r += 1
    kernel_s.append(calibrate.timed_kernel())

    result = {"kernel_s": kernel_s, "rounds": r, "records": records,
              "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        ops = len(records) * (plan["count"] if plan["kind"] == "sample" else 1)
        result["layers"] = tracer.metrics(ops, alloc)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
