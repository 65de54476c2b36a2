"""Run one l1lab benchmark workload and print its metrics.

    python3 bench/run.py --workload lifted-table --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ./src.  One
process runs one workload as a single closed-loop caller: operations run
one after another, BLAS/OpenMP pools are pinned to one thread and the CLI
is driven with --jobs 1, so no worker pool is spawned.

Rounds of the workload repeat until the next cycle of rounds would end
after --seconds (every workload has a minimum number of rounds, a round
always runs to completion, and a cycle is the rounds that together make
the workload's fixed mix of operations: all of lifted-table's plan, one
round elsewhere).  With --trace 0 the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics.  Every time in them is normalised to a
nominal host speed by host-speed probes spread over the run (see
l1bench/reference.py); the detail line holds the raw times as well.  With --trace 1 the run executes its first
round untraced, then its minimum number of rounds traced (starting again
from the first), and reports the per-layer metrics, the tracing overhead
(traced / untraced wall time of the first round) and writes the spans to
.bench_out/.  A line starting with {"detail": ...}
before the result records sample counts, the environment and any failed
check.  Exit status is 0 on a completed run, whether or not its checks
passed, and non-zero when the run could not be made.
"""

import os
import sys

# Pin native thread pools before numpy is imported anywhere, and keep a
# user's l1lab configuration file out of the measurement.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("L1LAB_CONFIG", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("lifted-table", "direct-curves", "empirical-verify")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
PROBE_INTERVAL_S = 0.1    # seconds of workload between host-speed probes

# (name, unit); all lower-is-better, printed for every workload
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("aux_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
)


class HarnessError(RuntimeError):
    """The benchmark itself, not the library under test, went wrong."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def quantile(values, q):
    """q-quantile (0 < q < 1), linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def setup_workload(name, seed):
    """Import the library, build the inputs and warm up: what setup_s times."""
    from l1bench import workloads

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.make(name, seed, OUT_DIR)
    wl.warm_up()
    return wl


def measure_setup(args, ref):
    """Times from spawning a fresh interpreter to a ready workload, as
    [(start, end, seconds)], with two host-speed probes before each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        ref.probe()
        ref.probe()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                ready = proc.stdout.readline().strip() == "ready"
                t1 = time.perf_counter()
                times.append((t0, t1, t1 - t0))
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if not ready or proc.returncode != 0:
            raise HarnessError(f"setup probe failed with exit status {proc.returncode}")
    ref.probe()
    ref.probe()
    return times


def run_rounds(wl, rec, seconds, count=None):
    """Run `count` rounds, or else whole cycles of `wl.cycle` rounds until
    the next cycle would end after `seconds`; return each round as
    (start, end, seconds less probes)."""
    walls = []
    t_start = time.perf_counter()
    while True:
        mark = rec.start()
        wl.round(len(walls), rec)
        walls.append(rec.piece(mark))
        if count is not None:
            if len(walls) >= count:
                return walls
        elif len(walls) >= wl.min_rounds and len(walls) % wl.cycle == 0:
            elapsed = time.perf_counter() - t_start
            if elapsed * (1 + wl.cycle / len(walls)) > seconds:
                return walls


def environment():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def time_metrics(setup, walls, op, aux):
    """The end-to-end times from per-sample seconds."""
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(walls) / len(walls),       # timed section per round
        "op_ms.p50": 1e3 * statistics.median(op),
        "op_ms.p90": 1e3 * quantile(op, 0.9),
        "aux_ms.p50": 1e3 * statistics.median(aux),
    }


def untraced_run(args, wl, rec):
    ref = rec.ref
    setup = measure_setup(args, ref)
    t_start, spent_start = time.perf_counter(), ref.spent
    walls = run_rounds(wl, rec, args.seconds)
    ref.probe()
    if not rec.op or not rec.aux:
        raise HarnessError("the run recorded no operation timings")
    samples = ([[piece] for piece in setup], [[piece] for piece in walls], rec.op, rec.aux)
    metrics = time_metrics(*(ref.normalise(s) for s in samples))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = time_metrics(*([sum(p[2] for p in pieces) for pieces in s] for s in samples))
    factors = [ref.factor(t0, t1) for t0, t1, _ in walls]
    detail = {"rounds": len(walls), "round_s": [w[2] for w in walls],
              "op": wl.op_label, "op_samples": len(rec.op),
              "aux": wl.aux_label, "aux_samples": len(rec.aux),
              "raw": raw, "speed_factor_per_round": factors,
              "probes": len(ref.stamps),
              "probe_share": (ref.spent - spent_start) / (time.perf_counter() - t_start)}
    return {name: (metrics[name], unit) for name, unit in END_TO_END}, detail


def traced_run(args, wl, rec):
    from l1bench.tracer import PER_LAYER, Tracer

    untraced = run_rounds(wl, rec, 0, count=1)[0][2]
    tracer = Tracer()
    tracer.install()
    try:
        walls = [w[2] for w in run_rounds(wl, rec, 0, count=wl.min_rounds)]
    finally:
        tracer.uninstall()
    layer = tracer.metrics()
    absent = tracer.absent
    missing = [name for name in wl.expect_calls
               if layer[name] == 0 and not any(name.startswith(a + ".") for a in absent)]
    if missing:
        raise HarnessError(f"no calls recorded where calls are expected: {missing}")
    layer["trace.overhead"] = walls[0] / untraced
    layer["failed_frac"] = rec.failed / max(rec.attempted, 1)
    units = {name: unit for name, unit, _ in PER_LAYER}
    units.update({"trace.overhead": "ratio", "failed_frac": "ratio"})
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_file)
    detail = {"traced_rounds": len(walls), "untraced_round0_s": untraced,
              "traced_round_s": walls, "absent_layers": absent,
              "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_file, ROOT)}
    return {name: (layer[name], units[name]) for name in units}, detail


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "l1lab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no l1lab sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    if args.setup_probe:
        setup_workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    from l1bench.reference import Reference
    from l1bench.workloads import Recorder

    try:
        wl = setup_workload(args.workload, args.seed)
        # the traced run reports counts and raw layer times: no probes
        ref = Reference(None if args.trace else PROBE_INTERVAL_S)
        ref.warm_up()
        restore = wl.install(ref)
        rec = Recorder(ref)
        try:
            if None in restore:
                raise HarnessError("a function the workload times is missing from l1lab")
            run = traced_run if args.trace else untraced_run
            metrics, detail = run(args, wl, rec)
        finally:
            for undo in filter(None, restore):
                undo()
    except HarnessError as exc:
        sys.stderr.write(f"harness error: {exc}\n")
        return 3

    detail.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "failed_frac": rec.failed / max(rec.attempted, 1),
                   "findings": rec.findings, "environment": environment()})
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
