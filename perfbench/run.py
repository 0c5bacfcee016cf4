"""throttleid benchmark: one workload, one process.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-train --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py): corpus-train, validate-suite, mu-path.

A run sets up once, then repeats the workload's timed operation while
the --seconds budget allows (always at least once), each time in a
fresh output directory under .perfbench/, and applies the correctness
gate to every operation. Operations and set-up are timed in wall
time normalized to a reference machine speed, which a probe samples
while they run (speed.py); raw wall time is printed alongside. With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it runs one untraced and two traced operations and reports
the per-layer metrics of the first traced one, including the tracing
overhead (traced minus untraced normalized time), checks that the
deterministic counts of the two traced operations are equal, and
writes the spans to .perfbench/trace/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The BLAS thread count is fixed at
BLAS_THREADS before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 9


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="timed-region budget; the operation runs at least once")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def cold_import_s() -> float:
    """Normalized time of `import throttleid` in a fresh interpreter
    (see speed.py; the speed is probed right after the import)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    code = ("import time, speed\n"
            "t0 = time.perf_counter()\n"
            "import throttleid\n"
            "elapsed = time.perf_counter() - t0\n"
            "print(elapsed * speed.burst())\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout
    return float(out)


def compare_counts(first: dict, second: dict) -> bool:
    """The deterministic counts of two traced operations must be equal."""
    differ = sorted(n for n in first if first[n] != second[n])
    if differ:
        print("counts: DIFFER between the two traced operations: "
              + ", ".join(f"{n} {first[n]} -> {second[n]}" for n in differ))
        return False
    print(f"counts: all {len(first)} repeat exactly in the second traced operation")
    return True


def write_trace(path: Path, header: dict, tracer, values: dict) -> None:
    """Write the spans of the traced operation, once, at the end of the run."""
    t0 = min((s["start"] for s in tracer.spans), default=0.0)
    payload = dict(header, spans=[
        {"id": s["id"], "parent": s["parent"], "name": s["name"],
         "start_s": s["start"] - t0, "end_s": s["end"] - t0,
         "self_s": s["end"] - s["start"] - s["child_s"]} for s in tracer.spans],
        per_step={name: {"calls": c, "busy_s": b} for name, (c, b) in tracer.steps.items()},
        metrics=values)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    if not (SRC / "throttleid" / "__init__.py").is_file():
        print(f"error: no throttleid sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:          # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import spans
    import speed
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    print(f"seed {args.seed}: every workload runs the seed-0 inputs (see workloads.py)")
    wl = workloads.WORKLOADS[args.workload]
    outcomes = []

    def op(after_run=None):
        timing, outcome = workloads.run_once(wl, state, tmp, after_run)
        outcomes.append(outcome)
        gate = "ok" if not outcome.problems else "FAIL " + "; ".join(outcome.problems)
        print(f"op {len(outcomes)}: normalized {timing.normalized:.3f} s, "
              f"wall {timing.wall:.3f} s, {len(timing.probes)} probes, gate {gate}, "
              f"{json.dumps(outcome.info, sort_keys=True)}", flush=True)
        return timing

    def traced_op():
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            timing = op(after_run=tracer.uninstall)
        finally:
            tracer.uninstall()
        return tracer, timing.normalized

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-"))
    try:
        imports = statistics.median(cold_import_s() for _ in range(IMPORT_REPEATS))
        with speed.Sampler() as prep:
            state = wl.setup(tmp)
        print(f"setup: cold import {imports:.3f} s (normalized, median of "
              f"{IMPORT_REPEATS}), workload prep normalized {prep.normalized:.3f} s, "
              f"wall {prep.wall:.3f} s", flush=True)

        ok = True
        if args.trace:
            untraced_s = op().normalized
            tracer, traced_s = traced_op()
            values = spans.layer_metrics(tracer, units, traced_s, untraced_s)
            again = spans.layer_metrics(traced_op()[0], units, traced_s, untraced_s)
            counted = [n for n, u in units.items() if u in spans.DETERMINISTIC_UNITS]
            ok = compare_counts({n: values[n] for n in counted},
                                {n: again[n] for n in counted})
            write_trace(WORK / "trace" / f"{args.workload}-seed{args.seed}.json",
                        {"workload": args.workload, "seed": args.seed, "env": env},
                        tracer, values)
        else:
            timings = []
            while not timings or (sum(t.wall for t in timings)
                                  + statistics.median(t.wall for t in timings)
                                  <= args.seconds):
                timings.append(op())
            walls = [t.wall for t in timings]
            print(f"over {len(timings)} ops: normalized median "
                  f"{statistics.median(t.normalized for t in timings):.3f} s, "
                  f"wall median {statistics.median(walls):.3f} s, "
                  f"min {min(walls):.3f} s, max {max(walls):.3f} s", flush=True)
            values = {
                "ref_wall_s": statistics.median(t.normalized for t in timings),
                "setup_s": imports + prep.normalized,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "model_err": statistics.median(o.model_err for o in outcomes),
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {}
    for name, unit in units.items():
        value = values[name]
        if isinstance(value, float) and not math.isfinite(value):
            value, ok = None, False
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value!r} {unit}")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(f"fail_frac = {failed}/{attempted} units of work")
    print(json.dumps({
        "correct": ok and not any(o.problems for o in outcomes),
        "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
