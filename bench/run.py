"""Benchmark for resetsde: workloads through the package's entry points.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. After one untimed warm-up round, the run repeats whole
rounds of the workload's operations, each after two timed set-ups and between
two host-speed probes (`hostspeed.py`), as long as the next round should end
within `--seconds`. Each round's times are divided by the host's slowdown
that the probes around it measured. It checks the warm-up round's outputs and
that every later round reproduced them, and prints one JSON object as its
last line:
end-to-end metrics with `--trace 0`, per-layer metrics from spans around the
package's public functions with `--trace 1`. `--smoke` shrinks the inputs for
the benchmark's own test. Details and reference figures are in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: with two on a two-core host the dense stationary solves
# varied by a factor of up to three from one call to the next.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUPS_PER_ROUND = 2
IMPORT_PROBE = "import time; t = time.perf_counter(); import resetsde; print(time.perf_counter() - t)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced inputs for the smoke test")
    return parser.parse_args(argv)


def import_seconds(env) -> float:
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "resetsde" / "__init__.py").is_file():
        log(f"error: no package source at {SRC}; run from a resetsde checkout")
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    import resetsde

    if Path(resetsde.__file__).resolve().parent != SRC / "resetsde":
        log(f"error: imported resetsde from {resetsde.__file__}, not from {SRC}")
        return 2
    import hostspeed
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        return 2

    rundir = ROOT / ".bench_runs" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](rundir, args.seed, args.smoke)

        layers = []

        def run_round(traced):
            if not traced:
                return workload.run_round()
            tracer = tracing.Tracer()
            with tracer.installed():
                output = workload.run_round()
            layers.append(tracing.layer_metrics(tracer.spans))
            return output

        # warm-up: the first round fills caches and finishes lazy set-up; its
        # outputs are the ones checked, and it is timed into no metric. With
        # --trace 1 it is traced, so that its spans see the process's
        # high-water mark rise (see RSS_KEYS).
        w0 = time.perf_counter()
        first_output = run_round(bool(args.trace))
        warmup = time.perf_counter() - w0
        first_print = workload.fingerprint(first_output)
        artifact_bytes = workload.artifact_bytes()
        log(f"warm-up round: wall {warmup:.3f} s")

        setups, walls, cpus, traced_walls, untraced_walls, cycles = [], [], [], [], [], []
        probes = [hostspeed.probe()]
        mismatched = 0
        deadline = time.perf_counter() + args.seconds
        while True:
            c_start = time.perf_counter()
            # set-ups interleave with the rounds, so both sample the same
            # stretch of time on a host whose speed drifts
            cycle_setups = []
            for _ in range(SETUPS_PER_ROUND):
                imported = import_seconds(child_env)
                t0 = time.perf_counter()
                workload.setup()
                cycle_setups.append(imported + time.perf_counter() - t0)
            # with --trace 1, untraced and traced rounds alternate
            traced = bool(args.trace) and len(walls) % 2 == 1
            w0, c0 = time.perf_counter(), time.process_time()
            output = run_round(traced)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            if workload.fingerprint(output) != first_print:
                mismatched += 1
            probes.append(hostspeed.probe())
            slowdown = (probes[-2] + probes[-1]) / (2.0 * hostspeed.REFERENCE_S)
            walls.append(wall / slowdown)
            cpus.append(cpu / slowdown)
            setups.extend(t / slowdown for t in cycle_setups)
            (traced_walls if traced else untraced_walls).append(walls[-1])
            cycles.append(time.perf_counter() - c_start)
            log(f"round {len(walls)}: wall {wall:.3f} s, cpu {cpu:.3f} s, host slowdown {slowdown:.3f}"
                f"{' (traced)' if traced else ''}")
            # whole rounds only: start another one only if it should end by
            # the deadline
            done = not args.trace or traced_walls
            if done and time.perf_counter() + statistics.median(cycles) > deadline:
                break
        peak_rss = tracing.peak_rss_mb()

        result = workload.check(first_output)
        if mismatched:
            result.failures.append(f"{mismatched} rounds did not reproduce the first round's outputs")
        for key, value in result.notes.items():
            log(f"note {key}: {value}")
        for failure in result.failures:
            log(f"CHECK FAILED: {failure}")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    rounds = 1 + len(walls)   # the warm-up round is attempted and checked too
    if args.trace:
        metrics = {}
        for key in layers[0]:
            unit = tracing.UNITS[key]
            if key in tracing.RSS_KEYS:
                value = max(layer[key] for layer in layers)
            else:
                value = statistics.median(layer[key] for layer in layers[1:])
            metrics[key] = {"value": int(value) if unit == "count" else float(value), "unit": unit}
        metrics["cli.artifact_bytes"] = {"value": int(artifact_bytes), "unit": tracing.UNITS["cli.artifact_bytes"]}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(untraced_walls),
            "unit": tracing.UNITS["trace.overhead_s"],
        }
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
    summary = {
        "correct": not result.failures,
        "attempted": rounds * workload.ops_per_round,
        "failed": rounds * result.failed_ops,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
