"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload train-paper-vamp --seed 0 --seconds 35 --trace 0

Set-up runs five times. An untraced run then runs one untimed cycle under
tracemalloc for the memory peak. Then the workload's cycle repeats until
`--seconds` would be exceeded; after each of the first four timed cycles,
an untraced run times the imports again in a fresh interpreter. The set-up
time reported is the median import plus the median set-up. Every timed
cycle passes through the correctness gate. `--trace 0` prints the end-to-end metrics; `--trace 1`
installs the span tracer before set-up and prints the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Exit code 2 means the
package source is missing, 3 that the run was too short for its percentile.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references.json"

# One BLAS thread and one evaluation worker: with default BLAS threading the
# figures depend on the host's core count and on contention between the two
# kinds of thread.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "VAMPVAE_THREADS": "1"}
SETUP_REPEATS = 5
# the import part of set-up, timed as in this file: from its first line to
# the end of load_package
IMPORT_PROBE = ("import time; t = time.perf_counter(); import run; "
                "run.load_package(); print(time.perf_counter() - t)")


def load_package() -> bool:
    """Pin threads, then import numpy and the package from the checkout."""
    os.environ.update(THREAD_ENV)
    if not (SRC / "vampvae" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import vampvae.cli  # noqa: F401
    return True


def import_seconds() -> float:
    """Time to import numpy and the package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                         env={**os.environ, "PYTHONPATH": str(BENCH)},
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout)


def heap_peak_mb(workload) -> float:
    """Peak of the memory one cycle allocates through Python and numpy.

    It runs in an untimed cycle of its own, under tracemalloc. The peak RSS
    is no use as a bound: between identical runs of eval-paper-vamp it read
    from 406 to 541 MB, depending on when and beside what the run ran.
    """
    tracemalloc.start()
    try:
        workload.cycle()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def machine_info() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "arch": platform.machine(),
        "simd": config["SIMD Extensions"]["found"],
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def platform_key(machine: dict) -> dict:
    """What the stored references' bytes depend on: the same key means the
    same numeric kernels, so outputs must match bit for bit."""
    return {k: machine[k] for k in ("arch", "simd", "blas", "blas_version",
                                    "numpy")}


def load_references(workload: str, seed: int, machine: dict):
    """The stored outputs for this workload and seed, or None when there is
    none or they were recorded on another numeric platform."""
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    if refs["platform"] != platform_key(machine):
        return None
    return refs["workloads"].get(workload, {}).get(str(seed))


def normalized(outputs: dict) -> dict:
    return json.loads(json.dumps(outputs))


def gate(workload, outputs: dict, reference, first) -> list[str]:
    """Problems with one cycle's outputs: a bitwise difference from the
    stored reference and from the run's first cycle, or a broken invariant."""
    problems = workload.invariants()
    if reference is not None and outputs != reference:
        problems.append("outputs differ from the stored reference")
    if first is not None and outputs != first:
        problems.append("outputs differ from the first cycle of this run")
    return problems


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def described(name, value, unit, n=None) -> str:
    count = "" if n is None else f"  (n={n})"
    if value is None:
        return f"{name:<26} refused: fewer than 10 samples beyond{count}"
    return f"{name:<26} {value:.6g} {unit}{count}"


def main(argv=None) -> int:
    if not load_package():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED

    import spec
    from tracing import Clock, Patcher, Tracer, clock, percentile
    from workloads import WORKLOADS

    args = parse_args(argv)
    machine = machine_info()
    reference = load_references(args.workload, args.seed, machine)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    patcher = Patcher()
    tracer = Tracer() if args.trace else None
    timed_clock = Clock()
    try:
        if tracer:
            tracer.install(patcher)
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            if tracer:
                tracer.enter("bench.setup")
            workload = WORKLOADS[args.workload]()
            workload.setup(args.seed, work, timed_clock)
            if tracer:
                tracer.exit()
            setup_s.append(clock() - t0)
        # a process imports only once, so the other samples of the import
        # come from fresh interpreters, one after each of the first cycles:
        # spread over the run, they see the same host as the cycles do
        import_samples = [import_s]
        heap_mb = None if tracer else heap_peak_mb(workload)
        for calls in workload.phase_s.values():
            calls.clear()
        timed_clock.install(patcher)
        if tracer:
            tracer.reset_profile()
            first_cycle_span = len(tracer.spans)

        cycle_s: list[float] = []
        attempted = failed = 0
        first = None
        started = clock()
        while True:
            attempted += 1
            t0 = clock()
            try:
                if tracer:
                    tracer.enter("bench.cycle")
                try:
                    outputs = workload.cycle()
                finally:
                    if tracer:
                        tracer.exit()
                    cycle_s.append(clock() - t0)
                outputs = normalized(outputs)
                problems = gate(workload, outputs, reference, first)
                first = outputs if first is None else first
            except Exception:  # a failed operation is counted, not fatal
                problems = [traceback.format_exc()]
            if attempted == 1:
                # the autodiff graphs are reference cycles that only the
                # cyclic collector frees, so the peak keeps creeping up with
                # the number of cycles; a fixed amount of work keeps it
                # comparable between runs
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if not tracer and len(import_samples) < SETUP_REPEATS:
                import_samples.append(import_seconds())
            if problems:
                failed += 1
                print(f"cycle {attempted} failed: " + "; ".join(problems),
                      file=sys.stderr)
            if clock() - started + statistics.fmean(cycle_s) > args.seconds:
                break
    finally:
        patcher.restore()
        shutil.rmtree(work, ignore_errors=True)

    per_op = timed_clock.chunk_ms if args.workload == "eval-paper-vamp" \
        else timed_clock.step_ms
    op_p50 = percentile(per_op, 50)
    if op_p50 is None:
        print(f"error: {len(per_op)} operations are too few for a median; "
              "raise --seconds", file=sys.stderr)
        return 3
    cycles = len(cycle_s)
    steps, rows = timed_clock.step_ms, timed_clock.row_ms

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  cycles {cycles}  reference "
          f"{'stored' if reference else 'none: invariant checks'}")
    if tracer:
        layer = tracer.metrics(first_cycle_span, cycles)
        layer["trace.op_ms.p50"] = op_p50
        layer["trace.is_row_ms"] = statistics.fmean(rows) if rows else 0.0
        layer["trace.cycle_ms"] = statistics.fmean(cycle_s) * 1e3
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in spec.PER_LAYER}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.dump()), encoding="utf-8")
    else:
        values = {
            "setup_s": statistics.median(import_samples)
            + statistics.median(setup_s),
            "op_ms.p50": op_p50,
            # a mean over the whole run: too few cycles fit in a run for a
            # median to pass the percentile rule
            "rows_per_s": workload.rows_per_cycle * cycles / sum(cycle_s),
            "peak_heap_mb": heap_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spec.END_TO_END}

    # sample counts, and the same figures under the names of the paper's
    # protocol
    samples = {"setup_s": len(import_samples), "op_ms.p50": len(per_op),
               "rows_per_s": cycles, "peak_heap_mb": 1}
    detail = {} if tracer else {
        name: [m["value"], m["unit"], samples[name]]
        for name, m in metrics.items()}
    row_p50 = percentile(rows, 50)
    detail.update({
        "train_step_ms.p50": [percentile(steps, 50), "ms", len(steps)],
        "train_step_ms.p90": [percentile(steps, 90), "ms", len(steps)],
        "is_row_s.p50": [row_p50 and row_p50 / 1e3, "s", len(rows)],
        "is_row_s.mean": [statistics.fmean(rows) / 1e3 if rows else None,
                          "s", len(rows)],
        "is_chunk_ms.p50": [percentile(timed_clock.chunk_ms, 50), "ms",
                            len(timed_clock.chunk_ms)],
        "error_rate": [failed / attempted, "1", attempted],
        "peak_rss_mb": [peak_kb / 1024.0, "MB", 1],
    })
    for phase, rows_per_phase in workload.phase_rows.items():
        calls = workload.phase_s[phase]
        if calls:
            detail[f"{phase}_rows_per_s"] = [
                rows_per_phase * len(calls) / sum(calls), "1/s", len(calls)]
    for name, (value, unit, n) in detail.items():
        if n:
            print(described(name, value, unit, n))
    print("machine " + json.dumps(machine, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
