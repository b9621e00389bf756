"""Run every workload untraced and traced, each in a fresh process, and print
every metric by name with its unit and sample count, the tracing overhead,
and the machine.

    python3 bench/run_all.py [--seed 0] [--seconds 35]

The combined results land in .bench_out/run_all-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
              for line in lines if line.startswith(("machine ", "detail "))}
    return {"result": json.loads(lines[-1]), **tagged}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = p.parse_args(argv)

    everything = {}
    for workload in spec.WORKLOADS:
        plain = run_one(workload, args.seed, args.seconds, 0)
        traced = run_one(workload, args.seed, args.seconds, 1)
        everything[workload] = {"untraced": plain, "traced": traced}
        print(f"== {workload}  seed {args.seed}")
        for label, run in (("untraced", plain), ("traced", traced)):
            r = run["result"]
            print(f"  {label}: correct {r['correct']}, attempted "
                  f"{r['attempted']}, failed {r['failed']}")
        for name, (value, unit, n) in plain["detail"].items():
            if n:
                shown = "refused" if value is None else f"{value:.6g} {unit}"
                print(f"  {name:<26} {shown}  (n={n})")
        layer = traced["result"]["metrics"]
        op_overhead = (layer["trace.op_ms.p50"]["value"]
                       - plain["detail"]["op_ms.p50"][0])
        row_plain = plain["detail"]["is_row_s.mean"][0]
        row_overhead = None if row_plain is None else \
            layer["trace.is_row_ms"]["value"] - row_plain * 1e3
        print(f"  tracing overhead: op_ms.p50 {op_overhead:+.4g} ms"
              + ("" if row_overhead is None
                 else f", is_row mean {row_overhead:+.4g} ms"))
        print("  per-layer (non-zero):")
        for name, m in layer.items():
            if m["value"]:
                print(f"    {name:<40} {m['value']:.6g} {m['unit']}")
    print("machine " + json.dumps(plain["machine"], sort_keys=True))

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"run_all-seed{args.seed}.json").write_text(
        json.dumps(everything, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
