"""Record the outputs the correctness gate compares against.

    python3 bench/record_references.py --seeds 0-31

Runs set-up and one cycle of every workload for each seed and writes
bench/references.json, keyed by the numeric platform (numpy, BLAS, CPU
features) the bytes depend on. Re-record only when a change is meant to
alter the outputs; a speed-up must reproduce them bit for bit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("0-31"))
    args = p.parse_args(argv)
    if not run.load_package():
        print(f"error: package source not found under {run.SRC}",
              file=sys.stderr)
        return 2
    from tracing import Clock, Patcher
    from workloads import WORKLOADS

    machine = run.machine_info()
    recorded = {"platform": run.platform_key(machine), "workloads": {}}
    work = run.ROOT / ".bench_work" / "references"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in WORKLOADS.items():
            table = recorded["workloads"][name] = {}
            for seed in args.seeds:
                patcher, clock = Patcher(), Clock()
                workload = cls()
                workload.setup(seed, work, clock)
                clock.install(patcher)
                try:
                    outputs = run.normalized(workload.cycle())
                finally:
                    patcher.restore()
                problems = workload.invariants()
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                table[str(seed)] = outputs
                print(f"{name} seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
