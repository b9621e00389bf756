"""The benchmark's definition, read from `BENCHMARK.json` at the repository
root: that file is the single declaration of the workloads and metrics, and
`run.py` prints exactly the names it declares.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

RUN_SECONDS = BENCHMARK["run_seconds"]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# (name, unit) in the order BENCHMARK.json declares them
END_TO_END = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]

# the autodiff op tags the three workloads run, profiled as
# autodiff.{fwd_ms,bwd_ms,calls}.<tag>; other tags (log, tanh, reshape,
# transpose) occur in none of them and are not reported
OP_TAGS = ("matmul", "normal_logpdf_pairwise", "add", "sub", "mul", "neg",
           "sigmoid", "exp", "softplus", "logsumexp", "concat", "slice",
           "clip", "sum", "mean", "square")
