"""The benchmark's metrics and listed workloads, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one place the metric
names, units, bounds and listed workloads are written down; the
benchmark prints exactly the metrics it lists.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

RUN_SECONDS = SPEC["run_seconds"]
# the workloads regressions are judged on; ``--workload all`` runs these
LISTED_WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = SPEC["end_to_end"]
PER_LAYER = SPEC["per_layer"]

# units whose values are timings; every other per-layer value is a count
# or a deterministic result that must repeat exactly from run to run
TIMING_UNITS = ("s", "us/node", "ns/param")
EXACT_LAYER_METRICS = [m["name"] for m in PER_LAYER if m["unit"] not in TIMING_UNITS]
