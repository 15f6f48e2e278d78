"""The benchmark's hooks into the program: the attributes its tracer
patches by name, and one tiny traced experiment that yields every
per-layer metric ``BENCHMARK.json`` declares."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the benchmark imports its own modules from its directory, as run.py does
sys.path.insert(0, str(ROOT / "perfbench"))

import experiment  # noqa: E402
from spans import PATCH_POINTS, Tracer  # noqa: E402
from workloads import Workload  # noqa: E402


def test_every_patch_point_names_an_attribute_of_its_owner():
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in PATCH_POINTS
               if attr not in vars(owner)]
    assert missing == []


def test_a_traced_experiment_yields_every_declared_layer_metric(tmp_path):
    workload = Workload(
        name="tiny", authors=60, rounds=2, f1_floor=0.0,
        overrides=dict(clients=2, embedding_dim=4, preference_dim=2, granularity="batch"),
    )
    exp = experiment.run_once(workload, seed=0, tracer=Tracer(), workdir=tmp_path)
    assert exp.failures == []
    declared = {layer["name"] for layer in json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer"]}
    # the benchmark's runner adds the tracer's own overhead
    assert declared - {"trace.overhead_s"} <= set(exp.layers)
