"""One experiment of a workload: set-up, rounds 1..R, and the correctness gate.

The same function runs untraced (for the end-to-end metrics) and traced
(for the per-layer metrics), so both measure exactly the same work.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from fedhin import (
    metrics_to_jsonl,
    pack_shared,
    params_from_checkpoint,
    run_experiment,
    save_checkpoint,
    simulation,
    synthetic_hin,
    unpack_shared,
)

from spans import Tracer, layer_metrics
from workloads import Workload, expected_work


@dataclass
class Experiment:
    setup_s: float = math.nan
    wall_s: float = math.nan
    round_s: list[float] = field(default_factory=list)
    examples: int = 0
    final_loss: float = math.nan
    final_micro_f1: float = math.nan
    stream_sha256: str = ""
    uploads_expected: int = 1
    uploads_done: int = 0
    uploads_failed: int = 0
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def run_once(workload: Workload, seed: int, tracer: Tracer, workdir: Path) -> Experiment:
    exp = Experiment()
    setup = None
    graph_seed, config = workload.inputs(seed)
    start = time.perf_counter()
    try:
        with tracer.patched():
            graph = tracer.call("graph.synthetic_hin", synthetic_hin, workload.authors, seed=graph_seed)
            setup = tracer.call("simulation.build_experiment", simulation.build_experiment, config, graph)
            exp.setup_s = time.perf_counter() - start
            exp.uploads_expected, exp.examples = expected_work(
                config, [c.train_nodes.size for c in setup.clients]
            )
            records, stamps = [], []
            # the span holds the program's loop and, per round, only one
            # clock read and two appends of the benchmark's own
            with tracer.span("simulation.loop"):
                for record in run_experiment(config, graph, setup=setup):
                    stamps.append(time.perf_counter())
                    records.append(record)
        # stamps[0] closes round 0, the untrained evaluation; rounds 1..R follow
        exp.round_s = [b - a for a, b in zip(stamps, stamps[1:])]
        exp.uploads_done = len(setup.server.decision_log)
        checkpoint_bytes = _storage_round_trip(exp, setup, tracer, workdir)
        exp.wall_s = time.perf_counter() - start
    except Exception as exc:
        traceback.print_exc()
        exp.failures.append(f"exception: {exc!r}")
        if setup is not None:
            exp.uploads_done = len(setup.server.decision_log)
        # the uploads the run did not get to count as failed; with none left,
        # the failure counts like a failed check
        remaining = exp.uploads_expected - exp.uploads_done
        exp.uploads_failed = remaining if remaining > 0 else exp.uploads_expected
        return exp

    exp.stream_sha256 = hashlib.sha256(metrics_to_jsonl(records).encode()).hexdigest()
    last = records[-1]
    exp.final_loss = math.nan if last.loss is None else last.loss
    exp.final_micro_f1 = last.micro_f1
    checks = (
        (len(records) == config.rounds + 1, f"{len(records)} records, expected {config.rounds + 1}"),
        (math.isfinite(exp.final_loss), f"final loss {last.loss} is not finite"),
        (exp.final_micro_f1 >= workload.f1_floor,
         f"final micro-F1 {exp.final_micro_f1} below floor {workload.f1_floor}"),
        (exp.uploads_done == exp.uploads_expected,
         f"{exp.uploads_done} uploads, expected {exp.uploads_expected}"),
    )
    for ok, reason in checks:
        if not ok:
            fail(exp, reason)
    if tracer.enabled:
        exp.layers = layer_metrics(tracer, setup, checkpoint_bytes)
        exp.layers["model.final_loss"] = exp.final_loss
    return exp


def fail(exp: Experiment, reason: str) -> None:
    """Record a failed check; a run that fails one counts all its uploads failed."""
    exp.failures.append(reason)
    exp.uploads_failed = exp.uploads_expected


def check_stream(exp: Experiment, reference: Experiment | None) -> None:
    """Fail ``exp`` when its metrics stream differs from the reference run's."""
    if reference is not None and not exp.failures and exp.stream_sha256 != reference.stream_sha256:
        fail(exp, f"metrics stream {exp.stream_sha256[:12]} differs from {reference.stream_sha256[:12]}")


def _storage_round_trip(exp: Experiment, setup, tracer: Tracer, workdir: Path) -> int:
    """Save the final aggregate, reload it, and require a bit-identical copy."""
    final = setup.initial_params.copy()
    unpack_shared(setup.server.current_aggregate(), final)
    path = workdir / f"final-{os.getpid()}.npz"
    tracer.call("storage.save_checkpoint", save_checkpoint, path, final)
    try:
        size = path.stat().st_size
        loaded = tracer.call("storage.load_checkpoint", params_from_checkpoint, path)
    finally:
        path.unlink()
    if (
        pack_shared(loaded).tobytes() != pack_shared(final).tobytes()
        or loaded.pref.tobytes() != final.pref.tobytes()
    ):
        fail(exp, "checkpoint round trip is not bit-identical")
    return size
