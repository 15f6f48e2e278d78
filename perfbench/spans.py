"""Span tracing from outside the program, and the per-layer metrics it yields.

The tracer wraps the public calls into each fedhin module where the
caller looks them up (a module attribute or a class attribute), records
one span per call with its name, start, end and parent, and keeps the
spans in memory.  A span's self time is its duration minus the
durations of its children; calls are strictly nested in the
deterministic scheduler, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

from fedhin import ClientUpdate, federation, model, simulation

# (owner, attribute, span name): every place a traced layer is called from
PATCH_POINTS = (
    (simulation, "metapath_adjacency", "graph.metapath_adjacency"),
    (model.AttentionModel, "__init__", "model.init"),
    (model.AttentionModel, "forward", "model.forward"),
    (model.AttentionModel, "backward", "model.backward"),
    (federation, "pack_shared", "model.pack_shared"),
    (simulation, "pack_shared", "model.pack_shared"),
    (federation, "unpack_shared", "model.unpack_shared"),
    (simulation, "unpack_shared", "model.unpack_shared"),
    (federation, "adam_step", "optim.adam_step"),
    (federation.ParameterServer, "handle", "federation.handle"),
    (federation.ParameterServer, "submit", "federation.submit"),
    (federation.ParameterServer, "current_aggregate", "federation.aggregate"),
    (federation.ParameterServer, "dispatch", "federation.dispatch"),
    (federation.FederatedClient, "install", "federation.install"),
    (federation.FederatedClient, "run_round", "federation.run_round"),
    (simulation, "evaluate", "evaluation.evaluate"),
)


def _forward_nodes(args, kwargs) -> int:
    batch = args[2] if len(args) > 2 else kwargs["batch"]
    return len(batch)


class Tracer:
    """In-memory span recorder; with ``enabled=False`` every hook is a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index, nodes]
        self._stack: list[int] = []
        self.nnz = 0
        self.zero_norm_events = 0

    def _open(self, name: str, nodes: int) -> int:
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, nodes])
        self._stack.append(sid)
        self.spans[sid][1] = time.perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = self._open(name, 0)
        try:
            yield
        finally:
            self._close(sid)

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; this is how the benchmark times its own calls."""
        with self.span(name):
            return fn(*args, **kwargs)

    def _wrap(self, name: str, fn):
        nodes_of = after = None
        if name == "model.forward":
            nodes_of = _forward_nodes

            def after(result):
                self.zero_norm_events += result.zero_norm_events

        elif name == "model.backward":
            def nodes_of(args, kwargs):
                return len(args[1].batch)

        elif name == "graph.metapath_adjacency":
            def after(result):
                self.nnz += result.matrix.nnz

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name, nodes_of(args, kwargs) if nodes_of else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block, then restore."""
        if not self.enabled:
            yield
            return
        originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in PATCH_POINTS]
        try:
            for (owner, attr, name), (_, _, fn) in zip(PATCH_POINTS, originals):
                setattr(owner, attr, self._wrap(name, fn))
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def write(self, fh, experiment: int) -> None:
        for name, start, end, parent, nodes in self.spans:
            fh.write(
                json.dumps(
                    {"experiment": experiment, "name": name, "start": start, "end": end,
                     "parent": parent, "nodes": nodes}
                )
                + "\n"
            )

    def layer_totals(self) -> dict[str, list]:
        """Per span name: [calls, total seconds, self seconds, nodes].

        Forward spans split by their parent: under ``federation.run_round``
        they are training passes, otherwise (``evaluate`` or the untrained
        round-0 loss in the loop) they are evaluation passes.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for sid, (name, start, end, parent, nodes) in enumerate(self.spans):
            if name == "model.forward":
                under_train = parent >= 0 and self.spans[parent][0] == "federation.run_round"
                name += ".train" if under_train else ".eval"
            row = totals[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[sid]
            row[3] += nodes
        return totals


def layer_metrics(tracer: Tracer, setup, checkpoint_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced experiment (see ``spec.PER_LAYER``)."""
    t = tracer.layer_totals()
    m: dict[str, float] = {}
    for name in ("graph.synthetic_hin", "graph.metapath_adjacency", "model.init",
                 "simulation.build_experiment", "storage.save_checkpoint",
                 "storage.load_checkpoint"):
        m[f"{name}.s"] = t[name][1]
    for name in ("model.forward.train", "model.backward", "model.forward.eval"):
        calls, _, self_s, nodes = t[name]
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
        m[f"{name}.us_per_node"] = 1e6 * self_s / nodes
    for name in ("model.pack_shared", "model.unpack_shared", "optim.adam_step",
                 "federation.aggregate", "federation.install", "evaluation.evaluate"):
        m[f"{name}.calls"] = t[name][0]
    for name in ("model.pack_shared", "model.unpack_shared", "optim.adam_step",
                 "federation.submit", "federation.aggregate",
                 "federation.dispatch", "federation.install", "federation.run_round",
                 "evaluation.evaluate"):
        m[f"{name}.self_s"] = t[name][2]
    m["simulation.loop.self_s"] = t["simulation.loop"][2]
    n_params = sum(tensor.size for _, tensor in setup.initial_params.tensor_items())
    calls, _, self_s, _ = t["optim.adam_step"]
    m["optim.adam_step.ns_per_param"] = 1e9 * self_s / (calls * n_params)

    log = setup.server.decision_log
    manifest = model.shape_manifest(setup.initial_params)
    shared = model.pack_shared(setup.initial_params)
    broadcasts = sum(entry["mode"] == "broadcast" for entry in log)
    n_clients = len(setup.clients)
    m["federation.uploads"] = len(log)
    m["federation.broadcast_ratio"] = broadcasts / len(log)
    m["federation.bytes_up"] = sum(
        len(ClientUpdate(entry["client"], shared, entry["version"]).to_bytes(manifest))
        for entry in log
    )
    m["federation.bytes_down"] = shared.nbytes * (
        broadcasts * n_clients + (len(log) - broadcasts)
    )
    m["federation.max_version_gap"] = max(entry["max_gap"] for entry in log)
    m["graph.metapath_adjacency.nnz"] = tracer.nnz
    m["model.zero_norm_events"] = tracer.zero_norm_events
    m["storage.checkpoint_bytes"] = checkpoint_bytes
    return m
