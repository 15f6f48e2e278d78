"""Command-line surface.

Subcommands: generate | partition | train | eval | export-embeddings |
aggregate-demo.  Success exits 0; failures exit nonzero after printing a
machine-readable error object to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, parse_config, read_document
from .evaluation import EvaluationError, evaluate
from .federation import FederationError, ParameterServer, ClientUpdate
from .graph import GraphError, HeterogeneousGraph, load_graph, write_graph
from .model import ModelError, shape_manifest
from .simulation import SimulationError, build_experiment, client_partition, run_experiment
from .storage import (
    RunManifest,
    StorageError,
    dataset_fingerprint,
    export_embeddings,
    make_output_dir,
    metrics_to_jsonl,
    open_output,
    params_from_checkpoint,
    save_checkpoint,
    write_jsonl,
    write_manifest,
)
from .synthetic import synthetic_hin

# the files of a run directory
MANIFEST, METRICS, DECISIONS, CHECKPOINT = (
    "manifest.json", "metrics.jsonl", "decisions.jsonl", "checkpoint.npz"
)

_ERRORS = (
    ConfigError,
    EvaluationError,
    FederationError,
    GraphError,
    ModelError,
    SimulationError,
    StorageError,
)


@dataclass
class DatasetSchema:
    """A dataset's ``schema.json``: (type, relation, type) triples and the target type."""

    triples: tuple[tuple[str, str, str], ...]
    target_type: str


def _dataset_files(data_dir) -> tuple[Path, Path, Path]:
    """The node table, the edge table and the schema file of the dataset in ``data_dir``."""
    return tuple(Path(data_dir) / name for name in ("nodes.csv", "edges.csv", "schema.json"))


def _load_dataset(data_dir: str) -> HeterogeneousGraph:
    nodes, edges, schema_file = _dataset_files(data_dir)
    schema = read_document(schema_file, DatasetSchema, GraphError, "schema file")
    try:
        return load_graph(nodes, edges, schema=schema.triples, target_type=schema.target_type)
    except OSError as exc:
        raise GraphError(f"cannot read the dataset: {exc}") from None


def cmd_generate(args) -> int:
    # a flag not given is absent from args, so synthetic_hin's default holds
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    graph = synthetic_hin(**options)
    out = make_output_dir(args.out)
    nodes, edges, schema_file = _dataset_files(out)
    write_graph(nodes, edges, graph)
    with open_output(schema_file) as fh:
        json.dump(
            {"triples": [list(t) for t in sorted(graph.schema)], "target_type": graph.target_type},
            fh,
            indent=2,
        )
        fh.write("\n")
    print(json.dumps({"nodes": graph.num_nodes, "edges": graph.num_edges, "out": str(out)}))
    return 0


def cmd_partition(args) -> int:
    config = parse_config(args.config)
    graph = _load_dataset(args.data)
    part = client_partition(config, graph)
    doc = {str(cid): nodes.tolist() for cid, nodes in enumerate(part)}
    with open_output(args.out) as fh:
        json.dump(doc, fh)
        fh.write("\n")
    print(json.dumps({"clients": len(part), "out": args.out}))
    return 0


def _read_run(manifest_path) -> tuple[ExperimentConfig, str, str]:
    """The config, the dataset directory and the dataset's fingerprint of the
    run whose manifest is ``manifest_path``.  A run is read only on the
    dataset bytes it had, or not at all."""
    manifest = read_document(manifest_path, RunManifest, StorageError, "manifest")
    try:
        config = ExperimentConfig.from_dict(manifest.config)
    except ConfigError as exc:
        raise ConfigError(f"{manifest_path}: {exc}") from None
    data_dir = manifest.data_dir
    fingerprint = dataset_fingerprint(_dataset_files(data_dir))
    if fingerprint != manifest.dataset_fingerprint:
        raise StorageError(
            f"manifest {manifest_path} does not match its run: dataset fingerprint "
            f"{manifest.dataset_fingerprint} ({data_dir} has {fingerprint})"
        )
    return config, data_dir, fingerprint


def cmd_train(args) -> int:
    if args.manifest:
        # a replay takes its config and dataset from the manifest, so a flag
        # that names others would be silently ignored
        given = [flag for flag, value in (("--config", args.config), ("--data", args.data))
                 if value is not None]
        if given:
            raise ConfigError(
                f"train --manifest replays the config and dataset its manifest records; "
                f"drop {' and '.join(given)}"
            )
        config, data_dir, fingerprint = _read_run(args.manifest)
    else:
        if args.data is None:
            raise ConfigError("train needs --data, or --manifest to replay a run")
        config = parse_config(args.config)
        data_dir = args.data
        fingerprint = None  # hashed after the load, whose GraphError names a missing dataset
    graph = _load_dataset(data_dir)
    # an --out that names a file or holds a run is refused before the
    # experiment is built, and the run directory is created only for an
    # experiment that can start
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise StorageError(f"cannot create the output directory {out}: it names a file")
    if (out / MANIFEST).exists():
        raise StorageError(f"{out / MANIFEST} exists: a run directory holds one run")
    setup = build_experiment(config, graph)

    run_dir = make_output_dir(args.out)
    manifest = RunManifest(
        config=asdict(config),
        code_version=__version__,
        dataset_fingerprint=fingerprint or dataset_fingerprint(_dataset_files(data_dir)),
        # absolute, so the run is read the same from any working directory
        data_dir=str(Path(data_dir).resolve()),
    )
    write_manifest(run_dir / MANIFEST, manifest)

    # each record is written as it comes, and the decisions also when the
    # run aborts, so a diverged run keeps what it computed; the run's own
    # error is the one reported, not a failure to write its decisions
    with open_output(run_dir / METRICS) as fh:
        try:
            for last in run_experiment(config, graph, setup=setup, diagnostics_dir=run_dir):
                fh.write(metrics_to_jsonl([last]))
        except Exception:
            with contextlib.suppress(StorageError):
                write_jsonl(run_dir / DECISIONS, setup.server.decision_log)
            raise
    write_jsonl(run_dir / DECISIONS, setup.server.decision_log)

    save_checkpoint(run_dir / CHECKPOINT, setup.global_params())

    print(json.dumps({"rounds": last.round, "micro_f1": last.micro_f1, "out": str(run_dir)}))
    return 0


def _restore_model(run: Path):
    """The graph, the experiment and the checkpointed parameters of the run in ``run``."""
    config, data_dir, _ = _read_run(run / MANIFEST)
    graph = _load_dataset(data_dir)
    setup = build_experiment(config, graph)
    params = params_from_checkpoint(
        run / CHECKPOINT, expected_manifest=shape_manifest(setup.initial_params)
    )
    return graph, setup, params


def cmd_eval(args) -> int:
    _, setup, params = _restore_model(args.run)
    micro, macro = evaluate(setup.model, params, setup.labels, setup.split)
    print(
        json.dumps(
            {"micro_f1": micro, "macro_f1": macro, "n_test": int(setup.split.test_nodes.size)}
        )
    )
    return 0


def cmd_export_embeddings(args) -> int:
    graph, setup, params = _restore_model(args.run)
    target_ids = graph.nodes_of_type(graph.target_type)
    embeddings = setup.model.forward(params, np.arange(target_ids.size)).fused
    export_embeddings(args.out, target_ids, embeddings)
    print(json.dumps({"nodes": len(target_ids), "dim": embeddings.shape[1], "out": args.out}))
    return 0


@dataclass
class UploadRecord:
    """One upload in an ``aggregate-demo --records`` file."""

    client: int
    version: int
    weights: tuple[float, ...]


@dataclass
class RecordsFile:
    """An ``aggregate-demo --records`` file."""

    records: tuple[UploadRecord, ...]
    alpha: float = None  # absent: the server's default


def cmd_aggregate_demo(args) -> int:
    """Replay the staleness-weighted aggregation on a supplied record table."""
    doc = read_document(args.records, RecordsFile, FederationError, "records file")
    if not doc.records:
        raise FederationError(f"{args.records}: the records file holds no upload")
    updates = [ClientUpdate(r.client, np.asarray(r.weights, dtype=np.float64), r.version)
               for r in doc.records]
    server = ParameterServer(
        client_ids={update.client_id for update in updates},  # once each, however many uploads
        aggregator="staleness",
        # the zeros are never printed: handle records an upload before it aggregates
        initial_weights=np.zeros(updates[0].weights.size),
        **({} if doc.alpha is None else {"staleness_exponent": doc.alpha}),
    )
    aggregate, _ = server.handle(updates)
    ids, coeffs = server.staleness_coefficients()
    latest = server.latest_version()
    print(
        json.dumps(
            {
                # a float also when the file gives an integer
                "alpha": float(server.staleness_exponent),
                "latest_version": latest,
                "clients": ids,
                "version_gaps": (latest - server.versions).tolist(),
                "coefficients": coeffs.tolist(),
                "aggregate": aggregate.tolist(),
                "max_version_gap": server.max_version_gap(),
            }
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedhin",
        description="Federated heterogeneous-network embedding simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag's dest is the synthetic_hin parameter it sets
    p = sub.add_parser("generate", help="write a synthetic academic graph to files",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.add_argument("--authors", type=int, dest="n_authors")
    p.add_argument("--papers", type=int, dest="n_papers")
    p.add_argument("--venues", type=int, dest="n_venues")
    p.add_argument("--classes", type=int)
    p.add_argument("--p-in", type=float, dest="p_in")
    p.add_argument("--p-out", type=float, dest="p_out")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("partition", help="split labeled nodes across clients")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("train", help="run a federated experiment from a config file")
    p.add_argument("--data")
    p.add_argument("--config")
    p.add_argument("--manifest", help="replay a run from its manifest (no --config or --data)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a run's checkpoint on its held-out test nodes")
    p.add_argument("--run", type=Path, required=True, help="the run directory train wrote")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-embeddings", help="write a run's fused node embeddings to CSV")
    p.add_argument("--run", type=Path, required=True, help="the run directory train wrote")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("aggregate-demo", help="replay staleness weighting on a record table")
    p.add_argument("--records", required=True)
    p.set_defaults(func=cmd_aggregate_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
