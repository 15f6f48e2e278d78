"""Federated embedding of academic heterogeneous information networks.

A numpy/scipy library that trains a two-level attention embedding model
(node-level and meta-path-level) over typed academic graphs, distributed
across simulated federated clients whose uploads a parameter server
aggregates with version-aware staleness weighting.
"""

__version__ = "0.1.0"

from .config import ConfigError, ExperimentConfig, parse_config
from .evaluation import EvalSplit, evaluate, f1_scores, make_split
from .federation import (
    AGGREGATORS,
    ClientUpdate,
    FederatedClient,
    FederationError,
    ParameterServer,
    StalenessRejected,
    UnknownClient,
)
from .graph import (
    DEFAULT_TYPE_ALPHABET,
    GraphError,
    HeterogeneousGraph,
    MetaPathAdjacency,
    MetaPathSpec,
    ParseError,
    SchemaViolation,
    load_graph,
    metapath_adjacency,
    write_graph,
)
from .model import (
    AttentionModel,
    ForwardTrace,
    ModelDims,
    ModelParams,
    init_params,
    pack_shared,
    shape_manifest,
    unpack_shared,
)
from .optim import AdamState, NonFiniteGradient, adam_step
from .simulation import (
    ExperimentSetup,
    RoundMetrics,
    SimulationError,
    build_experiment,
    partition,
    preset_aggregator_comparison,
    preset_synthetic_config,
    run_experiment,
)
from .storage import (
    RunManifest,
    StorageError,
    dataset_fingerprint,
    export_embeddings,
    metrics_to_jsonl,
    params_from_checkpoint,
    save_checkpoint,
    write_jsonl,
    write_manifest,
)
from .synthetic import synthetic_hin
