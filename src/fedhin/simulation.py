"""Experiment orchestration: partitioning, assembly, round scheduling, presets.

``partition`` splits the labeled target nodes across clients;
``build_experiment`` resolves the meta paths and builds the model, the
clients and the server; ``run_experiment`` streams one ``RoundMetrics``
per round.  The synthetic graph the presets train on comes from
``fedhin.synthetic``.

The clients' Adam first and second moments are two (clients, P) float64
tables, P the size of one parameter buffer: client c's ``adam.m`` and
``adam.v`` are row c of each (``ModelParams.rows``).  Each client holds a
read-only reference to the last shared-weight vector it received or
uploaded; every client starts on the server's initial weights.  All
clients train in one work buffer, a copy of the initial parameters, into
which a client copies its reference before it trains.  Its ``pref`` is the
experiment's one (N, k) preference table: partitions are disjoint, and a
client's moments stay 0 off its training nodes' rows, so its Adam steps
leave those rows' bits alone.  Set-up allocates three arrays for any
number of clients.

The deterministic scheduler advances virtual time in ticks.  On each tick
every client whose speed multiplier divides the tick trains locally and
uploads; with ``granularity="round"`` all uploads of a tick are recorded
before any aggregation, so with equal speeds every aggregation sees equal
versions, and with ``granularity="batch"`` each upload after a local batch
is aggregated on arrival.  A client with multiplier ``s`` therefore trains
once per ``s`` ticks, which is what makes version gaps (and the staleness
discount) actually occur.

Every upload goes through one delivery rule (``Delivery``).  After the
server handles an upload, each uploader installs the aggregate at once,
and after a broadcast so does every other client.  An install takes the
aggregate by reference and copies nothing, and only the uploader of a
per-batch upload is mid-round then, so a client that did not upload
trains next on the latest broadcast.  A client whose training goes
non-finite aborts the run with ``TrainingDiverged``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import ExperimentConfig
from .evaluation import EvalSplit, evaluate, make_split
from .federation import ClientUpdate, FederatedClient, ParameterServer
from .graph import HeterogeneousGraph, MetaPathSpec, metapath_adjacency
from .model import AttentionModel, ModelParams, init_params, pack_shared, unpack_shared
from .optim import AdamState, NonFiniteGradient


class SimulationError(Exception):
    pass


class TrainingDiverged(SimulationError):
    """A client produced a non-finite loss or gradient; carries a diagnostic
    checkpoint path."""

    def __init__(self, message: str, checkpoint_path=None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


def _diverged(
    message: str, client: FederatedClient, round_: int, diagnostics_dir
) -> TrainingDiverged:
    """The abort error for a diverged client; when ``diagnostics_dir`` is
    set, the work buffer, which holds the parameters the client diverged
    on, is checkpointed there first."""
    checkpoint_path = None
    if diagnostics_dir is not None:
        from .storage import save_checkpoint

        checkpoint_path = Path(diagnostics_dir) / f"diverged_round{round_}_client{client.client_id}.npz"
        save_checkpoint(checkpoint_path, client.work, allow_non_finite=True)
        message = f"{message}; parameters saved to {checkpoint_path}"
    return TrainingDiverged(message, checkpoint_path=checkpoint_path)


# -- partitioning -------------------------------------------------------------


def partition(
    graph: HeterogeneousGraph,
    n_clients: int,
    strategy: str = "uniform",
    seed: int = 0,
    dirichlet_alpha: float = 1.0,
) -> tuple[np.ndarray, ...]:
    """Split the labeled nodes across clients, disjointly and exhaustively,
    into one sorted array of node ids per client.

    Graph structure and node ids are shared by every client; only label
    ownership is private, so model shapes agree across the federation.

    ``uniform`` deals a random permutation into near-equal parts;
    ``label_skew`` draws per-class client proportions from a Dirichlet so
    client label histograms diverge from the global one.
    """
    labeled = graph.labeled_nodes()
    if n_clients < 1:
        raise SimulationError("need at least one client")
    if n_clients > labeled.size:
        raise SimulationError(
            f"cannot split {labeled.size} labeled nodes across {n_clients} clients"
        )
    rng = np.random.default_rng(seed)
    if strategy == "uniform":
        parts = [np.sort(p) for p in np.array_split(rng.permutation(labeled), n_clients)]
    elif strategy == "label_skew":
        buckets: list[list[int]] = [[] for _ in range(n_clients)]
        labels = graph.labels
        for cls in np.unique(labels[labeled]):
            members = rng.permutation(labeled[labels[labeled] == cls])
            proportions = rng.dirichlet(np.full(n_clients, dirichlet_alpha))
            counts = np.floor(proportions * members.size).astype(int)
            # distribute the rounding remainder to the largest shares
            remainder = members.size - counts.sum()
            for idx in np.argsort(-proportions)[:remainder]:
                counts[idx] += 1
            if counts.sum() != members.size:  # proportions that underflowed to 0
                raise SimulationError(f"dirichlet_alpha {dirichlet_alpha} drew proportions "
                                      f"{proportions.tolist()}, which cannot split class {cls}")
            offset = 0
            for c in range(n_clients):
                buckets[c].extend(members[offset : offset + counts[c]])
                offset += counts[c]
        # no client may end up empty: steal one node from the largest bucket
        for c in range(n_clients):
            if not buckets[c]:
                donor = max(range(n_clients), key=lambda b: len(buckets[b]))
                buckets[c].append(buckets[donor].pop())
        parts = [np.sort(np.array(b, dtype=np.int64)) for b in buckets]
    else:
        raise SimulationError(f"unknown partition strategy {strategy!r}")
    return tuple(parts)


# children of SeedSequence(config.seed), in spawn order: weight init, split,
# partition, then one per client.  A child depends only on its index, not on
# how many are spawned, so client_partition can draw its own.
_INIT_CHILD, _SPLIT_CHILD, _PARTITION_CHILD, _FIRST_CLIENT_CHILD = range(4)


def client_partition(
    config: ExperimentConfig, graph: HeterogeneousGraph
) -> tuple[np.ndarray, ...]:
    """The split ``build_experiment`` trains ``config`` on."""
    child = np.random.SeedSequence(config.seed).spawn(_PARTITION_CHILD + 1)[_PARTITION_CHILD]
    return partition(
        graph,
        config.clients,
        strategy=config.partition_strategy,
        seed=int(np.random.default_rng(child).integers(0, 2**31 - 1)),
        dirichlet_alpha=config.dirichlet_alpha,
    )


# -- round metrics --------------------------------------------------------------


@dataclass
class RoundMetrics:
    """One communication round's worth of observable state."""

    round: int
    aggregator: str
    loss: float | None
    micro_f1: float
    macro_f1: float
    max_version_gap: int
    elapsed: float


# -- experiment assembly ----------------------------------------------------------


@dataclass
class ExperimentSetup:
    """Everything run_experiment builds before the first tick.

    Each client's Adam moments are its rows of the tables of the module
    docstring; ``work`` is the clients' one work buffer, and
    ``initial_params`` a buffer of its own.
    """

    model: AttentionModel
    initial_params: ModelParams
    work: ModelParams
    clients: list[FederatedClient]
    server: ParameterServer
    split: EvalSplit
    labels: np.ndarray

    def global_params(self) -> ModelParams:
        """The global model: the server's aggregate in a copy of the work buffer."""
        params = self.work.copy()
        unpack_shared(self.server.current_aggregate(), params)
        return params


def build_experiment(config: ExperimentConfig, graph: HeterogeneousGraph) -> ExperimentSetup:
    """Resolve meta paths, split, partition, and construct clients + server."""
    # first: it refuses more clients than labeled nodes before a seed is spawned per client
    part = client_partition(config, graph)
    seeds = np.random.SeedSequence(config.seed).spawn(_FIRST_CLIENT_CHILD + config.clients)
    init_rng = np.random.default_rng(seeds[_INIT_CHILD])
    split_seed = int(np.random.default_rng(seeds[_SPLIT_CHILD]).integers(0, 2**31 - 1))

    specs = [
        MetaPathSpec.from_string(code, config.type_alphabet) for code in config.metapaths
    ]
    for spec in specs:
        spec.validate_for_target(graph.target_type)
    adjacencies = [metapath_adjacency(graph, spec) for spec in specs]

    n_labels = graph.num_labels
    if n_labels < 2:
        raise SimulationError("need at least two label classes to train a classifier")
    model = AttentionModel(
        adjacencies,
        n_labels=n_labels,
        embedding_dim=config.embedding_dim,
        preference_dim=config.preference_dim,
        sample_size=config.neighbor_sample_size,
    )

    local_labels = graph.labels[graph.nodes_of_type(graph.target_type)]

    split = make_split(local_labels, fraction=config.train_fraction, seed=split_seed)

    params0 = init_params(model.dims, init_rng)
    server = ParameterServer(
        client_ids=range(config.clients),
        aggregator=config.aggregator,
        staleness_exponent=config.staleness_exponent,
        gap_threshold=config.gap_threshold,
        ema_beta=config.ema_beta,
        initial_weights=pack_shared(params0),
    )
    server.initial_weights.flags.writeable = False  # every client starts on it
    first, second = (ModelParams.rows(model.dims, config.clients) for _ in range(2))
    work = params0.copy()
    is_train = np.zeros(local_labels.size, dtype=bool)
    is_train[split.train_nodes] = True
    clients = []
    for cid in range(config.clients):
        # labeled nodes are target nodes, so their local index is a target index
        local_nodes = np.sort(graph.local_index[part[cid]])
        local_nodes = local_nodes[is_train[local_nodes]]
        clients.append(
            FederatedClient(
                client_id=cid,
                model=model,
                work=work,
                shared=server.initial_weights,
                train_nodes=local_nodes,
                labels=local_labels,
                adam=AdamState(first[cid], second[cid], config.learning_rate),
                rng=np.random.default_rng(seeds[_FIRST_CLIENT_CHILD + cid]),
            )
        )
    return ExperimentSetup(
        model=model,
        initial_params=params0,
        work=work,
        clients=clients,
        server=server,
        split=split,
        labels=local_labels,
    )


def _evaluated_record(
    config: ExperimentConfig, setup: ExperimentSetup, round_: int, loss, elapsed: float
) -> RoundMetrics:
    """A round's record: test scores of the server's current aggregate."""
    micro, macro = evaluate(setup.model, setup.global_params(), setup.labels, setup.split)
    return RoundMetrics(
        round=round_,
        aggregator=config.aggregator,
        loss=loss,
        micro_f1=micro,
        macro_f1=macro,
        max_version_gap=setup.server.max_version_gap(),
        elapsed=elapsed,
    )


def _untrained_record(config: ExperimentConfig, setup: ExperimentSetup) -> RoundMetrics:
    """Round 0: test scores and mean training loss of the initial parameters."""
    nodes = setup.split.train_nodes
    trace = setup.model.forward(setup.initial_params, nodes, labels=setup.labels, rng=None)
    return _evaluated_record(config, setup, 0, trace.total_loss / nodes.size, 0.0)


def _pooled_loss(clients: list[FederatedClient]) -> float | None:
    """Per-node mean training loss over the clients' latest rounds, pooled
    over their examples; None when none of them trained on any."""
    # a plain left-to-right sum: the built-in sum compensates from Python 3.12
    loss_sum, examples = 0.0, 0
    for client in clients:
        loss_sum += client.last_loss_sum
        examples += client.last_examples
    return loss_sum / examples if examples else None


class Delivery:
    """The delivery rule of the module docstring."""

    def __init__(self, server: ParameterServer, clients: list[FederatedClient]):
        self.server, self.clients = server, clients

    def deliver(self, updates: list[ClientUpdate], tick: int) -> None:
        """Hand ``updates`` to the server at ``tick``; the uploaders install
        its aggregate, and after a broadcast every client does.  An empty
        call is skipped."""
        if not updates:
            return
        aggregate, mode = self.server.handle(updates, tick=tick)
        uploaders = {int(update.client_id) for update in updates}
        for client in self.clients:
            if mode == "broadcast" or client.client_id in uploaders:
                client.install(aggregate)


def _client_round(
    client: FederatedClient, config: ExperimentConfig, round_: int, submit, diagnostics_dir
) -> None:
    """One local round: train, and upload through ``submit`` after
    every batch (``granularity="batch"``) or once at the end.  A non-finite
    gradient raises ``TrainingDiverged`` with this client's checkpoint.  The
    loss needs no check: it clamps each probability before the log, so only
    a NaN probability makes it non-finite, and that NaN reaches the gradient."""
    per_batch = config.granularity == "batch"
    try:
        update = client.run_round(
            config.local_epochs, config.batch_size, submit=submit if per_batch else None
        )
    except NonFiniteGradient as exc:
        raise _diverged(
            f"client {client.client_id}: {exc} at round {round_}", client, round_, diagnostics_dir
        ) from exc
    if not per_batch:
        submit(update)


def run_experiment(
    config: ExperimentConfig,
    graph: HeterogeneousGraph,
    setup: ExperimentSetup | None = None,
    diagnostics_dir=None,
) -> Iterator[RoundMetrics]:
    """Stream one RoundMetrics per communication round.

    Round 0 is the untrained evaluation; with a round budget of zero the
    stream contains only that record.  ``elapsed`` is the virtual tick
    count, so identical configs and seeds produce byte-identical streams.
    A non-finite training loss aborts the run; when ``diagnostics_dir`` is
    set, the offending client's parameters are checkpointed there first.
    """
    if setup is None:
        setup = build_experiment(config, graph)
    delivery = Delivery(setup.server, setup.clients)
    yield _untrained_record(config, setup)
    speeds = config.speeds()
    for tick in range(1, config.rounds + 1):
        # round granularity delivers the tick's uploads together at its end
        updates: list[ClientUpdate] = []
        submit = updates.append if config.granularity == "round" else (
            lambda update: delivery.deliver([update], tick))
        trained = [c for c in setup.clients if tick % speeds[c.client_id] == 0]
        for client in trained:
            _client_round(client, config, tick, submit, diagnostics_dir)
        delivery.deliver(updates, tick)
        yield _evaluated_record(config, setup, tick, _pooled_loss(trained), float(tick))


# -- experiment presets ------------------------------------------------------------


def preset_synthetic_config(**overrides) -> ExperimentConfig:
    """Desk-scale defaults used by the convergence and comparison studies."""
    base = dict(
        clients=3,
        rounds=60,
        local_epochs=1,
        batch_size=256,
        embedding_dim=32,
        preference_dim=16,
        metapaths=("APA", "APPA"),
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def preset_aggregator_comparison(**overrides) -> list[ExperimentConfig]:
    """Aggregation-rule comparison under skewed client speeds."""
    configs = []
    for aggregator in ("staleness", "fedavg", "ema"):
        configs.append(
            preset_synthetic_config(
                aggregator=aggregator, speed_multipliers=(1, 1, 3), **overrides
            )
        )
    return configs
