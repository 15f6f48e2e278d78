"""Experiment orchestration: partitioning, synthetic graphs, round scheduling.

The deterministic scheduler advances virtual time in ticks.  On each tick
every client whose speed multiplier divides the tick trains locally and
uploads; all uploads of a tick are recorded before any aggregation, so
with equal speeds every aggregation sees equal versions.  A client with
multiplier ``s`` therefore submits once per ``s`` ticks, which is what
makes version gaps (and the staleness discount) actually occur.

A free-running concurrent mode drives the same server from one thread
per client; arrival order is then real, so runs are reproducible only in
expectation.  In both modes a client whose training goes non-finite
aborts the run with ``TrainingDiverged``, and any other failure of a
client thread reaches the caller as ``SimulationError``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import ExperimentConfig
from .evaluation import EvalSplit, evaluate, make_split
from .federation import ClientUpdate, FederatedClient, ParameterServer
from .graph import HeterogeneousGraph, MetaPathSpec, metapath_adjacency
from .model import AttentionModel, ModelParams, init_params, pack_shared, unpack_shared
from .optim import NonFiniteGradient


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
    set, the client's parameters are checkpointed there first."""
    checkpoint_path = None
    if diagnostics_dir is not None:
        from .storage import save_checkpoint

        checkpoint_path = Path(diagnostics_dir) / f"diverged_round{round_}.npz"
        save_checkpoint(checkpoint_path, client.params, allow_non_finite=True)
        message = f"{message}; parameters saved to {checkpoint_path}"
    return TrainingDiverged(message, checkpoint_path=checkpoint_path)


def _train_round(
    client: FederatedClient, config: ExperimentConfig, tick: int, diagnostics_dir, submit=None
) -> ClientUpdate:
    """One local round of ``client``; a non-finite gradient aborts the run."""
    try:
        return client.run_round(None, config.local_epochs, config.batch_size, submit=submit)
    except NonFiniteGradient as exc:
        raise _diverged(
            f"client {client.client_id}: {exc} at round {tick}", client, tick, diagnostics_dir
        ) from exc


# -- partitioning -------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Disjoint per-client subsets of the labeled target nodes.

    Graph structure and node ids are shared by every client; only label
    ownership is private, so model shapes agree across the federation.
    """

    client_nodes: tuple[np.ndarray, ...]

    @property
    def n_clients(self) -> int:
        return len(self.client_nodes)


def partition(
    graph: HeterogeneousGraph,
    n_clients: int,
    strategy: str = "uniform",
    seed: int = 0,
    dirichlet_alpha: float = 1.0,
) -> Partition:
    """Split the labeled nodes across clients, disjointly and exhaustively.

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
    return Partition(client_nodes=tuple(parts))


# -- synthetic academic graph --------------------------------------------------

SYNTHETIC_SCHEMA = (
    ("author", "writes", "paper"),
    ("paper", "written_by", "author"),
    ("paper", "cites", "paper"),
    ("paper", "cited_by", "paper"),
    ("paper", "published_in", "venue"),
    ("venue", "publishes", "paper"),
)


def synthetic_hin(
    n_authors: int = 400,
    n_papers: int = 1500,
    n_venues: int = 20,
    classes: int = 4,
    p_in: float = 0.05,
    p_out: float = 0.005,
    seed: int = 0,
) -> HeterogeneousGraph:
    """Planted-community academic graph: authors, papers, venues.

    Authors are split into ``classes`` near-equal groups.  Each same-group
    author pair co-writes a paper with probability ``p_in``, each
    cross-group pair with ``p_out``; solo papers pad the paper count up to
    ``n_papers`` when co-writes fall short.  Every paper cites two others
    and appears in one venue, both biased toward its own group by the
    ratio ``p_in / (p_in + p_out)``.  All relations are emitted in both
    directions so meta-path products behave undirectedly.  Deterministic
    given the seed.
    """
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise SimulationError(
            f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}"
        )
    if classes < 1 or n_authors < classes:
        raise SimulationError("need at least one author per class")
    rng = np.random.default_rng(seed)

    sizes = np.full(classes, n_authors // classes)
    sizes[: n_authors % classes] += 1
    author_class = np.repeat(np.arange(classes), sizes)

    # co-write events: one paper per successful pair draw
    paper_authors: list[tuple[int, ...]] = []
    iu, ju = np.triu_indices(n_authors, k=1)
    same = author_class[iu] == author_class[ju]
    probs = np.where(same, p_in, p_out)
    hits = rng.random(iu.size) < probs
    for a, b in zip(iu[hits], ju[hits]):
        paper_authors.append((int(a), int(b)))
    within_bias = p_in / (p_in + p_out) if (p_in + p_out) > 0 else 0.5
    # guarantee one co-authored paper per author (class-biased like regular
    # co-writes) so no node is featureless; then pad the paper count with
    # solo papers
    if p_in > 0:
        covered = {a for authors in paper_authors for a in authors}
        for a in range(n_authors):
            if a in covered:
                continue
            own_group = np.flatnonzero(author_class == author_class[a])
            own_group = own_group[own_group != a]
            other_groups = np.flatnonzero(author_class != author_class[a])
            pool = (
                own_group
                if (rng.random() < within_bias or other_groups.size == 0)
                else other_groups
            )
            if p_out == 0.0:
                pool = own_group
            if pool.size:
                paper_authors.append((a, int(rng.choice(pool))))
    while len(paper_authors) < n_papers:
        paper_authors.append((int(rng.integers(0, n_authors)),))

    n_paper_nodes = len(paper_authors)
    paper_class = np.array([author_class[authors[0]] for authors in paper_authors])

    # citations: 2 per paper, class-biased, no self-citations, deduplicated
    cite_pairs: set[tuple[int, int]] = set()
    papers_by_class = [np.flatnonzero(paper_class == c) for c in range(classes)]
    for p in range(n_paper_nodes):
        cls = paper_class[p]
        for _ in range(2):
            if rng.random() < within_bias:
                pool = papers_by_class[cls]
            else:
                pool = np.flatnonzero(paper_class != cls)
            if pool.size == 0 or (pool.size == 1 and pool[0] == p):
                continue
            q = int(rng.choice(pool))
            while q == p:
                q = int(rng.choice(pool))
            cite_pairs.add((p, q))

    venue_class = np.arange(n_venues) % classes if n_venues else np.empty(0, dtype=int)
    paper_venue = np.full(n_paper_nodes, -1)
    if n_venues:
        for p in range(n_paper_nodes):
            cls = paper_class[p]
            own = np.flatnonzero(venue_class == cls)
            other = np.flatnonzero(venue_class != cls)
            if own.size and (not other.size or rng.random() < within_bias):
                paper_venue[p] = int(rng.choice(own))
            elif other.size:
                paper_venue[p] = int(rng.choice(other))

    paper_base = n_authors
    venue_base = n_authors + n_paper_nodes
    nodes: list[tuple[int, str, int | None]] = [
        (a, "author", int(author_class[a])) for a in range(n_authors)
    ]
    nodes += [(paper_base + p, "paper", None) for p in range(n_paper_nodes)]
    nodes += [(venue_base + v, "venue", None) for v in range(n_venues)]

    edges: list[tuple[int, int, str]] = []
    for p, authors in enumerate(paper_authors):
        pid = paper_base + p
        for a in authors:
            edges.append((a, pid, "writes"))
            edges.append((pid, a, "written_by"))
    for p, q in sorted(cite_pairs):
        edges.append((paper_base + p, paper_base + q, "cites"))
        edges.append((paper_base + q, paper_base + p, "cited_by"))
    for p in range(n_paper_nodes):
        if paper_venue[p] >= 0:
            vid = venue_base + paper_venue[p]
            edges.append((paper_base + p, vid, "published_in"))
            edges.append((vid, paper_base + p, "publishes"))

    return HeterogeneousGraph(nodes, edges, SYNTHETIC_SCHEMA, target_type="author")


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

    def to_json_obj(self) -> dict:
        return {
            "round": self.round,
            "aggregator": self.aggregator,
            "loss": self.loss,
            "micro_f1": self.micro_f1,
            "macro_f1": self.macro_f1,
            "max_version_gap": self.max_version_gap,
            "elapsed": self.elapsed,
        }


# -- experiment assembly ----------------------------------------------------------


@dataclass
class ExperimentSetup:
    """Everything run_experiment builds before the first tick."""

    model: AttentionModel
    initial_params: ModelParams
    clients: list[FederatedClient]
    server: ParameterServer
    split: EvalSplit
    part: Partition
    labels: np.ndarray


def build_experiment(config: ExperimentConfig, graph: HeterogeneousGraph) -> ExperimentSetup:
    """Resolve meta paths, split, partition, and construct clients + server."""
    seeds = np.random.SeedSequence(config.seed).spawn(3 + config.clients)
    init_rng = np.random.default_rng(seeds[0])
    split_seed = int(np.random.default_rng(seeds[1]).integers(0, 2**31 - 1))
    part_seed = int(np.random.default_rng(seeds[2]).integers(0, 2**31 - 1))

    specs = [
        MetaPathSpec.from_string(code, config.type_alphabet) for code in config.metapaths
    ]
    for spec in specs:
        spec.validate_for_target(config.target_type)
    adjacencies = [metapath_adjacency(graph, spec, config.adjacency_mode) for spec in specs]

    n_labels = graph.num_labels
    if n_labels < 2:
        raise SimulationError("need at least two label classes to train a classifier")
    model = AttentionModel(
        adjacencies,
        n_labels=n_labels,
        embedding_dim=config.embedding_dim,
        preference_dim=config.preference_dim,
        activation=config.activation,
        sample_size=config.neighbor_sample_size,
    )

    target_ids = graph.nodes_of_type(config.target_type)
    global_to_local = {int(g): i for i, g in enumerate(target_ids)}
    local_labels = graph.labels[target_ids]

    split = make_split(local_labels, fraction=config.train_fraction, seed=split_seed)
    part = partition(
        graph,
        config.clients,
        strategy=config.partition_strategy,
        seed=part_seed,
        dirichlet_alpha=config.dirichlet_alpha,
    )

    params0 = init_params(model.dims, init_rng)
    train_set = set(split.train_nodes.tolist())
    clients = []
    for cid in range(config.clients):
        local_nodes = np.array(
            sorted(
                global_to_local[int(g)]
                for g in part.client_nodes[cid]
                if global_to_local[int(g)] in train_set
            ),
            dtype=np.int64,
        )
        clients.append(
            FederatedClient(
                client_id=cid,
                model=model,
                params=params0.copy(),
                train_nodes=local_nodes,
                labels=local_labels,
                learning_rate=config.learning_rate,
                rng=np.random.default_rng(seeds[3 + cid]),
            )
        )

    server = ParameterServer(
        client_ids=range(config.clients),
        aggregator=config.aggregator,
        staleness_exponent=config.staleness_exponent,
        gap_threshold=config.gap_threshold,
        ema_beta=config.ema_beta,
        initial_weights=pack_shared(params0),
    )
    return ExperimentSetup(
        model=model,
        initial_params=params0,
        clients=clients,
        server=server,
        split=split,
        part=part,
        labels=local_labels,
    )


def _mean_untrained_loss(setup: ExperimentSetup) -> float:
    loss, _ = setup.model.loss(
        setup.initial_params, setup.split.train_nodes, setup.labels, rng=None
    )
    return loss / setup.split.train_nodes.size


def run_experiment(
    config: ExperimentConfig,
    graph: HeterogeneousGraph,
    setup: ExperimentSetup | None = None,
    diagnostics_dir=None,
) -> Iterator[RoundMetrics]:
    """Stream one RoundMetrics per communication round.

    Round 0 is the untrained evaluation; with a round budget of zero the
    stream contains only that record.  In deterministic scheduling mode
    ``elapsed`` is the virtual tick count, so identical configs and seeds
    produce byte-identical streams; the concurrent mode reports wall time.
    A non-finite training loss aborts the run; when ``diagnostics_dir`` is
    set, the offending client's parameters are checkpointed there first.
    """
    if setup is None:
        setup = build_experiment(config, graph)
    if config.scheduling == "concurrent":
        yield from _run_concurrent(config, setup, diagnostics_dir)
        return

    model, server, clients = setup.model, setup.server, setup.clients
    eval_params = setup.initial_params.copy()

    micro, macro = evaluate(model, eval_params, setup.labels, setup.split)
    yield RoundMetrics(
        round=0,
        aggregator=config.aggregator,
        loss=_mean_untrained_loss(setup),
        micro_f1=micro,
        macro_f1=macro,
        max_version_gap=server.max_version_gap(),
        elapsed=0.0,
    )

    speeds = config.speeds()
    for tick in range(1, config.rounds + 1):
        due = [c for c in clients if tick % speeds[c.client_id] == 0]

        loss_sum = 0.0
        examples = 0
        if config.granularity == "batch":
            # fine-grained mode: upload after every batch
            for client in due:
                def per_batch_submit(update: ClientUpdate, _client=client) -> np.ndarray:
                    decision = server.handle(update, tick=tick)
                    if decision.is_broadcast:
                        for other in clients:
                            if other is not _client:
                                other.install(decision.payload)
                    return decision.payload

                _train_round(client, config, tick, diagnostics_dir, submit=per_batch_submit)
                loss_sum += client.last_loss_sum
                examples += client.last_examples
        else:
            # all due clients train and upload before any aggregation
            updates = []
            for client in due:
                update = _train_round(client, config, tick, diagnostics_dir)
                loss_sum += client.last_loss_sum
                examples += client.last_examples
                updates.append(update)
            for update in updates:
                server.submit(update)
            for update in updates:
                aggregated = server.current_aggregate()
                decision = server.dispatch(aggregated, update.client_id)
                server.decision_log.append(
                    {
                        "tick": tick,
                        "client": int(update.client_id),
                        "version": int(update.version),
                        "mode": decision.mode,
                        "max_gap": server.max_version_gap(),
                    }
                )
                if decision.is_broadcast:
                    for client in clients:
                        client.install(decision.payload)
                else:
                    clients[decision.client_id].install(decision.payload)

        if examples and not math.isfinite(loss_sum):
            bad = max(due, key=lambda c: 0.0 if math.isfinite(c.last_loss_sum) else 1.0)
            raise _diverged(f"non-finite training loss at round {tick}", bad, tick, diagnostics_dir)

        unpack_shared(server.current_aggregate(), eval_params)
        micro, macro = evaluate(model, eval_params, setup.labels, setup.split)
        yield RoundMetrics(
            round=tick,
            aggregator=config.aggregator,
            loss=(loss_sum / examples) if examples else None,
            micro_f1=micro,
            macro_f1=macro,
            max_version_gap=server.max_version_gap(),
            elapsed=float(tick),
        )


def run_experiment_list(
    config: ExperimentConfig, graph: HeterogeneousGraph, setup: ExperimentSetup | None = None
) -> list[RoundMetrics]:
    return list(run_experiment(config, graph, setup=setup))


def _run_concurrent(
    config: ExperimentConfig, setup: ExperimentSetup, diagnostics_dir=None
) -> Iterator[RoundMetrics]:
    """Free-running mode: one thread per client, server calls serialized by a lock.

    Broadcast payloads reach other clients through per-client mailboxes,
    applied between local rounds, so parameter tensors are never written
    while another thread trains on them.  The first failure of a client
    thread stops the others before their next round and is raised here
    once all threads have ended.
    """
    model, server, clients = setup.model, setup.server, setup.clients
    lock = threading.Lock()
    mailbox: dict[int, np.ndarray] = {}
    failures: list[tuple[FederatedClient, int, Exception]] = []
    stop = threading.Event()
    start = time.perf_counter()
    speeds = config.speeds()

    def client_loop(client: FederatedClient):
        n_rounds = config.rounds // speeds[client.client_id]
        round_ = 0
        try:
            for round_ in range(1, n_rounds + 1):
                if stop.is_set():
                    return
                with lock:
                    pending = mailbox.pop(client.client_id, None)
                if pending is not None:
                    client.install(pending)
                update = client.run_round(None, config.local_epochs, config.batch_size)
                if not math.isfinite(client.last_loss_sum):
                    raise TrainingDiverged("non-finite training loss")
                with lock:
                    decision = server.handle(update)
                    if decision.is_broadcast:
                        for other in clients:
                            if other is not client:
                                mailbox[other.client_id] = decision.payload
                client.install(decision.payload)
        except Exception as exc:  # handed to the caller after join
            with lock:
                failures.append((client, round_, exc))
            stop.set()

    micro, macro = evaluate(model, setup.initial_params, setup.labels, setup.split)
    yield RoundMetrics(
        round=0,
        aggregator=config.aggregator,
        loss=_mean_untrained_loss(setup),
        micro_f1=micro,
        macro_f1=macro,
        max_version_gap=0,
        elapsed=0.0,
    )
    threads = [threading.Thread(target=client_loop, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        client, round_, exc = failures[0]
        if isinstance(exc, (NonFiniteGradient, TrainingDiverged)):
            raise _diverged(
                f"client {client.client_id}: {exc} in its round {round_}",
                client, round_, diagnostics_dir,
            ) from exc
        raise SimulationError(f"client {client.client_id} failed: {exc!r}") from exc

    eval_params = setup.initial_params.copy()
    unpack_shared(server.current_aggregate(), eval_params)
    micro, macro = evaluate(model, eval_params, setup.labels, setup.split)
    losses = [c.mean_round_loss for c in clients if c.last_examples]
    yield RoundMetrics(
        round=len(server.decision_log),
        aggregator=config.aggregator,
        loss=float(np.mean(losses)) if losses else None,
        micro_f1=micro,
        macro_f1=macro,
        max_version_gap=server.max_version_gap(),
        elapsed=time.perf_counter() - start,
    )


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


def preset_client_computation_grid(
    epochs=(1, 3, 5), batch_sizes=(64, 128, 256), **overrides
) -> list[ExperimentConfig]:
    """The local-computation sweep: every (e, B) combination."""
    return [
        preset_synthetic_config(local_epochs=e, batch_size=b, **overrides)
        for e in epochs
        for b in batch_sizes
    ]


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
