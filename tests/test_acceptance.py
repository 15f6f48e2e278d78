"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line.  The
experiment-backed criteria run the desk-scale synthetic preset
(400 authors, 4 classes, meta paths APA + APPA, embedding dim 32).
Run with ``pytest -s tests/test_acceptance.py`` to see the report lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from fedhin import (
    AttentionModel,
    MetaPathSpec,
    evaluate,
    init_params,
    make_split,
    metapath_adjacency,
    metrics_to_jsonl,
    run_experiment,
    synthetic_hin,
)
from fedhin.federation import ClientUpdate, ParameterServer
from fedhin.simulation import preset_synthetic_config

from oracles import enumerate_typed_walks, finite_difference, per_node, random_hin, relative_error


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number} ({name}): FAIL", flush=True)
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS", flush=True)


# -- shared preset fixtures --------------------------------------------------


@pytest.fixture(scope="module")
def preset_graph():
    return synthetic_hin(seed=0)  # 400 authors, 4 classes, defaults


@pytest.fixture(scope="module")
def centralized_run(preset_graph):
    config = preset_synthetic_config(clients=1, rounds=60, local_epochs=1, batch_size=64, seed=0)
    start = time.perf_counter()
    records = list(run_experiment(config, preset_graph))
    return records, time.perf_counter() - start


def gradcheck_fixture():
    rng = np.random.default_rng(21)
    graph = random_hin(rng)
    adjs = [metapath_adjacency(graph, MetaPathSpec.from_string(c)) for c in ("APA", "APPA")]
    model = AttentionModel(
        adjs, n_labels=3, embedding_dim=4, preference_dim=3, sample_size=None
    )
    labels = np.random.default_rng(5).integers(0, 3, size=model.dims.n_targets)
    return model, labels


# -- criteria -------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    """Backward vs central finite differences, every tensor, 10 seeds, < 60 s."""
    with criterion(1, "gradient correctness"):
        model, labels = gradcheck_fixture()
        batch = np.arange(5)
        start = time.perf_counter()
        for seed in range(10):
            params = init_params(model.dims, np.random.default_rng(seed))

            def loss_fn():
                value = model.forward(params, batch, labels=labels).total_loss
                return value

            trace = model.forward(params, batch, labels=labels)
            grads = dict(model.backward(trace).tensor_items())
            pick = np.random.default_rng(1000 + seed)
            for name, tensor in params.tensor_items():
                analytic = grads[name].ravel()
                for _ in range(20):
                    idx = int(pick.integers(tensor.size))
                    fd = finite_difference(loss_fn, tensor, idx, h=1e-5)
                    err = relative_error(fd, analytic[idx])
                    assert err < 1e-4, f"seed {seed} {name}[{idx}]: rel err {err}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


def test_criterion_2_attention_simplex_suite():
    """Attention coefficients stay on the simplex; cosines are scale-invariant."""
    with criterion(2, "attention simplex suite"):
        model, _ = gradcheck_fixture()
        n = model.dims.n_targets
        batch = np.array([0, 1, 2]) % n
        for draw in range(1000):
            params = init_params(model.dims, np.random.default_rng(draw))
            trace = model.forward(params, batch)
            nodes = per_node(trace)
            for node in nodes:
                for p in range(model.dims.n_paths):
                    c = node.coeffs[p]
                    if c.size:
                        assert np.all(c >= 0)
                        assert abs(c.sum() - 1.0) <= 1e-12
                assert np.all(node.path_coeffs >= 0)
                assert abs(node.path_coeffs.sum() - 1.0) <= 1e-12

            if draw % 20 == 0:
                gamma = 2.0 + 9.0 * (draw % 7)
                # feature scaling: node-level similarities and coefficients
                # are cosine-based, so they cannot move
                scaled = params.copy()
                for p in range(model.dims.n_paths):
                    scaled.wt[p] *= gamma
                after = model.forward(scaled, batch)
                for before_node, after_node in zip(nodes, per_node(after)):
                    for p in range(model.dims.n_paths):
                        np.testing.assert_allclose(
                            before_node.sims[p], after_node.sims[p], atol=1e-12
                        )
                        np.testing.assert_allclose(
                            before_node.coeffs[p], after_node.coeffs[p], atol=1e-12
                        )
                # projection scaling: meta-path coefficients are likewise
                # cosine-based in the projected space
                scaled = params.copy()
                scaled.wp *= gamma
                after = model.forward(scaled, batch)
                for before_node, after_node in zip(nodes, per_node(after)):
                    np.testing.assert_allclose(
                        before_node.path_coeffs, after_node.path_coeffs, atol=1e-12
                    )


def test_criterion_3_metapath_oracle():
    """Adjacency products equal exhaustive walk enumeration on 50 random graphs."""
    with criterion(3, "meta-path oracle"):
        codes = ("APA", "APPA", "APVPA")
        rng = np.random.default_rng(2024)
        for trial in range(50):
            graph = random_hin(rng, max_nodes=40)
            assert graph.num_nodes <= 40
            spec = MetaPathSpec.from_string(codes[trial % len(codes)])
            adj = metapath_adjacency(graph, spec)
            expected = enumerate_typed_walks(graph, spec.type_sequence)
            np.fill_diagonal(expected, 0)
            assert np.array_equal(adj.matrix.toarray(), expected), f"trial {trial}"


def test_criterion_4_staleness_degeneracy():
    """Staleness weighting collapses to plain averaging when no one is stale."""
    with criterion(4, "staleness-weighting degeneracy"):
        rng = np.random.default_rng(7)

        def fresh_server(alpha):
            return ParameterServer(
                client_ids=range(4), aggregator="staleness", staleness_exponent=alpha,
                initial_weights=np.zeros(16),
            )

        # equal versions
        server = fresh_server(alpha=0.5)
        vectors = rng.normal(size=(4, 16))
        for cid in range(4):
            server.submit(ClientUpdate(cid, vectors[cid], version=3))
        np.testing.assert_allclose(
            server.aggregate_staleness_weighted(), server.aggregate_fedavg(), atol=1e-12
        )

        # alpha = 0 with arbitrary version gaps
        server = fresh_server(alpha=0.0)
        for cid in range(4):
            server.submit(ClientUpdate(cid, vectors[cid], version=int(rng.integers(1, 40))))
        np.testing.assert_allclose(
            server.aggregate_staleness_weighted(), server.aggregate_fedavg(), atol=1e-12
        )

        # hand case: versions (5, 3) with alpha 1 give weights (0.75, 0.25)
        server = ParameterServer(
            client_ids=[0, 1], aggregator="staleness", staleness_exponent=1.0,
            initial_weights=np.zeros(2),
        )
        server.submit(ClientUpdate(0, np.array([1.0, 1.0]), version=5))
        server.submit(ClientUpdate(1, np.array([5.0, 5.0]), version=3))
        _, coeffs = server.staleness_coefficients()
        assert coeffs[0] == 0.75 and coeffs[1] == 0.25
        np.testing.assert_array_equal(server.aggregate_staleness_weighted(), [2.0, 2.0])


def test_criterion_5_centralized_convergence(preset_graph, centralized_run):
    """Single-client training reaches 0.85 micro F1; untrained sits at chance."""
    with criterion(5, "centralized convergence"):
        records, elapsed = centralized_run
        assert records[-1].micro_f1 >= 0.85, f"final micro F1 {records[-1].micro_f1}"
        assert records[-1].round <= 200  # within the epoch budget
        assert elapsed < 300.0, f"centralized run took {elapsed:.0f}s"

        adjs = [
            metapath_adjacency(preset_graph, MetaPathSpec.from_string(c))
            for c in ("APA", "APPA")
        ]
        model = AttentionModel(
            adjs, n_labels=4, embedding_dim=32, preference_dim=16, sample_size=None
        )
        labels = preset_graph.labels[preset_graph.nodes_of_type("author")]
        split = make_split(labels, fraction=0.8, seed=0)
        micros = []
        for seed in range(20):
            params = init_params(model.dims, np.random.default_rng(seed))
            micro, _ = evaluate(model, params, labels, split)
            micros.append(micro)
            assert 0.25 - 0.15 <= micro <= 0.25 + 0.15, f"seed {seed}: untrained micro {micro}"
        assert 0.25 - 0.15 <= float(np.mean(micros)) <= 0.25 + 0.15


def test_criterion_6_federated_parity(preset_graph, centralized_run):
    """Three equal-speed clients match centralized accuracy within 0.05."""
    with criterion(6, "federated parity"):
        config = preset_synthetic_config(
            clients=3, rounds=60, local_epochs=1, batch_size=256,
            partition_strategy="uniform", seed=0,
        )
        start = time.perf_counter()
        federated = list(run_experiment(config, preset_graph))
        elapsed = time.perf_counter() - start
        centralized, _ = centralized_run
        gap = abs(federated[-1].micro_f1 - centralized[-1].micro_f1)
        assert gap <= 0.05, f"parity gap {gap}"
        assert elapsed < 600.0, f"federated run took {elapsed:.0f}s"


def test_criterion_7_client_computation_trends():
    """Lower local computation per round wins (or ties) once runs plateau.

    The comparison uses label-skewed partitions: with identically
    distributed client data, extra local computation cannot drift the
    aggregate, so the orderings reduce to coin flips at saturation.
    """
    with criterion(7, "client-computation trends"):
        e_order = 0
        b_order = 0
        for seed in (0, 1, 2):
            graph = synthetic_hin(seed=seed)
            finals = {}
            for epochs, batch in ((1, 256), (5, 256), (1, 64)):
                config = preset_synthetic_config(
                    clients=3, rounds=100, local_epochs=epochs, batch_size=batch,
                    partition_strategy="label_skew", dirichlet_alpha=0.25, seed=seed,
                )
                finals[(epochs, batch)] = list(run_experiment(config, graph))[-1].micro_f1
            e_order += finals[(1, 256)] >= finals[(5, 256)]
            b_order += finals[(1, 256)] >= finals[(1, 64)]
        assert e_order >= 2, f"e=1 >= e=5 held in only {e_order}/3 seeds"
        assert b_order >= 2, f"B=256 >= B=64 held in only {b_order}/3 seeds"


def test_criterion_8_staleness_benefit(preset_graph):
    """With one slow client, staleness weighting tracks lower training loss."""
    with criterion(8, "staleness benefit under speed skew"):
        runs = {}
        for aggregator in ("staleness", "fedavg"):
            config = preset_synthetic_config(
                clients=3, rounds=50, local_epochs=1, batch_size=256,
                aggregator=aggregator, speed_multipliers=(1, 1, 3), seed=0,
            )
            runs[aggregator] = list(run_experiment(config, preset_graph))
        window = slice(10, 51)
        pairs = list(zip(runs["staleness"][window], runs["fedavg"][window]))
        wins = sum(1 for s, f in pairs if s.loss <= f.loss)
        fraction = wins / len(pairs)
        assert fraction >= 0.60, f"staleness no better at {fraction:.0%} of rounds 10-50"
        assert max(r.max_version_gap for r in runs["staleness"]) > 0


def test_criterion_9_determinism():
    """Same config and seed give byte-identical metrics streams."""
    with criterion(9, "deterministic replay"):
        graph = synthetic_hin(
            n_authors=60, n_papers=150, n_venues=6, classes=3, p_in=0.15, p_out=0.02, seed=4
        )
        config = preset_synthetic_config(
            clients=3, rounds=6, local_epochs=1, batch_size=32,
            embedding_dim=8, speed_multipliers=(1, 2, 3), seed=11,
        )
        first = metrics_to_jsonl(run_experiment(config, graph))
        second = metrics_to_jsonl(run_experiment(config, graph))
        assert first == second
        assert first.encode() == second.encode()
