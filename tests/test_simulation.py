"""Partitioning, the synthetic generator, and experiment scheduling."""

import numpy as np
import pytest

from fedhin import (
    ExperimentConfig,
    MetaPathSpec,
    metapath_adjacency,
    metrics_to_jsonl,
    partition,
    run_experiment_list,
    synthetic_hin,
)
from fedhin.simulation import SimulationError, preset_synthetic_config

from oracles import enumerate_typed_walks


class TestPartition:
    def test_single_client_gets_everything(self):
        g = synthetic_hin(n_authors=40, n_papers=80, n_venues=4, classes=4, seed=0)
        part = partition(g, 1, seed=0)
        np.testing.assert_array_equal(part.client_nodes[0], g.labeled_nodes())

    def test_uniform_sizes_and_disjointness(self):
        g = synthetic_hin(n_authors=300, n_papers=600, n_venues=8, classes=3, seed=0)
        part = partition(g, 3, seed=1)
        sizes = [p.size for p in part.client_nodes]
        assert sizes == [100, 100, 100]
        combined = np.concatenate(part.client_nodes)
        assert len(set(combined.tolist())) == 300

    def test_disjoint_cover_over_many_seeds(self):
        g = synthetic_hin(n_authors=90, n_papers=150, n_venues=6, classes=3, seed=2)
        labeled = set(g.labeled_nodes().tolist())
        for seed in range(100):
            for strategy in ("uniform", "label_skew"):
                part = partition(g, 4, strategy=strategy, seed=seed, dirichlet_alpha=0.5)
                union = set()
                total = 0
                for nodes in part.client_nodes:
                    union.update(nodes.tolist())
                    total += nodes.size
                assert union == labeled
                assert total == len(labeled)

    def test_label_skew_diverges_from_uniform(self):
        g = synthetic_hin(n_authors=400, n_papers=700, n_venues=8, classes=4, seed=3)
        labels = g.labels

        def chi2(part):
            stat = 0.0
            for nodes in part.client_nodes:
                hist = np.bincount(labels[nodes], minlength=4)
                expected = hist.sum() / 4.0
                stat += float(((hist - expected) ** 2 / expected).sum())
            return stat

        uniform = chi2(partition(g, 3, "uniform", seed=0))
        skewed = chi2(partition(g, 3, "label_skew", seed=0, dirichlet_alpha=0.1))
        assert skewed > uniform

    def test_too_many_clients_rejected(self):
        g = synthetic_hin(n_authors=8, n_papers=20, n_venues=2, classes=2, seed=0)
        with pytest.raises(SimulationError):
            partition(g, 9, seed=0)


class TestSyntheticHin:
    def test_deterministic_given_seed(self):
        a = synthetic_hin(seed=5)
        b = synthetic_hin(seed=5)
        assert a.edges == b.edges
        assert np.array_equal(a.labels, b.labels)

    def test_no_cross_class_paths_when_p_out_zero(self):
        g = synthetic_hin(n_authors=120, n_papers=300, n_venues=8, classes=3, p_in=0.08, p_out=0.0, seed=1)
        adj = metapath_adjacency(g, MetaPathSpec.from_string("APA"))
        cls = g.labels[g.nodes_of_type("author")]
        coo = adj.matrix.tocoo()
        assert coo.nnz > 0
        assert all(cls[i] == cls[j] for i, j in zip(coo.row, coo.col))

    def test_default_preset_is_class_assortative(self):
        # pairwise co-writes with p_in/p_out = 10 over 4 balanced classes give
        # an expected within-class fraction of 0.767; measured 0.758 at seed 0
        g = synthetic_hin(seed=0)
        adj = metapath_adjacency(g, MetaPathSpec.from_string("APA"))
        cls = g.labels[g.nodes_of_type("author")]
        coo = adj.matrix.tocoo()
        within = sum(1 for i, j in zip(coo.row, coo.col) if cls[i] == cls[j])
        assert 0.70 < within / coo.nnz < 0.85

    def test_every_author_has_a_coauthor(self):
        for seed in range(3):
            g = synthetic_hin(seed=seed)
            adj = metapath_adjacency(g, MetaPathSpec.from_string("APA"))
            degrees = np.diff(adj.matrix.indptr)
            assert degrees.min() >= 1

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(SimulationError):
            synthetic_hin(p_in=0.01, p_out=0.5)

    def test_metapaths_match_walk_oracle(self):
        g = synthetic_hin(n_authors=12, n_papers=30, n_venues=3, classes=3,
                          p_in=0.4, p_out=0.1, seed=7)
        for code in ("APA", "APPA", "APVPA"):
            spec = MetaPathSpec.from_string(code)
            adj = metapath_adjacency(g, spec)
            expected = enumerate_typed_walks(g, spec.type_sequence)
            np.fill_diagonal(expected, 0)
            assert np.array_equal(adj.matrix.toarray(), expected)


@pytest.fixture(scope="module")
def small_graph():
    return synthetic_hin(n_authors=60, n_papers=150, n_venues=6, classes=3,
                         p_in=0.15, p_out=0.02, seed=4)


def small_config(**overrides):
    base = dict(
        clients=3, rounds=5, local_epochs=1, batch_size=64,
        embedding_dim=8, preference_dim=4, metapaths=("APA", "APPA"), seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_zero_round_budget_yields_untrained_record_only(self, small_graph):
        records = run_experiment_list(small_config(rounds=0), small_graph)
        assert len(records) == 1
        assert records[0].round == 0
        assert 0.0 <= records[0].micro_f1 <= 1.0

    def test_single_client_aggregators_coincide(self, small_graph):
        runs = {}
        for aggregator in ("staleness", "fedavg"):
            cfg = small_config(clients=1, aggregator=aggregator)
            runs[aggregator] = metrics_to_jsonl(run_experiment_list(cfg, small_graph))
        normalized = {
            agg: text.replace(f'"{agg}"', '"X"') for agg, text in runs.items()
        }
        assert normalized["staleness"] == normalized["fedavg"]

    def test_equal_speeds_make_staleness_equal_fedavg(self, small_graph):
        runs = {}
        for aggregator in ("staleness", "fedavg"):
            cfg = small_config(aggregator=aggregator)
            runs[aggregator] = run_experiment_list(cfg, small_graph)
        for a, b in zip(runs["staleness"], runs["fedavg"]):
            assert a.loss == b.loss
            assert a.micro_f1 == b.micro_f1
            assert a.max_version_gap == b.max_version_gap == 0

    def test_speed_skew_creates_version_gaps(self, small_graph):
        cfg = small_config(rounds=10, speed_multipliers=(1, 1, 3))
        records = run_experiment_list(cfg, small_graph)
        assert max(r.max_version_gap for r in records) > 0

    def test_deterministic_streams_are_byte_identical(self, small_graph):
        cfg = small_config(rounds=4, speed_multipliers=(1, 2, 3))
        first = metrics_to_jsonl(run_experiment_list(cfg, small_graph))
        second = metrics_to_jsonl(run_experiment_list(cfg, small_graph))
        assert first == second

    def test_round_records_have_expected_fields(self, small_graph):
        records = run_experiment_list(small_config(rounds=2), small_graph)
        obj = records[-1].to_json_obj()
        assert set(obj) == {
            "round", "aggregator", "loss", "micro_f1", "macro_f1",
            "max_version_gap", "elapsed",
        }
        assert obj["round"] == 2
        assert obj["elapsed"] == 2.0

    def test_per_batch_granularity_runs_and_differs(self, small_graph):
        round_cfg = small_config(rounds=3)
        batch_cfg = small_config(rounds=3, granularity="batch", batch_size=16)
        round_run = run_experiment_list(round_cfg, small_graph)
        batch_run = run_experiment_list(batch_cfg, small_graph)
        assert len(batch_run) == len(round_run) == 4
        assert all(np.isfinite(r.loss) for r in batch_run[1:])

    def test_concurrent_mode_smoke(self, small_graph):
        cfg = small_config(rounds=3, scheduling="concurrent")
        records = run_experiment_list(cfg, small_graph)
        assert records[0].round == 0
        final = records[-1]
        assert 0.0 <= final.micro_f1 <= 1.0
        assert final.round == 9  # 3 clients x 3 rounds each

    def test_divergence_aborts_with_diagnostic_checkpoint(self, small_graph, tmp_path):
        from fedhin.simulation import TrainingDiverged, build_experiment, run_experiment

        cfg = small_config(rounds=2)
        setup = build_experiment(cfg, small_graph)
        setup.clients[1]._train_batch = lambda batch: float("nan")
        with pytest.raises(TrainingDiverged) as excinfo:
            list(run_experiment(cfg, small_graph, setup=setup, diagnostics_dir=tmp_path))
        path = excinfo.value.checkpoint_path
        assert path is not None and path.exists()

    def test_epoch_grid_presets_cover_paper_grid(self):
        from fedhin import preset_client_computation_grid

        configs = preset_client_computation_grid()
        combos = {(c.local_epochs, c.batch_size) for c in configs}
        assert combos == {(e, b) for e in (1, 3, 5) for b in (64, 128, 256)}

    def test_aggregator_comparison_preset(self):
        from fedhin import preset_aggregator_comparison

        configs = preset_aggregator_comparison()
        assert [c.aggregator for c in configs] == ["staleness", "fedavg", "ema"]
        assert all(c.speed_multipliers == (1, 1, 3) for c in configs)


class TestDefaults:
    def test_config_defaults_mirror_reference_setup(self):
        cfg = ExperimentConfig()
        assert cfg.clients == 3
        assert cfg.embedding_dim == 128
        assert cfg.learning_rate == 0.001
        assert cfg.local_epochs in (1, 3, 5)
        assert cfg.batch_size in (64, 128, 256)

    def test_preset_uses_compact_embedding(self):
        cfg = preset_synthetic_config()
        assert cfg.embedding_dim == 32
        assert cfg.metapaths == ("APA", "APPA")


class TestFailuresReachTheCaller:
    """Real non-finite parameters, in every scheduling mode, end as typed errors."""

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"granularity": "batch", "batch_size": 16}, {"scheduling": "concurrent"}],
        ids=["round", "batch", "concurrent"],
    )
    def test_nan_parameter_aborts_with_diagnostic_checkpoint(
        self, small_graph, tmp_path, overrides
    ):
        from fedhin import NonFiniteGradient, load_checkpoint
        from fedhin.simulation import TrainingDiverged, build_experiment, run_experiment

        cfg = small_config(rounds=3, **overrides)
        setup = build_experiment(cfg, small_graph)
        setup.clients[1].params.wo[0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="client 1") as excinfo:
            list(run_experiment(cfg, small_graph, setup=setup, diagnostics_dir=tmp_path))
        assert isinstance(excinfo.value.__cause__, NonFiniteGradient)
        path = excinfo.value.checkpoint_path
        assert path is not None and path.exists()
        flat, _, _ = load_checkpoint(path)
        assert np.isnan(flat).any()

    def test_concurrent_thread_failure_is_raised(self, small_graph):
        from fedhin.simulation import build_experiment, run_experiment

        cfg = small_config(rounds=3, scheduling="concurrent")
        setup = build_experiment(cfg, small_graph)
        # a label outside the classifier's range fails inside the worker thread
        setup.clients[2].labels = setup.clients[2].labels.copy()
        setup.clients[2].labels[setup.clients[2].train_nodes[0]] = 99
        with pytest.raises(SimulationError, match="client 2 failed"):
            list(run_experiment(cfg, small_graph, setup=setup))
        assert len(setup.server.decision_log) < 9
