"""Partitioning, the synthetic generator, and experiment scheduling."""

import hashlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhin import (
    ExperimentConfig,
    MetaPathSpec,
    metapath_adjacency,
    metrics_to_jsonl,
    partition,
    run_experiment,
    synthetic,
    synthetic_hin,
)
from fedhin.graph import write_graph
from fedhin.simulation import SimulationError, preset_synthetic_config
from fedhin.synthetic import _RawReplay, _replay_draws, _scalar_draws

from oracles import enumerate_typed_walks, synthetic_hin_loops, synthetic_hin_scalar

# sha256 of write_graph's nodes.csv bytes followed by its edges.csv bytes,
# computed with the generator as it stood before the graph was held in arrays
# (one rng.choice per draw over pools rebuilt per draw, all author pairs at once)
GOLDEN_GRAPHS = [
    (dict(n_authors=120, n_papers=300, n_venues=8, classes=3, seed=1),
     "d3429a90776cb432923c8d58ba8de6c6d59882ffec8518b925957be3ea6c1add"),
    (dict(n_authors=400, seed=3),
     "7e2406b7db587b81bdaf74016d0ec33e71a488836e1ea54df31b2060f4461116"),
    (dict(n_authors=1000, n_papers=2000, n_venues=30, classes=5, seed=7),
     "358b7efbcc172664ab66312889921027d4f36f08d3b592f82754e13c0bab1e45"),
    (dict(n_authors=200, n_papers=400, n_venues=10, classes=4, p_in=0.06, p_out=0.0, seed=2),
     "bf424e8b634978eaa8d4f87377f39f99f87e12f093d359eeb943a5a8116fce4f"),
    (dict(n_authors=150, n_papers=300, n_venues=0, classes=3, seed=4),
     "5d406705337392423b887379b4c7be42b101fb221cb390185151ab92eb0920c4"),
    (dict(n_authors=60, n_papers=100, n_venues=5, classes=1, seed=6),
     "c11fac7ae6aa35e1f101a2ebb294873936ee57b72c3214fe67524e247c69cda8"),
    (dict(n_authors=50, n_papers=80, n_venues=4, classes=2, p_in=0.0, p_out=0.0, seed=8),
     "fd43aaa8ea8277f064c2541c621fd5fd4221bdf299f8b79a976790db835f39b9"),
    (dict(n_authors=30, n_papers=10, n_venues=3, classes=3, p_in=1.0, p_out=1.0, seed=9),
     "5ee670c9f5654fe7c0686c8f7ad11df0f9ac401a1fbc176095d84a5fd2d532ff"),
]


class TestPartition:
    def test_single_client_gets_everything(self):
        g = synthetic_hin(n_authors=40, n_papers=80, n_venues=4, classes=4, seed=0)
        part = partition(g, 1, seed=0)
        np.testing.assert_array_equal(part[0], g.labeled_nodes())

    def test_uniform_sizes_and_disjointness(self):
        g = synthetic_hin(n_authors=300, n_papers=600, n_venues=8, classes=3, seed=0)
        part = partition(g, 3, seed=1)
        sizes = [p.size for p in part]
        assert sizes == [100, 100, 100]
        combined = np.concatenate(part)
        assert len(set(combined.tolist())) == 300

    def test_disjoint_cover_over_many_seeds(self):
        g = synthetic_hin(n_authors=90, n_papers=150, n_venues=6, classes=3, seed=2)
        labeled = set(g.labeled_nodes().tolist())
        for seed in range(100):
            for strategy in ("uniform", "label_skew"):
                part = partition(g, 4, strategy=strategy, seed=seed, dirichlet_alpha=0.5)
                union = set()
                total = 0
                for nodes in part:
                    union.update(nodes.tolist())
                    total += nodes.size
                assert union == labeled
                assert total == len(labeled)

    def test_label_skew_diverges_from_uniform(self):
        g = synthetic_hin(n_authors=400, n_papers=700, n_venues=8, classes=4, seed=3)
        labels = g.labels

        def chi2(part):
            stat = 0.0
            for nodes in part:
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

    @pytest.mark.parametrize("counts", [dict(n_venues=-1), dict(n_papers=-1)])
    def test_negative_counts_rejected_before_any_draw(self, counts, monkeypatch):
        # the check must precede the draws: with a negative venue count the
        # venue draw loop would redraw for ever
        def first_draw(*args):
            raise AssertionError("drew from the generator")

        monkeypatch.setattr(synthetic, "_coauthor_pairs", first_draw)
        with pytest.raises(SimulationError, match="n_papers >= 0 and n_venues >= 0"):
            synthetic_hin(n_authors=40, **counts)

    def test_metapaths_match_walk_oracle(self):
        g = synthetic_hin(n_authors=12, n_papers=30, n_venues=3, classes=3,
                          p_in=0.4, p_out=0.1, seed=7)
        for code in ("APA", "APPA", "APVPA"):
            spec = MetaPathSpec.from_string(code)
            adj = metapath_adjacency(g, spec)
            expected = enumerate_typed_walks(g, spec.type_sequence)
            np.fill_diagonal(expected, 0)
            assert np.array_equal(adj.matrix.toarray(), expected)

    @pytest.mark.parametrize("kwargs, digest", GOLDEN_GRAPHS, ids=[
        "-".join(f"{k}={v}" for k, v in kwargs.items()) for kwargs, _ in GOLDEN_GRAPHS])
    def test_written_tables_match_golden_hashes(self, tmp_path, kwargs, digest):
        nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
        write_graph(nodes, edges, synthetic_hin(**kwargs))
        assert hashlib.sha256(nodes.read_bytes() + edges.read_bytes()).hexdigest() == digest

    @given(
        n_authors=st.integers(1, 40),
        n_papers=st.integers(0, 60),
        n_venues=st.integers(0, 7),
        classes=st.integers(1, 6),
        p=st.sampled_from([(0.0, 0.0), (0.2, 0.0), (0.3, 0.05), (0.1, 0.1), (1.0, 1.0), (1.0, 0.0)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_reference(self, n_authors, n_papers, n_venues, classes, p, seed):
        classes = min(classes, n_authors)
        args = (n_authors, n_papers, n_venues, classes, p[0], p[1], seed)
        g = synthetic_hin(*args)
        nodes, edges = synthetic_hin_loops(*args)
        assert g.edges == edges
        assert [(nid, g.types[g.type_code[nid]], None if g.labels[nid] < 0 else g.labels[nid])
                for nid in range(g.num_nodes)] == nodes

    @pytest.mark.parametrize("n_venues, classes", [(20, 4), (4, 4), (1, 1), (2, 4)])
    def test_matches_scalar_oracle_at_scale(self, n_venues, classes):
        # (4, 4) gives every class one venue, so no venue draw is laid out in
        # closed form; (1, 1) does the same to every citation; (2, 4) leaves
        # two classes without a venue of their own
        args = (2000, 1500, n_venues, classes, 0.05, 0.005, 11)
        g = synthetic_hin(*args)
        nodes, edges = synthetic_hin_scalar(*args)
        n_papers = g.nodes_of_type("paper").size
        assert 2 * n_papers > synthetic._DRAW_BLOCK  # the citation loop spans blocks
        assert g.edges == edges
        assert [(nid, g.types[g.type_code[nid]], None if g.labels[nid] < 0 else g.labels[nid])
                for nid in range(g.num_nodes)] == nodes


# bounds of ``integers(0, n)``: drawing nothing, a fair bit, small, where
# Lemire's method rejects about half the halves, the 32-bit edges, and whole
# words, where 2**62 + 1 and 2**64 // 3 + 1 reject a quarter and a third
BOUNDS = st.one_of(
    st.sampled_from([1, 2, 3, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32,
                     2**62 + 1, 2**64 // 3 + 1]),
    st.integers(1, 1000),
    st.integers(2**31 + 1, 2**31 + 2**30),
    st.integers(2**32 + 1, 2**63 - 1),
)


def _generator_pair(seed: int, buffered: bool):
    """Two equal generators; with ``buffered`` both hold a half-word."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        assert a.integers(0, 7) == b.integers(0, 7)
        assert b.bit_generator.state["has_uint32"]
    return a, b


class TestRandomStreamIdentities:
    """Identities of numpy's PCG64 ``Generator`` that keep ``synthetic_hin``
    equal to its loop references and its golden hashes: ``rng.choice`` is an
    ``integers`` draw, chunked doubles are one call's, the raw-word replay
    is the generator's scalar ``random()`` and ``integers(0, n)``, and the
    replay's vectorized runs are its scalar path."""

    @given(
        seed=st.integers(0, 2**63 - 1),
        size=st.one_of(st.integers(1, 1000), st.integers(1, 2**31)),
        draws=st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_choice_is_an_integers_draw(self, seed, size, draws):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            # interleaved with doubles, as the generator's draws are
            assert a.random() == b.random()
            assert a.choice(size) == b.integers(0, size)
        pool = np.arange(7, 7 + 3 * min(size, 1000), 3)
        assert a.choice(pool) == pool[b.integers(0, pool.size)]

    @given(
        seed=st.integers(0, 2**63 - 1),
        chunks=st.lists(st.integers(0, 300), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_chunked_random_equals_one_call(self, seed, chunks):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        pieces = np.concatenate([a.random(n) for n in chunks])
        assert np.array_equal(pieces, b.random(sum(chunks)))
        assert a.random() == b.random()  # and both streams stand at the same place

    @given(
        seed=st.integers(0, 2**63 - 1),
        buffered=st.booleans(),
        draws=st.lists(st.one_of(st.none(), BOUNDS), min_size=1, max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_scalar_replay_equals_the_generator(self, seed, buffered, draws):
        rng, replayed = _generator_pair(seed, buffered)
        replay = _RawReplay(replayed.bit_generator)
        for n in draws:  # None is a double
            if n is None:
                assert replay.random() == rng.random()
            else:
                assert replay.integers(n) == rng.integers(0, n)

    @given(
        seed=st.integers(0, 2**63 - 1),
        buffered=st.booleans(),
        # stretches of equal iterations: (double, bound a, bound b, avoided value)
        stretches=st.lists(
            st.tuples(
                st.tuples(
                    st.booleans(),
                    st.sampled_from([0, 1, 2, 3, 7, 300, 2**31 + 1, 2**32, 2**40]),
                    st.sampled_from([0, 1, 2, 5, 300, 2**31 + 1, 2**32]),
                    st.sampled_from([-1, 0, 1, 2]),
                ),
                st.integers(1, 120),
            ),
            min_size=1,
            max_size=6,
        ),
        within_bias=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
        min_run=st.sampled_from([1, 8, 64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_vectorized_runs_equal_the_scalar_replay(
        self, seed, buffered, stretches, within_bias, min_run
    ):
        # forced branches (no double), bound-1 and bound-0 branches, branches
        # that differ in whether they draw, rejections and redraws
        iterations, lengths = zip(*stretches)
        double, a, b, avoid = (np.repeat(np.array(column), lengths) for column in zip(*iterations))
        avoid = np.where(a > 1, avoid, -1)  # a redraw needs a bound above 1
        count = double.size

        def plan(lo, hi):
            return double[lo:hi], a[lo:hi], b[lo:hi], avoid[lo:hi]

        _, replayed = _generator_pair(seed, buffered)
        _, reference = _generator_pair(seed, buffered)
        vectorized, scalar = _RawReplay(replayed.bit_generator), _RawReplay(reference.bit_generator)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(synthetic, "_MIN_RUN", min_run)
            patch.setattr(synthetic, "_DRAW_BLOCK", 50)  # runs cross blocks
            take, value = _replay_draws(vectorized, count, plan, within_bias)
        expected_take, expected_value = _scalar_draws(scalar, *plan(0, count), within_bias)
        assert take.tolist() == expected_take
        assert value.tolist() == expected_value
        # and both replays stand at the same place
        assert [vectorized.integers(9) for _ in range(3)] == [scalar.integers(9) for _ in range(3)]
        assert vectorized.random() == scalar.random()


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
        for scheduling in ("deterministic", "concurrent"):
            records = list(run_experiment(small_config(rounds=0, scheduling=scheduling), small_graph))
            assert len(records) == 1
            assert records[0].round == 0
            assert 0.0 <= records[0].micro_f1 <= 1.0

    def test_single_client_aggregators_coincide(self, small_graph):
        runs = {}
        for aggregator in ("staleness", "fedavg"):
            cfg = small_config(clients=1, aggregator=aggregator)
            runs[aggregator] = metrics_to_jsonl(run_experiment(cfg, small_graph))
        normalized = {
            agg: text.replace(f'"{agg}"', '"X"') for agg, text in runs.items()
        }
        assert normalized["staleness"] == normalized["fedavg"]

    def test_equal_speeds_make_staleness_equal_fedavg(self, small_graph):
        runs = {}
        for aggregator in ("staleness", "fedavg"):
            cfg = small_config(aggregator=aggregator)
            runs[aggregator] = list(run_experiment(cfg, small_graph))
        for a, b in zip(runs["staleness"], runs["fedavg"]):
            assert a.loss == b.loss
            assert a.micro_f1 == b.micro_f1
            assert a.max_version_gap == b.max_version_gap == 0

    def test_speed_skew_creates_version_gaps(self, small_graph):
        cfg = small_config(rounds=10, speed_multipliers=(1, 1, 3))
        records = list(run_experiment(cfg, small_graph))
        assert max(r.max_version_gap for r in records) > 0

    def test_deterministic_streams_are_byte_identical(self, small_graph):
        cfg = small_config(rounds=4, speed_multipliers=(1, 2, 3))
        first = metrics_to_jsonl(run_experiment(cfg, small_graph))
        second = metrics_to_jsonl(run_experiment(cfg, small_graph))
        assert first == second

    def test_round_mode_decision_log_is_pinned(self, small_graph):
        from fedhin.simulation import build_experiment, run_experiment

        # client 2 trains every third tick: targeted answers until its record
        # lags two versions behind on tick 3, broadcasts from then on
        cfg = small_config(rounds=6, speed_multipliers=(1, 1, 3), gap_threshold=2)
        setup = build_experiment(cfg, small_graph)
        list(run_experiment(cfg, small_graph, setup=setup))
        log = [(e["tick"], e["client"], e["version"], e["mode"], e["max_gap"])
               for e in setup.server.decision_log]
        t, b = "targeted", "broadcast"
        assert log == [
            (1, 0, 1, t, 0), (1, 1, 1, t, 0),
            (2, 0, 2, t, 0), (2, 1, 2, t, 0),
            (3, 0, 3, b, 2), (3, 1, 3, b, 2), (3, 2, 1, b, 2),
            (4, 0, 4, b, 3), (4, 1, 4, b, 3),
            (5, 0, 5, b, 4), (5, 1, 5, b, 4),
            (6, 0, 6, b, 4), (6, 1, 6, b, 4), (6, 2, 2, b, 4),
        ]

    def test_batch_mode_decision_log_is_pinned(self, small_graph):
        from fedhin.simulation import build_experiment, run_experiment

        # two 8-node batches per client and tick; client 2 first uploads on
        # tick 3, six versions behind, and every upload broadcasts from then on
        cfg = small_config(rounds=6, speed_multipliers=(1, 1, 3), gap_threshold=4,
                           granularity="batch", batch_size=8)
        setup = build_experiment(cfg, small_graph)
        list(run_experiment(cfg, small_graph, setup=setup))
        log = [(e["tick"], e["client"], e["version"], e["mode"], e["max_gap"])
               for e in setup.server.decision_log]
        t, b = "targeted", "broadcast"
        assert log == [
            (1, 0, 1, t, 0), (1, 0, 2, t, 0), (1, 1, 1, t, 1), (1, 1, 2, t, 0),
            (2, 0, 3, t, 1), (2, 0, 4, t, 2), (2, 1, 3, t, 1), (2, 1, 4, t, 0),
            (3, 0, 5, t, 1), (3, 0, 6, t, 2), (3, 1, 5, t, 1), (3, 1, 6, t, 0),
            (3, 2, 1, b, 5), (3, 2, 2, b, 4),
            (4, 0, 7, b, 5), (4, 0, 8, b, 6), (4, 1, 7, b, 6), (4, 1, 8, b, 6),
            (5, 0, 9, b, 7), (5, 0, 10, b, 8), (5, 1, 9, b, 8), (5, 1, 10, b, 8),
            (6, 0, 11, b, 9), (6, 0, 12, b, 10), (6, 1, 11, b, 10), (6, 1, 12, b, 10),
            (6, 2, 3, b, 9), (6, 2, 4, b, 8),
        ]

    def test_no_client_due_on_the_first_tick(self, small_graph):
        # nobody uploads on tick 1: its record evaluates the initial weights
        records = list(run_experiment(
            small_config(clients=2, rounds=3, speed_multipliers=(2, 3)), small_graph
        ))
        assert [r.round for r in records] == [0, 1, 2, 3]
        assert records[1].loss is None
        assert (records[1].micro_f1, records[1].macro_f1) == (
            records[0].micro_f1, records[0].macro_f1
        )
        assert all(r.loss is not None for r in records[2:])

    def test_concurrent_run_without_uploads_completes(self, small_graph):
        cfg = small_config(clients=2, rounds=1, speed_multipliers=(2, 3), scheduling="concurrent")
        records = list(run_experiment(cfg, small_graph))
        assert [r.round for r in records] == [0, 1]
        assert records[1].loss is None
        assert records[1].micro_f1 == records[0].micro_f1

    def test_concurrent_batch_granularity_uploads_per_batch(self):
        from fedhin.simulation import build_experiment, run_experiment

        graph = synthetic_hin(n_authors=120, n_papers=300, n_venues=8, classes=3, seed=2)
        cfg = small_config(clients=2, rounds=2, batch_size=16, granularity="batch",
                           scheduling="concurrent")
        setup = build_experiment(cfg, graph)
        list(run_experiment(cfg, graph, setup=setup))
        batches = sum(-(-c.train_nodes.size // 16) for c in setup.clients)
        assert len(setup.server.decision_log) == cfg.rounds * batches
        assert [c.version for c in setup.clients] == [
            cfg.rounds * -(-c.train_nodes.size // 16) for c in setup.clients
        ]

    @pytest.mark.parametrize("scheduling", ["deterministic", "concurrent"])
    def test_loss_is_pooled_over_the_clients_examples(self, small_graph, scheduling):
        from fedhin.simulation import build_experiment

        cfg = small_config(rounds=2, partition_strategy="label_skew", scheduling=scheduling)
        setup = build_experiment(cfg, small_graph)
        assert len({c.train_nodes.size for c in setup.clients}) > 1
        final = list(run_experiment(cfg, small_graph, setup=setup))[-1]
        loss_sum, examples = 0.0, 0
        for client in setup.clients:
            loss_sum += client.last_loss_sum
            examples += client.last_examples
        assert final.loss == loss_sum / examples

    def test_round_records_have_expected_fields(self, small_graph):
        records = list(run_experiment(small_config(rounds=2), small_graph))
        obj = asdict(records[-1])
        assert set(obj) == {
            "round", "aggregator", "loss", "micro_f1", "macro_f1",
            "max_version_gap", "elapsed",
        }
        assert obj["round"] == 2
        assert obj["elapsed"] == 2.0

    def test_per_batch_granularity_runs_and_differs(self, small_graph):
        round_cfg = small_config(rounds=3)
        batch_cfg = small_config(rounds=3, granularity="batch", batch_size=16)
        round_run = list(run_experiment(round_cfg, small_graph))
        batch_run = list(run_experiment(batch_cfg, small_graph))
        assert len(batch_run) == len(round_run) == 4
        assert all(np.isfinite(r.loss) for r in batch_run[1:])

    def test_concurrent_mode_smoke(self, small_graph):
        cfg = small_config(rounds=3, scheduling="concurrent")
        records = list(run_experiment(cfg, small_graph))
        assert records[0].round == 0
        final = records[-1]
        assert 0.0 <= final.micro_f1 <= 1.0
        assert final.round == 3  # the round budget, as in the deterministic stream

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


class TestBuildExperiment:
    def test_server_initial_weights_share_no_memory_with_clients(self, small_graph):
        from fedhin.simulation import build_experiment

        setup = build_experiment(small_config(), small_graph)
        initial = setup.server.initial_weights
        for params in [setup.initial_params] + [c.params for c in setup.clients]:
            assert not np.shares_memory(initial, params.buffer)

    def test_client_train_nodes_are_target_indices_of_their_partition(self, small_graph):
        from fedhin.simulation import build_experiment

        setup = build_experiment(small_config(), small_graph)
        authors = small_graph.nodes_of_type("author").tolist()
        train = set(setup.split.train_nodes.tolist())
        for client, owned in zip(setup.clients, setup.part):
            expected = sorted(authors.index(g) for g in owned.tolist() if authors.index(g) in train)
            assert client.train_nodes.tolist() == expected
            assert client.train_nodes.dtype == np.int64


class TestDelivery:
    """The one delivery rule, driven directly with hand-made uploads."""

    def test_uploader_keeps_its_newer_aggregate(self, small_graph):
        from fedhin import ClientUpdate, pack_shared
        from fedhin.simulation import Delivery, build_experiment

        setup = build_experiment(small_config(rounds=1, gap_threshold=2), small_graph)
        clients, server = setup.clients, setup.server
        delivery = Delivery(server, clients)
        rng = np.random.default_rng(0)

        def upload(cid, version):
            size = server.initial_weights.size
            return ClientUpdate(cid, rng.normal(size=size), version)

        delivery.deliver([upload(0, 1), upload(1, 1), upload(2, 1)], tick=1)
        first = server.current_aggregate()
        assert delivery.pending == {}
        for client in clients:
            np.testing.assert_array_equal(pack_shared(client.params), first)

        # client 0 runs two versions ahead: a broadcast waits for 1 and 2
        delivery.deliver([upload(0, 3)], tick=2)
        broadcast = server.current_aggregate()
        assert set(delivery.pending) == {1, 2}
        np.testing.assert_array_equal(pack_shared(clients[0].params), broadcast)
        np.testing.assert_array_equal(pack_shared(clients[1].params), first)

        # client 1 uploads before downloading that broadcast: the answer to its
        # own upload installs at once and the older queued broadcast is dropped
        delivery.deliver([upload(1, 3)], tick=3)
        newer = server.current_aggregate()
        assert server.decision_log[-1]["mode"] == "broadcast"
        assert set(delivery.pending) == {0, 2}
        delivery.download(clients[1])
        np.testing.assert_array_equal(pack_shared(clients[1].params), newer)

        # a client that did not upload installs the latest broadcast when its
        # round starts
        delivery.download(clients[2])
        np.testing.assert_array_equal(pack_shared(clients[2].params), newer)
        assert set(delivery.pending) == {0}


    def test_concurrent_uploads_survive_frequent_thread_switches(self, small_graph):
        import sys
        import threading

        from fedhin.simulation import build_experiment, run_experiment

        # more client threads than cores, switching every few microseconds:
        # a lost or doubled upload breaks the per-client version sequence
        cfg = small_config(clients=6, rounds=3, batch_size=4, granularity="batch",
                           scheduling="concurrent")
        setup = build_experiment(cfg, small_graph)
        records = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(
                target=lambda: records.extend(run_experiment(cfg, small_graph, setup=setup))
            )
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(records) == 2 and np.isfinite(records[-1].loss)
        for client in setup.clients:
            versions = [e["version"] for e in setup.server.decision_log
                        if e["client"] == client.client_id]
            assert versions == list(range(1, client.version + 1))
            assert client.version == cfg.rounds * -(-client.train_nodes.size // 4)


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
        from fedhin import NonFiniteGradient, pack_shared, params_from_checkpoint
        from fedhin.simulation import TrainingDiverged, build_experiment, run_experiment

        cfg = small_config(rounds=3, **overrides)
        setup = build_experiment(cfg, small_graph)
        setup.clients[1].params.wo[0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="client 1") as excinfo:
            list(run_experiment(cfg, small_graph, setup=setup, diagnostics_dir=tmp_path))
        assert isinstance(excinfo.value.__cause__, NonFiniteGradient)
        path = excinfo.value.checkpoint_path
        assert path is not None and path.exists()
        assert np.isnan(pack_shared(params_from_checkpoint(path))).any()

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
