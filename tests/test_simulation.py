"""Partitioning and experiment scheduling."""

import hashlib
from dataclasses import asdict

import numpy as np
import pytest

from fedhin import ExperimentConfig, metrics_to_jsonl, partition, run_experiment, synthetic_hin
from fedhin.simulation import SimulationError, preset_synthetic_config


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

    def test_proportions_that_cannot_split_a_class_are_refused(self):
        # a Dirichlet this concentrated draws proportions that underflow to 0
        g = synthetic_hin(n_authors=30, n_papers=60, n_venues=3, classes=2, seed=0)
        with pytest.raises(SimulationError, match="dirichlet_alpha"):
            partition(g, 3, strategy="label_skew", seed=0, dirichlet_alpha=1e308)

    def test_too_many_clients_rejected(self):
        g = synthetic_hin(n_authors=8, n_papers=20, n_venues=2, classes=2, seed=0)
        with pytest.raises(SimulationError):
            partition(g, 9, seed=0)


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
        records = list(run_experiment(small_config(rounds=0), small_graph))
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

    def test_loss_is_pooled_over_the_clients_examples(self, small_graph):
        from fedhin.simulation import build_experiment

        cfg = small_config(rounds=2, partition_strategy="label_skew")
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

    def test_aggregator_comparison_preset(self):
        from fedhin import preset_aggregator_comparison

        configs = preset_aggregator_comparison()
        assert [c.aggregator for c in configs] == ["staleness", "fedavg", "ema"]
        assert all(c.speed_multipliers == (1, 1, 3) for c in configs)

    def test_a_sample_size_past_every_neighbor_list_gives_one_stream(self, small_graph):
        # a cap at or above the longest list keeps every entry and the same
        # draws; caps from 2**31 up once overflowed the int32 list offsets
        streams = {
            metrics_to_jsonl(list(run_experiment(
                small_config(rounds=2, neighbor_sample_size=size), small_graph
            )))
            for size in (10**6, 2**31, 2**63 - 1)
        }
        assert len(streams) == 1


class TestBuildExperiment:
    def test_server_initial_weights_share_no_memory_with_clients(self, small_graph):
        from fedhin.simulation import build_experiment

        setup = build_experiment(small_config(), small_graph)
        initial = setup.server.initial_weights
        assert not initial.flags.writeable
        assert not np.shares_memory(initial, setup.initial_params.buffer)
        for client in setup.clients:
            assert client.shared is initial  # every client starts on it, by reference
            for buffer in (client.work.buffer, client.adam.m.buffer, client.adam.v.buffer):
                assert buffer.flags.writeable and not np.shares_memory(initial, buffer)

    def test_client_train_nodes_are_target_indices_of_their_partition(self, small_graph):
        from fedhin.simulation import build_experiment, client_partition

        setup = build_experiment(small_config(), small_graph)
        authors = small_graph.nodes_of_type("author").tolist()
        train = set(setup.split.train_nodes.tolist())
        part = client_partition(small_config(), small_graph)
        for client, owned in zip(setup.clients, part, strict=True):
            expected = sorted(authors.index(g) for g in owned.tolist() if authors.index(g) in train)
            assert client.train_nodes.tolist() == expected
            assert client.train_nodes.dtype == np.int64


    def test_clients_are_rows_of_one_table_per_kind(self, small_graph):
        from fedhin.simulation import build_experiment

        setup = build_experiment(small_config(clients=4), small_graph)
        initial = setup.initial_params
        kinds = (
            (lambda c: c.adam.m.buffer, (4, initial.buffer.size)),
            (lambda c: c.adam.v.buffer, (4, initial.buffer.size)),
        )
        for kind, shape in kinds:
            table = kind(setup.clients[0]).base
            assert table.shape == shape and table.flags.c_contiguous
            for cid, client in enumerate(setup.clients):
                assert kind(client).base is table
                assert np.shares_memory(kind(client), table[cid])
        # and one (N, k) preference table, in the work buffer every client trains in
        assert all(c.work is setup.work for c in setup.clients)
        assert setup.work.pref.shape == initial.pref.shape
        assert setup.work.pref.tobytes() == initial.pref.tobytes()
        assert not np.shares_memory(initial.buffer, setup.work.buffer)
        assert all(not c.adam.m.buffer.any() and not c.adam.v.buffer.any() for c in setup.clients)

    def test_one_writable_shared_weight_buffer_whatever_the_client_count(self, small_graph):
        from fedhin.simulation import build_experiment

        speeds = (1,) * 8 + (2,) * 4 + (3,) * 2 + (5,) * 2
        cfg = small_config(clients=16, rounds=6, granularity="batch", batch_size=2,
                           speed_multipliers=speeds, gap_threshold=2)
        setup = build_experiment(cfg, small_graph)
        work = setup.clients[0].work
        list(run_experiment(cfg, small_graph, setup=setup))
        assert any(entry["mode"] == "broadcast" for entry in setup.server.decision_log)
        assert all(c.work is work for c in setup.clients)
        # every other shared-weight vector a client holds is a read-only reference
        for client in setup.clients:
            assert client.shared.shape == (work.n_shared,) and not client.shared.flags.writeable
            assert not np.shares_memory(client.shared, work.buffer)

    def test_training_one_client_leaves_the_others_rows_untouched(self, small_graph):
        from fedhin.simulation import build_experiment

        cfg = small_config()
        setup = build_experiment(cfg, small_graph)
        first, second, third = setup.clients

        def state(client):
            return [client.shared.tobytes(), client.adam.m.buffer.tobytes(),
                    client.adam.v.buffer.tobytes()]

        before = [state(c) for c in setup.clients]
        pref = setup.work.pref.copy()
        first.run_round(epochs=1, batch_size=first.train_nodes.size)
        assert first.adam.step == 1
        assert all(a != b for a, b in zip(state(first), before[0]))
        assert [state(second), state(third)] == before[1:]
        # of the one preference table, only the first client's training rows
        # move, and its moments for every other row stay 0
        moved = (setup.work.pref != pref).any(axis=1)
        assert np.flatnonzero(moved).tolist() == first.train_nodes.tolist()
        for moments in (first.adam.m.pref, first.adam.v.pref):
            assert moments[~moved].tobytes() == np.zeros_like(moments[~moved]).tobytes()
        # the next client trains on its own state, not on what the first left
        # in the shared work buffer
        fresh_setup = build_experiment(cfg, small_graph)
        expected = fresh_setup.clients[1].run_round(epochs=1, batch_size=cfg.batch_size)
        update = second.run_round(epochs=1, batch_size=cfg.batch_size)
        assert update.weights.tobytes() == expected.weights.tobytes()
        assert setup.work.pref[second.train_nodes].tobytes() == (
            fresh_setup.work.pref[second.train_nodes].tobytes())


class TestDelivery:
    """The one delivery rule, driven directly with hand-made uploads."""

    def test_uploader_keeps_its_newer_aggregate(self, small_graph):
        from fedhin import ClientUpdate
        from fedhin.simulation import Delivery, build_experiment

        setup = build_experiment(small_config(rounds=1, gap_threshold=2), small_graph)
        clients, server = setup.clients, setup.server
        delivery = Delivery(server, clients)
        rng = np.random.default_rng(0)

        def upload(cid, version):
            size = server.initial_weights.size
            return ClientUpdate(cid, rng.normal(size=size), version)

        def holds():
            return [client.shared for client in clients]

        # every install is by reference: a client holds the server's answer itself
        delivery.deliver([upload(0, 1), upload(1, 1), upload(2, 1)], tick=1)
        first = server.current_aggregate()
        assert all(held is first for held in holds())

        # a targeted answer goes to its uploader only
        delivery.deliver([upload(0, 2)], tick=2)
        targeted = server.current_aggregate()
        assert server.decision_log[-1]["mode"] == "targeted"
        held = holds()
        assert held[0] is targeted and held[1] is first and held[2] is first

        # client 0 runs two versions ahead: the broadcast installs everywhere
        delivery.deliver([upload(0, 3)], tick=3)
        broadcast = server.current_aggregate()
        assert server.decision_log[-1]["mode"] == "broadcast"
        assert all(held is broadcast for held in holds())

        # the answer to client 1's own upload replaces the older broadcast,
        # and client 2, which did not upload, holds the latest broadcast
        delivery.deliver([upload(1, 3)], tick=4)
        newer = server.current_aggregate()
        assert server.decision_log[-1]["mode"] == "broadcast"
        assert all(held is newer for held in holds())

        # a client that did not upload trains next on the latest broadcast
        update = clients[2].run_round(epochs=0, batch_size=4)
        np.testing.assert_array_equal(update.weights, newer)


_SKEW16 = (1,) * 8 + (2,) * 4 + (3,) * 2 + (5,) * 2

# sha256 of metrics_to_jsonl of the metrics stream and of the server's decision
# log, for 10 ticks of small_config at each (granularity, speeds, gap_threshold).
# They were taken with a copy of the shared weights per client and each broadcast
# held in a pending slot until the client's next round, so they show that the
# shared work buffer and installing at once change no number.
_PINNED_STREAMS = {
    ("round", (1, 1, 1), 1): ("f7ce941a09549b700e8e66e48b63d09f6a729c64017326334f85689652a0f9b1",
                              "09b172faebf220831c6a0592070bb72eadabd12b7040b9369a6e06f84cb56af4"),
    ("round", (1, 1, 1), 5): ("f7ce941a09549b700e8e66e48b63d09f6a729c64017326334f85689652a0f9b1",
                              "09b172faebf220831c6a0592070bb72eadabd12b7040b9369a6e06f84cb56af4"),
    ("round", (1, 1, 3), 1): ("21eb815412e590249b743166f882c58469c42fb3611a16e02f5b4b3700a809df",
                              "673d9e224e38030138132bc91b5c895500680fc4b2bf89cc31bbf066f0471594"),
    ("round", (1, 1, 3), 5): ("a8a197f3ef4edba7d52583e7ebc4d31f707c0e22d282faa15b8911b643469e91",
                              "b7b2a5fdd794db21c215769c51b712e5a501efee40eab34938b6372341eb2119"),
    ("round", _SKEW16, 1): ("ade0e2a9b11555c617d65e5b10e9fc719d3cafd6942be8b54864982b51015e4a",
                            "973405bb20e0c51fd3fda0c522425d1d3b20aaab9a28adb0b5a7520d4da4c396"),
    ("round", _SKEW16, 5): ("96f1046d545c545cf466fe637e446f9c2c62a6c70ae522037ec746476108e510",
                            "16749c8764d494fd1fb20ab838be07296475908adc328ab634f3531eeb2edba7"),
    ("batch", (1, 1, 1), 1): ("4a729210b817648ed7b091f4db368f68fb5e0e35f8edbd1d979aa6e0271c0794",
                              "ef0a3b79d73132a8dabd434698dc48e8e8924fe28b49f1ebf34cbf2d19f99cbf"),
    ("batch", (1, 1, 1), 5): ("789ed4881743fe22cc53090d6fc08cf0a87e0dd72ed384ab89f0a5af2faaea22",
                              "0adf28d5bbaff88d18e75236e4ae899d2bbd1658700003795930ad41c476899f"),
    ("batch", (1, 1, 3), 1): ("438fd4a13d85e4212230b5589f9e0643d4091850fc1ef4df1ba40d9f5664707b",
                              "f7bf49d1ef9f389b2569f3e105933ac5c4b7f2f57da7b059ae19309a11428fa1"),
    ("batch", (1, 1, 3), 5): ("8eb34c55ced9a8fbb35fa61f151dfb120c2eb539cb6601b2ba9c09243cc15be4",
                              "6052705083c9856918874cb8cd9379c14c456ccae3f1eccfcc732adf586d3494"),
    ("batch", _SKEW16, 1): ("2fef038e4cb0ed4e85ea5a0ba754b781d9509af3ad26b8afd088321de4e21e11",
                            "c1ffd5d240c44553d4b97532198ad7d143297c15a75200e5757a498bbb1df021"),
    ("batch", _SKEW16, 5): ("7a1432ae3ee212300d59b2b54a6b6341458e3c172f5eb3d550ae722ca1565bed",
                            "bcd51c82458f60c24f1772a9d58f23ab418c883f649a1e6b6e3672f3a1b686bf"),
}


class TestPinnedStreams:
    """The delivery rule and the state layout change no number a run writes."""

    @pytest.mark.parametrize(
        "granularity, speeds, gap_threshold", list(_PINNED_STREAMS),
        ids=[f"{g}-{len(s)}x{max(s)}-gap{t}" for g, s, t in _PINNED_STREAMS],
    )
    def test_streams_equal_their_pinned_digests(
        self, small_graph, granularity, speeds, gap_threshold
    ):
        from fedhin.simulation import build_experiment

        cfg = small_config(
            clients=len(speeds), rounds=10, granularity=granularity, speed_multipliers=speeds,
            gap_threshold=gap_threshold, batch_size=64 if granularity == "round" else 2,
        )
        setup = build_experiment(cfg, small_graph)
        records = list(run_experiment(cfg, small_graph, setup=setup))
        digests = tuple(
            hashlib.sha256(metrics_to_jsonl(stream).encode()).hexdigest()
            for stream in (records, setup.server.decision_log)
        )
        assert digests == _PINNED_STREAMS[granularity, speeds, gap_threshold]


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
    """Real non-finite parameters, at either granularity, end as typed errors."""

    @pytest.mark.parametrize(
        "overrides", [{}, {"granularity": "batch", "batch_size": 16}], ids=["round", "batch"]
    )
    def test_nan_parameter_aborts_with_diagnostic_checkpoint(
        self, small_graph, tmp_path, overrides
    ):
        from fedhin import NonFiniteGradient, pack_shared, params_from_checkpoint
        from fedhin.simulation import TrainingDiverged, build_experiment, run_experiment

        cfg = small_config(rounds=3, **overrides)
        setup = build_experiment(cfg, small_graph)
        poisoned = setup.initial_params.copy()
        poisoned.wo[0, 0] = np.nan
        setup.clients[1].install(pack_shared(poisoned))
        with pytest.raises(TrainingDiverged, match="client 1") as excinfo:
            list(run_experiment(cfg, small_graph, setup=setup, diagnostics_dir=tmp_path))
        assert isinstance(excinfo.value.__cause__, NonFiniteGradient)
        path = excinfo.value.checkpoint_path
        assert path is not None and path.exists()
        assert np.isnan(pack_shared(params_from_checkpoint(path))).any()

    def test_clients_diverging_in_one_round_keep_their_own_checkpoints(
        self, small_graph, tmp_path
    ):
        from fedhin import NonFiniteGradient, pack_shared, params_from_checkpoint
        from fedhin.simulation import _diverged, build_experiment

        cfg = small_config()
        setup = build_experiment(cfg, small_graph)
        paths, held = [], []
        for client in setup.clients[:2]:
            poisoned = setup.initial_params.copy()
            poisoned.wo[0, 0] = np.nan
            poisoned.wo[0, 1] = client.client_id + 0.5
            client.install(pack_shared(poisoned))
            with pytest.raises(NonFiniteGradient):
                client.run_round(cfg.local_epochs, cfg.batch_size)
            paths.append(_diverged("diverged", client, 1, tmp_path).checkpoint_path)
            held.append(client.work.buffer.tobytes())  # the values it diverged on
        assert len(set(paths)) == 2 and held[0] != held[1]
        for path, buffer in zip(paths, held):
            assert params_from_checkpoint(path).buffer.tobytes() == buffer
