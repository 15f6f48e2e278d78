"""Server records, aggregation rules, dispatch, and client rounds."""

import json

import numpy as np
import pytest

from fedhin.federation import (
    ClientUpdate,
    EmptyRecords,
    FederatedClient,
    FederationError,
    ParameterServer,
    StalenessRejected,
    UnknownClient,
)
from fedhin.graph import MetaPathSpec, metapath_adjacency
from fedhin.model import AttentionModel, init_params, pack_shared

from oracles import random_hin


def make_server(width=2, **kwargs):
    defaults = dict(client_ids=[0, 1], aggregator="staleness", initial_weights=np.zeros(width))
    defaults.update(kwargs)
    return ParameterServer(**defaults)


def up(cid, weights, version):
    return ClientUpdate(client_id=cid, weights=np.asarray(weights, dtype=float), version=version)


class TestSubmit:
    def test_first_submission_creates_records(self):
        server = make_server()
        server.submit(up(0, [1.0, 2.0], 1))
        assert server.versions.tolist() == [1, 0]
        np.testing.assert_array_equal(server.records[0], [1.0, 2.0])

    def test_duplicate_version_rejected(self):
        server = make_server(width=1)
        server.submit(up(0, [1.0], 1))
        with pytest.raises(StalenessRejected):
            server.submit(up(0, [9.0], 1))

    def test_unknown_client_rejected(self):
        server = make_server()
        with pytest.raises(UnknownClient):
            server.submit(up(7, [1.0], 1))

    def test_wrong_width_rejected(self):
        server = make_server(initial_weights=np.zeros(2))
        with pytest.raises(FederationError, match="shape"):
            server.submit(up(0, [1.0, 2.0, 3.0], 1))
        server = make_server()
        server.submit(up(0, [1.0, 2.0], 1))
        with pytest.raises(FederationError, match="shape"):
            server.submit(up(1, [1.0], 1))
        assert server.versions.tolist() == [1, 0]

    def test_rejected_replay_leaves_state_bit_identical(self):
        server = make_server()
        server.submit(up(0, [1.0, 2.0], 1))
        server.submit(up(1, [3.0, 4.0], 1))
        snapshot = server.records.tobytes()
        versions = server.versions.tolist()
        for _ in range(3):
            with pytest.raises(StalenessRejected):
                server.submit(up(0, [5.0, 6.0], 1))
        assert server.versions.tolist() == versions
        assert server.records.tobytes() == snapshot

    def test_interleaved_submissions_match_replay_log(self):
        # replay-log oracle: apply the same event stream to plain dicts
        events = [(0, [1.0], 1), (1, [2.0], 1), (0, [3.0], 2), (1, [4.0], 2), (0, [5.0], 3)]
        server = make_server(width=1)
        log_w, log_v = {}, {}
        for cid, w, v in events:
            server.submit(up(cid, w, v))
            log_w[cid] = list(w)
            log_v[cid] = v
        assert server.versions.tolist() == [log_v[0], log_v[1]]
        for cid in log_w:
            np.testing.assert_array_equal(server.records[cid], log_w[cid])

    def test_handle_gives_one_answer_per_call(self):
        server = make_server(width=1, gap_threshold=2)
        aggregate, mode = server.handle([up(0, [1.0], 3), up(1, [3.0], 1)], tick=4)
        assert mode == "broadcast"
        np.testing.assert_array_equal(aggregate, server.current_aggregate())
        assert [(e["tick"], e["client"], e["mode"]) for e in server.decision_log] == [
            (4, 0, "broadcast"), (4, 1, "broadcast"),
        ]

    def test_empty_call_rejected(self):
        with pytest.raises(FederationError, match="at least one upload"):
            make_server().handle([])


class TestAggregateReuse:
    @pytest.mark.parametrize("aggregator", ["staleness", "fedavg", "ema"])
    def test_answer_is_reused_until_a_submit_changes_the_records(self, aggregator):
        server = make_server(aggregator=aggregator, initial_weights=np.array([0.5, -1.5]))
        first = server.current_aggregate()
        assert server.current_aggregate() is first
        aggregate, _ = server.handle([up(0, [1.0, 2.0], 1)])
        assert aggregate is not first and server.current_aggregate() is aggregate
        assert not aggregate.flags.writeable
        server.submit(up(1, [3.0, 5.0], 1))
        ema = np.array([0.5, -1.5])
        for weights in ([1.0, 2.0], [3.0, 5.0]):
            ema = server.ema_beta * ema + (1.0 - server.ema_beta) * np.array(weights)
        fresh = {
            "staleness": server.aggregate_staleness_weighted,
            "fedavg": server.aggregate_fedavg,
            "ema": lambda: ema,
        }[aggregator]()
        assert server.current_aggregate().tobytes() == fresh.tobytes()

    def test_one_product_per_record_change(self, monkeypatch):
        server = make_server(width=1)
        products = []
        compute = server.aggregate_staleness_weighted

        def counted(*args):
            products.append(args)
            return compute(*args)

        monkeypatch.setattr(server, "aggregate_staleness_weighted", counted)
        aggregate, _ = server.handle([up(0, [1.0], 1), up(1, [3.0], 1)])
        for _ in range(3):
            assert server.current_aggregate() is aggregate
        assert len(products) == 1
        server.handle([up(0, [2.0], 2)])
        server.current_aggregate()
        assert len(products) == 2

    def test_rejected_call_keeps_the_answer(self):
        server = make_server(width=1)
        aggregate, _ = server.handle([up(0, [1.0], 2)])
        with pytest.raises(StalenessRejected):
            server.handle([up(1, [5.0], 1), up(0, [4.0], 2)])
        assert server.current_aggregate() is aggregate


class TestStalenessAggregation:
    def test_equal_versions_match_fedavg(self):
        server = make_server(width=8)
        rng = np.random.default_rng(0)
        for cid in (0, 1):
            server.submit(up(cid, rng.normal(size=8), 1))
        np.testing.assert_allclose(
            server.aggregate_staleness_weighted(), server.aggregate_fedavg(), atol=1e-12
        )

    def test_alpha_zero_matches_fedavg_despite_gaps(self):
        server = make_server(staleness_exponent=0.0)
        server.submit(up(0, [1.0, 1.0], 5))
        server.submit(up(1, [5.0, 5.0], 1))
        np.testing.assert_allclose(
            server.aggregate_staleness_weighted(), server.aggregate_fedavg(), atol=1e-15
        )

    def test_hand_case_versions_five_three(self):
        # gaps (0, 2) with alpha 1: raw weights (1, 1/3) normalize to (0.75, 0.25)
        server = make_server(staleness_exponent=1.0)
        server.submit(up(0, [1.0, 1.0], 5))
        server.submit(up(1, [5.0, 5.0], 3))
        ids, coeffs = server.staleness_coefficients()
        assert ids == [0, 1]
        assert coeffs[0] == 0.75
        assert coeffs[1] == 0.25
        np.testing.assert_array_equal(server.aggregate_staleness_weighted(), [2.0, 2.0])

    def test_empty_records_rejected(self):
        with pytest.raises(EmptyRecords):
            make_server().aggregate_staleness_weighted()

    @pytest.mark.parametrize("aggregator", ["staleness", "fedavg", "ema"])
    def test_aggregate_before_any_upload_is_the_initial_weights(self, aggregator):
        initial = np.array([0.5, -1.5])
        server = make_server(aggregator=aggregator, initial_weights=initial)
        aggregate = server.current_aggregate()
        np.testing.assert_array_equal(aggregate, initial)
        with pytest.raises(ValueError, match="read-only"):
            aggregate[0] = 9.0  # the server's initial weights stay put
        np.testing.assert_array_equal(server.current_aggregate(), initial)

    def test_server_owns_the_initial_weights_it_is_given(self):
        initial = np.array([0.5, -1.5])
        assert make_server(initial_weights=initial).initial_weights is initial

    def test_coefficients_on_simplex_and_monotone_in_version(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            server = make_server(
                width=3,
                client_ids=range(n), staleness_exponent=float(rng.uniform(0, 3))
            )
            versions = rng.integers(1, 30, size=n)
            for cid in range(n):
                server.submit(up(cid, rng.normal(size=3), int(versions[cid])))
            ids, coeffs = server.staleness_coefficients()
            assert np.all(coeffs >= 0)
            assert coeffs.sum() == pytest.approx(1.0, abs=1e-12)
            alpha = server.staleness_exponent
            for a in range(n):
                for b in range(n):
                    if versions[ids[a]] >= versions[ids[b]]:
                        assert coeffs[a] >= coeffs[b] - 1e-15
                    if versions[ids[a]] > versions[ids[b]] and alpha > 0:
                        assert coeffs[a] > coeffs[b]

    def test_increasing_alpha_never_raises_stalest_coefficient(self):
        rng = np.random.default_rng(2)
        versions = [9, 4, 1]
        previous = None
        for alpha in (0.0, 0.25, 0.5, 1.0, 2.0):
            server = make_server(client_ids=range(3), staleness_exponent=alpha)
            for cid, v in enumerate(versions):
                server.submit(up(cid, rng.normal(size=2), v))
            _, coeffs = server.staleness_coefficients()
            stalest = coeffs[np.argmin(versions)]
            if previous is not None:
                assert stalest <= previous + 1e-15
            previous = stalest

    def test_aggregate_within_componentwise_bounds(self):
        rng = np.random.default_rng(3)
        server = make_server(width=6, client_ids=range(4), staleness_exponent=0.7)
        vectors = rng.normal(size=(4, 6))
        for cid in range(4):
            server.submit(up(cid, vectors[cid], int(rng.integers(1, 9))))
        agg = server.aggregate_staleness_weighted()
        assert np.all(agg >= vectors.min(axis=0) - 1e-12)
        assert np.all(agg <= vectors.max(axis=0) + 1e-12)


class TestFedavg:
    def test_simple_mean(self):
        server = make_server(aggregator="fedavg")
        server.submit(up(0, [0.0, 0.0], 1))
        server.submit(up(1, [2.0, 4.0], 1))
        np.testing.assert_array_equal(server.aggregate_fedavg(), [1.0, 2.0])

    def test_single_client_returns_own_vector(self):
        server = make_server(client_ids=[0], aggregator="fedavg")
        server.submit(up(0, [7.0, -1.0], 1))
        np.testing.assert_array_equal(server.aggregate_fedavg(), [7.0, -1.0])

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(3, 5))
        server = make_server(width=5, client_ids=range(3), aggregator="fedavg")
        for cid in range(3):
            server.submit(up(cid, vectors[cid], 1))
        expected = [sum(vectors[c][j] for c in range(3)) / 3.0 for j in range(5)]
        np.testing.assert_allclose(server.aggregate_fedavg(), expected, atol=1e-15)


class TestEma:
    def test_beta_zero_tracks_incoming_update(self):
        server = make_server(aggregator="ema", ema_beta=0.0, initial_weights=np.array([9.0]))
        server.submit(up(0, [3.0], 1))
        np.testing.assert_array_equal(server.current_aggregate(), [3.0])

    def test_beta_one_keeps_server_vector(self):
        server = make_server(aggregator="ema", ema_beta=1.0, initial_weights=np.array([9.0]))
        server.submit(up(0, [3.0], 1))
        np.testing.assert_array_equal(server.current_aggregate(), [9.0])

    def test_hand_blend(self):
        server = make_server(aggregator="ema", ema_beta=0.9, initial_weights=np.array([10.0]))
        server.submit(up(0, [0.0], 1))
        np.testing.assert_allclose(server.current_aggregate(), [9.0], atol=1e-12)

    def test_invalid_beta_rejected(self):
        with pytest.raises(FederationError, match="beta"):
            make_server(aggregator="ema", ema_beta=1.5)


class TestSettings:
    # NaN compares False with every bound, so a check written as
    # ``value < bound`` lets it through; an infinite exponent passes such a
    # check too
    @pytest.mark.parametrize(
        "setting, fragment",
        [({"staleness_exponent": float("nan")}, "staleness exponent"),
         ({"staleness_exponent": float("inf")}, "staleness exponent"),
         ({"gap_threshold": float("nan")}, "gap threshold")],
        ids=["staleness-exponent", "staleness-exponent-inf", "gap-threshold"],
    )
    def test_nan_setting_refused(self, setting, fragment):
        with pytest.raises(FederationError, match=fragment):
            make_server(**setting)


class TestDispatch:
    def test_equal_versions_targeted(self):
        server = make_server(width=1, gap_threshold=5)
        server.submit(up(0, [1.0], 3))
        server.submit(up(1, [1.0], 3))
        assert server.dispatch() == "targeted"

    def test_wide_gap_broadcasts(self):
        server = make_server(width=1, gap_threshold=5)
        server.submit(up(0, [1.0], 9))
        server.submit(up(1, [1.0], 1))
        assert server.dispatch() == "broadcast"

    def test_gap_just_under_threshold_targeted(self):
        server = make_server(width=1, gap_threshold=5)
        server.submit(up(0, [1.0], 9))
        server.submit(up(1, [1.0], 5))
        assert server.dispatch() == "targeted"

    def test_rule_over_random_version_maps(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            threshold = int(rng.integers(1, 10))
            server = make_server(width=1, client_ids=range(n), gap_threshold=threshold)
            versions = rng.integers(1, 20, size=n)
            for cid in range(n):
                server.submit(up(cid, [0.0], int(versions[cid])))
            expected_broadcast = (versions.max() - versions.min()) >= threshold
            assert (server.dispatch() == "broadcast") == expected_broadcast


class TestWireFormat:
    def test_update_roundtrip(self):
        # magic, big-endian header length, JSON header, float64 payload
        update = up(3, np.arange(5, dtype=float), 7)
        manifest = [{"name": "wt_0", "shape": [1, 5]}]
        blob = update.to_bytes(manifest)
        hlen = int.from_bytes(blob[4:8], "big")
        assert blob[:4] == b"FHW1"
        assert json.loads(blob[8 : 8 + hlen]) == {
            "client_id": 3, "version": 7, "size": 5, "manifest": manifest
        }
        np.testing.assert_array_equal(np.frombuffer(blob[8 + hlen :]), update.weights)


@pytest.fixture
def training_client():
    rng = np.random.default_rng(17)
    graph = random_hin(rng)
    adjs = [metapath_adjacency(graph, MetaPathSpec.from_string(c)) for c in ("APA", "APPA")]
    model = AttentionModel(adjs, n_labels=3, embedding_dim=4, preference_dim=3, sample_size=None)
    params = init_params(model.dims, np.random.default_rng(1))
    labels = np.random.default_rng(2).integers(0, 3, size=model.dims.n_targets)
    nodes = np.arange(model.dims.n_targets)

    def build(seed=0):
        return FederatedClient(
            client_id=0,
            model=model,
            params=params.copy(),
            train_nodes=nodes,
            labels=labels,
            learning_rate=0.001,
            rng=np.random.default_rng(seed),
        )

    return build, params


class TestClientRound:
    def test_empty_partition_rejected(self, training_client):
        build, params = training_client
        client = build()
        with pytest.raises(FederationError, match="empty partition"):
            FederatedClient(
                client_id=1,
                model=client.model,
                params=params.copy(),
                train_nodes=np.array([], dtype=np.int64),
                labels=client.labels,
                learning_rate=0.001,
                rng=np.random.default_rng(0),
            )

    def test_zero_epochs_returns_downloaded_weights(self, training_client):
        build, params = training_client
        client = build()
        shared = pack_shared(params) + 0.125
        client.install(shared)
        update = client.run_round(epochs=0, batch_size=4)
        assert update.version == 1
        np.testing.assert_array_equal(update.weights, shared)

    def test_one_epoch_full_batch_is_single_step(self, training_client):
        build, _ = training_client
        client = build()
        client.run_round(epochs=1, batch_size=10_000)
        assert client.adam.step == 1
        client.run_round(epochs=1, batch_size=4)
        assert client.adam.step > 2  # several mini-batches

    def test_fixed_seed_rounds_are_byte_identical(self, training_client):
        build, _ = training_client
        a = build(seed=42).run_round(epochs=1, batch_size=6)
        b = build(seed=42).run_round(epochs=1, batch_size=6)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.version == b.version == 1

    def test_version_increments_per_round(self, training_client):
        build, _ = training_client
        client = build()
        for expected in (1, 2, 3):
            update = client.run_round(epochs=1, batch_size=8)
            assert update.version == expected

    def test_per_batch_submission_mode(self, training_client):
        build, _ = training_client
        client = build()
        seen = []

        def collect(update):
            seen.append(update.version)
            return None

        client.run_round(epochs=1, batch_size=5, submit=collect)
        assert seen == list(range(1, len(seen) + 1))
        assert len(seen) >= 2  # multiple batches, one upload each
