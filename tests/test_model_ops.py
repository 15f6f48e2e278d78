"""Forward-pass operations against the per-node reference ops in oracles.py, plus
hand-checked values, simplex and scale properties of the batched model."""

import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from fedhin.graph import MetaPathAdjacency, MetaPathSpec, metapath_adjacency
from fedhin.model import AttentionModel, ModelError, init_params, softmax

from oracles import (
    aggregate_neighbors,
    cosine_loops,
    fuse,
    matvec_loops,
    metapath_attention,
    metapath_embedding,
    node_attention,
    node_similarity,
    path_block,
    per_node,
    random_hin,
    softmax_loops,
    transform_features,
)


def wrap_adjacency(matrix) -> MetaPathAdjacency:
    matrix = np.asarray(matrix)
    return MetaPathAdjacency(sp.csr_matrix(matrix))


def craft_model(matrices, n_labels=4, d=2, k=2):
    adjs = [wrap_adjacency(m) for m in matrices]
    model = AttentionModel(
        adjs, n_labels=n_labels, embedding_dim=d, preference_dim=k, sample_size=None,
    )
    params = init_params(model.dims, np.random.default_rng(0))
    return model, params


class TestTransformFeatures:
    def test_basis_vector_selects_column(self):
        model, params = craft_model([np.eye(3)], d=2)
        params.wt[0].T[...] = np.array([[1.0, 4.0, 7.0], [2.0, 5.0, 8.0]])
        # adjacency row 0 is e_1 (diagonal of the wrapped identity is zeroed
        # only by metapath_adjacency, not by the direct wrapper)
        np.testing.assert_allclose(
            transform_features(model, params, 0, 0), params.wt[0].T[:, 0]
        )

    def test_zero_row_maps_to_zero(self):
        model, params = craft_model([np.zeros((3, 3))], d=2)
        np.testing.assert_allclose(transform_features(model, params, 0, 1), np.zeros(2))

    def test_against_scalar_loop_oracle(self):
        model, params = craft_model([np.array([[1.0, 2.0, 0.0]] * 3)], d=2)
        rng = np.random.default_rng(42)
        params.wt[0].T[...] = rng.normal(size=(2, 3))
        got = transform_features(model, params, 0, 0)
        expected = matvec_loops(params.wt[0].T.tolist(), [1.0, 2.0, 0.0])
        np.testing.assert_allclose(got, expected, rtol=1e-15)

    def test_model_keeps_float_copies_and_no_reference_to_its_adjacencies(self):
        # the oracle reads the model's float64 matrices, so their conversion
        # from the integer walk counts is checked here
        graph = random_hin(np.random.default_rng(4))
        adjs = [metapath_adjacency(graph, MetaPathSpec.from_string(c)) for c in ("APA", "APPA")]
        model = AttentionModel(adjs, n_labels=2, embedding_dim=2, preference_dim=2)
        n = model.dims.n_targets
        assert model.matrix.dtype == np.float64 and model.matrix.shape == (2 * n, 2 * n)
        for p, adj in enumerate(adjs):
            block = path_block(model, p)
            assert adj.matrix.dtype == np.int64
            np.testing.assert_array_equal(block.indptr, adj.matrix.indptr)
            np.testing.assert_array_equal(block.indices, adj.matrix.indices)
            np.testing.assert_array_equal(block.data, adj.matrix.data)
            for q in range(2):
                if q != p:
                    assert model.matrix[p * n : (p + 1) * n, q * n : (q + 1) * n].nnz == 0
        refs = [weakref.ref(adj.matrix) for adj in adjs]
        del adjs, adj
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestNodeSimilarity:
    def _two_vector_model(self, v0, v1):
        model, params = craft_model([np.eye(2)], d=2)
        params.wt[0] = np.vstack([v0, v1]).astype(float)  # row j: node j's feature
        return model, params

    def test_self_similarity_is_one(self):
        model, params = self._two_vector_model((3.0, 4.0), (1.0, 2.0))
        assert node_similarity(model, params, 0, 0, 0) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        model, params = self._two_vector_model((1.0, 0.0), (0.0, 1.0))
        assert node_similarity(model, params, 0, 0, 1) == 0.0

    def test_hand_cosine(self):
        model, params = self._two_vector_model((1.0, 1.0), (1.0, 0.0))
        got = node_similarity(model, params, 0, 0, 1)
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert got == pytest.approx(cosine_loops([1, 1], [1, 0]), abs=1e-12)

    def test_zero_norm_defined_as_zero(self):
        model, params = self._two_vector_model((0.0, 0.0), (1.0, 0.0))
        assert node_similarity(model, params, 0, 0, 1) == 0.0


class TestNodeAttention:
    def test_single_neighbor(self):
        model, params = craft_model([np.array([[0, 1], [0, 0]])], d=2)
        assert node_attention(model, params, 0, 0) == {1: 1.0}

    def test_equal_similarities_split_evenly(self):
        # neighbors 1 and 2 get identical transformed vectors
        model, params = craft_model([np.array([[0, 1, 1], [0, 0, 0], [0, 0, 0]])], d=2)
        params.wt[0].T[...] = np.array([[1.0, 2.0, 2.0], [0.5, 1.0, 1.0]])
        coeffs = node_attention(model, params, 0, 0)
        np.testing.assert_allclose(sorted(coeffs.values()), [0.5, 0.5], atol=1e-12)

    def test_softmax_hand_values(self):
        # softmax of similarities (0.6, 0.2): 1 / (1 + exp(-0.4))
        got = softmax(np.array([0.6, 0.2]))
        np.testing.assert_allclose(got, [0.5987, 0.4013], atol=1e-4)
        np.testing.assert_allclose(got, softmax_loops([0.6, 0.2]), atol=1e-15)

    def test_attention_is_softmax_of_similarities(self):
        model, params = craft_model([np.array([[0, 2, 1], [1, 0, 1], [1, 1, 0]])], d=2)
        rng = np.random.default_rng(3)
        params.wt[0].T[...] = rng.normal(size=(2, 3))
        sims = [node_similarity(model, params, 0, 0, j) for j in (1, 2)]
        expected = softmax_loops(sims)
        coeffs = node_attention(model, params, 0, 0)
        np.testing.assert_allclose([coeffs[1], coeffs[2]], expected, atol=1e-12)


class TestAggregateNeighbors:
    def test_single_neighbor_identity_activation(self):
        # adjacency row of the neighbor is e_1, so its feature is row 1 of wt;
        # ELU is the identity on its positive entries
        model, params = craft_model([np.array([[0, 1], [0, 1]])], d=2)
        params.wt[0][1] = [0.5, 2.0]
        got = aggregate_neighbors(model, params, 0, 0, {1: 1.0})
        np.testing.assert_allclose(got, params.wt[0][1])

    def test_no_neighbors_gives_activated_zero(self):
        model, params = craft_model([np.zeros((2, 2))], d=2)
        np.testing.assert_allclose(aggregate_neighbors(model, params, 0, 0, {}), np.zeros(2))

    def test_weighted_sum_by_hand(self):
        # neighbor features are (4, 0) and (0, 8): 0.75 and 0.25 mix to (3, 2)
        model, params = craft_model([np.array([[0, 1, 1], [0, 1, 0], [0, 0, 1]])], d=2)
        params.wt[0].T[...] = np.array([[0.0, 4.0, 0.0], [0.0, 0.0, 8.0]])
        got = aggregate_neighbors(model, params, 0, 0, {1: 0.75, 2: 0.25})
        np.testing.assert_allclose(got, [3.0, 2.0], atol=1e-12)

    def test_sampling_renormalizes_to_simplex(self):
        model, params = craft_model([np.array([[0, 1, 1, 1], [0] * 4, [0] * 4, [0] * 4])], d=2)
        coeffs = node_attention(model, params, 0, 0)
        rng = np.random.default_rng(0)
        got = aggregate_neighbors(model, params, 0, 0, coeffs, sample_size=2, rng=rng)
        assert got.shape == (2,)
        assert np.all(np.isfinite(got))


class TestMetapathEmbedding:
    def test_projection_blocks(self):
        model, params = craft_model([np.array([[0, 1], [1, 0]])], d=2)
        e_agg = np.array([5.0, 6.0])
        params.wc[0] = np.hstack([np.eye(2), np.zeros((2, 2))])
        np.testing.assert_allclose(metapath_embedding(model, params, 0, 0, e_agg), e_agg)
        params.wc[0] = np.hstack([np.zeros((2, 2)), np.eye(2)])
        np.testing.assert_allclose(
            metapath_embedding(model, params, 0, 0, e_agg),
            transform_features(model, params, 0, 0),
        )

    def test_against_scalar_loop_oracle(self):
        model, params = craft_model([np.array([[0, 1], [1, 0]])], d=2)
        rng = np.random.default_rng(12)
        params.wc[0] = rng.normal(size=(2, 4))
        params.wt[0] = np.array([[0.0, 0.0], [3.0, 4.0]])  # self feature = (3, 4)
        got = metapath_embedding(model, params, 0, 0, np.array([1.0, 2.0]))
        expected = matvec_loops(params.wc[0].tolist(), [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(got, expected, rtol=1e-14)


class TestMetapathAttention:
    def test_single_path(self):
        model, params = craft_model([np.array([[0, 1], [1, 0]])], d=2)
        np.testing.assert_allclose(
            metapath_attention(params, 0, [np.array([1.0, 2.0])]), [1.0]
        )

    def test_identical_embeddings_split_evenly(self):
        model, params = craft_model([np.array([[0, 1], [1, 0]])] * 2, d=2)
        e = np.array([1.0, 2.0])
        np.testing.assert_allclose(
            metapath_attention(params, 0, [e, e.copy()]), [0.5, 0.5], atol=1e-12
        )

    def test_hand_cosines(self):
        # raw cosines 1.0 and 0.5 -> softmax 1/(1 + exp(-0.5))
        model, params = craft_model([np.array([[0, 1], [1, 0]])] * 2, d=2, k=2)
        params.pref[0] = np.array([1.0, 0.0])
        params.wp[...] = np.column_stack([[1.0, 0.0], [1.0, math.sqrt(3)]])
        got = metapath_attention(
            params, 0, [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        )
        np.testing.assert_allclose(got, [0.6225, 0.3775], atol=1e-4)

    def test_zero_norm_projection_treated_as_zero(self):
        model, params = craft_model([np.array([[0, 1], [1, 0]])] * 2, d=2)
        got = metapath_attention(
            params, 0, [np.zeros(2), np.array([1.0, 1.0])]
        )
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


class TestFuse:
    def test_single_embedding_unchanged(self):
        e = np.array([3.0, -1.0])
        np.testing.assert_allclose(fuse([e], [1.0]), e)

    def test_cancellation(self):
        v = np.array([2.0, -5.0])
        np.testing.assert_allclose(fuse([v, -v], [0.5, 0.5]), np.zeros(2))

    def test_convex_combination_by_hand(self):
        got = fuse([np.array([4.0, 0.0]), np.array([0.0, 4.0])], [0.25, 0.75])
        np.testing.assert_allclose(got, [1.0, 3.0], atol=1e-15)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            fuse([np.zeros(2)], [0.5, 0.5])


class TestLoss:
    def _chain_model(self, n_labels=4):
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        model, params = craft_model([a], n_labels=n_labels, d=2, k=2)
        labels = np.array([0, 1, 2]) % n_labels
        return model, params, labels

    def test_saturated_logits_give_zero_loss(self):
        model, params, labels = self._chain_model()
        trace = model.forward(params, [0], labels=labels)
        fused = per_node(trace)[0].fused
        wo = np.zeros_like(params.wo)
        wo[labels[0]] = fused * (50.0 / float(fused @ fused))
        params.wo[...] = wo
        loss = model.forward(params, [0], labels=labels).total_loss
        assert loss == 0.0

    def test_uniform_probabilities_give_log_label_count(self):
        model, params, labels = self._chain_model(n_labels=4)
        params.wo[...] = np.zeros_like(params.wo)
        trace = model.forward(params, [0, 1], labels=labels)
        loss = trace.total_loss
        assert loss == pytest.approx(2 * math.log(4), abs=1e-12)
        np.testing.assert_allclose(per_node(trace)[0].probs, 0.25, atol=1e-15)

    def test_matches_direct_formula(self):
        model, params, labels = self._chain_model()
        trace = model.forward(params, [0, 2], labels=labels)
        loss = trace.total_loss
        expected = 0.0
        for node in per_node(trace):
            logits = matvec_loops(params.wo.tolist(), node.fused.tolist())
            probs = softmax_loops(logits)
            expected += -math.log(probs[node.label])
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_unlabeled_node_rejected(self):
        model, params, labels = self._chain_model()
        labels = labels.copy()
        labels[1] = -1
        with pytest.raises(ModelError, match="no label"):
            model.forward(params, [1], labels=labels)


class TestForwardProperties:
    def test_simplex_invariants_over_random_draws(self, small_model):
        _, model, _, labels = small_model
        n = model.dims.n_targets
        for seed in range(50):
            params = init_params(model.dims, np.random.default_rng(seed))
            trace = model.forward(params, np.arange(n))
            for node in per_node(trace):
                for p in range(model.dims.n_paths):
                    c = node.coeffs[p]
                    if c.size:
                        assert np.all(c >= 0)
                        assert c.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(node.path_coeffs >= 0)
                assert node.path_coeffs.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(np.abs(node.raw_path_scores) <= 1 + 1e-12)
                assert np.all(node.probs >= 0)
                assert node.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_positive_scaling_leaves_coefficients_unchanged(self, small_model):
        _, model, params, _ = small_model
        n = model.dims.n_targets
        base = model.forward(params, np.arange(n))
        scaled = params.copy()
        for p in range(model.dims.n_paths):
            scaled.wt[p] *= 37.5
        after = model.forward(scaled, np.arange(n))
        for before_node, after_node in zip(per_node(base), per_node(after)):
            for p in range(model.dims.n_paths):
                np.testing.assert_allclose(
                    before_node.coeffs[p], after_node.coeffs[p], atol=1e-12
                )
                np.testing.assert_allclose(
                    before_node.sims[p], after_node.sims[p], atol=1e-12
                )

    def test_fused_embedding_in_componentwise_hull(self, small_model):
        _, model, params, _ = small_model
        trace = model.forward(params, np.arange(model.dims.n_targets))
        for node in per_node(trace):
            lo = node.path_embed.min(axis=0) - 1e-12
            hi = node.path_embed.max(axis=0) + 1e-12
            assert np.all(node.fused >= lo)
            assert np.all(node.fused <= hi)

    def test_loss_nonnegative_and_permutation_invariant(self, small_model):
        _, model, params, labels = small_model
        batch = np.arange(model.dims.n_targets)
        loss_a = model.forward(params, batch, labels=labels).total_loss
        loss_b = model.forward(params, batch[::-1], labels=labels).total_loss
        assert loss_a >= 0
        assert loss_a == loss_b  # fsum makes the batch total order-independent

    def test_forward_deterministic_without_sampling(self, small_model):
        _, model, params, labels = small_model
        batch = np.arange(model.dims.n_targets)
        t1 = model.forward(params, batch)
        t2 = model.forward(params, batch)
        for a, b in zip(per_node(t1), per_node(t2)):
            np.testing.assert_array_equal(a.fused, b.fused)
            np.testing.assert_array_equal(a.probs, b.probs)

    def test_zero_norm_flag_fires_on_featureless_node(self):
        # node 2 has an all-zero adjacency row in the only path
        a = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        model, params = craft_model([a], d=2)
        trace = model.forward(params, [2])
        assert trace.zero_norm_events > 0

    def test_zero_norm_flag_silent_on_healthy_graph(self):
        from fedhin import metapath_adjacency, synthetic_hin

        g = synthetic_hin(seed=0)
        adjs = [metapath_adjacency(g, MetaPathSpec.from_string(c)) for c in ("APA", "APPA")]
        model = AttentionModel(adjs, n_labels=4, embedding_dim=8, preference_dim=4, sample_size=None)
        params = init_params(model.dims, np.random.default_rng(0))
        trace = model.forward(params, np.arange(model.dims.n_targets))
        assert trace.zero_norm_events == 0
