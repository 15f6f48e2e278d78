"""Backward pass against the central finite-difference oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from fedhin.graph import MetaPathAdjacency, MetaPathSpec
from fedhin.model import AttentionModel, init_params

from oracles import edge_case_adjacencies, finite_difference, per_node, random_hin, relative_error


def check_all_tensors(model, params, labels, batch, coords=20, seed=0, tol=1e-4, rng_factory=None):
    """Compare backward to finite differences on random coordinates of every tensor."""

    def loss_fn():
        rng = rng_factory() if rng_factory is not None else None
        value = model.forward(params, batch, labels=labels, rng=rng).total_loss
        return value

    trace = model.forward(params, batch, labels=labels, rng=rng_factory() if rng_factory else None)
    grads = model.backward(trace)
    grad_map = dict(grads.tensor_items())
    pick = np.random.default_rng(seed)
    worst = 0.0
    for name, tensor in params.tensor_items():
        analytic = grad_map[name].ravel()
        for _ in range(coords):
            idx = int(pick.integers(tensor.size))
            fd = finite_difference(loss_fn, tensor, idx)
            err = relative_error(fd, analytic[idx])
            worst = max(worst, err)
            assert err < tol, f"{name}[{idx}]: fd={fd} analytic={analytic[idx]} rel={err}"
    return worst


@pytest.fixture
def gradcheck_model():
    rng = np.random.default_rng(21)
    graph = random_hin(rng)
    specs = [MetaPathSpec.from_string(c) for c in ("APA", "APPA")]
    from fedhin import metapath_adjacency

    adjs = [metapath_adjacency(graph, s) for s in specs]
    model = AttentionModel(
        adjs, n_labels=3, embedding_dim=4, preference_dim=3, activation="elu", sample_size=None
    )
    labels = np.random.default_rng(5).integers(0, 3, size=model.dims.n_targets)
    return model, adjs, labels


class TestBackward:
    def test_matches_finite_differences(self, gradcheck_model):
        model, _, labels = gradcheck_model
        params = init_params(model.dims, np.random.default_rng(2))
        batch = np.arange(min(6, model.dims.n_targets))
        check_all_tensors(model, params, labels, batch)

    def test_matches_finite_differences_with_relu_and_identity(self, gradcheck_model):
        _, adjs, labels = gradcheck_model
        for act in ("identity", "relu"):
            variant = AttentionModel(
                adjs,
                n_labels=3,
                embedding_dim=4,
                preference_dim=3,
                activation=act,
                sample_size=None,
            )
            params = init_params(variant.dims, np.random.default_rng(4))
            check_all_tensors(variant, params, labels, np.arange(5))

    def test_matches_finite_differences_through_fixed_sampling(self, gradcheck_model):
        # re-seeding the sampler per evaluation makes the sampled forward a
        # deterministic function, so finite differences stay valid
        _, adjs, labels = gradcheck_model
        sampled = AttentionModel(
            adjs,
            n_labels=3,
            embedding_dim=4,
            preference_dim=3,
            activation="elu",
            sample_size=2,
        )
        params = init_params(sampled.dims, np.random.default_rng(8))
        check_all_tensors(
            sampled,
            params,
            labels,
            np.arange(5),
            rng_factory=lambda: np.random.default_rng(99),
        )

    @pytest.mark.parametrize("sample_size", [None, 2])
    def test_matches_finite_differences_on_planted_edge_cases(self, sample_size):
        # isolated node 0, zero-norm neighbor of 2, self loop at 3, node 3 twice
        model = AttentionModel(
            edge_case_adjacencies(np.random.default_rng(4)),
            n_labels=3,
            embedding_dim=4,
            preference_dim=3,
            activation="elu",
            sample_size=sample_size,
        )
        params = init_params(model.dims, np.random.default_rng(6))
        labels = np.random.default_rng(7).integers(0, 3, size=model.dims.n_targets)
        check_all_tensors(
            model,
            params,
            labels,
            np.array([3, 0, 2, 1, 3, 4, 5]),
            rng_factory=lambda: np.random.default_rng(17),
        )

    def test_matches_finite_differences_when_few_rows_are_touched(self):
        # batch 6 and 7 of 12 nodes: 6 samples 2 of its neighbors 7, 8, 9 and
        # 7 keeps its whole list 6, 10, so batch node 6 is also a neighbor of
        # batch node 7 and at most rows 6-10 are touched; rows 8-10 reach the
        # untouched nodes through their adjacency rows.  At this width the
        # pass slices the touched rows out, and no batch node's position in
        # them equals its id.
        rng = np.random.default_rng(31)
        rest = [0, 1, 2, 3, 4, 5, 8, 9, 10, 11]
        adjs = []
        for _path in range(2):
            dense = np.zeros((12, 12), dtype=np.int64)
            dense[6, [7, 8, 9]] = rng.integers(1, 4, size=3)
            dense[7, [6, 10]] = rng.integers(1, 4, size=2)
            sparse_counts = rng.integers(0, 4, size=(10, 10)) * (rng.random((10, 10)) < 0.5)
            dense[np.ix_(rest, rest)] = sparse_counts
            dense[8:11, 0] += 1  # no zero rows among the touched neighbors
            adjs.append(MetaPathAdjacency(sp.csr_matrix(dense)))
        model = AttentionModel(
            adjs, n_labels=3, embedding_dim=24, preference_dim=3, activation="elu", sample_size=2
        )
        params = init_params(model.dims, np.random.default_rng(9))
        labels = np.random.default_rng(10).integers(0, 3, size=12)
        batch = np.array([6, 7])
        trace = model.forward(params, batch, labels, rng=np.random.default_rng(5))
        # each path touches fewer than half its 12 rows: the pass sliced them out
        assert np.all(np.bincount(trace.rows // 12, minlength=2) < 12 / 2)
        assert 6 in per_node(trace)[1].samples[0]
        check_all_tensors(
            model, params, labels, batch, coords=40, rng_factory=lambda: np.random.default_rng(5)
        )

    def test_near_stationary_point_has_tiny_gradient(self):
        # saturate the classifier so every batch node is predicted with
        # probability 1: the loss is 0 and so is its gradient
        matrix = sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=np.int64))
        adj = MetaPathAdjacency(matrix)
        model = AttentionModel(
            [adj], n_labels=2, embedding_dim=2, preference_dim=2, sample_size=None
        )
        params = init_params(model.dims, np.random.default_rng(0))
        labels = np.array([0, 1])
        probe = model.forward(params, [0], labels=labels)
        f = per_node(probe)[0].fused
        params.wo[...] = np.vstack([f * (400.0 / float(f @ f)), -f * (400.0 / float(f @ f))])
        trace = model.forward(params, [0], labels=labels)
        loss = trace.total_loss
        grads = model.backward(trace)
        assert loss == 0.0
        total = sum(float(np.abs(t).sum()) for _, t in grads.tensor_items())
        assert total < 1e-6

    def test_duplicated_path_instance_equals_scaled_count(self, gradcheck_model):
        """A doubled walk count must behave exactly like a doubled adjacency entry."""
        _, adjs, labels = gradcheck_model
        base = adjs[0].matrix.toarray()
        i = int(np.argmax((base > 0).sum(axis=1)))
        j = int(np.flatnonzero(base[i] > 0)[0])

        doubled = base.copy()
        doubled[i, j] *= 2
        adj2 = MetaPathAdjacency(sp.csr_matrix(doubled))
        variant = AttentionModel(
            [adj2, adjs[1]],
            n_labels=3,
            embedding_dim=4,
            preference_dim=3,
            activation="elu",
            sample_size=None,
        )
        params = init_params(variant.dims, np.random.default_rng(3))
        check_all_tensors(variant, params, labels, np.array([i]))
