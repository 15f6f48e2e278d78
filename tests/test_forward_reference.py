"""The batched forward pass against the per-node reference composition."""

import math

import numpy as np
import pytest

from fedhin.model import AttentionModel, init_params

from oracles import edge_case_adjacencies, reference_forward

TOL = 1e-12


def build(seed, sample_size):
    rng = np.random.default_rng(seed)
    adjs = edge_case_adjacencies(rng)
    model = AttentionModel(
        adjs, n_labels=3, embedding_dim=5, preference_dim=4, activation="elu",
        sample_size=sample_size,
    )
    params = init_params(model.dims, np.random.default_rng(seed + 100))
    labels = rng.integers(0, 3, size=model.dims.n_targets)
    return model, params, labels


@pytest.mark.parametrize("sample_size", [None, 2])
@pytest.mark.parametrize("seed", range(6))
def test_batched_forward_equals_per_node_reference(seed, sample_size):
    model, params, labels = build(seed, sample_size)
    n = model.dims.n_targets
    # isolated node 0, zero-norm neighbor of 2, self loop at 3, node 3 twice
    batch = np.concatenate([[3, 0, 2, 1, 3], np.arange(4, n)])
    sampled = sample_size is not None
    trace = model.forward(
        params, batch, labels, rng=np.random.default_rng(seed) if sampled else None
    )
    expected = reference_forward(
        model, params, batch, labels, rng=np.random.default_rng(seed) if sampled else None
    )

    assert len(trace.nodes) == batch.size
    for node, ref in zip(trace.nodes, expected):
        for p in range(model.dims.n_paths):
            np.testing.assert_array_equal(node.samples[p], ref["samples"][p])
            np.testing.assert_allclose(node.sims[p], ref["sims"][p], rtol=0, atol=TOL)
            np.testing.assert_allclose(node.coeffs[p], ref["coeffs"][p], rtol=0, atol=TOL)
        np.testing.assert_allclose(node.path_coeffs, ref["path_coeffs"], rtol=0, atol=TOL)
        np.testing.assert_allclose(node.fused, ref["fused"], rtol=TOL, atol=TOL)
        np.testing.assert_allclose(node.probs, ref["probs"], rtol=0, atol=TOL)
        assert node.loss == pytest.approx(ref["loss"], rel=TOL, abs=TOL)
    assert trace.total_loss == pytest.approx(math.fsum(r["loss"] for r in expected), rel=TOL)
    assert trace.zero_norm_events == sum(r["zero_norm_events"] for r in expected)
    assert trace.zero_norm_events > 0
    # the planted cases really occur (sampling may drop the last two)
    assert trace.nodes[1].samples[0].size == 0
    if not sampled:
        assert 3 in trace.nodes[0].samples[0]
        assert not trace.nodes[2].sim_valid[0][list(trace.nodes[2].samples[0]).index(1)]


def test_node_views_are_read_only():
    model, params, labels = build(0, None)
    trace = model.forward(params, [2, 3], labels)
    with pytest.raises(ValueError):
        trace.nodes[0].fused[0] = 1.0
    with pytest.raises(ValueError):
        trace.nodes[1].coeffs[0][0] = 1.0
