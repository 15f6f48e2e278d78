"""The batched forward pass against the per-node reference composition."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from fedhin.graph import MetaPathAdjacency, MetaPathSpec, metapath_adjacency
from fedhin.model import _DOT_VALUES, AttentionModel, ModelError, init_params
from fedhin.synthetic import synthetic_hin

from oracles import (
    edge_case_adjacencies,
    neighbors,
    per_node,
    reference_forward,
    reference_neighbor_segments,
)

TOL = 1e-12


def build(seed, sample_size):
    rng = np.random.default_rng(seed)
    adjs = edge_case_adjacencies(rng)
    model = AttentionModel(
        adjs, n_labels=3, embedding_dim=5, preference_dim=4, sample_size=sample_size,
    )
    params = init_params(model.dims, np.random.default_rng(seed + 100))
    labels = rng.integers(0, 3, size=model.dims.n_targets)
    return model, params, labels


def forward_against_reference(model, params, batch, labels, rng):
    """The batched pass, checked node by node against the reference; a
    sampled pass is checked on the neighbors it drew (the draw itself is
    checked by the sampler tests below)."""
    trace = model.forward(params, batch, labels, rng=rng)
    nodes = per_node(trace)
    expected = reference_forward(
        model, params, batch, labels,
        samples=[node.samples for node in nodes] if rng is not None else None,
    )
    assert len(nodes) == batch.size
    for node, ref in zip(nodes, expected):
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
    return trace


@pytest.mark.parametrize("sample_size", [None, 2])
@pytest.mark.parametrize("seed", range(6))
def test_batched_forward_equals_per_node_reference(seed, sample_size):
    model, params, labels = build(seed, sample_size)
    n = model.dims.n_targets
    # isolated node 0, zero-norm neighbor of 2, self loop at 3, node 3 twice
    batch = np.concatenate([[3, 0, 2, 1, 3], np.arange(4, n)])
    sampled = sample_size is not None
    trace = forward_against_reference(
        model, params, batch, labels, np.random.default_rng(seed) if sampled else None
    )
    assert trace.zero_norm_events > 0
    # the planted cases really occur (sampling may drop the last two)
    nodes = per_node(trace)
    assert nodes[1].samples[0].size == 0
    if not sampled:
        assert 3 in nodes[0].samples[0]
        assert not nodes[2].sim_valid[0][list(nodes[2].samples[0]).index(1)]


@pytest.mark.parametrize("sample_size", [None, 2])
@pytest.mark.parametrize("seed", range(3))
def test_batch_local_forward_equals_per_node_reference(seed, sample_size):
    # nodes 0-18 on a ring, each linked to the three nodes either side; node
    # 19 is isolated.  The batch touches at most rows 6-13 and 19, few enough
    # at this width for the pass to slice them out and work on positions.
    rng = np.random.default_rng(seed)
    adjs = []
    for _path in range(2):
        dense = np.zeros((20, 20), dtype=np.int64)
        for i in range(19):
            for step in (1, 2, 3):
                dense[i, (i + step) % 19] = dense[i, (i - step) % 19] = rng.integers(1, 4)
        adjs.append(MetaPathAdjacency(sp.csr_matrix(dense)))
    model = AttentionModel(
        adjs, n_labels=3, embedding_dim=32, preference_dim=4, sample_size=sample_size,
    )
    params = init_params(model.dims, np.random.default_rng(seed + 100))
    labels = rng.integers(0, 3, size=20)
    trace = forward_against_reference(
        model, params, np.array([9, 10, 19, 9]), labels,
        np.random.default_rng(seed) if sample_size is not None else None,
    )
    # each path's touched rows are fewer than its N: the pass sliced them out
    assert np.all(np.bincount(trace.rows // 20, minlength=2) < 20)


@pytest.mark.parametrize("d", [5, 32, 128])
def test_node_level_values_do_not_depend_on_the_batch(d):
    # a node's similarities, coefficients and neighbor sums are the same bits
    # alone as in any batch, whether the pass slices the touched rows out
    # (small batches) or works on the whole matrix (the 512-node batch, whose
    # entries span several chunks of per-entry dots at every width)
    graph = synthetic_hin(n_authors=400, seed=0)
    adjs = [metapath_adjacency(graph, MetaPathSpec.from_string(c)) for c in ("APA", "APPA")]
    model = AttentionModel(adjs, n_labels=4, embedding_dim=d, preference_dim=4, sample_size=None)
    params = init_params(model.dims, np.random.default_rng(d))
    n, n_paths = model.dims.n_targets, model.dims.n_paths
    rng = np.random.default_rng(d + 1)
    alone, sliced = {}, set()
    for size in (1, 2, 5, 512):
        batch = rng.integers(0, n, size=size)
        trace = model.forward(params, batch)
        sliced.add(trace.rows.size < n_paths * n)
        for b, node in enumerate(per_node(trace)):
            if node.index not in alone:
                alone[node.index] = model.forward(params, [node.index])
            ref = alone[node.index]
            (ref_node,) = per_node(ref)
            for p in range(n_paths):
                np.testing.assert_array_equal(node.samples[p], ref_node.samples[p])
                # float64 read as int64: equal bits, not merely equal values
                for got, want in ((node.sims[p], ref_node.sims[p]),
                                  (node.coeffs[p], ref_node.coeffs[p]),
                                  (trace.preact[p * size + b], ref.preact[p])):
                    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert sliced == {True, False}
    assert trace.segments.idx.size > 3 * (_DOT_VALUES // d)


@pytest.mark.parametrize("seed", range(6))
def test_sampled_segments_are_sorted_subsets(seed):
    model, params, labels = build(seed, 2)
    batch = np.concatenate([[3, 0, 2, 1, 3], np.arange(4, model.dims.n_targets)])
    trace = model.forward(params, batch, labels, rng=np.random.default_rng(seed))
    whole = cut = 0
    for node in per_node(trace):
        for p in range(model.dims.n_paths):
            full, got = neighbors(model, p, node.index), node.samples[p]
            assert np.all(np.diff(got) > 0)  # sorted, no repeats
            assert np.isin(got, full).all()
            if full.size <= model.sample_size:
                np.testing.assert_array_equal(got, full)
                whole += 1
            else:
                assert got.size == model.sample_size
                cut += 1
    assert whole and cut


@pytest.mark.parametrize("sample_size", [None, 2])
@pytest.mark.parametrize("seed", range(6))
def test_stacked_sampler_equals_per_path_reference(seed, sample_size):
    # one key draw over every path's entries equals one draw per path in
    # path order, and the 2 * owner + key sort keeps the M * B segments apart
    model, _, _ = build(seed, sample_size)
    n, n_paths = model.dims.n_targets, model.dims.n_paths
    batch = np.concatenate([[3, 0, 2, 1, 3], np.arange(4, n)])
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stacked = (n * np.arange(n_paths)[:, None] + batch).ravel()
    seg = model._neighbor_segments(stacked, rng)
    expected = reference_neighbor_segments(model, batch, reference_rng)
    for p, ref in enumerate(expected):
        first, stop = p * batch.size, (p + 1) * batch.size
        lo, hi = seg.indptr[first], seg.indptr[stop]
        np.testing.assert_array_equal(seg.idx[lo:hi] - p * n, ref.idx)
        np.testing.assert_array_equal(seg.indptr[first : stop + 1] - lo, ref.indptr)
        np.testing.assert_array_equal(seg.owner[lo:hi] - first, ref.owner)
    assert seg.indptr[-1] == seg.idx.size == seg.owner.size
    assert rng.random() == reference_rng.random()


@pytest.mark.parametrize("sample_size", [None, 2])
@pytest.mark.parametrize("bad", ["-1", "-5", "-N", "N"])
def test_batch_id_outside_the_targets_is_a_model_error(bad, sample_size):
    # a negative id would wrap to another node, and in the stacked rows to
    # another meta path's block
    model, params, labels = build(0, sample_size)
    n = model.dims.n_targets
    bad = int(bad.replace("N", str(n)))
    # the error names the first id outside the range
    for batch in ([1, bad], [bad, n + 3]):
        for rng in (None, np.random.default_rng(0)):
            with pytest.raises(ModelError, match=rf"batch id {bad} is outside 0\.\.{n - 1}"):
                model.forward(params, batch, labels, rng=rng)


def test_sampled_inclusion_frequency_is_uniform():
    # node 0 has 69 neighbors; each should be drawn with probability k/deg
    deg, k, draws = 69, 16, 4000
    dense = np.zeros((deg + 1, deg + 1), dtype=np.int64)
    dense[0, 1:] = dense[1:, 0] = 1
    adj = MetaPathAdjacency(sp.csr_matrix(dense))
    model = AttentionModel([adj], n_labels=2, embedding_dim=3, preference_dim=2, sample_size=k)
    params = init_params(model.dims, np.random.default_rng(0))
    trace = model.forward(params, np.zeros(draws, dtype=np.int64), rng=np.random.default_rng(12))
    samples = [node.samples[0] for node in per_node(trace)]
    assert all(s.size == k for s in samples)
    freq = np.bincount(np.concatenate(samples), minlength=deg + 1)[1:] / draws
    p = k / deg
    assert np.abs(freq - p).max() <= 5 * np.sqrt(p * (1 - p) / draws)
