"""The parameter buffer: one float64 array with named views, the helpers
that work on it whole, and the Adam step over it."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhin.model import (
    ModelDims,
    ModelError,
    ModelParams,
    dims_from_manifest,
    init_params,
    pack_shared,
    shape_manifest,
    unpack_shared,
)
from fedhin.optim import _BLOCK, AdamState, NonFiniteGradient, adam_step

from oracles import reference_adam_step

FIELDS = ("dims", "buffer", "n_shared", "wt", "wc", "wp", "wo", "pref")

model_dims = st.builds(
    ModelDims,
    n_targets=st.integers(1, 12),
    n_paths=st.integers(1, 3),
    embedding_dim=st.integers(1, 6),
    preference_dim=st.integers(1, 4),
    n_labels=st.integers(1, 4),
)
seeds = st.integers(0, 2**32 - 1)


def dims_with_buffer_size(size: int) -> ModelDims:
    """One meta path at width 1: the buffer holds 2N + 3 + L values."""
    n_labels = 1 + (size - 4) % 2
    return ModelDims(n_targets=(size - 3 - n_labels) // 2, n_paths=1, embedding_dim=1,
                     preference_dim=1, n_labels=n_labels)


def assert_field_cannot_be_rebound(params: ModelParams, field: str) -> None:
    before = getattr(params, field)
    if isinstance(before, np.ndarray):
        replacement = before.copy()
    elif isinstance(before, ModelDims):
        replacement = dataclasses.replace(before)
    else:
        replacement = before + 1
    with pytest.raises(AttributeError, match="cannot rebind"):
        setattr(params, field, replacement)
    assert getattr(params, field) is before


# buffers one value short of, exactly at and one past a multiple of the Adam
# step's block, and the shapes of the benchmark workloads (400 authors, two
# meta paths, d = 32 and 128)
adam_dims = st.one_of(
    st.builds(lambda k, delta: dims_with_buffer_size(k * _BLOCK + delta),
              st.integers(1, 3), st.sampled_from([-1, 0, 1])),
    st.sampled_from([ModelDims(400, 2, d, 16, 4) for d in (32, 128)]),
)


class TestLayout:
    @given(model_dims, seeds)
    def test_views_tile_the_buffer_in_manifest_order(self, dims, seed):
        params = init_params(dims, np.random.default_rng(seed))
        items = params.tensor_items()
        m = dims.n_paths
        assert [name for name, _ in items] == (
            [f"wt_{p}" for p in range(m)] + [f"wc_{p}" for p in range(m)] + ["wp", "wo", "pref"]
        )
        joined = np.concatenate([view.ravel() for _, view in items])
        assert joined.tobytes() == params.buffer.tobytes()
        assert all(np.shares_memory(view, params.buffer) for _, view in items)
        assert params.n_shared == params.buffer.size - params.pref.size
        assert dims_from_manifest(shape_manifest(params)) == dims

    @given(model_dims, seeds)
    def test_pack_unpack_round_trips_bit_identically(self, dims, seed):
        rng = np.random.default_rng(seed)
        params = init_params(dims, rng)
        flat = pack_shared(params)
        assert flat.size == params.n_shared
        target = unpack_shared(flat, ModelParams(dims))
        assert pack_shared(target).tobytes() == flat.tobytes()
        # any bit pattern survives, signed zeros and NaN included
        values = rng.standard_normal(params.n_shared)
        values[0], values[-1] = -0.0, np.nan
        assert pack_shared(unpack_shared(values, params)).tobytes() == values.tobytes()

    @given(model_dims, seeds)
    def test_copy_shares_no_memory(self, dims, seed):
        params = init_params(dims, np.random.default_rng(seed))
        copied = params.copy()
        assert copied.buffer.tobytes() == params.buffer.tobytes()
        assert not np.shares_memory(copied.buffer, params.buffer)
        for (_, a), (_, b) in zip(copied.tensor_items(), params.tensor_items()):
            assert not np.shares_memory(a, b)

    @given(model_dims, st.data())
    def test_write_through_wt_shows_in_pack_shared(self, dims, data):
        params = ModelParams(dims)
        p = data.draw(st.integers(0, dims.n_paths - 1))
        i = data.draw(st.integers(0, dims.n_targets - 1))
        j = data.draw(st.integers(0, dims.embedding_dim - 1))
        params.wt[p][i, j] = 7.5
        flat = pack_shared(params)
        offset = (p * dims.n_targets + i) * dims.embedding_dim + j  # node-major
        assert flat[offset] == 7.5
        assert np.count_nonzero(flat) == 1
        assert dict(params.tensor_items())[f"wt_{p}"][i, j] == 7.5

    @given(model_dims, st.sampled_from(FIELDS))
    def test_rebinding_a_field_raises(self, dims, field):
        assert_field_cannot_be_rebound(ModelParams(dims), field)

    @given(model_dims, st.integers(1, 4), st.sampled_from(FIELDS))
    def test_rows_are_zeroed_instances_over_one_table(self, dims, n, field):
        rows = ModelParams.rows(dims, n)
        table = rows[0].buffer.base
        single = ModelParams(dims)
        assert table.shape == (n, single.buffer.size) and table.dtype == np.float64
        assert not table.any()
        for i, params in enumerate(rows):
            assert params.buffer.base is table and params.buffer.flags.c_contiguous
            assert np.shares_memory(params.buffer, table[i])
            assert [(name, t.shape) for name, t in params.tensor_items()] == [
                (name, t.shape) for name, t in single.tensor_items()]
            assert all(t.flags.c_contiguous and t.dtype == np.float64
                       for _, t in params.tensor_items())
        rows[-1].wo[...] = 1.0
        assert not any(params.buffer.any() for params in rows[:-1])
        assert_field_cannot_be_rebound(rows[0], field)

    def test_item_and_augmented_assignment_write_into_the_buffer(self):
        params = ModelParams(ModelDims(n_targets=3, n_paths=2, embedding_dim=2,
                                       preference_dim=2, n_labels=2))
        params.wt[1] = np.ones((3, 2))
        params.wo += 2.0
        params.wc[0] *= 3.0
        named = dict(params.tensor_items())
        assert np.all(named["wt_1"] == 1.0) and np.all(named["wo"] == 2.0)
        assert params.buffer.sum() == 6 * 1.0 + 4 * 2.0

    def test_unpack_size_errors(self):
        params = ModelParams(ModelDims(n_targets=2, n_paths=1, embedding_dim=1,
                                       preference_dim=1, n_labels=1))
        with pytest.raises(ModelError, match="too short"):
            unpack_shared(np.zeros(params.n_shared - 1), params)
        with pytest.raises(ModelError, match="too long"):
            unpack_shared(np.zeros(params.n_shared + 1), params)

    @pytest.mark.parametrize(
        "manifest",
        [[], [{"name": "wp", "shape": [2, 3]}], [{"shape": [1, 1]}] * 4, "nonsense"],
    )
    def test_manifest_without_a_layout_rejected(self, manifest):
        with pytest.raises(ModelError, match="no model parameter layout"):
            dims_from_manifest(manifest)


def assert_steps_match_reference(dims: ModelDims, rng: np.random.Generator, steps: int) -> None:
    """``steps`` Adam steps over the buffer and over the per-tensor reference,
    on the same random gradients, agree bit for bit."""
    params = init_params(dims, rng)
    state = AdamState.for_params(params, learning_rate=0.01)
    tensors = {name: t.copy() for name, t in params.tensor_items()}
    m = {name: np.zeros_like(t) for name, t in tensors.items()}
    v = {name: np.zeros_like(t) for name, t in tensors.items()}
    for step in range(1, steps + 1):
        grads = params.zeros_like()
        grads.buffer[...] = rng.standard_normal(grads.buffer.size) * rng.uniform(1e-4, 10.0)
        grads.pref[rng.random(dims.n_targets) < 0.5] = 0.0
        adam_step(params, grads, state)
        reference_adam_step(tensors, dict(grads.tensor_items()), m, v, step,
                            learning_rate=0.01)
    for ours, theirs in ((params, tensors), (state.m, m), (state.v, v)):
        for name, t in ours.tensor_items():
            assert t.tobytes() == theirs[name].tobytes(), name
    assert state.step == steps


class TestAdamOverTheBuffer:
    @pytest.mark.parametrize("embedding_dim", [32, 128], ids=["d32", "d128"])
    def test_bit_identical_to_per_tensor_reference(self, embedding_dim):
        # the shapes of the benchmark workloads: 400 authors, two meta paths
        dims = ModelDims(n_targets=400, n_paths=2, embedding_dim=embedding_dim,
                         preference_dim=16, n_labels=4)
        assert_steps_match_reference(dims, np.random.default_rng(embedding_dim), 25)

    @given(adam_dims, seeds, st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_blocked_step_matches_reference_bit_for_bit(self, dims, seed, steps):
        assert_steps_match_reference(dims, np.random.default_rng(seed), steps)

    def test_non_finite_gradient_names_each_tensor(self):
        params = ModelParams(ModelDims(n_targets=2, n_paths=2, embedding_dim=1,
                                       preference_dim=1, n_labels=1))
        for name, _ in params.tensor_items():
            for bad in (np.nan, np.inf, -np.inf):
                grads = params.zeros_like()
                dict(grads.tensor_items())[name].flat[-1] = bad
                with pytest.raises(NonFiniteGradient, match=repr(name)):
                    adam_step(params, grads, AdamState.for_params(params, learning_rate=0.001))

    def test_huge_finite_gradient_whose_square_overflows_is_accepted(self):
        params = ModelParams(ModelDims(n_targets=2, n_paths=2, embedding_dim=1,
                                       preference_dim=1, n_labels=1))
        grads = params.zeros_like()
        grads.buffer[...] = 1e200
        state = AdamState.for_params(params, learning_rate=0.001)
        with np.errstate(over="ignore"):  # v takes g**2, which overflows
            adam_step(params, grads, state)
        assert state.step == 1 and np.isfinite(params.buffer).all()
