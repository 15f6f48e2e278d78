"""Adam optimizer behavior."""

import numpy as np
import pytest

from fedhin.model import ModelDims, ModelParams
from fedhin.optim import AdamState, NonFiniteGradient, adam_step


def scalarish_params(value=1.0):
    # one 1 x 1 tensor per name (wc is 1 x 2), all zero but wt_0
    params = ModelParams(
        ModelDims(n_targets=1, n_paths=1, embedding_dim=1, preference_dim=1, n_labels=1)
    )
    params.wt[0][0, 0] = value
    return params


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = scalarish_params(2.5)
        grads = params.zeros_like()
        state = AdamState.for_params(params)
        before = params.copy()
        adam_step(params, grads, state)
        for (_, a), (_, b) in zip(params.tensor_items(), before.tensor_items()):
            np.testing.assert_array_equal(a, b)
        assert state.step == 1

    def test_first_step_closed_form(self):
        # m_hat = g, v_hat = g^2, so the first move is lr * g / (|g| + eps)
        g = 0.37
        params = scalarish_params(1.0)
        grads = params.zeros_like()
        grads.wt[0][0, 0] = g
        state = AdamState.for_params(params, learning_rate=0.001)
        adam_step(params, grads, state)
        expected = 1.0 - 0.001 * g / (abs(g) + 1e-8)
        assert params.wt[0][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_two_steps_reduce_quadratic_loss(self):
        params = scalarish_params(1.0)
        state = AdamState.for_params(params, learning_rate=0.05)

        def quadratic():
            return float(params.wt[0][0, 0] ** 2)

        losses = [quadratic()]
        for _ in range(2):
            grads = params.zeros_like()
            grads.wt[0][0, 0] = 2.0 * params.wt[0][0, 0]
            adam_step(params, grads, state)
            losses.append(quadratic())
        assert losses[2] < losses[1] < losses[0]

    def test_non_finite_gradient_names_tensor(self):
        params = scalarish_params()
        grads = params.zeros_like()
        grads.wp[0, 0] = np.nan
        state = AdamState.for_params(params)
        with pytest.raises(NonFiniteGradient, match="'wp'"):
            adam_step(params, grads, state)

    def test_moment_shapes_mirror_params(self):
        params = scalarish_params()
        state = AdamState.for_params(params)
        m, v = dict(state.m.tensor_items()), dict(state.v.tensor_items())
        for name, tensor in params.tensor_items():
            assert m[name].shape == tensor.shape
            assert v[name].shape == tensor.shape
        assert state.step == 0

    def test_defaults_match_training_configuration(self):
        state = AdamState.for_params(scalarish_params())
        assert state.learning_rate == 0.001
        assert state.beta1 == 0.9
        assert state.beta2 == 0.999
        assert state.eps == 1e-8
