"""Adam optimizer behavior."""

import numpy as np
import pytest

from fedhin import ExperimentConfig, build_experiment, synthetic_hin
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
        state = AdamState.for_params(params, learning_rate=0.001)
        before = params.copy()
        adam_step(params, grads, state)
        for (_, a), (_, b) in zip(params.tensor_items(), before.tensor_items()):
            np.testing.assert_array_equal(a, b)
        assert state.step == 1
        # over steps that move the rest of the buffer, the entries whose
        # gradient and moments stay 0 keep their bits: the preference rows of
        # nodes another client trains
        params = ModelParams(ModelDims(n_targets=6, n_paths=2, embedding_dim=3,
                                       preference_dim=2, n_labels=2))
        rng = np.random.default_rng(3)
        params.buffer[...] = rng.standard_normal(params.buffer.size)
        params.pref[3:] = [[-0.0, 5e-324], [1e308, -1.7e308], [0.0, -2.2e-308]]
        state = AdamState.for_params(params, learning_rate=0.001)
        before = params.copy()
        for _ in range(4):
            grads = params.zeros_like()
            grads.buffer[...] = rng.standard_normal(grads.buffer.size)
            grads.pref[3:] = 0.0
            adam_step(params, grads, state)
        assert params.pref[3:].tobytes() == before.pref[3:].tobytes()
        for moments in (state.m, state.v):
            assert moments.pref[3:].tobytes() == np.zeros((3, 2)).tobytes()
        assert (params.buffer[:-6] != before.buffer[:-6]).all()

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
        state = AdamState.for_params(params, learning_rate=0.001)
        with pytest.raises(NonFiniteGradient, match="'wp'"):
            adam_step(params, grads, state)

    def test_moment_shapes_mirror_params(self):
        params = scalarish_params()
        state = AdamState.for_params(params, learning_rate=0.001)
        m, v = dict(state.m.tensor_items()), dict(state.v.tensor_items())
        for name, tensor in params.tensor_items():
            assert m[name].shape == tensor.shape
            assert v[name].shape == tensor.shape
        assert state.step == 0

    def test_every_client_steps_with_the_configured_learning_rate(self):
        graph = synthetic_hin(n_authors=60, n_papers=150, n_venues=6, classes=3,
                              p_in=0.15, p_out=0.02, seed=4)
        config = ExperimentConfig(clients=3, rounds=1, batch_size=10_000, embedding_dim=4,
                                  preference_dim=2, learning_rate=0.0375)
        setup = build_experiment(config, graph)
        for client in setup.clients:
            before = np.concatenate([client.shared, client.work.pref.ravel()])
            update = client.run_round(epochs=1, batch_size=config.batch_size)
            # Adam's first step moves each weight by lr * g / (|g| + eps), so
            # by lr where the gradient is large
            moved = np.abs(np.concatenate([update.weights, client.work.pref.ravel()]) - before)
            assert client.adam.step == 1
            assert moved.max() == pytest.approx(config.learning_rate, rel=1e-6)

    def test_non_finite_gradient_moves_nothing(self):
        # wp follows every wt_* and wc_* tensor in the buffer, so a check made
        # tensor by tensor would step those first
        params = ModelParams(ModelDims(n_targets=5, n_paths=2, embedding_dim=3,
                                       preference_dim=2, n_labels=2))
        rng = np.random.default_rng(0)
        params.buffer[...] = rng.standard_normal(params.buffer.size)
        state = AdamState.for_params(params, learning_rate=0.001)
        for _ in range(2):
            grads = params.zeros_like()
            grads.buffer[...] = rng.standard_normal(grads.buffer.size)
            adam_step(params, grads, state)
        before = [params.buffer.tobytes(), state.m.buffer.tobytes(), state.v.buffer.tobytes()]
        grads = params.zeros_like()
        grads.buffer[...] = rng.standard_normal(grads.buffer.size)
        grads.wp[1, 2] = np.nan
        grads.pref[0, 0] = np.inf
        with pytest.raises(NonFiniteGradient, match="'wp'"):
            adam_step(params, grads, state)
        after = [params.buffer.tobytes(), state.m.buffer.tobytes(), state.v.buffer.tobytes()]
        assert after == before
        assert state.step == 2
