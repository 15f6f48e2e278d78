"""Adam optimizer over a model's parameter buffer.

The moment accumulators are parameter buffers of the model's layout and
persist across federated rounds on each client; downloading aggregated
weights replaces parameter values only, never optimizer state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams


class NonFiniteGradient(Exception):
    """A gradient tensor contained NaN or infinity; carries the tensor name."""


@dataclass
class AdamState:
    """First/second moment accumulators plus hyperparameters."""

    m: ModelParams
    v: ModelParams
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams, learning_rate: float = 0.001) -> "AdamState":
        return cls(m=params.zeros_like(), v=params.zeros_like(), learning_rate=learning_rate)


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState) -> tuple[ModelParams, AdamState]:
    """One Adam update, in place, with bias-corrected moments.

    The update runs one tensor view at a time, so its temporaries stay the
    size of one tensor rather than of the whole buffer.
    """
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1**t
    correction2 = 1.0 - b2**t
    for (name, tensor), (_, g), (_, m), (_, v) in zip(
        params.tensor_items(), grads.tensor_items(), state.m.tensor_items(), state.v.tensor_items()
    ):
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient for tensor {name!r} is not finite")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        m_hat = m / correction1
        v_hat = v / correction2
        tensor -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state
