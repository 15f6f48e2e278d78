"""Adam optimizer over a model's parameter buffer.

The moment accumulators are parameter buffers of the model's layout and
persist across federated rounds on each client; downloading aggregated
weights replaces parameter values only, never optimizer state.  Only the
learning rate is an experiment's to set; Adam's other constants are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams


# Values per block of the Adam step.  One block of the four buffers plus the
# two scratch blocks is 1.5 MB; of 2**11 to 2**16 values and the whole
# buffer, this was fastest at 177k parameters (2-core Xeon, 2 MB L2 per core).
_BLOCK = 32768

# Kingma and Ba's moment decay rates and denominator floor
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class NonFiniteGradient(Exception):
    """A gradient tensor contained NaN or infinity; carries the tensor name."""


@dataclass
class AdamState:
    """First/second moment accumulators, the learning rate and the step count."""

    m: ModelParams
    v: ModelParams
    learning_rate: float
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams, learning_rate: float) -> "AdamState":
        return cls(m=params.zeros_like(), v=params.zeros_like(), learning_rate=learning_rate)


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState) -> None:
    """One Adam update, in place, with bias-corrected moments.

    A gradient holding NaN or infinity raises ``NonFiniteGradient``, naming
    the first tensor that holds it, before anything changes.  The update
    walks the flat buffers ``_BLOCK`` values at a time through two scratch
    blocks allocated for this call, so each value goes through the same
    operations in the same order as a whole-tensor update, with no
    tensor-sized temporaries.
    """
    # a finite sum of squares proves every entry finite with no buffer-sized
    # temporary; an overflowing one may come from huge finite entries
    if not np.isfinite(np.dot(grads.buffer, grads.buffer)):
        for name, g in grads.tensor_items():
            if not np.isfinite(g).all():
                raise NonFiniteGradient(f"gradient for tensor {name!r} is not finite")
    state.step += 1
    t = state.step
    b1, b2, lr, eps = BETA1, BETA2, state.learning_rate, EPS
    correction1 = 1.0 - b1**t
    correction2 = 1.0 - b2**t
    buffers = (params.buffer, grads.buffer, state.m.buffer, state.v.buffer)
    size = params.buffer.size
    scratch_a, scratch_b = np.empty(min(size, _BLOCK)), np.empty(min(size, _BLOCK))
    for start in range(0, size, _BLOCK):
        w, g, m, v = (buf[start : start + _BLOCK] for buf in buffers)
        a, b = scratch_a[: g.size], scratch_b[: g.size]
        # m = b1 * m + (1 - b1) * g
        m *= b1
        np.multiply(g, 1.0 - b1, out=a)
        m += a
        # v = b2 * v + (1 - b2) * g**2
        v *= b2
        np.square(g, out=a)
        a *= 1.0 - b2
        v += a
        # w -= lr * (m / correction1) / (sqrt(v / correction2) + eps)
        np.divide(m, correction1, out=a)
        a *= lr
        np.divide(v, correction2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        w -= a
