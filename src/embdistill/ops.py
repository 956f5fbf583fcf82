"""Dense forward/backward primitives for the classifier and encoder.

Matrices are 2-D float arrays, vectors 1-D.  The softmax, loss and
dropout functions also take a batch: a (samples, classes) or (samples,
units) matrix, one row per sample, treated row by row.  Everything is
computed in float64 in memory; the binary file formats downcast to
float32 at the I/O boundary.  Functions here are pure: randomness always
comes in through an explicit numpy Generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

# Probabilities are clamped here before log so a confident-and-wrong
# prediction costs a large finite loss instead of crashing.
LOG_CLAMP = 1e-12


@dataclass
class GradPair:
    """A parameter array paired with a gradient of the same shape.

    ``value`` may be a view (for example one embedding column), so an
    in-place update through the pair writes back into the owner.
    """

    value: np.ndarray
    grad: np.ndarray

    def __post_init__(self):
        if self.value.shape != self.grad.shape:
            raise DimensionError(
                f"GradPair: value has shape {self.value.shape}, "
                f"grad has shape {self.grad.shape}"
            )


def one_hot(index, n: int) -> np.ndarray:
    """Indicator vector of ``index``; an array of indices gives one row each."""
    index = np.asarray(index)
    if np.any((index < 0) | (index >= n)):
        raise ConfigError(f"one_hot: index {index} outside [0, {n})")
    return (index[..., None] == np.arange(n)).astype(float)


def affine_forward(w: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W @ x + b for a (rows, cols) matrix, a cols-vector and a rows-vector."""
    if w.ndim != 2 or x.ndim != 1 or b.ndim != 1:
        raise DimensionError(
            f"affine_forward: expected matrix/vector/vector, got "
            f"W{w.shape}, x{x.shape}, b{b.shape}"
        )
    if w.shape[1] != x.shape[0] or w.shape[0] != b.shape[0]:
        raise DimensionError(
            f"affine_forward: W is {w.shape[0]}x{w.shape[1]}, "
            f"x has dim {x.shape[0]}, b has dim {b.shape[0]}"
        )
    return w @ x + b


def affine_backward(
    w: np.ndarray, x: np.ndarray, b: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``affine_forward`` w.r.t. W, x and b.

    Returns (upstream outer x, W^T upstream, upstream).
    """
    if upstream.shape != (w.shape[0],):
        raise DimensionError(
            f"affine_backward: upstream has dim {upstream.shape[0]}, "
            f"W has {w.shape[0]} rows"
        )
    if w.shape[1] != x.shape[0]:
        raise DimensionError(
            f"affine_backward: W is {w.shape[0]}x{w.shape[1]}, "
            f"x has dim {x.shape[0]}"
        )
    return np.outer(upstream, x), w.T @ upstream, upstream.copy()


def tanh_forward(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_backward(y_out: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """upstream * (1 - y_out^2), with y_out the tanh *output*."""
    return upstream * (1.0 - y_out * y_out)


def softmax_t(z: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax, y_i = exp(z_i/T) / sum_j exp(z_j/T), over the
    last axis (each row of a batch on its own).

    Uses max subtraction so large logits (early training at high
    learning rates) cannot overflow.
    """
    if temperature <= 0:
        raise ConfigError(f"softmax temperature must be > 0, got {temperature}")
    scaled = np.asarray(z, dtype=float) / temperature
    scaled -= scaled.max(axis=-1, keepdims=True)
    np.exp(scaled, out=scaled)
    scaled /= scaled.sum(axis=-1, keepdims=True)
    return scaled


def cross_entropy(y: np.ndarray, t: np.ndarray) -> float | np.ndarray:
    """-sum_i t_i log y_i with y clamped at LOG_CLAMP before the log.

    A float for one distribution; one loss per row for a batch.
    """
    if y.shape != t.shape:
        raise DimensionError(
            f"cross_entropy: y has dim {y.shape}, target has dim {t.shape}"
        )
    losses = -(t * np.log(np.maximum(y, LOG_CLAMP))).sum(axis=-1)
    return float(losses) if losses.ndim == 0 else losses


def softmax_ce_backward(z: np.ndarray, t: np.ndarray, temperature: float) -> np.ndarray:
    """Fused gradient of cross_entropy(softmax_t(z, T), t) w.r.t. z, row by
    row for a batch.

    Equals (softmax_t(z, T) - t) / T; requires every target to sum to 1.
    """
    if z.shape != t.shape:
        raise DimensionError(
            f"softmax_ce_backward: z has dim {z.shape}, target has dim {t.shape}"
        )
    sums = np.atleast_1d(np.sum(t, axis=-1))
    bad = np.abs(sums - 1.0) > 1e-6
    if bad.any():
        raise ConfigError(f"softmax_ce_backward: target sums to {sums[bad][0]}, expected 1")
    return (softmax_t(z, temperature) - t) / temperature


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability ``rate``, else 1/(1-rate).

    ``shape`` is a width or a (samples, width) batch shape.  A batch mask
    is one draw in row order, so it equals the per-sample masks drawn one
    after another from the same generator.  Each entry has expectation 1,
    so evaluation needs no rescaling.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)
