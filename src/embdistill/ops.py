"""Dense forward/backward primitives for the classifier and encoder.

They work on batches: a (samples, units) matrix, one row per sample,
treated row by row (the affine weight and bias gradients sum over the
rows).  All but ``affine_backward`` also take a lone vector as one row.
The tanh itself is ``np.tanh``; only its backward lives here.
Everything is computed in float64 in memory; the binary file formats
downcast to float32 at the I/O boundary.
Functions here are pure: randomness always comes in through an explicit
numpy Generator.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError

# Probabilities are clamped here before log so a confident-and-wrong
# prediction costs a large finite loss instead of crashing.
LOG_CLAMP = 1e-12


def one_hot(index, n: int) -> np.ndarray:
    """Indicator vector of ``index``; an array of indices gives one row each."""
    index = np.asarray(index)
    bad = (index < 0) | (index >= n)
    if bad.any():
        raise ConfigError(f"one_hot: index {index[bad][0]} outside [0, {n})")
    return (index[..., None] == np.arange(n)).astype(float)


def affine_forward(w: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W @ x + b for a (rows, cols) matrix and a rows-vector b.

    ``x`` is a cols-vector, or a (samples, cols) batch that gives one
    output row per sample.  A batch makes one matrix-vector product per
    row, the same one a single sample makes, so a sample's result is the
    same bits whatever else is in its batch; a matrix-matrix product may
    round each row differently.
    """
    if w.ndim != 2 or x.ndim not in (1, 2) or b.ndim != 1:
        raise DimensionError(
            f"affine_forward: expected matrix/vector or batch/vector, got "
            f"W{w.shape}, x{x.shape}, b{b.shape}"
        )
    if w.shape[1] != x.shape[-1] or w.shape[0] != b.shape[0]:
        raise DimensionError(
            f"affine_forward: W is {w.shape[0]}x{w.shape[1]}, "
            f"x has dim {x.shape[-1]}, b has dim {b.shape[0]}"
        )
    return np.matmul(x[..., None, :], w.T)[..., 0, :] + b


def affine_backward(
    w: np.ndarray, x: np.ndarray, b: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``affine_forward`` w.r.t. W, x and b for a
    (samples, cols) batch x.

    ``upstream`` has one row per sample; the W and b gradients sum over
    the rows and the x gradient has one row per sample.
    """
    if x.ndim != 2:
        raise DimensionError(
            f"affine_backward: x must be a (samples, cols) batch, got shape {x.shape}"
        )
    if upstream.shape != x.shape[:-1] + (w.shape[0],):
        raise DimensionError(
            f"affine_backward: upstream has shape {upstream.shape}, "
            f"W has {w.shape[0]} rows, x has shape {x.shape}"
        )
    if w.shape[1] != x.shape[-1]:
        raise DimensionError(
            f"affine_backward: W is {w.shape[0]}x{w.shape[1]}, "
            f"x has dim {x.shape[-1]}"
        )
    return upstream.T @ x, upstream @ w, upstream.sum(axis=0)


def glorot(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """(rows, cols) weights uniform in +-sqrt(6/(rows+cols)).

    That range keeps tanh pre-activations in the near-linear region at
    the start of training.
    """
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def tanh_backward(y_out: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """upstream * (1 - y_out^2), with y_out the tanh *output*."""
    return upstream * (1.0 - y_out * y_out)


def softmax_t(z: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax, y_i = exp(z_i/T) / sum_j exp(z_j/T), over the
    last axis (each row of a batch on its own).

    Uses max subtraction so large logits (early training at high
    learning rates) cannot overflow.
    """
    if not temperature > 0:
        raise ConfigError(f"softmax temperature must be > 0, got {temperature}")
    scaled = np.asarray(z, dtype=float) / temperature
    scaled -= scaled.max(axis=-1, keepdims=True)
    np.exp(scaled, out=scaled)
    scaled /= scaled.sum(axis=-1, keepdims=True)
    return scaled


def cross_entropy(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """-sum_i t_i log y_i with y clamped at LOG_CLAMP before the log, one
    loss per row of a batch."""
    if y.shape != t.shape:
        raise DimensionError(
            f"cross_entropy: y has dim {y.shape}, target has dim {t.shape}"
        )
    return -(t * np.log(np.maximum(y, LOG_CLAMP))).sum(axis=-1)


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
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)
