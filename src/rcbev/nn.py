"""Minimal numerical-layer toolkit: dense layers, norms, softmax, pooling,
3x3 convolution and bilinear sampling.

All arithmetic is float64. Contractions deliberately avoid BLAS: channel
contractions go through np.einsum(optimize=False) and reductions along
point/key axes use an order-independent sorted pairwise sum (ordered_sum),
so results are bit-identical under row permutations and thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, EmptyInputError, ShapeError

DEFAULT_EPS = 1e-5


def as_f64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def ordered_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum along ``axis`` independently of element order.

    Sorting first fixes a canonical value order, and the C-layout copy fixes
    the pairwise-summation blocking, so any permutation of the input along
    that axis yields a bit-identical sum.
    """
    return np.sort(np.ascontiguousarray(a), axis=axis).sum(axis=axis)


def contract(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise channel contraction x[..., j] * w[k, j] -> [..., k] without BLAS."""
    return np.einsum("...j,kj->...k", x, w, optimize=False)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y[i] = w @ x[i] + b for each row of x (N x Cin -> N x Cout)."""
    x, w, b = as_f64(x), as_f64(w), as_f64(b)
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise ShapeError(f"linear expects 2D x, 2D w, 1D b; got {x.shape}, {w.shape}, {b.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear: x has {x.shape[1]} channels, w expects {w.shape[1]}")
    if b.shape[0] != w.shape[0]:
        raise ShapeError(f"linear: bias length {b.shape[0]} != {w.shape[0]} outputs")
    return contract(x, w) + b


@dataclass(frozen=True)
class MlpLayer:
    w: np.ndarray
    b: np.ndarray
    relu: bool = True


@dataclass(frozen=True)
class MlpParams:
    layers: tuple[MlpLayer, ...]

    def __post_init__(self):
        for prev, cur in zip(self.layers, self.layers[1:]):
            if prev.w.shape[0] != cur.w.shape[1]:
                raise ShapeError(
                    f"mlp layers do not chain: {prev.w.shape[0]} out vs {cur.w.shape[1]} in"
                )

    @property
    def in_channels(self) -> int:
        return self.layers[0].w.shape[1]

    @property
    def out_channels(self) -> int:
        return self.layers[-1].w.shape[0]


def mlp(x: np.ndarray, p: MlpParams) -> np.ndarray:
    y = as_f64(x)
    for layer in p.layers:
        y = linear(y, layer.w, layer.b)
        if layer.relu:
            y = relu(y)
    return y


@dataclass(frozen=True)
class NormParams:
    """Affine normalization parameters; mean/var present only for batch norm."""

    scale: np.ndarray
    shift: np.ndarray
    eps: float = DEFAULT_EPS
    mean: Optional[np.ndarray] = None
    var: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.eps <= 0:
            raise ConfigError(f"norm epsilon must be positive, got {self.eps}")
        if self.var is not None and np.any(as_f64(self.var) < 0):
            raise DataError("batch-norm variance entries must be >= 0")


def identity_norm(c: int, eps: float = DEFAULT_EPS, batch: bool = False) -> NormParams:
    """scale=1 shift=0 (and mean=0 var=1 when batch=True)."""
    scale, shift = np.ones(c), np.zeros(c)
    if batch:
        return NormParams(scale, shift, eps, mean=np.zeros(c), var=np.ones(c))
    return NormParams(scale, shift, eps)


def layer_norm(x: np.ndarray, p: NormParams) -> np.ndarray:
    """Per-row normalization over channels, then affine scale/shift."""
    x = as_f64(x)
    if x.ndim != 2:
        raise ShapeError(f"layer_norm expects N x C input, got {x.shape}")
    c = x.shape[1]
    if p.scale.shape != (c,) or p.shift.shape != (c,):
        raise ShapeError(f"layer_norm params sized {p.scale.shape} do not match C={c}")
    mean = x.mean(axis=1, keepdims=True)
    var = np.square(x - mean).mean(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + p.eps) * p.scale + p.shift


def batch_norm_2d(x: np.ndarray, p: NormParams) -> np.ndarray:
    """Inference batch norm over a C x H x W array using stored statistics."""
    x = as_f64(x)
    if x.ndim != 3:
        raise ShapeError(f"batch_norm_2d expects C x H x W, got {x.shape}")
    if p.mean is None or p.var is None:
        raise ShapeError("batch_norm_2d requires running mean/var")
    c = x.shape[0]
    for name, arr in (("scale", p.scale), ("shift", p.shift), ("mean", p.mean), ("var", p.var)):
        if arr.shape != (c,):
            raise ShapeError(f"batch_norm_2d {name} sized {arr.shape} does not match C={c}")
    inv = 1.0 / np.sqrt(as_f64(p.var) + p.eps)
    return (x - as_f64(p.mean)[:, None, None]) * inv[:, None, None] * as_f64(p.scale)[
        :, None, None
    ] + as_f64(p.shift)[:, None, None]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax; denominator summed order-independently."""
    x = as_f64(x)
    if not np.all(np.isfinite(x)):
        raise DataError("softmax input contains non-finite values")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    denom = ordered_sum(e, axis=axis)
    return e / np.expand_dims(denom, axis)


def max_pool_points(x: np.ndarray) -> np.ndarray:
    """Column-wise max over N points; invariant under any row permutation."""
    x = as_f64(x)
    if x.ndim != 2:
        raise ShapeError(f"max_pool_points expects N x C, got {x.shape}")
    if x.shape[0] == 0:
        raise EmptyInputError("max_pool_points requires at least one point")
    return x.max(axis=0)


def attend(weights: np.ndarray, values: np.ndarray, chunk: int = 16) -> np.ndarray:
    """Order-independent attention contraction: out[i, c] = sum_j w[i, j] v[j, c].

    The sum over keys j is computed with ordered_sum, so permuting the keys
    (together with the weight columns) leaves the result bit-identical.
    Channels are processed in chunks to bound the N x N x chunk buffer.
    """
    weights, values = as_f64(weights), as_f64(values)
    if weights.ndim != 2 or values.ndim != 2 or weights.shape[1] != values.shape[0]:
        raise ShapeError(f"attend: weights {weights.shape} vs values {values.shape}")
    n, c = weights.shape[0], values.shape[1]
    out = np.empty((n, c))
    for c0 in range(0, c, chunk):
        block = values[:, c0 : c0 + chunk]
        out[:, c0 : c0 + chunk] = ordered_sum(weights[:, :, None] * block[None, :, :], axis=1)
    return out


def conv3x3(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Zero-padded (pad 1, stride 1) cross-correlation with 3x3 kernels.

    x: C_in x H x W, kernels: C_out x C_in x 3 x 3, bias: C_out; output
    spatial dims equal input dims.
    """
    x, kernels, bias = as_f64(x), as_f64(kernels), as_f64(bias)
    if x.ndim != 3:
        raise ShapeError(f"conv3x3 expects C x H x W input, got {x.shape}")
    if kernels.ndim != 4 or kernels.shape[2:] != (3, 3):
        raise ShapeError(f"conv3x3 kernels must be C_out x C_in x 3 x 3, got {kernels.shape}")
    if kernels.shape[1] != x.shape[0]:
        raise ShapeError(f"conv3x3: input has {x.shape[0]} channels, kernels expect {kernels.shape[1]}")
    if bias.shape != (kernels.shape[0],):
        raise ShapeError(f"conv3x3 bias sized {bias.shape} != C_out {kernels.shape[0]}")
    c_in, h, w = x.shape
    xp = np.zeros((c_in, h + 2, w + 2))
    xp[:, 1 : 1 + h, 1 : 1 + w] = x
    # im2col: 9 shifted views stacked along a patch axis, then one contraction
    cols = np.empty((c_in, 3, 3, h, w))
    for dy in range(3):
        for dx in range(3):
            cols[:, dy, dx] = xp[:, dy : dy + h, dx : dx + w]
    out = np.einsum("oiyx,iyxhw->ohw", kernels, cols, optimize=False)
    return out + bias[:, None, None]


def bilinear_sample(grid: np.ndarray, xy: Sequence[float]) -> np.ndarray:
    """Sample a C x H x W grid at continuous pixel coordinate (u, v).

    u runs along width, v along height. The four nearest pixel centers are
    blended; neighbors outside the grid contribute zeros.
    """
    grid = as_f64(grid)
    if grid.ndim != 3:
        raise ShapeError(f"bilinear_sample expects C x H x W, got {grid.shape}")
    u, v = float(xy[0]), float(xy[1])
    c, h, w = grid.shape
    x0, y0 = int(np.floor(u)), int(np.floor(v))
    fx, fy = u - x0, v - y0
    out = np.zeros(c)
    for (xi, yi, wt) in (
        (x0, y0, (1 - fx) * (1 - fy)),
        (x0 + 1, y0, fx * (1 - fy)),
        (x0, y0 + 1, (1 - fx) * fy),
        (x0 + 1, y0 + 1, fx * fy),
    ):
        if 0 <= xi < w and 0 <= yi < h:
            out += wt * grid[:, yi, xi]
    return out
