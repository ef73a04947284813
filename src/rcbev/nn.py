"""Minimal numerical-layer toolkit: dense layers, norms, softmax, pooling
and 3x3 convolution.

All arithmetic is float64 and no contraction reaches BLAS: each is one of
three kernels, the only np.einsum(optimize=False) calls outside the oracles.
contract(x, w) = x·wᵀ serves the linear layers and the DMSA logits,
product(a, b) = a·b the conv, attend, 1x1 skip and deformable value
projection, and weighted_sum(w, v) the deformable sampler. With two or more
row-major right-operand columns, product and weighted_sum are left folds,
0.0 + t0 + t1 + ... with one IEEE multiply and add per term; contract, a
one-column product and the row reductions (softmax, layer_norm) sum in an
order numpy picks. Attention callers gather keys in one canonical order
(key_order), so they are bit-identical under row permutations as well.

conv3x3, attend and softmax split their work into disjoint blocks (output
pixels, or rows) and run them through in_row_blocks, the one place that
starts threads: one per usable CPU (numpy releases the GIL), each block
writing its own part of an output allocated before any thread starts and
holding any temporaries of its own. A block that calls in_row_blocks again runs
those blocks on its own thread, so no more threads than CPUs are ever alive.
Each output element is computed by the same operations in the same order
whichever block holds it, so the bits do not depend on the thread count.
conv3x3 computes only the pixels whose window is not all background (its
docstring); batch_norm_2d and softmax can write in place.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DataError, EmptyInputError, ShapeError, require_finite

DEFAULT_EPS = 1e-5


def as_f64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def key_order(*cols: np.ndarray) -> np.ndarray:
    """Row permutation that lexsorts the rows of the N x C_i arrays ``cols``,
    side by side, by their float64 bit patterns.

    Two rows tie only when they are bit-identical, so gathering rows in this
    order gives bit-identical arrays for any permutation of the input rows.
    """
    rows = np.concatenate([as_f64(c) for c in cols], axis=1)
    return np.lexsort(rows.view(np.int64).T)


def contract(x: np.ndarray, w: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """x·wᵀ over the last axis of x, into ``out`` when given; not a left fold."""
    return np.einsum("...j,kj->...k", x, w, out=out, optimize=False)


def product(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """a·b, into ``out`` when given; a left fold over j if b has two or more
    row-major columns (C-contiguous, or a column slice of such an array)."""
    return np.einsum("ij,jc->ic", a, b, out=out, optimize=False)


def weighted_sum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """out[q, c] = sum_k w[q, k] v[q, k, c]; a left fold over k when v has two
    or more row-major columns along its last axis, as for product."""
    return np.einsum("qk,qkc->qc", w, v, optimize=False)


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
        require_finite(eps=self.eps)
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


def batch_norm_2d(x: np.ndarray, p: NormParams, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Inference batch norm over a C x H x W array using stored statistics,
    ((x - mean) * inv_std) * scale + shift, into ``out`` when given (x itself
    for an in-place update), else into one new array."""
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
    y = np.subtract(x, as_f64(p.mean)[:, None, None], out=out)
    y *= inv[:, None, None]
    y *= as_f64(p.scale)[:, None, None]
    y += as_f64(p.shift)[:, None, None]
    return y


def softmax(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Max-subtracted softmax over the last axis; each denominator sums its
    row in the given order. Writes into ``out`` when given (x itself for an
    in-place update; C-contiguous, shaped like x), else into one new array.
    The rows of all leading axes run in blocks (in_attn_blocks)."""
    x = as_f64(x)
    out = np.empty(x.shape) if out is None else out
    if out.shape != x.shape or not out.flags.c_contiguous:
        raise ShapeError(f"softmax out {out.shape} must be a C-contiguous {x.shape} array")
    rows, dest = x.reshape(-1, x.shape[-1]), out.reshape(-1, x.shape[-1])

    def run(start: int, stop: int) -> None:
        block, e = rows[start:stop], dest[start:stop]
        peak = block.max(axis=1, keepdims=True)
        # a NaN or +inf reaches its row's max, a -inf the min (0.0 for no rows)
        if not (np.all(np.isfinite(peak)) and np.isfinite(block.min(initial=0.0))):
            raise DataError("softmax input contains non-finite values")
        np.subtract(block, peak, out=e)
        np.exp(e, out=e)
        e /= e.sum(axis=1, keepdims=True)

    in_attn_blocks(len(rows), rows.shape[1], run)
    return out


def max_pool_points(x: np.ndarray) -> np.ndarray:
    """Column-wise max over N points; invariant under any row permutation."""
    x = as_f64(x)
    if x.ndim != 2:
        raise ShapeError(f"max_pool_points expects N x C, got {x.shape}")
    if x.shape[0] == 0:
        raise EmptyInputError("max_pool_points requires at least one point")
    return x.max(axis=0)


def attend(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Attention contraction out[i, c] = sum_j w[i, j] v[j, c], one product
    per block of query rows (in_attn_blocks): a left fold over the keys j in
    the given order when values has two or more row-major columns; with one
    column numpy picks the order, the same in every block. Callers that need
    permutation equivariance pass keys in key_order."""
    weights, values = as_f64(weights), as_f64(values)
    if weights.ndim != 2 or values.ndim != 2 or weights.shape[1] != values.shape[0]:
        raise ShapeError(f"attend: weights {weights.shape} vs values {values.shape}")
    out = np.empty((len(weights), values.shape[1]))

    def run(start: int, stop: int) -> None:
        product(weights[start:stop], values, out=out[start:stop])

    in_attn_blocks(len(weights), weights.shape[1], run)
    return out


CONV_BLOCK = 128  # output pixels per im2col block: C_in * 9 * 128 floats, 1.2 MB at C_in = 128
ATTN_BLOCK = 1 << 16  # entries per attention block: 512 KB, 75 rows of 864 logits


def _workers() -> int:
    """Threads a pool may run on: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_pool = threading.local()  # _pool.busy: this thread is running pool jobs


def in_row_blocks(n: int, size: int, run: Callable[[int, int], None]) -> None:
    """run(start, stop) for each of as few disjoint blocks as cover range(n)
    with at most ``size`` rows each, widths differing by at most one, so none
    is narrower than size / 2 once n > size (product would reduce a one-pixel
    conv block in another order). The blocks run on min(_workers(), blocks)
    threads, the caller's among them, each taking the next block as it
    finishes one; called from inside a block, every block runs on that
    block's thread. Once a block raises, no thread starts another, and the
    first exception is raised here once every thread has joined."""
    blocks = -(-n // size)
    lock = threading.Lock()
    taken = [0]
    errors: list[BaseException] = []
    nested = getattr(_pool, "busy", False)

    def worker() -> None:
        _pool.busy = True
        try:
            while True:
                with lock:
                    j = taken[0]
                    taken[0] += 1
                if j >= blocks or errors:
                    return
                run(n * j // blocks, n * (j + 1) // blocks)
        except BaseException as exc:  # re-raised in the caller once every thread has joined
            errors.append(exc)
        finally:
            _pool.busy = nested

    threads = []
    try:
        for _ in range(1, 1 if nested else min(_workers(), blocks)):
            threads.append(threading.Thread(target=worker))
            threads[-1].start()
        worker()
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def in_attn_blocks(n: int, entries: int, run: Callable[[int, int], None]) -> None:
    """run(start, stop) on the pool for blocks of the n rows of an attention
    matrix with ``entries`` entries a row, each block at most ATTN_BLOCK
    entries (at least one row), so its logits stay in cache. A matrix of at
    most ATTN_BLOCK entries is one block, run on the calling thread: at that
    size a second thread costs more than it saves."""
    in_row_blocks(n, max(1, ATTN_BLOCK // max(entries, 1)), run)


def _conv_reach(live: np.ndarray) -> np.ndarray:
    """The H x W pixels whose 3x3 window meets a ``live`` pixel or the zero
    padding: the only pixels where a conv3x3 output can differ from the
    output over an all-background window."""
    h, w = live.shape
    padded = np.ones((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = live
    reach = np.zeros((h, w), dtype=bool)
    for dy in range(3):
        for dx in range(3):
            reach |= padded[dy : dy + h, dx : dx + w]
    return reach


def _conv_pixels(x: np.ndarray) -> tuple[np.ndarray, Optional[int]]:
    """The flat pixels conv3x3 computes, and the position among them of the
    background pixel whose output every other pixel takes (None when every
    pixel is computed)."""
    c, h, w = x.shape
    # bit patterns, so -0.0 is not +0.0; equal pixels have equal (wrapping)
    # sums, and a sum shared by unequal pixels only costs computed pixels
    bits = x.reshape(c, h * w).view(np.int64)
    _, first, counts = np.unique(bits.sum(axis=0), return_index=True, return_counts=True)
    nominee = first[np.argmax(counts)]
    live = np.zeros(h * w, dtype=bool)
    for row in bits:  # a channel at a time: a C x H x W bool temporary raised extract's peak RSS 4.7%
        live |= row != row[nominee]
    reach = _conv_reach(live.reshape(h, w)).reshape(h * w)
    background = np.flatnonzero(~reach)
    if not background.size:
        return np.arange(h * w), None
    reach[background[0]] = True
    pixels = np.flatnonzero(reach)
    return pixels, int(np.searchsorted(pixels, background[0]))


def conv3x3(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Zero-padded (pad 1, stride 1) cross-correlation with 3x3 kernels.

    x: C_in x H x W, kernels: C_out x C_in x 3 x 3, bias: C_out; output
    spatial dims equal input dims.

    im2col runs on disjoint blocks of at most CONV_BLOCK output pixels, each
    gathered from the unpadded input, with its out-of-grid taps zeroed, and
    contracted by one product. An output pixel folds its C_in * 9 products
    in (c_in, dy, dx) order whichever block holds it, so the result is
    bit-identical to a whole-grid im2col. The blocks run on in_row_blocks'
    pool; each gathers its own patch and writes its columns of the output.

    The input nominates its own background: the first pixel whose bit
    patterns, summed over channels, give the most common sum. Pixels equal to
    it in every channel, by bits, are background, and pixels whose window is
    all background take one computed output; only the others are computed.
    The nominee moves only how many pixels are computed, never the bits: an
    input with no common background is computed densely.
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
    c_out = kernels.shape[0]
    pixels, background = _conv_pixels(x)
    flat_x = x.reshape(c_in, h * w)
    flat_kernels = kernels.reshape(c_out, c_in * 9)
    n = len(pixels)
    out = np.empty((c_out, n))
    shift = np.arange(-1, 2)

    def run(start: int, stop: int) -> None:
        # each pixel's 9 taps, rows ordered (dy, dx) and so patch rows (c_in, dy, dx) like kernels
        py, px = np.divmod(pixels[start:stop], w)
        ty, tx = py + shift[:, None, None], px + shift[None, :, None]
        inside = (ty >= 0) & (ty < h) & (tx >= 0) & (tx < w)
        cols = np.take(flat_x, np.clip(ty, 0, h - 1) * w + np.clip(tx, 0, w - 1), axis=1)
        if not inside.all():
            cols[:, ~inside] = 0.0
        product(flat_kernels, cols.reshape(c_in * 9, -1), out=out[:, start:stop])

    in_row_blocks(n, CONV_BLOCK, run)
    out += bias[:, None]
    if background is not None:
        full = np.repeat(out[:, background : background + 1], h * w, axis=1)
        full[:, pixels] = out
        out = full
    return out.reshape(c_out, h, w)
