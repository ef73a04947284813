"""Reference implementations that the selfcheck suite, the tests and the
scaling bench compare the kernels against.

Everything here is written as plain loops, math.fsum or textbook formulas,
independent of the vectorized kernels it cross-checks, so every comparison is
a genuine dual-route check. whole_grid_conv3x3 is the one bit-exact reference:
a dense im2col that sums each output in the order conv3x3 does.
"""

from __future__ import annotations

import math

import numpy as np


def loop_matmul(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y[i, o] = sum_j w[o, j] x[i, j] + b[o], accumulated with fsum."""
    n, cin = x.shape
    cout = w.shape[0]
    out = np.zeros((n, cout))
    for i in range(n):
        for o in range(cout):
            out[i, o] = b[o] + math.fsum(w[o, j] * x[i, j] for j in range(cin))
    return out


def loop_conv3x3(x: np.ndarray, k: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 cross-correlation, each output accumulated with fsum."""
    c_in, h, w = x.shape
    c_out = k.shape[0]
    out = np.zeros((c_out, h, w))
    for o in range(c_out):
        for y in range(h):
            for col in range(w):
                terms = []
                for i in range(c_in):
                    for dy in range(-1, 2):
                        for dx in range(-1, 2):
                            yy, xx = y + dy, col + dx
                            if 0 <= yy < h and 0 <= xx < w:
                                terms.append(k[o, i, dy + 1, dx + 1] * x[i, yy, xx])
                out[o, y, col] = b[o] + math.fsum(terms)
    return out


def whole_grid_conv3x3(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 cross-correlation as one whole-grid im2col contraction,
    every output pixel computed: the bit pattern conv3x3 must reproduce."""
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


def softmax_rows(m: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` in one whole-array pass."""
    e = np.exp(m - m.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def dense_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Scaled dot-product attention, textbook form."""
    return softmax_rows(q @ k.T / math.sqrt(q.shape[1])) @ v


def dense_cross_attention_grid(
    z: np.ndarray, kv: np.ndarray, wq: np.ndarray, wk: np.ndarray, wv: np.ndarray, block: int = 1024
) -> np.ndarray:
    """Vanilla dense cross-attention over all pixel pairs (the O(H^2 W^2 C)
    comparator of the scaling bench), row-blocked to bound memory."""
    q, k, v = z @ wq.T, kv @ wk.T, kv @ wv.T
    return np.concatenate([dense_attention(q[i0 : i0 + block], k, v) for i0 in range(0, len(q), block)])


def split_heads(heads: int, *stacked: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """One tuple per head of its rows of each head-major stacked projection."""
    return list(zip(*(np.split(w, heads) for w in stacked)))


def dense_mha(f: np.ndarray, heads, wo: np.ndarray, bo: np.ndarray) -> np.ndarray:
    """heads: list of (wq, wk, wv) with d x C projections."""
    parts = [dense_attention(f @ wq.T, f @ wk.T, f @ wv.T) for wq, wk, wv in heads]
    return np.concatenate(parts, axis=1) @ wo.T + bo


def pairwise_sq_dist(coords: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances in the BEV plane, dx * dx + dy * dy, the
    operations dmsa_weights applies per block; symmetric zero-diagonal."""
    coords = np.asarray(coords, dtype=np.float64)
    dx = coords[:, 0][:, None] - coords[:, 0][None, :]
    dy = coords[:, 1][:, None] - coords[:, 1][None, :]
    return dx * dx + dy * dy


def dmsa_reference(f: np.ndarray, coords: np.ndarray, heads_with_beta, wo: np.ndarray, bo: np.ndarray) -> np.ndarray:
    """Distance-penalized attention straight from the formula."""
    n = f.shape[0]
    d2 = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d2[i, j] = (coords[i, 0] - coords[j, 0]) ** 2 + (coords[i, 1] - coords[j, 1]) ** 2
    parts = []
    for wq, wk, wv, beta in heads_with_beta:
        q, k, v = f @ wq.T, f @ wk.T, f @ wv.T
        logits = q @ k.T / math.sqrt(q.shape[1]) - beta * d2
        parts.append(softmax_rows(logits) @ v)
    return np.concatenate(parts, axis=1) @ wo.T + bo


def scatter_reference(features: np.ndarray, pixels: np.ndarray, radii: np.ndarray, h: int, w: int) -> np.ndarray:
    """For every pixel, test every point's predicate in canonical point order
    and accumulate sequentially (same order as the implementation)."""
    n, c = features.shape
    grid = np.zeros((c, h, w))
    px = pixels[:, 0].astype(np.int64)
    py = pixels[:, 1].astype(np.int64)
    r2 = radii * radii
    for qy in range(h):
        dy2 = (qy - py).astype(np.float64) ** 2
        for qx in range(w):
            dx = (qx - px).astype(np.float64)
            d2 = dx * dx + dy2
            hit = (d2 < r2) | ((px == qx) & (py == qy))
            idxs = np.nonzero(hit)[0]
            if idxs.size == 0:
                continue
            acc = np.zeros(c)
            for i in idxs:
                acc += features[i]
            grid[:, qy, qx] = acc
    return grid


def gaussian_value(q_xy, p_xy, c_uv, v_rcs: float) -> float:
    """Direct scalar evaluation of one point's Gaussian BEV weight at pixel q."""
    denom = (c_uv[0] * c_uv[0] + c_uv[1] * c_uv[1]) * v_rcs / 3.0
    if denom < 1e-9:
        return 1.0 if tuple(q_xy) == tuple(p_xy) else 0.0
    d2 = (q_xy[0] - p_xy[0]) ** 2 + (q_xy[1] - p_xy[1]) ** 2
    return math.exp(-d2 / denom)


def bilinear_point(grid: np.ndarray, u: float, v: float) -> np.ndarray:
    """Zero-padded bilinear interpolation written pointwise."""
    c, h, w = grid.shape
    x0, y0 = math.floor(u), math.floor(v)
    fx, fy = u - x0, v - y0
    total = np.zeros(c)
    for xi, yi, wt in (
        (x0, y0, (1 - fx) * (1 - fy)),
        (x0 + 1, y0, fx * (1 - fy)),
        (x0, y0 + 1, (1 - fx) * fy),
        (x0 + 1, y0 + 1, fx * fy),
    ):
        if 0 <= xi < w and 0 <= yi < h:
            total = total + wt * grid[:, yi, xi]
    return total


def deform_reference(queries, values, w_off, b_off, w_att, b_att, w_val, w_out, adapt=None) -> np.ndarray:
    """Nested-loop evaluation of deformable cross-attention with reference
    points at pixel centers: sample the raw grid, then project per head."""
    cv, h, w = values.shape
    m, d, _ = w_val.shape
    k = w_att.shape[0] // m
    out = np.zeros((cv, h, w))
    for qy in range(h):
        for qx in range(w):
            z = queries[:, qy, qx]
            if adapt is not None:
                z = adapt[0] @ z + adapt[1]
            offs = (w_off @ z + b_off).reshape(m, k, 2)
            logits = (w_att @ z + b_att).reshape(m, k)
            total = np.zeros(cv)
            for mi in range(m):
                a = softmax_rows(logits[mi][None, :])[0]
                head = np.zeros(d)
                for ki in range(k):
                    u = qx + offs[mi, ki, 0]
                    v = qy + offs[mi, ki, 1]
                    head = head + a[ki] * (w_val[mi] @ bilinear_point(values, u, v))
                total = total + w_out[mi] @ head
            out[:, qy, qx] = total
    return out


def fsum_all(arr) -> float:
    """Exactly rounded total, independent of element order."""
    return math.fsum(np.asarray(arr, dtype=np.float64).ravel().tolist())
