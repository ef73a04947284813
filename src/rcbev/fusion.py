"""Cross-modal BEV fusion.

Camera and radar BEV features are first aligned bidirectionally: each modality
forms one query per pixel and samples the other modality at K learned
fractional offsets per head (bilinear, zero-padded), weighted by per-head
softmax attention. Both updates are residual and computed from the pre-update
inputs. The aligned features are then concatenated and fused by residual
conv3x3 + batch-norm + ReLU blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bev import BevGrid, CbrBlockParams, cbr_residual, cbr_schema
from .errors import ConfigError, ShapeError
from .nn import as_f64, contract, softmax
from .weights import TensorSource, INIT_GLOROT, INIT_ZEROS, linear_schema


@dataclass(frozen=True)
class DeformAttnParams:
    """Projections for multi-head deformable cross-attention.

    adapt maps the query stream to the value stream's width when they differ.
    w_off emits 2*M*K pixel offsets, w_att M*K logits (softmaxed over K per
    head), w_val stacks the per-head value projections (M x d x C_v) and
    w_out the per-head output projections (M x C_v x d).
    """

    m: int
    k: int
    w_off: np.ndarray
    b_off: np.ndarray
    w_att: np.ndarray
    b_att: np.ndarray
    w_val: np.ndarray
    w_out: np.ndarray
    adapt: Optional[tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        if self.m < 1 or self.k < 1:
            raise ConfigError(f"deformable attention needs M, K >= 1, got {self.m}, {self.k}")
        if self.w_off.shape[0] != 2 * self.m * self.k:
            raise ShapeError(f"offset projection rows {self.w_off.shape[0]} != 2*M*K")
        if self.w_att.shape[0] != self.m * self.k:
            raise ShapeError(f"attention projection rows {self.w_att.shape[0]} != M*K")
        if self.w_val.shape[0] != self.m or self.w_out.shape[0] != self.m:
            raise ShapeError("per-head projection stacks must have M entries")


@dataclass(frozen=True)
class AlignParams:
    pos_cam: np.ndarray  # C_c x H x W learnable embedding
    pos_rad: np.ndarray  # C_r x H x W
    r2c: DeformAttnParams  # radar queries update the camera feature
    c2r: DeformAttnParams  # camera queries update the radar feature


@dataclass(frozen=True)
class FuseParams:
    res: CbrBlockParams
    blocks: tuple[CbrBlockParams, ...]


def add_pos_embed(f: BevGrid, e: np.ndarray) -> BevGrid:
    e = as_f64(e)
    if e.shape != f.data.shape:
        raise ShapeError(f"position embedding {e.shape} does not match feature {f.data.shape}")
    return BevGrid(f.data + e, f.spec)


def pixel_centers(h: int, w: int) -> np.ndarray:
    """Default reference points: one (u, v) per pixel, row-major."""
    v, u = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    return np.stack([u.ravel(), v.ravel()], axis=1)


def _sample_pool(
    flat: np.ndarray, h: int, w: int, uv: np.ndarray, attn: np.ndarray, chunk: int = 2048
) -> np.ndarray:
    """sum_k attn[q, k] * bilinear(grid, uv[q, k]) with the attention weight
    folded into the four corner weights; flat is the grid in (H*W, C) layout.
    Out-of-grid corners contribute through zeroed weights on clipped indices."""
    n, k, _ = uv.shape
    out = np.empty((n, flat.shape[1]))
    for s in range(0, n, chunk):
        u, v = uv[s : s + chunk, :, 0], uv[s : s + chunk, :, 1]
        a = attn[s : s + chunk]
        x0 = np.floor(u).astype(np.int64)
        y0 = np.floor(v).astype(np.int64)
        fx, fy = u - x0, v - y0
        acc = None
        for xi, yi, wt in (
            (x0, y0, (1 - fx) * (1 - fy)),
            (x0 + 1, y0, fx * (1 - fy)),
            (x0, y0 + 1, (1 - fx) * fy),
            (x0 + 1, y0 + 1, fx * fy),
        ):
            ok = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            idx = np.clip(yi, 0, h - 1) * w + np.clip(xi, 0, w - 1)
            factor = a * wt * ok
            term = np.einsum("qk,qkc->qc", factor, flat[idx], optimize=False)
            acc = term if acc is None else acc + term
        out[s : s + chunk] = acc
    return out


def deform_attn_weights(queries: np.ndarray, p: DeformAttnParams) -> np.ndarray:
    """Per-query attention weights (H*W x M x K), softmaxed over K per head."""
    queries = as_f64(queries)
    cq, h, w = queries.shape
    z = np.ascontiguousarray(queries.reshape(cq, h * w).T)
    if p.adapt is not None:
        z = contract(z, p.adapt[0]) + p.adapt[1]
    logits = (contract(z, p.w_att) + p.b_att).reshape(h * w, p.m, p.k)
    return softmax(logits, axis=2)


def deform_attn(
    queries: np.ndarray,
    ref_points: Optional[np.ndarray],
    values: np.ndarray,
    p: DeformAttnParams,
) -> np.ndarray:
    """One query per pixel of ``queries`` samples ``values`` at K offset
    locations per head; outputs sum over heads (C_v x H x W).

    Per head the K attention weights are a softmax of query-projected logits,
    offsets are query-projected pixel displacements, and sampling is
    zero-padded bilinear interpolation of the head-projected value grid.
    """
    queries, values = as_f64(queries), as_f64(values)
    if queries.ndim != 3 or values.ndim != 3:
        raise ShapeError(f"expected C x H x W arrays, got {queries.shape}, {values.shape}")
    if queries.shape[1:] != values.shape[1:]:
        raise ShapeError(f"query grid {queries.shape} vs value grid {values.shape}")
    cq, h, w = queries.shape
    cv = values.shape[0]
    n = h * w
    z = np.ascontiguousarray(queries.reshape(cq, n).T)
    if p.adapt is not None:
        z = contract(z, p.adapt[0]) + p.adapt[1]
    elif cq != cv:
        raise ShapeError(f"query width {cq} != value width {cv} and no adapter configured")
    ref = pixel_centers(h, w) if ref_points is None else as_f64(ref_points)
    if ref.shape != (n, 2):
        raise ShapeError(f"reference points {ref.shape}, expected ({n}, 2)")
    # head-projected value grids in channels-last layout; queries are then
    # processed in blocks so per-block temporaries stay cache-resident
    flats = [
        np.ascontiguousarray(
            np.einsum("dc,chw->dhw", p.w_val[m], values, optimize=False).transpose(1, 2, 0)
        ).reshape(n, -1)
        for m in range(p.m)
    ]
    out = np.zeros((n, cv))
    block = 2048
    for s in range(0, n, block):
        e = min(s + block, n)
        zc = z[s:e]
        offsets = (contract(zc, p.w_off) + p.b_off).reshape(e - s, p.m, p.k, 2)
        logits = (contract(zc, p.w_att) + p.b_att).reshape(e - s, p.m, p.k)
        attn = softmax(logits, axis=2)
        refc = ref[s:e]
        for m in range(p.m):
            uv = refc[:, None, :] + offsets[:, m]
            pooled = _sample_pool(flats[m], h, w, uv, attn[:, m], chunk=block)
            out[s:e] += contract(pooled, p.w_out[m])
    return out.T.reshape(cv, h, w)


def cross_align(f_c: BevGrid, f_r: BevGrid, p: AlignParams) -> tuple[BevGrid, BevGrid]:
    """Bidirectional residual alignment; both updates use pre-update inputs."""
    if (f_c.spec.h, f_c.spec.w) != (f_r.spec.h, f_r.spec.w):
        raise ShapeError(
            f"camera grid {f_c.data.shape} and radar grid {f_r.data.shape} sizes differ"
        )
    cam = add_pos_embed(f_c, p.pos_cam)
    rad = add_pos_embed(f_r, p.pos_rad)
    cam_update = deform_attn(rad.data, None, cam.data, p.r2c)
    rad_update = deform_attn(cam.data, None, rad.data, p.c2r)
    return (
        BevGrid(cam.data + cam_update, f_c.spec),
        BevGrid(rad.data + rad_update, f_r.spec),
    )


def channel_spatial_fuse(f_c: BevGrid, f_r: BevGrid, p: FuseParams) -> BevGrid:
    """Concat aligned features, one residual CBR block (1x1-projected skip when
    channels change), then the trailing residual CBR blocks."""
    if f_c.spec != f_r.spec:
        raise ShapeError("fusion inputs have different grid specs")
    x = np.concatenate([f_c.data, f_r.data], axis=0)
    y = cbr_residual(x, p.res)
    for block in p.blocks:
        y = cbr_residual(y, block)
    return BevGrid(y, f_c.spec)


# ---------------------------------------------------------------------------
# parameter schema: align.pos.*, align.r2c.*, align.c2r.*, fuse.*
# ---------------------------------------------------------------------------

def _deform_schema(src: TensorSource, prefix: str, c_query: int, c_value: int, m: int, k: int) -> DeformAttnParams:
    if c_value % m:
        raise ConfigError(f"value channels {c_value} not divisible by {m} heads")
    d = c_value // m
    adapt = linear_schema(src, f"{prefix}.adapt", c_value, c_query) if c_query != c_value else None
    w_off, b_off = linear_schema(src, f"{prefix}.off", 2 * m * k, c_value)
    w_att, b_att = linear_schema(src, f"{prefix}.att", m * k, c_value)
    return DeformAttnParams(
        m, k, w_off, b_off, w_att, b_att,
        w_val=src.require(f"{prefix}.val.w", (m, d, c_value), INIT_GLOROT),
        w_out=src.require(f"{prefix}.out.w", (m, c_value, d), INIT_GLOROT),
        adapt=adapt,
    )


def fusion_schema(
    src: TensorSource,
    c_cam: int,
    c_rad: int,
    h: int,
    w: int,
    m: int,
    k: int,
    c_fused: int,
    fuse_blocks: int,
    eps: float,
) -> tuple[AlignParams, FuseParams]:
    """Ask ``src`` for the alignment and fusion tensors; returns (align, fuse)."""
    align = AlignParams(
        pos_cam=src.require("align.pos.cam", (c_cam, h, w), INIT_ZEROS),
        pos_rad=src.require("align.pos.rad", (c_rad, h, w), INIT_ZEROS),
        r2c=_deform_schema(src, "align.r2c", c_rad, c_cam, m, k),
        c2r=_deform_schema(src, "align.c2r", c_cam, c_rad, m, k),
    )
    res = cbr_schema(src, "fuse.res", c_cam + c_rad, c_fused, eps)
    blocks = tuple(cbr_schema(src, f"fuse.cbr{i}", c_fused, c_fused, eps) for i in range(fuse_blocks))
    return align, FuseParams(res, blocks)
