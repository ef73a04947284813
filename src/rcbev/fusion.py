"""Cross-modal BEV fusion.

Camera and radar BEV features are first aligned bidirectionally: each modality
forms one query per pixel and samples the other modality at K learned
fractional offsets per head (bilinear, zero-padded), weighted by per-head
softmax attention, in blocks of query pixels on nn's thread pool. Both updates
are residual and computed from the pre-update inputs. The aligned features are
then fused by the radar encoder's residual conv3x3, batch-norm and ReLU stack,
bev.bev_encode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bev import BevGrid, CbrBlockParams, bev_encode, cbr_stack_schema
from .errors import ConfigError, ShapeError
from .nn import as_f64, contract, in_row_blocks, linear, product, softmax, weighted_sum
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


def add_pos_embed(f: BevGrid, e: np.ndarray) -> BevGrid:
    e = as_f64(e)
    if e.shape != f.data.shape:
        raise ShapeError(f"position embedding {e.shape} does not match feature {f.data.shape}")
    return BevGrid(f.data + e, f.spec)


def pixel_centers(h: int, w: int) -> np.ndarray:
    """Default reference points: one (u, v) per pixel, row-major."""
    v, u = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    return np.stack([u.ravel(), v.ravel()], axis=1)


def _sample_pool(flat: np.ndarray, h: int, w: int, uv: np.ndarray, attn: np.ndarray) -> np.ndarray:
    """sum_k attn[q, k] * bilinear(grid, uv[q, k]) with the attention weight
    folded into the four corner weights; flat is the grid in (H*W, C) layout.
    Out-of-grid corners contribute through zeroed weights on clipped indices."""
    u, v = uv[:, :, 0], uv[:, :, 1]
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
        term = weighted_sum(attn * wt * ok, flat[idx])
        acc = term if acc is None else acc + term
    return acc


def _query_rows(cols: np.ndarray, p: DeformAttnParams) -> tuple[np.ndarray, np.ndarray]:
    """The query rows of the C x Q query columns ``cols`` (Q x C, through the
    adapter when there is one) and their attention weights (Q x M x K),
    softmaxed over K per head."""
    z = np.ascontiguousarray(cols.T)
    if p.adapt is not None:
        z = linear(z, *p.adapt)
    return z, softmax(linear(z, p.w_att, p.b_att).reshape(len(z), p.m, p.k))


QUERY_BLOCK = 512  # queries per block: their rows, weights, offsets and samples stay small


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
    Queries run in blocks of at most QUERY_BLOCK, widths differing by at
    most one, each a pure function of its own rows, as jobs on nn's thread
    pool; each writes its own columns of the output. So no H*W-row temporary
    is built beyond the head-projected values, and the bits do not depend on
    the thread count.
    """
    queries, values = as_f64(queries), as_f64(values)
    if queries.ndim != 3 or values.ndim != 3:
        raise ShapeError(f"expected C x H x W arrays, got {queries.shape}, {values.shape}")
    if queries.shape[1:] != values.shape[1:]:
        raise ShapeError(f"query grid {queries.shape} vs value grid {values.shape}")
    cq, h, w = queries.shape
    cv = values.shape[0]
    n = h * w
    if p.adapt is None and cq != cv:
        raise ShapeError(f"query width {cq} != value width {cv} and no adapter configured")
    ref = pixel_centers(h, w) if ref_points is None else as_f64(ref_points)
    if ref.shape != (n, 2):
        raise ShapeError(f"reference points {ref.shape}, expected ({n}, 2)")
    # every head's value projection in one product, channels-last; head m samples its column slice
    flats = np.hsplit(np.ascontiguousarray(product(p.w_val.reshape(-1, cv), values.reshape(cv, n)).T), p.m)
    cols = queries.reshape(cq, n)
    out = np.zeros((cv, n))

    def run(start: int, stop: int) -> None:
        z, attn = _query_rows(cols[:, start:stop], p)
        offsets = linear(z, p.w_off, p.b_off).reshape(stop - start, p.m, p.k, 2)
        for m in range(p.m):
            uv = ref[start:stop, None, :] + offsets[:, m]
            pooled = _sample_pool(flats[m], h, w, uv, attn[:, m])
            out[:, start:stop] += contract(pooled, p.w_out[m]).T

    in_row_blocks(n, QUERY_BLOCK, run)
    return out.reshape(cv, h, w)


def cross_align(f_c: BevGrid, f_r: BevGrid, p: AlignParams) -> tuple[BevGrid, BevGrid]:
    """Bidirectional residual alignment; both updates use pre-update inputs."""
    if f_c.spec != f_r.spec:
        raise ShapeError(f"camera grid {f_c.spec} and radar grid {f_r.spec} differ")
    cam = add_pos_embed(f_c, p.pos_cam)
    rad = add_pos_embed(f_r, p.pos_rad)
    cam_update = deform_attn(rad.data, None, cam.data, p.r2c)
    rad_update = deform_attn(cam.data, None, rad.data, p.c2r)
    # the residual adds, in place on the fresh position-embedded grids
    cam.data += cam_update
    rad.data += rad_update
    return cam, rad


# channel_spatial_fuse(aligned_cam, aligned_rad, blocks) is the encoder's CBR
# stack; the second name only lets perfbench/spans.py time the fuse call apart
channel_spatial_fuse = bev_encode


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
) -> tuple[AlignParams, tuple[CbrBlockParams, ...]]:
    """Ask ``src`` for the alignment and fusion tensors; returns (align, fuse
    blocks), where fuse.res maps the concat width to c_fused."""
    align = AlignParams(
        pos_cam=src.require("align.pos.cam", (c_cam, h, w), INIT_ZEROS),
        pos_rad=src.require("align.pos.rad", (c_rad, h, w), INIT_ZEROS),
        r2c=_deform_schema(src, "align.r2c", c_rad, c_cam, m, k),
        c2r=_deform_schema(src, "align.c2r", c_cam, c_rad, m, k),
    )
    prefixes = ["fuse.res"] + [f"fuse.cbr{i}" for i in range(fuse_blocks)]
    return align, cbr_stack_schema(src, prefixes, c_cam + c_rad, c_fused, eps)
