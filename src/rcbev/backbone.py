"""Dual-stream radar point backbone.

A point-wise stream (per-point MLP blocks with global max-pool context) runs
next to a transformer stream whose self-attention logits are penalized by
beta * squared BEV distance, so each head can shrink its receptive field to
nearby points. The streams exchange information every stage through gated
cross-attention (inject) and cross-attention + feed-forward (extract), and are
merged by a final linear layer. Cross-attention is the DMSA per-head body
without the distance term: both run through one multi-head path over one
params type, MultiHeadDmsaParams, whose stacked projections take one
contraction per operand. PipelineConfig holds and checks the sizes.

Both attentions gather their keys in one canonical order (nn.key_order) and
reduce them in that order; queries keep their input order and every query row
is computed on its own. So all ops here are exactly equivariant under point
permutations: a permuted input reaches every reduction with bit-identical keys.
Because rows are independent, each head runs in blocks of query rows on nn's
thread pool, with the bits of one whole-matrix pass (dmsa_weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, EmptyInputError, ShapeError
from .ingest import CSV_COLUMNS, PointFeatureSet
from .nn import (
    MlpLayer,
    MlpParams,
    NormParams,
    as_f64,
    attend,
    contract,
    in_attn_blocks,
    key_order,
    layer_norm,
    linear,
    max_pool_points,
    mlp,
    softmax,
)
from .weights import (
    INIT_GLOROT,
    INIT_ONES,
    INIT_ZEROS,
    TensorSource,
    linear_schema,
)


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------

Coords = tuple[np.ndarray, np.ndarray]  # (query, key) BEV coordinates, N x 2 each


@dataclass(frozen=True)
class MultiHeadDmsaParams:
    """Stacked projections of H heads: wq, wk, wv are C x C with rows
    head-major, so head h owns rows h*d:(h+1)*d (d = C / H); beta holds each
    head's distance gate, 0.0 for cross-attention, and its length is H; wo, bo
    project the concatenated heads."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    beta: tuple[float, ...]
    wo: np.ndarray  # C x C over concatenated heads
    bo: np.ndarray

    def __post_init__(self):
        c, h = self.wo.shape[1], len(self.beta)
        if not h or c % h:
            raise ConfigError(f"{h} heads do not tile C={c}")
        bad = [f"{n} {getattr(self, n).shape}" for n in ("wq", "wk", "wv") if getattr(self, n).shape != (c, c)]
        if bad:
            raise ConfigError(f"projections {', '.join(bad)} are not C x C for C={c}")


@dataclass(frozen=True)
class CrossAttnParams:
    lnq: NormParams
    lnkv: NormParams
    attn: MultiHeadDmsaParams  # every beta 0.0


@dataclass(frozen=True)
class TransformerBlockParams:
    ln1: NormParams
    attn: MultiHeadDmsaParams
    ln2: NormParams
    ffn: MlpParams


@dataclass(frozen=True)
class InjectionParams:
    attn: CrossAttnParams
    gamma: np.ndarray  # per-channel gate


@dataclass(frozen=True)
class ExtractionParams:
    attn: CrossAttnParams
    ffn_ln: NormParams
    ffn: MlpParams


@dataclass(frozen=True)
class StageParams:
    point_mlp: MlpParams
    tf_in: Optional[tuple[np.ndarray, np.ndarray]]  # width adapter (w, b) or None
    tf: TransformerBlockParams
    inject: InjectionParams
    extract: ExtractionParams


@dataclass(frozen=True)
class BackboneParams:
    stages: tuple[StageParams, ...]
    merge_w: np.ndarray  # C_S x 2*C_S
    merge_b: np.ndarray


@dataclass(frozen=True)
class BackboneResult:
    f_p: np.ndarray
    f_t: np.ndarray
    fused: np.ndarray


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def point_block(f: np.ndarray, p: MlpParams) -> np.ndarray:
    """Per-point MLP followed by a global max-pool concatenated back to every
    row; output width doubles the MLP width."""
    f = as_f64(f)
    if f.ndim != 2:
        raise ShapeError(f"point_block expects N x C input, got {f.shape}")
    if f.shape[0] == 0:
        raise EmptyInputError("point_block requires at least one point")
    g = mlp(f, p)
    pooled = max_pool_points(g)
    return np.concatenate([g, np.broadcast_to(pooled, g.shape)], axis=1)


def dmsa_weights(q: np.ndarray, k: np.ndarray, xy: Optional[Coords], beta: float) -> np.ndarray:
    """Row-stochastic softmax(QK^T / sqrt(d) - beta * D^2) over the rows of k,
    where D^2[i, j] = dx * dx + dy * dy from the query coordinates xy[0][i]
    to the key coordinates xy[1][j]; xy None leaves out the distance term.

    The logits are filled one block of query rows at a time, on nn's pool
    (nn.in_attn_blocks), so no N x N distance matrix is built, then
    softmaxed in place."""
    q, k = as_f64(q), as_f64(k)
    n, d = q.shape
    shapes = None if xy is None else tuple(np.shape(c) for c in xy)
    if k.shape != (n, d) or shapes not in (None, ((n, 2), (n, 2))):
        raise ShapeError(f"dmsa shapes disagree: q {q.shape}, k {k.shape}, coords {shapes}")
    if xy is not None:
        (qx, qy), (kx, ky) = (as_f64(c).T for c in xy)
    logits = np.empty((n, n))
    scale = math.sqrt(d)

    def run(start: int, stop: int) -> None:
        rows = logits[start:stop]
        contract(q[start:stop], k, out=rows)
        rows /= scale
        if xy is not None:
            d2 = qx[start:stop, None] - kx
            d2 *= d2
            dy = qy[start:stop, None] - ky
            dy *= dy
            d2 += dy
            d2 *= beta
            rows -= d2

    in_attn_blocks(n, n, run)
    return softmax(logits, out=logits)


def dmsa_head(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, xy: Optional[Coords], beta: float
) -> np.ndarray:
    """Softmax(QK^T / sqrt(d) - beta * D^2) V, with keys reduced in the given
    order (rows of k and v, and of the key coordinates xy[1]); xy None is
    plain scaled dot-product attention.

    The subtracted-logit form equals modulating with the Gaussian weight map
    exp(-D^2 * beta) in log space; beta = 0 reduces to vanilla attention.
    """
    if beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta}")
    v = as_f64(v)
    if v.shape[0] != q.shape[0]:
        raise ShapeError(f"values rows {v.shape} do not match queries {q.shape}")
    return attend(dmsa_weights(q, k, xy, beta), v)


def _multi_head(
    xq: np.ndarray, xkv: np.ndarray, p: MultiHeadDmsaParams, xy: Optional[Coords] = None
) -> np.ndarray:
    """The heads of p over the queries xq and the keys/values xkv (rows in
    key order): one contraction per operand projects every head at once, and
    head h runs dmsa_head on its columns h*d:(h+1)*d; the head outputs are
    concatenated and projected by (p.wo, p.bo). DMSA passes the query and key
    coordinates xy; cross-attention passes none."""
    q, k, v = contract(xq, p.wq), contract(xkv, p.wk), contract(xkv, p.wv)
    d = q.shape[1] // len(p.beta)
    heads = [slice(h * d, (h + 1) * d) for h in range(len(p.beta))]
    outs = [dmsa_head(q[:, s], k[:, s], v[:, s], xy, beta) for s, beta in zip(heads, p.beta)]
    return linear(np.concatenate(outs, axis=1), p.wo, p.bo)


def multi_head_dmsa(f: np.ndarray, coords: np.ndarray, p: MultiHeadDmsaParams) -> np.ndarray:
    """Per-head projections and distance penalties, concatenated then projected.
    Keys are taken in key_order(f, coords); queries keep the input order."""
    f = as_f64(f)
    c = f.shape[1]
    if p.wo.shape[1] != c:
        raise ConfigError(f"attention configured for C={p.wo.shape[1]}, input has C={c}")
    order = key_order(f, coords)
    return _multi_head(f, f[order], p, (coords, as_f64(coords)[order]))


def transformer_block(f: np.ndarray, coords: np.ndarray, p: TransformerBlockParams) -> np.ndarray:
    """Pre-norm residual block: f + Attn(LN(f)), then + FFN(LN(.))."""
    f = as_f64(f)
    y = f + multi_head_dmsa(layer_norm(f, p.ln1), coords, p.attn)
    return y + mlp(layer_norm(y, p.ln2), p.ffn)


def cross_attention(q_in: np.ndarray, kv_in: np.ndarray, p: CrossAttnParams) -> np.ndarray:
    """Dense multi-head cross-attention with layer-normed operands: the DMSA
    heads without the distance term. Keys are taken in key_order(kv_in),
    queries keep the input order."""
    q_in, kv_in = as_f64(q_in), as_f64(kv_in)
    if q_in.shape != kv_in.shape:
        raise ShapeError(f"cross_attention operands differ: {q_in.shape} vs {kv_in.shape}")
    return _multi_head(layer_norm(q_in, p.lnq), layer_norm(kv_in[key_order(kv_in)], p.lnkv), p.attn)


def inject(f_p: np.ndarray, f_t: np.ndarray, p: InjectionParams) -> np.ndarray:
    """f_p + gamma * CrossAttention(LN(f_p), LN(f_t)); gamma = 0 is identity."""
    f_p = as_f64(f_p)
    return f_p + as_f64(p.gamma) * cross_attention(f_p, f_t, p.attn)


def extract(f_t: np.ndarray, f_p: np.ndarray, p: ExtractionParams) -> np.ndarray:
    """Residual cross-attention then residual FFN; zero weights pass f_t through."""
    y = as_f64(f_t) + cross_attention(f_t, f_p, p.attn)
    return y + mlp(layer_norm(y, p.ffn_ln), p.ffn)


def dual_backbone_forward(feats: PointFeatureSet, params: BackboneParams) -> BackboneResult:
    """Run all stages of both streams with per-stage inject/extract coupling,
    then merge the streams with a linear layer over their concatenation."""
    if len(feats) == 0:
        raise EmptyInputError("dual_backbone_forward requires at least one point")
    f_p = as_f64(feats.features)
    f_t = f_p
    coords = as_f64(feats.coords)
    for st in params.stages:
        f_p = point_block(f_p, st.point_mlp)
        if st.tf_in is not None:
            f_t = linear(f_t, st.tf_in[0], st.tf_in[1])
        f_t = transformer_block(f_t, coords, st.tf)
        f_p = inject(f_p, f_t, st.inject)
        f_t = extract(f_t, f_p, st.extract)
    fused = linear(np.concatenate([f_p, f_t], axis=1), params.merge_w, params.merge_b)
    return BackboneResult(f_p, f_t, fused)


# ---------------------------------------------------------------------------
# parameter schema: stage{i}.point.* / .tf.* / .inject.* / .extract.*, merge.*
# ---------------------------------------------------------------------------

def _ln_schema(src: TensorSource, prefix: str, c: int, eps: float) -> NormParams:
    return NormParams(
        src.require(f"{prefix}.scale", (c,), INIT_ONES), src.require(f"{prefix}.shift", (c,), INIT_ZEROS), eps
    )


def _mha_schema(src: TensorSource, prefix: str, c: int, heads: int, with_beta: bool) -> MultiHeadDmsaParams:
    """Per-head projections, stacked head-major, then the output projection;
    a self-attention head also has its distance gate beta, clamped to >= 0."""
    d = c // heads
    per_head, betas = [], []
    for h in range(heads):
        per_head.append([src.require(f"{prefix}.head{h}.{w}", (d, c), INIT_GLOROT) for w in ("wq", "wk", "wv")])
        betas.append(max(0.0, float(src.require(f"{prefix}.head{h}.beta", (1,), INIT_ONES)[0])) if with_beta else 0.0)
    wq, wk, wv = (np.concatenate(w) for w in zip(*per_head))
    wo, bo = src.require(f"{prefix}.wo", (c, c), INIT_GLOROT), src.require(f"{prefix}.bo", (c,), INIT_ZEROS)
    return MultiHeadDmsaParams(wq, wk, wv, tuple(betas), wo, bo)


def _cross_schema(src: TensorSource, prefix: str, c: int, heads: int, eps: float) -> CrossAttnParams:
    return CrossAttnParams(
        _ln_schema(src, f"{prefix}.lnq", c, eps),
        _ln_schema(src, f"{prefix}.lnkv", c, eps),
        _mha_schema(src, prefix, c, heads, with_beta=False),
    )


def _ffn_schema(src: TensorSource, prefix: str, c: int, mult: int) -> MlpParams:
    hidden = mult * c
    return MlpParams(
        (
            MlpLayer(*linear_schema(src, f"{prefix}.layer0", hidden, c), relu=True),
            MlpLayer(*linear_schema(src, f"{prefix}.layer1", c, hidden), relu=False),
        )
    )


def backbone_schema(
    src: TensorSource,
    widths: tuple[int, ...],
    dmsa_heads: int,
    cross_heads: int,
    ffn_mult: int,
    eps: float,
) -> BackboneParams:
    """Ask ``src`` for every backbone tensor, in canonical order, and assemble
    the stage parameters. The first stage reads the assembled point rows, one
    column per ingest.CSV_COLUMNS."""
    stages = []
    prev = len(CSV_COLUMNS)
    for i, width in enumerate(widths, start=1):
        half = width // 2
        sp = f"stage{i}"
        point = MlpParams((MlpLayer(*linear_schema(src, f"{sp}.point.layer0", half, prev), relu=True),))
        tf_in = linear_schema(src, f"{sp}.tf.in", width, prev) if prev != width else None
        tf = TransformerBlockParams(
            _ln_schema(src, f"{sp}.tf.ln1", width, eps),
            _mha_schema(src, f"{sp}.tf.attn", width, dmsa_heads, with_beta=True),
            _ln_schema(src, f"{sp}.tf.ln2", width, eps),
            _ffn_schema(src, f"{sp}.tf.ffn", width, ffn_mult),
        )
        inj = InjectionParams(
            _cross_schema(src, f"{sp}.inject", width, cross_heads, eps),
            src.require(f"{sp}.inject.gamma", (width,), INIT_ZEROS),
        )
        ext = ExtractionParams(
            _cross_schema(src, f"{sp}.extract", width, cross_heads, eps),
            _ln_schema(src, f"{sp}.extract.ffn_ln", width, eps),
            _ffn_schema(src, f"{sp}.extract.ffn", width, ffn_mult),
        )
        stages.append(StageParams(point, tf_in, tf, inj, ext))
        prev = width
    return BackboneParams(tuple(stages), *linear_schema(src, "merge", prev, 2 * prev))
