"""Dual-stream radar point backbone.

A point-wise stream (per-point MLP blocks with global max-pool context) runs
next to a transformer stream whose self-attention logits are penalized by
beta * squared BEV distance, so each head can shrink its receptive field to
nearby points. The streams exchange information every stage through gated
cross-attention (inject) and cross-attention + feed-forward (extract), and are
merged by a final linear layer.

Every reduction over the point axis is order-independent (see nn.ordered_sum),
so all ops here are exactly equivariant under point permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, EmptyInputError, ShapeError
from .ingest import PointFeatureSet
from .nn import (
    MlpLayer,
    MlpParams,
    NormParams,
    as_f64,
    attend,
    contract,
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
    TensorSpec,
    WeightSet,
    linear_schema,
    record_tensors,
)


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttnHeadParams:
    """Per-head projections (d_head x C); beta only used by self-attention."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    beta: float = 0.0


@dataclass(frozen=True)
class MultiHeadDmsaParams:
    heads: tuple[AttnHeadParams, ...]
    wo: np.ndarray  # C x C over concatenated heads
    bo: np.ndarray

    def __post_init__(self):
        c = self.wo.shape[1]
        if sum(h.wq.shape[0] for h in self.heads) != c:
            raise ConfigError(
                f"head dims {[h.wq.shape[0] for h in self.heads]} do not tile C={c}"
            )


@dataclass(frozen=True)
class CrossAttnParams:
    lnq: NormParams
    lnkv: NormParams
    heads: tuple[AttnHeadParams, ...]
    wo: np.ndarray
    bo: np.ndarray


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
    width: int


@dataclass(frozen=True)
class BackboneParams:
    stages: tuple[StageParams, ...]
    merge_w: np.ndarray  # C_S x 2*C_S
    merge_b: np.ndarray


@dataclass(frozen=True)
class BackboneArch:
    """Hyperparameters that fix every tensor shape of the backbone."""

    in_channels: int = 7
    widths: tuple[int, ...] = (32, 64, 64)
    dmsa_heads: int = 4
    cross_heads: int = 1
    ffn_mult: int = 2
    eps: float = 1e-5

    def __post_init__(self):
        if not self.widths:
            raise ConfigError("backbone needs at least one stage")
        for w in self.widths:
            if w <= 0 or w % 2:
                raise ConfigError(f"stage width {w} must be positive and even")
            if w % self.dmsa_heads:
                raise ConfigError(f"width {w} not divisible by {self.dmsa_heads} heads")
            if w % self.cross_heads:
                raise ConfigError(f"width {w} not divisible by {self.cross_heads} cross heads")
        if self.in_channels <= 0 or self.dmsa_heads <= 0 or self.cross_heads <= 0:
            raise ConfigError("backbone dims must be positive")

    @property
    def out_channels(self) -> int:
        return self.widths[-1]


@dataclass(frozen=True)
class BackboneResult:
    f_p: np.ndarray
    f_t: np.ndarray
    fused: np.ndarray
    inject_calls: int
    extract_calls: int
    stage_outputs: tuple[tuple[np.ndarray, np.ndarray], ...]


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


def pairwise_sq_dist(coords: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances in the BEV plane; symmetric zero-diagonal."""
    coords = as_f64(coords)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ShapeError(f"pairwise_sq_dist expects N x 2 coords, got {coords.shape}")
    dx = coords[:, 0][:, None] - coords[:, 0][None, :]
    dy = coords[:, 1][:, None] - coords[:, 1][None, :]
    return dx * dx + dy * dy


def dmsa_logits(q: np.ndarray, k: np.ndarray, d2: np.ndarray, beta: float) -> np.ndarray:
    q, k, d2 = as_f64(q), as_f64(k), as_f64(d2)
    n, d = q.shape
    if k.shape != (n, d) or d2.shape != (n, n):
        raise ShapeError(f"dmsa shapes disagree: q {q.shape}, k {k.shape}, d2 {d2.shape}")
    return np.einsum("id,jd->ij", q, k, optimize=False) / math.sqrt(d) - beta * d2


def dmsa_weights(q: np.ndarray, k: np.ndarray, d2: np.ndarray, beta: float) -> np.ndarray:
    """Row-stochastic attention weights with the distance penalty applied."""
    return softmax(dmsa_logits(q, k, d2, beta), axis=1)


def dmsa_head(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, d2: np.ndarray, beta: float
) -> np.ndarray:
    """Softmax(QK^T / sqrt(d) - beta * D^2) V.

    The subtracted-logit form equals modulating with the Gaussian weight map
    exp(-D^2 * beta) in log space; beta = 0 reduces to vanilla attention.
    """
    if beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta}")
    v = as_f64(v)
    if v.shape[0] != q.shape[0]:
        raise ShapeError(f"values rows {v.shape} do not match queries {q.shape}")
    return attend(dmsa_weights(q, k, d2, beta), v)


def multi_head_dmsa(f: np.ndarray, coords: np.ndarray, p: MultiHeadDmsaParams) -> np.ndarray:
    """Per-head projections and distance penalties, concatenated then projected."""
    f = as_f64(f)
    c = f.shape[1]
    if p.wo.shape[1] != c:
        raise ConfigError(f"attention configured for C={p.wo.shape[1]}, input has C={c}")
    d2 = pairwise_sq_dist(coords)
    outs = []
    for head in p.heads:
        q = contract(f, head.wq)
        k = contract(f, head.wk)
        v = contract(f, head.wv)
        outs.append(dmsa_head(q, k, v, d2, head.beta))
    return linear(np.concatenate(outs, axis=1), p.wo, p.bo)


def transformer_block(f: np.ndarray, coords: np.ndarray, p: TransformerBlockParams) -> np.ndarray:
    """Pre-norm residual block: f + Attn(LN(f)), then + FFN(LN(.))."""
    f = as_f64(f)
    y = f + multi_head_dmsa(layer_norm(f, p.ln1), coords, p.attn)
    return y + mlp(layer_norm(y, p.ln2), p.ffn)


def cross_attention(q_in: np.ndarray, kv_in: np.ndarray, p: CrossAttnParams) -> np.ndarray:
    """Dense multi-head cross-attention with layer-normed operands."""
    q_in, kv_in = as_f64(q_in), as_f64(kv_in)
    if q_in.shape != kv_in.shape:
        raise ShapeError(f"cross_attention operands differ: {q_in.shape} vs {kv_in.shape}")
    qn = layer_norm(q_in, p.lnq)
    kn = layer_norm(kv_in, p.lnkv)
    outs = []
    for head in p.heads:
        q = contract(qn, head.wq)
        k = contract(kn, head.wk)
        v = contract(kn, head.wv)
        d = q.shape[1]
        logits = np.einsum("id,jd->ij", q, k, optimize=False) / math.sqrt(d)
        outs.append(attend(softmax(logits, axis=1), v))
    return linear(np.concatenate(outs, axis=1), p.wo, p.bo)


def inject(f_p: np.ndarray, f_t: np.ndarray, p: InjectionParams) -> np.ndarray:
    """f_p + gamma * CrossAttention(LN(f_p), LN(f_t)); gamma = 0 is identity."""
    f_p = as_f64(f_p)
    return f_p + as_f64(p.gamma) * cross_attention(f_p, f_t, p.attn)


def extract(f_t: np.ndarray, f_p: np.ndarray, p: ExtractionParams) -> np.ndarray:
    """Residual cross-attention then residual FFN; zero weights pass f_t through."""
    y = as_f64(f_t) + cross_attention(f_t, f_p, p.attn)
    return y + mlp(layer_norm(y, p.ffn_ln), p.ffn)


def dual_backbone_forward(feats: PointFeatureSet, w: WeightSet, arch: BackboneArch) -> BackboneResult:
    """Run all stages of both streams with per-stage inject/extract coupling,
    then merge the streams with a linear layer over their concatenation."""
    if len(feats) == 0:
        raise EmptyInputError("dual_backbone_forward requires at least one point")
    params = backbone_schema(w, arch)
    f_p = as_f64(feats.features)
    f_t = f_p
    coords = as_f64(feats.coords)
    inject_calls = 0
    extract_calls = 0
    stage_outputs = []
    for st in params.stages:
        f_p = point_block(f_p, st.point_mlp)
        if st.tf_in is not None:
            f_t = linear(f_t, st.tf_in[0], st.tf_in[1])
        f_t = transformer_block(f_t, coords, st.tf)
        f_p = inject(f_p, f_t, st.inject)
        inject_calls += 1
        f_t = extract(f_t, f_p, st.extract)
        extract_calls += 1
        stage_outputs.append((f_p, f_t))
    fused = linear(np.concatenate([f_p, f_t], axis=1), params.merge_w, params.merge_b)
    return BackboneResult(f_p, f_t, fused, inject_calls, extract_calls, tuple(stage_outputs))


# ---------------------------------------------------------------------------
# parameter schema: stage{i}.point.* / .tf.* / .inject.* / .extract.*, merge.*
# ---------------------------------------------------------------------------

def _ln_schema(src: TensorSource, prefix: str, c: int, eps: float) -> NormParams:
    return NormParams(
        src.require(f"{prefix}.scale", (c,), INIT_ONES), src.require(f"{prefix}.shift", (c,), INIT_ZEROS), eps
    )


def _heads_schema(
    src: TensorSource, prefix: str, c: int, heads: int, with_beta: bool
) -> tuple[AttnHeadParams, ...]:
    """Per-head projections; a self-attention head also has its distance
    gate beta, clamped to >= 0."""
    d = c // heads
    return tuple(
        AttnHeadParams(
            src.require(f"{prefix}.head{h}.wq", (d, c), INIT_GLOROT),
            src.require(f"{prefix}.head{h}.wk", (d, c), INIT_GLOROT),
            src.require(f"{prefix}.head{h}.wv", (d, c), INIT_GLOROT),
            beta=(
                max(0.0, float(src.require(f"{prefix}.head{h}.beta", (1,), INIT_ONES)[0]))
                if with_beta
                else 0.0
            ),
        )
        for h in range(heads)
    )


def _cross_schema(src: TensorSource, prefix: str, c: int, heads: int, eps: float) -> CrossAttnParams:
    return CrossAttnParams(
        _ln_schema(src, f"{prefix}.lnq", c, eps),
        _ln_schema(src, f"{prefix}.lnkv", c, eps),
        _heads_schema(src, prefix, c, heads, with_beta=False),
        src.require(f"{prefix}.wo", (c, c), INIT_GLOROT),
        src.require(f"{prefix}.bo", (c,), INIT_ZEROS),
    )


def _ffn_schema(src: TensorSource, prefix: str, c: int, mult: int) -> MlpParams:
    hidden = mult * c
    return MlpParams(
        (
            MlpLayer(*linear_schema(src, f"{prefix}.layer0", hidden, c), relu=True),
            MlpLayer(*linear_schema(src, f"{prefix}.layer1", c, hidden), relu=False),
        )
    )


def backbone_schema(src: TensorSource, arch: BackboneArch) -> BackboneParams:
    """Ask ``src`` for every backbone tensor, in canonical order, and assemble
    the stage parameters."""
    stages = []
    prev = arch.in_channels
    for i, width in enumerate(arch.widths, start=1):
        half = width // 2
        sp = f"stage{i}"
        point = MlpParams((MlpLayer(*linear_schema(src, f"{sp}.point.layer0", half, prev), relu=True),))
        tf_in = linear_schema(src, f"{sp}.tf.in", width, prev) if prev != width else None
        tf = TransformerBlockParams(
            _ln_schema(src, f"{sp}.tf.ln1", width, arch.eps),
            MultiHeadDmsaParams(
                _heads_schema(src, f"{sp}.tf.attn", width, arch.dmsa_heads, with_beta=True),
                src.require(f"{sp}.tf.attn.wo", (width, width), INIT_GLOROT),
                src.require(f"{sp}.tf.attn.bo", (width,), INIT_ZEROS),
            ),
            _ln_schema(src, f"{sp}.tf.ln2", width, arch.eps),
            _ffn_schema(src, f"{sp}.tf.ffn", width, arch.ffn_mult),
        )
        inj = InjectionParams(
            _cross_schema(src, f"{sp}.inject", width, arch.cross_heads, arch.eps),
            src.require(f"{sp}.inject.gamma", (width,), INIT_ZEROS),
        )
        ext = ExtractionParams(
            _cross_schema(src, f"{sp}.extract", width, arch.cross_heads, arch.eps),
            _ln_schema(src, f"{sp}.extract.ffn_ln", width, arch.eps),
            _ffn_schema(src, f"{sp}.extract.ffn", width, arch.ffn_mult),
        )
        stages.append(StageParams(point, tf_in, tf, inj, ext, width))
        prev = width
    out = arch.out_channels
    return BackboneParams(tuple(stages), *linear_schema(src, "merge", out, 2 * out))


def tensor_specs(arch: BackboneArch) -> list[TensorSpec]:
    return record_tensors(backbone_schema, arch)
