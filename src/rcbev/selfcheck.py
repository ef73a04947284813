"""Built-in verification suite.

Runs every oracle-equivalence and analytic-identity property at small sizes
and reports the measured error of each against its tolerance. Independent
checks may run on a small thread pool (capped by RCBEV_THREADS); results are
deterministic and reported in a fixed order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import oracles
from .backbone import (
    AttnHeadParams,
    CrossAttnParams,
    InjectionParams,
    MultiHeadDmsaParams,
    TransformerBlockParams,
    dmsa_weights,
    inject,
    multi_head_dmsa,
    pairwise_sq_dist,
    point_block,
    transformer_block,
)
from .bev import (
    BevGrid,
    BevSpec,
    CbrBlockParams,
    ScatterConfig,
    gaussian_bev_map,
    rcs_scatter,
    to_pixel,
)
from .config import PipelineConfig, model_tensors
from .errors import ConfigError
from .fusion import AlignParams, DeformAttnParams, FuseParams, channel_spatial_fuse, cross_align, deform_attn, pixel_centers
from .ingest import ClusterSpec, PointFeatureSet, SceneConfig
from .nn import (
    MlpLayer,
    MlpParams,
    bilinear_sample,
    conv3x3,
    identity_norm,
    layer_norm,
    linear,
    max_pool_points,
    mlp,
    softmax,
)
from .pipeline import checksum, run_pipeline
from .weights import init_weights, load_weights, save_weights


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    measured: float
    passed: bool
    detail: str = ""


@dataclass
class SelfcheckReport:
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"[{status}] {r.name:<28} tol={r.tolerance:<8g} measured={r.measured:.3g}"
                + (f"  ({r.detail})" if r.detail else "")
            )
        lines.append(f"{sum(r.passed for r in self.results)}/{len(self.results)} checks passed")
        return "\n".join(lines)


def _maxabs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.size(a) else 0.0


def _small_heads(rng, c: int, h: int, betas=None) -> MultiHeadDmsaParams:
    d = c // h
    heads = tuple(
        AttnHeadParams(
            rng.standard_normal((d, c)),
            rng.standard_normal((d, c)),
            rng.standard_normal((d, c)),
            beta=0.0 if betas is None else betas[i],
        )
        for i in range(h)
    )
    return MultiHeadDmsaParams(heads, rng.standard_normal((c, c)), rng.standard_normal(c))


# ---------------------------------------------------------------------------
# individual checks: return (measured_error, detail)
# ---------------------------------------------------------------------------

def check_linear_oracle() -> tuple[float, str]:
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        n, cin, cout = rng.integers(1, 9, size=3)
        x = rng.standard_normal((n, cin))
        w = rng.standard_normal((cout, cin))
        b = rng.standard_normal(cout)
        worst = max(worst, _maxabs(linear(x, w, b), oracles.naive_linear(x, w, b)))
    return worst, "20 random cases vs triple loop"


def check_mlp_compose() -> tuple[float, str]:
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10):
        dims = rng.integers(1, 7, size=3)
        layers = (
            MlpLayer(rng.standard_normal((dims[1], dims[0])), rng.standard_normal(dims[1]), True),
            MlpLayer(rng.standard_normal((dims[2], dims[1])), rng.standard_normal(dims[2]), False),
        )
        x = rng.standard_normal((5, dims[0]))
        step = np.maximum(oracles.naive_linear(x, layers[0].w, layers[0].b), 0.0)
        ref = oracles.naive_linear(step, layers[1].w, layers[1].b)
        worst = max(worst, _maxabs(mlp(x, MlpParams(layers)), ref))
    return worst, "2-layer vs layer-by-layer oracle"


def check_conv_oracle() -> tuple[float, str]:
    rng = np.random.default_rng(103)
    x = rng.standard_normal((2, 5, 5))
    k = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    return _maxabs(conv3x3(x, k, b), oracles.naive_conv3x3(x, k, b)), "2x5x5 -> 3 channels, 6-loop oracle"


def check_softmax() -> tuple[float, str]:
    rng = np.random.default_rng(104)
    x = rng.standard_normal((40, 9))
    s = softmax(x, axis=1)
    err = _maxabs(s.sum(axis=1), np.ones(40))
    shifted = softmax(x + 2.0, axis=1)  # dyadic shift keeps float ops exact
    err = max(err, _maxabs(s, shifted))
    return err, "row sums and shift invariance"


def check_layer_norm() -> tuple[float, str]:
    rng = np.random.default_rng(105)
    x = rng.standard_normal((30, 16)) * 3 + 1
    y = layer_norm(x, identity_norm(16, eps=1e-12))
    err = max(_maxabs(y.mean(axis=1), 0 * y[:, 0]), _maxabs(y.var(axis=1), np.ones(30)))
    return err, "normalized rows: mean 0, var 1"


def check_bilinear() -> tuple[float, str]:
    rng = np.random.default_rng(106)
    g = rng.standard_normal((3, 6, 7))
    err = _maxabs(bilinear_sample(g, (3.0, 2.0)), g[:, 2, 3])
    mid = bilinear_sample(g, (3.5, 2.0))
    err = max(err, _maxabs(mid, 0.5 * (g[:, 2, 3] + g[:, 2, 4])))
    err = max(err, _maxabs(bilinear_sample(g, (-5.0, -5.0)), np.zeros(3)))
    return err, "integer exactness, midpoint, zero padding"


def check_maxpool_permutation() -> tuple[float, str]:
    rng = np.random.default_rng(107)
    x = rng.standard_normal((100, 8))
    pooled = max_pool_points(x)
    worst = 0.0
    for _ in range(5):
        p = rng.permutation(100)
        worst = max(worst, _maxabs(max_pool_points(x[p]), pooled))
    return worst, "pooling invariant under 5 permutations"


def check_weights_roundtrip(tmp_dir: str) -> tuple[float, str]:
    import tempfile

    ws = init_weights(model_tensors(tiny_pipeline_config()), seed=9)
    with tempfile.TemporaryDirectory(dir=tmp_dir or None) as td:
        path = os.path.join(td, "w.json")
        save_weights(ws, path)
        back = load_weights(path)
    same = all(np.array_equal(ws.entries[k], back.entries[k]) for k in ws.entries)
    return (0.0 if same and ws.names() == back.names() else 1.0), "save -> load bit equality"


def check_dmsa_oracle(perturb: bool = False) -> tuple[float, str]:
    rng = np.random.default_rng(108)
    worst = 0.0
    for trial in range(25):
        n = int(rng.integers(2, 17))
        h = int(rng.choice([1, 2, 4]))
        c = h * int(rng.integers(1, 5))
        coords = rng.uniform(-20, 20, size=(n, 2))
        f = rng.standard_normal((n, c))
        p = _small_heads(rng, c, h)
        ref = oracles.dense_multi_head_attention(
            f, [(hd.wq, hd.wk, hd.wv) for hd in p.heads], p.wo, p.bo
        )
        if perturb and trial == 0:
            bad = AttnHeadParams(p.heads[0].wq + 1e-3, p.heads[0].wk, p.heads[0].wv, 0.0)
            p = MultiHeadDmsaParams((bad,) + p.heads[1:], p.wo, p.bo)
        worst = max(worst, _maxabs(multi_head_dmsa(f, coords, p), ref))
    return worst, "beta=0 vs dense multi-head attention"


def check_dmsa_locality() -> tuple[float, str]:
    rng = np.random.default_rng(109)
    n, d = 8, 4
    q = rng.standard_normal((n, d))
    k = rng.standard_normal((n, d))
    coords = rng.uniform(-10, 10, size=(n, 2))
    d2 = pairwise_sq_dist(coords)
    far = int(np.argmax(d2[0]))
    prev = math.inf
    err = 0.0
    for beta in (0.0, 0.1, 1.0, 10.0, 1e9):
        wgt = dmsa_weights(q, k, d2, beta)
        if wgt[0, far] > prev + 1e-15:
            err = max(err, float(wgt[0, far] - prev))
        prev = wgt[0, far]
    big = dmsa_weights(q, k, d2, 1e9)
    err = max(err, _maxabs(big, np.eye(n)))
    return err, "farthest-key weight monotone; huge beta = self"


def check_permutation_equivariance() -> tuple[float, str]:
    rng = np.random.default_rng(110)
    n, c, h = 12, 8, 2
    f = rng.standard_normal((n, c))
    coords = rng.uniform(-30, 30, size=(n, 2))
    p = _small_heads(rng, c, h)
    mlp_p = MlpParams((MlpLayer(rng.standard_normal((c, c)), rng.standard_normal(c), True),))
    perm = rng.permutation(n)
    a = multi_head_dmsa(f, coords, p)[perm]
    b = multi_head_dmsa(f[perm], coords[perm], p)
    err = 0.0 if np.array_equal(a, b) else _maxabs(a, b)
    pa = point_block(f, mlp_p)[perm]
    pb = point_block(f[perm], mlp_p)
    err = max(err, 0.0 if np.array_equal(pa, pb) else _maxabs(pa, pb))
    return err, "row permutation commutes bit-exactly"


def check_inject_identity() -> tuple[float, str]:
    rng = np.random.default_rng(111)
    c = 6
    f_p = rng.standard_normal((5, c))
    f_t = rng.standard_normal((5, c))
    attn = CrossAttnParams(
        identity_norm(c), identity_norm(c),
        (AttnHeadParams(rng.standard_normal((c, c)), rng.standard_normal((c, c)), rng.standard_normal((c, c))),),
        rng.standard_normal((c, c)), rng.standard_normal(c),
    )
    out = inject(f_p, f_t, InjectionParams(attn, np.zeros(c)))
    return (0.0 if np.array_equal(out, f_p) else _maxabs(out, f_p)), "gamma=0 is bit-identity"


def check_transformer_identity() -> tuple[float, str]:
    rng = np.random.default_rng(112)
    c, h = 8, 2
    d = c // h
    f = rng.standard_normal((6, c))
    coords = rng.uniform(-5, 5, size=(6, 2))
    zero_heads = tuple(AttnHeadParams(np.zeros((d, c)), np.zeros((d, c)), np.zeros((d, c))) for _ in range(h))
    p = TransformerBlockParams(
        identity_norm(c),
        MultiHeadDmsaParams(zero_heads, np.zeros((c, c)), np.zeros(c)),
        identity_norm(c),
        MlpParams((MlpLayer(np.zeros((c, c)), np.zeros(c), True), MlpLayer(np.zeros((c, c)), np.zeros(c), False))),
    )
    out = transformer_block(f, coords, p)
    return (0.0 if np.array_equal(out, f) else _maxabs(out, f)), "zero weights pass through"


def _random_feature_set(rng, spec: BevSpec, n: int) -> PointFeatureSet:
    xs = rng.uniform(spec.x_min, spec.x_max - 1e-9, size=n)
    ys = rng.uniform(spec.y_min, spec.y_max - 1e-9, size=n)
    feats = rng.standard_normal((n, 4))
    rcs = rng.uniform(0, 1, size=n)
    return PointFeatureSet(feats, np.stack([xs, ys], axis=1), rcs)


def check_scatter_oracle() -> tuple[float, str]:
    rng = np.random.default_rng(113)
    spec = BevSpec.from_extent(-8.0, 8.0, -8.0, 8.0, 1.0)
    cfg = ScatterConfig(radius_scale=0.05, radius_cap=4.0)
    worst = 0.0
    for _ in range(5):
        feats = _random_feature_set(rng, spec, 40)
        grid = rcs_scatter(feats, spec, cfg)
        pixels = np.zeros((len(feats), 2), dtype=int)
        radii = np.zeros(len(feats))
        for i in range(len(feats)):
            (u, v), (px, py) = to_pixel(feats.coords[i], spec)
            pixels[i] = (px, py)
            radii[i] = min(cfg.radius_scale * (u * u + v * v) * feats.rcs_norm[i], cfg.radius_cap)
        ref = oracles.brute_force_scatter(feats.features, pixels, radii, spec.h, spec.w)
        worst = max(worst, 0.0 if np.array_equal(grid.data, ref) else _maxabs(grid.data, ref))
    return worst, "bit-equal to per-(pixel,point) oracle"


def check_gaussian_map() -> tuple[float, str]:
    rng = np.random.default_rng(114)
    spec = BevSpec.from_extent(0.0, 12.0, 0.0, 12.0, 1.0)
    cfg = ScatterConfig(radius_scale=0.08, radius_cap=5.0)
    uv = np.array([[4.3, 5.7]])
    vr = np.array([0.6])
    grid = gaussian_bev_map(uv, vr, spec, cfg).data[0]
    err = 0.0
    for qy in range(spec.h):
        for qx in range(spec.w):
            if grid[qy, qx] > 0:
                ref = oracles.gaussian_point_value((qx, qy), (4, 5), (4.3, 5.7), 0.6)
                err = max(err, abs(grid[qy, qx] - ref))
    err = max(err, abs(grid[5, 4] - 1.0))
    two = gaussian_bev_map(np.array([[4.3, 5.7], [6.1, 5.0]]), np.array([0.6, 0.9]), spec, cfg)
    single_a = gaussian_bev_map(uv, vr, spec, cfg)
    single_b = gaussian_bev_map(np.array([[6.1, 5.0]]), np.array([0.9]), spec, cfg)
    err = max(err, _maxabs(two.data, np.maximum(single_a.data, single_b.data)))
    return err, "scalar formula; own pixel = 1; max combine"


def _random_deform(rng, cq: int, cv: int, m: int, k: int) -> DeformAttnParams:
    d = cv // m
    adapt = None
    if cq != cv:
        adapt = (rng.standard_normal((cv, cq)), rng.standard_normal(cv))
    return DeformAttnParams(
        m=m, k=k,
        w_off=rng.standard_normal((2 * m * k, cv)) * 0.5,
        b_off=rng.standard_normal(2 * m * k) * 0.5,
        w_att=rng.standard_normal((m * k, cv)),
        b_att=rng.standard_normal(m * k),
        w_val=rng.standard_normal((m, d, cv)),
        w_out=rng.standard_normal((m, cv, d)),
        adapt=adapt,
    )


def check_deform_oracle() -> tuple[float, str]:
    rng = np.random.default_rng(115)
    worst = 0.0
    for _ in range(8):
        h = w = int(rng.integers(3, 7))
        m = int(rng.choice([1, 2]))
        cv = m * int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        queries = rng.standard_normal((cv, h, w))
        values = rng.standard_normal((cv, h, w))
        p = _random_deform(rng, cv, cv, m, k)
        got = deform_attn(queries, None, values, p)
        ref = oracles.deform_attention_reference(
            queries, values, pixel_centers(h, w),
            p.w_off, p.b_off, p.w_att, p.b_att, p.w_val, p.w_out, p.adapt,
        )
        worst = max(worst, _maxabs(got, ref))
    return worst, "vs nested-loop reference"


def check_deform_identity() -> tuple[float, str]:
    rng = np.random.default_rng(116)
    c, h, w = 4, 5, 6
    values = rng.standard_normal((c, h, w))
    p = DeformAttnParams(
        m=1, k=1,
        w_off=np.zeros((2, c)), b_off=np.zeros(2),
        w_att=np.zeros((1, c)), b_att=np.zeros(1),
        w_val=np.eye(c)[None], w_out=np.eye(c)[None],
    )
    out = deform_attn(rng.standard_normal((c, h, w)), None, values, p)
    return _maxabs(out, values), "M=K=1, zero offsets, identity projections"


def check_align_residual() -> tuple[float, str]:
    rng = np.random.default_rng(117)
    c, h, w = 4, 6, 6
    spec = BevSpec.from_extent(0.0, float(w), 0.0, float(h), 1.0)
    f_c = BevGrid(rng.standard_normal((c, h, w)), spec)
    f_r = BevGrid(rng.standard_normal((c, h, w)), spec)
    pos_c = rng.standard_normal((c, h, w))
    pos_r = rng.standard_normal((c, h, w))

    def zero_out(p: DeformAttnParams) -> DeformAttnParams:
        return replace(p, w_out=np.zeros_like(p.w_out))

    params = AlignParams(
        pos_c, pos_r,
        zero_out(_random_deform(rng, c, c, 2, 2)),
        zero_out(_random_deform(rng, c, c, 2, 2)),
    )
    out_c, out_r = cross_align(f_c, f_r, params)
    err = _maxabs(out_c.data, f_c.data + pos_c)
    err = max(err, _maxabs(out_r.data, f_r.data + pos_r))
    return err, "zero output projections leave feature + embedding"


def check_fuse_residual() -> tuple[float, str]:
    rng = np.random.default_rng(118)
    c, h, w = 3, 5, 5
    spec = BevSpec.from_extent(0.0, float(w), 0.0, float(h), 1.0)
    f_c = BevGrid(rng.standard_normal((c, h, w)), spec)
    f_r = BevGrid(rng.standard_normal((c, h, w)), spec)

    def zero_cbr(cin: int) -> CbrBlockParams:
        return CbrBlockParams(np.zeros((cin, cin, 3, 3)), np.zeros(cin), identity_norm(cin, batch=True))

    params = FuseParams(zero_cbr(2 * c), (zero_cbr(2 * c), zero_cbr(2 * c), zero_cbr(2 * c)))
    fused = channel_spatial_fuse(f_c, f_r, params)
    ref = np.concatenate([f_c.data, f_r.data], axis=0)
    return (0.0 if np.array_equal(fused.data, ref) else _maxabs(fused.data, ref)), "zero kernels = pure residual"


def tiny_pipeline_config() -> PipelineConfig:
    scene = SceneConfig(
        n_clusters=2,
        points_per_cluster=3,
        azimuth_noise_deg=0.4,
        n_sweeps=2,
        max_range_m=6.0,
        clusters=(
            ClusterSpec(30.0, 5.0, 3, 12.0, 2.0, 90.0),
            ClusterSpec(200.0, 4.0, 3, -2.0, 0.0, 0.0),
        ),
    )
    return PipelineConfig(
        bev=BevSpec.from_extent(-8.0, 8.0, -8.0, 8.0, 1.0),
        stage_widths=(8, 8),
        dmsa_heads=2,
        cross_heads=1,
        ffn_mult=2,
        rcs_hidden=(8,),
        rcs_out=8,
        enc_blocks=1,
        radar_channels=8,
        cam_channels=8,
        deform_heads=2,
        deform_points=2,
        fused_channels=16,
        fuse_blocks=2,
        cam_modes=3,
        sweeps=2,
        seed=5,
        scene=scene,
    )


def check_pipeline_determinism() -> tuple[float, str]:
    cfg = tiny_pipeline_config()
    out1, _ = run_pipeline(cfg)
    out2, _ = run_pipeline(cfg)
    same = checksum(out1.fused.data) == checksum(out2.fused.data)
    return (0.0 if same else 1.0), "two tiny runs give identical checksums"


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

CHECKS: list[tuple[str, float, Callable[[], tuple[float, str]]]] = [
    ("linear-oracle", 1e-12, check_linear_oracle),
    ("mlp-compose", 1e-10, check_mlp_compose),
    ("conv-oracle", 1e-10, check_conv_oracle),
    ("softmax-rows", 1e-6, check_softmax),
    ("layernorm-stats", 1e-6, check_layer_norm),
    ("bilinear-sample", 1e-12, check_bilinear),
    ("maxpool-permutation", 0.0, check_maxpool_permutation),
    ("weights-roundtrip", 0.0, lambda: check_weights_roundtrip("")),
    ("dmsa-oracle", 1e-10, check_dmsa_oracle),
    ("dmsa-locality", 1e-9, check_dmsa_locality),
    ("permutation-equivariance", 0.0, check_permutation_equivariance),
    ("inject-identity", 0.0, check_inject_identity),
    ("transformer-identity", 0.0, check_transformer_identity),
    ("scatter-oracle", 0.0, check_scatter_oracle),
    ("gaussian-map", 1e-12, check_gaussian_map),
    ("deform-oracle", 1e-10, check_deform_oracle),
    ("deform-identity", 1e-12, check_deform_identity),
    ("align-residual", 0.0, check_align_residual),
    ("fuse-residual", 0.0, check_fuse_residual),
    ("pipeline-determinism", 0.0, check_pipeline_determinism),
]


def max_workers_from_env(default: int = 4) -> int:
    raw = os.environ.get("RCBEV_THREADS")
    if raw is None:
        return max(1, min(default, os.cpu_count() or 1))
    try:
        val = int(raw)
    except ValueError:
        raise ConfigError(f"RCBEV_THREADS must be an integer, got {raw!r}") from None
    if val < 1:
        raise ConfigError(f"RCBEV_THREADS must be >= 1, got {val}")
    return val


def run_selfcheck(perturb: Optional[str] = None, max_workers: Optional[int] = None) -> SelfcheckReport:
    """Run the full suite; ``perturb`` names a check whose weights get a
    deliberate bump (sensitivity hook used by tests)."""
    names = [name for name, _, _ in CHECKS]
    if perturb is not None and perturb != "dmsa-oracle":
        raise ConfigError(f"perturb hook supports 'dmsa-oracle', got {perturb!r}")
    workers = max_workers if max_workers is not None else max_workers_from_env()

    def run_one(entry):
        name, tol, fn = entry
        if name == "dmsa-oracle" and perturb == name:
            measured, detail = check_dmsa_oracle(perturb=True)
        else:
            measured, detail = fn()
        passed = measured <= tol
        return CheckResult(name, tol, measured, passed, detail)

    if workers == 1:
        results = [run_one(entry) for entry in CHECKS]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, CHECKS))
    by_name = {r.name: r for r in results}
    return SelfcheckReport([by_name[n] for n in names])
