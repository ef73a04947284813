"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one `[criterion N] name: PASS/FAIL` line (visible with
`pytest -s tests/test_acceptance.py` or in the captured output on failure).
"""

import time
from pathlib import Path

import numpy as np
import pytest

import rcbev.nn
from rcbev import oracles
from rcbev.backbone import (
    MultiHeadDmsaParams,
    TransformerBlockParams,
    backbone_schema,
    dual_backbone_forward,
    inject,
    multi_head_dmsa,
    point_block,
    transformer_block,
)
from rcbev.backbone import CrossAttnParams, InjectionParams
from rcbev.bev import BevSpec, ScatterConfig, gaussian_bev_map, rcs_scatter, scatter_radius, to_pixel
from rcbev.bench import run_bench
from rcbev.config import PipelineConfig
from rcbev.fusion import DeformAttnParams, _query_rows, deform_attn
from rcbev.ingest import PointFeatureSet, load_point_cloud
from rcbev.nn import MlpLayer, MlpParams, identity_norm
from rcbev.pipeline import checksum, run_pipeline, run_radar
from rcbev.selfcheck import run_selfcheck, tiny_pipeline_config
from rcbev.weights import init_weights, record_tensors

GOLDEN_SCENE = Path(__file__).parent / "data" / "golden_scene.csv"
GOLDEN_FUSED_CHECKSUM = "4a5696ae7fa92174d419de8aeb55669c326f08ef45dd6229c439c4f75f9e214c"
GOLDEN_RADAR_CHECKSUM = "1d2fd3ab3d27610cb244e44cb1c11e7208050e2bbf492a744c48ca831a4fb8b1"
# the default 128x128 run of criterion 8; like GOLDEN_*, these hold for the
# numpy CPU-dispatch level they were derived on (ROADMAP item 2)
DEFAULT_FUSED_CHECKSUM = "2ade36870bf8832504ecac22d3fc17614e4085681d05a10aa8dc80ba57dcbbcc"
DEFAULT_RADAR_CHECKSUM = "71be449513827b75c40043eaf4902a8dd67f2f5d74cb4ba4504bf0d20c8150dd"


def report(n: int, name: str, ok: bool, detail: str = ""):
    print(f"[criterion {n}] {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n} '{name}' failed: {detail}"


def test_criterion_1_dmsa_degeneracy():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        h = int(rng.choice([1, 2, 4]))
        c = h * int(rng.integers(1, 32 // h + 1))
        n = int(rng.integers(2, 33))
        d = c // h
        # drawn head by head, stacked head-major
        per_head = [[rng.standard_normal((d, c)) for _ in range(3)] for _ in range(h)]
        wq, wk, wv = (np.concatenate(w) for w in zip(*per_head))
        p = MultiHeadDmsaParams(wq, wk, wv, (0.0,) * h, rng.standard_normal((c, c)), rng.standard_normal(c))
        f = rng.standard_normal((n, c))
        coords = rng.uniform(-40, 40, size=(n, 2))
        ref = oracles.dense_mha(f, oracles.split_heads(h, wq, wk, wv), p.wo, p.bo)
        worst = max(worst, float(np.abs(multi_head_dmsa(f, coords, p) - ref).max()))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "dmsa degeneracy (beta=0 equals vanilla attention)",
        worst <= 1e-10 and elapsed < 10.0,
        f"max err {worst:.2e} over 100 instances, {elapsed:.1f}s",
    )


def test_criterion_2_scatter_oracle():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    exact = True
    for scene in range(50):
        side = int(rng.choice([16, 32, 48, 64]))
        spec = BevSpec.from_extent(0.0, float(side), 0.0, float(side), 1.0)
        n = int(rng.integers(1, 201))
        cfg = ScatterConfig(radius_scale=float(rng.uniform(0.01, 0.1)), radius_cap=float(rng.uniform(0, 5)))
        xs = rng.uniform(0, side - 1e-6, size=n)
        ys = rng.uniform(0, side - 1e-6, size=n)
        feats = PointFeatureSet(
            rng.standard_normal((n, 3)), np.stack([xs, ys], axis=1), rng.uniform(0, 1, size=n)
        )
        grid = rcs_scatter(feats, spec, cfg)
        pixels = np.zeros((n, 2), dtype=np.int64)
        radii = np.zeros(n)
        for i in range(n):
            (u, v), (px, py) = to_pixel(feats.coords[i], spec)
            pixels[i] = (px, py)
            radii[i] = scatter_radius((u, v), float(feats.rcs_norm[i]), cfg)
        ref = oracles.scatter_reference(feats.features, pixels, radii, spec.h, spec.w)
        if not np.array_equal(grid.data, ref):
            exact = False
            break
    elapsed = time.perf_counter() - t0
    report(
        2,
        "scatter bit-equals brute-force oracle",
        exact and elapsed < 30.0,
        f"50 scenes, {elapsed:.1f}s",
    )


def test_criterion_3_gaussian_point_evaluation():
    rng = np.random.default_rng(1003)
    spec = BevSpec.from_extent(0.0, 24.0, 0.0, 24.0, 1.0)
    cfg = ScatterConfig(radius_scale=0.08, radius_cap=6.0)
    worst = 0.0
    own_ok = True
    for _ in range(30):
        uv = (float(rng.uniform(0.5, 23.5)), float(rng.uniform(0.5, 23.5)))
        v_rcs = float(rng.uniform(0, 1))
        g = gaussian_bev_map(np.array([uv]), np.array([v_rcs]), spec, cfg).data[0]
        px, py = int(np.floor(uv[0])), int(np.floor(uv[1]))
        own_ok &= g[py, px] == 1.0
        for qy in range(spec.h):
            for qx in range(spec.w):
                if g[qy, qx] != 0.0:
                    ref = oracles.gaussian_value((qx, qy), (px, py), uv, v_rcs)
                    worst = max(worst, abs(g[qy, qx] - ref))
    pts = np.array([[5.2, 7.9], [11.4, 6.3], [6.0, 8.5]])
    vr = np.array([0.8, 0.4, 0.95])
    combined = gaussian_bev_map(pts, vr, spec, cfg).data
    singles = [gaussian_bev_map(pts[i : i + 1], vr[i : i + 1], spec, cfg).data for i in range(3)]
    max_ok = np.array_equal(combined, np.maximum(np.maximum(singles[0], singles[1]), singles[2]))
    report(
        3,
        "gaussian map matches scalar formula, unit peak, max combine",
        worst <= 1e-12 and own_ok and max_ok,
        f"max err {worst:.2e}",
    )


def test_criterion_4_deform_oracle():
    rng = np.random.default_rng(1004)
    worst = 0.0
    weight_err = 0.0
    for _ in range(50):
        h = w = int(rng.integers(2, 9))
        m = int(rng.choice([1, 2]))
        cv = m * int(rng.integers(1, 8 // m + 1))
        k = int(rng.integers(1, 5))
        d = cv // m
        queries = rng.standard_normal((cv, h, w))
        values = rng.standard_normal((cv, h, w))
        p = DeformAttnParams(
            m=m, k=k,
            w_off=rng.standard_normal((2 * m * k, cv)) * 0.8,
            b_off=rng.standard_normal(2 * m * k) * 0.8,
            w_att=rng.standard_normal((m * k, cv)),
            b_att=rng.standard_normal(m * k),
            w_val=rng.standard_normal((m, d, cv)),
            w_out=rng.standard_normal((m, cv, d)),
        )
        got = deform_attn(queries, None, values, p)
        ref = oracles.deform_reference(
            queries, values, p.w_off, p.b_off, p.w_att, p.b_att, p.w_val, p.w_out
        )
        worst = max(worst, float(np.abs(got - ref).max()))
        a = _query_rows(queries.reshape(cv, -1), p)[1]
        weight_err = max(weight_err, float(np.abs(a.sum(axis=2) - 1).max()))
    report(
        4,
        "deformable attention matches nested-loop oracle",
        worst <= 1e-10 and weight_err <= 1e-6,
        f"max err {worst:.2e}, weight-sum err {weight_err:.2e}",
    )


def test_criterion_5_complexity_scaling(monkeypatch):
    # one worker: deform_attn runs 1 query block at 16 x 16 and 32 at 128 x 128,
    # so a pool would fold its parallelism into the doubling ratios
    monkeypatch.setattr(rcbev.nn, "_workers", lambda: 1)
    t0 = time.perf_counter()
    bench = run_bench()
    elapsed = time.perf_counter() - t0
    deform_ratios = [r.doubling_ratio for r in bench.method_rows("deform") if r.doubling_ratio]
    dense_ratios = [r.doubling_ratio for r in bench.method_rows("dense") if r.doubling_ratio]
    ok = (
        len(deform_ratios) == 3
        and len(dense_ratios) == 3
        and all(r <= 2.5 for r in deform_ratios)
        and all(r >= 3.0 for r in dense_ratios)
        and elapsed < 300.0
    )
    report(
        5,
        "deformable attention scales linearly, dense quadratically",
        ok,
        f"deform/dbl {['%.2f' % r for r in deform_ratios]}, dense/dbl {['%.2f' % r for r in dense_ratios]}, {elapsed:.0f}s",
    )


def test_criterion_6_identity_configurations():
    rng = np.random.default_rng(1006)
    c = 8
    # gamma = 0 makes inject a bit-identity on f_p
    wq, wk, wv = (rng.standard_normal((c, c)) for _ in range(3))
    cross = CrossAttnParams(
        identity_norm(c), identity_norm(c),
        MultiHeadDmsaParams(wq, wk, wv, (0.0,), rng.standard_normal((c, c)), rng.standard_normal(c)),
    )
    f_p = rng.standard_normal((9, c))
    f_t = rng.standard_normal((9, c))
    inject_ok = np.array_equal(inject(f_p, f_t, InjectionParams(cross, np.zeros(c))), f_p)

    # zero-weight transformer block is an identity
    zero = np.zeros((c, c))
    tb = TransformerBlockParams(
        identity_norm(c),
        MultiHeadDmsaParams(zero, zero, zero, (0.0, 0.0), zero, np.zeros(c)),
        identity_norm(c),
        MlpParams((MlpLayer(np.zeros((c, c)), np.zeros(c), True), MlpLayer(np.zeros((c, c)), np.zeros(c), False))),
    )
    coords = rng.uniform(-5, 5, size=(9, 2))
    tf_ok = np.array_equal(transformer_block(f_p, coords, tb), f_p)

    # M=1, K=1, zero offsets, identity projections reproduce F at the refs
    values = rng.standard_normal((4, 6, 7))
    ident = DeformAttnParams(
        m=1, k=1,
        w_off=np.zeros((2, 4)), b_off=np.zeros(2),
        w_att=np.zeros((1, 4)), b_att=np.zeros(1),
        w_val=np.eye(4)[None], w_out=np.eye(4)[None],
    )
    out = deform_attn(rng.standard_normal((4, 6, 7)), None, values, ident)
    deform_err = float(np.abs(out - values).max())
    report(
        6,
        "identity configurations (inject, transformer, deform)",
        inject_ok and tf_ok and deform_err <= 1e-12,
        f"deform err {deform_err:.2e}",
    )


def test_criterion_7_permutation_equivariance():
    rng = np.random.default_rng(1007)
    arch = ((8, 12), 2, 1, 2, 1e-5)  # widths, dmsa_heads, cross_heads, ffn_mult, eps
    w = init_weights(record_tensors(backbone_schema, *arch), 17)
    # give the gates non-trivial values so the whole coupled path is exercised
    w.entries["stage1.inject.gamma"] = rng.standard_normal(8) * 0.5
    w.entries["stage2.inject.gamma"] = rng.standard_normal(12) * 0.5
    n = 14
    feats = PointFeatureSet(
        rng.standard_normal((n, 7)), rng.uniform(-20, 20, size=(n, 2)), rng.uniform(0, 1, size=n)
    )
    res = dual_backbone_forward(feats, backbone_schema(w, *arch))

    mlp_p = MlpParams((MlpLayer(rng.standard_normal((6, 7)), rng.standard_normal(6), True),))
    pb = point_block(feats.features, mlp_p)

    dh = 4
    per_head = [[rng.standard_normal((dh, 8)) for _ in range(3)] for _ in range(2)]
    wq, wk, wv = (np.concatenate(w) for w in zip(*per_head))
    mha_p = MultiHeadDmsaParams(wq, wk, wv, (0.3, 2.0), rng.standard_normal((8, 8)), rng.standard_normal(8))
    f8 = rng.standard_normal((n, 8))
    mh = multi_head_dmsa(f8, feats.coords, mha_p)

    ok = True
    for _ in range(5):
        perm = rng.permutation(n)
        shuffled = PointFeatureSet(feats.features[perm], feats.coords[perm], feats.rcs_norm[perm])
        res_p = dual_backbone_forward(shuffled, backbone_schema(w, *arch))
        ok &= np.array_equal(res_p.fused, res.fused[perm])
        ok &= np.array_equal(res_p.f_p, res.f_p[perm])
        ok &= np.array_equal(res_p.f_t, res.f_t[perm])
        ok &= np.array_equal(point_block(feats.features[perm], mlp_p), pb[perm])
        ok &= np.array_equal(multi_head_dmsa(f8[perm], feats.coords[perm], mha_p), mh[perm])
    report(7, "permutation equivariance is exact", ok)


def test_criterion_8_structural_conformance(backbone_calls):
    cfg = PipelineConfig()
    out, _ = run_pipeline(cfg)
    ok = (
        len(cfg.stage_widths) == 3
        and out.backbone is not None
        and backbone_calls == {"inject": 3, "extract": 3}
        and out.fused.data.shape == (cfg.fused_channels, 128, 128)
    )
    bits_ok = (
        checksum(out.fused.data) == DEFAULT_FUSED_CHECKSUM
        and checksum(out.radar_bev.data) == DEFAULT_RADAR_CHECKSUM
    )
    report(
        8,
        "default pipeline: 3 stages, 3 inject/extract, fused 128x128x128, pinned bits",
        ok and bits_ok,
        f"calls={backbone_calls}, shape={out.fused.data.shape}, checksums {'match' if bits_ok else 'differ'}",
    )


def test_run_radar_reproduces_default_radar_checksum():
    radar, report = run_radar(PipelineConfig())
    assert checksum(radar.radar_bev.data) == DEFAULT_RADAR_CHECKSUM
    assert [s.name for s in report.stages] == ["weights", "load", "ingest", "backbone", "scatter", "bev_encode"]


def test_criterion_9_golden_regression_and_selfcheck():
    cfg = tiny_pipeline_config()
    cloud = load_point_cloud(GOLDEN_SCENE)
    out, _ = run_pipeline(cfg, cloud=cloud)
    fused_ok = checksum(out.fused.data) == GOLDEN_FUSED_CHECKSUM
    radar_ok = checksum(out.radar_bev.data) == GOLDEN_RADAR_CHECKSUM
    out2, _ = run_pipeline(cfg, cloud=load_point_cloud(GOLDEN_SCENE))
    rerun_ok = checksum(out2.fused.data) == checksum(out.fused.data)
    t0 = time.perf_counter()
    sc = run_selfcheck()
    elapsed = time.perf_counter() - t0
    report(
        9,
        "golden checksum reproduced; selfcheck suite green",
        fused_ok and radar_ok and rerun_ok and sc.passed and elapsed < 120.0,
        f"selfcheck {sum(r.passed for r in sc.results)}/{len(sc.results)} in {elapsed:.0f}s",
    )


def test_multi_block_run_holds_its_bits_on_any_worker_count(monkeypatch, multi_block_config):
    fused = set()
    for workers in (1, 2, 3):
        monkeypatch.setattr(rcbev.nn, "_workers", lambda workers=workers: workers)
        out, _ = run_pipeline(multi_block_config)
        fused.add(checksum(out.fused.data))
    assert len(fused) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_checksums_hold_on_any_worker_count(monkeypatch, workers):
    monkeypatch.setattr(rcbev.nn, "_workers", lambda: workers)
    out, _ = run_pipeline(tiny_pipeline_config(), cloud=load_point_cloud(GOLDEN_SCENE))
    assert checksum(out.fused.data) == GOLDEN_FUSED_CHECKSUM
    assert checksum(out.radar_bev.data) == GOLDEN_RADAR_CHECKSUM
