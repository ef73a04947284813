import math
import struct
import tracemalloc

import numpy as np
import pytest

import rcbev.bev
import rcbev.nn
from rcbev import oracles
from rcbev.bev import (
    BevGrid,
    BevSpec,
    CbrBlockParams,
    ScatterConfig,
    bev_encode,
    cbr_residual,
    footprint,
    gaussian_bev_map,
    load_grid,
    project_1x1,
    rcs_bev_feature,
    rcs_scatter,
    save_grid,
    scatter_radius,
    to_pixel,
)
from rcbev.errors import ConfigError, ContractError, DataError, FormatError
from rcbev.ingest import PointFeatureSet
from rcbev.nn import MlpLayer, MlpParams, NormParams, batch_norm_2d, conv3x3, identity_norm, relu

rng = np.random.default_rng(99)

SPEC = BevSpec.from_extent(-16.0, 16.0, -16.0, 16.0, 1.0)


def feature_set(n, spec=SPEC, c=4, rcs=None):
    xs = rng.uniform(spec.x_min, spec.x_max - 1e-6, size=n)
    ys = rng.uniform(spec.y_min, spec.y_max - 1e-6, size=n)
    feats = rng.standard_normal((n, c))
    r = rng.uniform(0, 1, size=n) if rcs is None else np.asarray(rcs, dtype=float)
    return PointFeatureSet(feats, np.stack([xs, ys], axis=1), r)


class TestBevSpec:
    def test_dims_derived_from_extent(self):
        spec = BevSpec.from_extent(-51.2, 51.2, -51.2, 51.2, 0.8)
        assert spec.h == 128 and spec.w == 128

    def test_inconsistent_extent_rejected(self):
        with pytest.raises(ConfigError):
            BevSpec(-10.0, 10.0, -10.0, 10.0, 1.0, h=20, w=19)

    def test_bad_resolution(self):
        with pytest.raises(ConfigError):
            BevSpec.from_extent(0, 10, 0, 10, -1.0)

    @pytest.mark.parametrize("field", range(5))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, bad):
        names = ("x_min", "x_max", "y_min", "y_max", "resolution")
        args = [-8.0, 8.0, -8.0, 8.0, 1.0]
        args[field] = bad
        with pytest.raises(ConfigError, match=names[field]):
            BevSpec.from_extent(*args)
        with pytest.raises(ConfigError, match=names[field]):
            BevSpec(*args, h=16, w=16)


class TestToPixel:
    def test_origin_corner(self):
        (u, v), (px, py) = to_pixel((-16.0, -16.0), SPEC)
        assert (u, v) == (0.0, 0.0) and (px, py) == (0, 0)

    def test_floor_rule(self):
        (u, _), (px, _) = to_pixel((-16.0 + 1.5, 0.0), SPEC)
        assert px == 1 and u == pytest.approx(1.5)

    def test_upper_edge(self):
        (_, _), (px, py) = to_pixel((15.999999, 15.999999), SPEC)
        assert px == SPEC.w - 1 and py == SPEC.h - 1

    def test_outside_rejected(self):
        with pytest.raises(ContractError):
            to_pixel((16.0, 0.0), SPEC)

    def test_array_matches_scalar_rows(self):
        coords = feature_set(40).coords
        uv, pix = to_pixel(coords, SPEC)
        for i, row in enumerate(coords):
            (u, v), (px, py) = to_pixel(row, SPEC)
            assert (uv[i, 0], uv[i, 1], pix[i, 0], pix[i, 1]) == (u, v, px, py)

    def test_array_error_names_first_outside_point(self):
        coords = feature_set(6).coords.copy()
        coords[2] = (3.5, 16.0)
        coords[4] = (-17.0, 1.25)
        with pytest.raises(ContractError, match=r"\(3\.5, 16\.0\)"):
            to_pixel(coords, SPEC)


class TestScatterRadius:
    def test_zero_rcs(self):
        assert scatter_radius((3.0, 4.0), 0.0, ScatterConfig()) == 0.0

    def test_pixel_arithmetic(self):
        r = scatter_radius((3.0, 4.0), 0.08, ScatterConfig(radius_scale=1.0, radius_cap=1e9))
        assert r == pytest.approx(2.0, abs=1e-12)

    def test_cap(self):
        r = scatter_radius((100.0, 100.0), 1.0, ScatterConfig(radius_scale=1.0, radius_cap=5.0))
        assert r == 5.0

    def test_array_matches_scalar_rows(self):
        feats = feature_set(40)
        uv, _ = to_pixel(feats.coords, SPEC)
        cfg = ScatterConfig(radius_scale=0.03, radius_cap=4.0)
        radii = scatter_radius(uv, feats.rcs_norm, cfg)
        assert radii.shape == (40,)
        for i in range(40):
            assert radii[i] == scatter_radius(tuple(uv[i]), float(feats.rcs_norm[i]), cfg)

    def test_negative_cap_rejected(self):
        with pytest.raises(ConfigError):
            ScatterConfig(radius_scale=-0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError, match="radius_scale"):
            ScatterConfig(radius_scale=float("nan"))
        with pytest.raises(ConfigError, match="radius_cap"):
            ScatterConfig(radius_cap=float("inf"))


def oracle_scatter(feats, spec, cfg):
    pixels = np.zeros((len(feats), 2), dtype=np.int64)
    radii = np.zeros(len(feats))
    for i in range(len(feats)):
        (u, v), (px, py) = to_pixel(feats.coords[i], spec)
        pixels[i] = (px, py)
        radii[i] = scatter_radius((u, v), float(feats.rcs_norm[i]), cfg)
    return oracles.scatter_reference(feats.features, pixels, radii, spec.h, spec.w)


class TestRcsScatter:
    def test_radius_zero_single_pixel(self):
        feats = feature_set(1, rcs=[0.0])
        grid = rcs_scatter(feats, SPEC, ScatterConfig())
        assert np.count_nonzero(grid.data.any(axis=0)) == 1
        (_, _), (px, py) = to_pixel(feats.coords[0], SPEC)
        assert np.array_equal(grid.data[:, py, px], feats.features[0])

    def test_nine_pixel_footprint(self):
        # point centered at pixel (5, 5) with radius 2: offsets with distance
        # strictly below 2 are (0,0), 4 at distance 1 and 4 at sqrt(2)
        spec = BevSpec.from_extent(0.0, 16.0, 0.0, 16.0, 1.0)
        feats = PointFeatureSet(np.ones((1, 2)), np.array([[5.5, 5.5]]), np.ones(1))
        cfg = ScatterConfig(radius_scale=2.0 / (5.5**2 + 5.5**2), radius_cap=10.0)
        r = scatter_radius((5.5, 5.5), 1.0, cfg)
        assert r == pytest.approx(2.0, abs=1e-12)
        grid = rcs_scatter(feats, spec, cfg)
        covered = {(x, y) for y in range(16) for x in range(16) if grid.data[0, y, x] != 0}
        expected = {(5 + dx, 5 + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
        assert covered == expected

    def test_coincident_points_sum(self):
        coords = np.array([[2.25, -3.75], [2.25, -3.75]])
        feats = PointFeatureSet(np.array([[1.0, 2.0], [10.0, 20.0]]), coords, np.zeros(2))
        grid = rcs_scatter(feats, SPEC, ScatterConfig())
        (_, _), (px, py) = to_pixel((2.25, -3.75), SPEC)
        assert np.array_equal(grid.data[:, py, px], [11.0, 22.0])

    def test_bit_equal_to_brute_force(self):
        cfg = ScatterConfig(radius_scale=0.05, radius_cap=4.0)
        for _ in range(10):
            feats = feature_set(int(rng.integers(1, 60)))
            grid = rcs_scatter(feats, SPEC, cfg)
            assert np.array_equal(grid.data, oracle_scatter(feats, SPEC, cfg))

    def test_mass_conservation_radius_zero(self):
        feats = feature_set(25, rcs=np.zeros(25))
        grid = rcs_scatter(feats, SPEC, ScatterConfig())
        assert oracles.fsum_all(grid.data) == oracles.fsum_all(feats.features)

    def test_mass_conservation_general(self):
        cfg = ScatterConfig(radius_scale=0.1, radius_cap=3.0)
        feats = feature_set(40)
        grid = rcs_scatter(feats, SPEC, cfg)
        total = 0.0
        for i in range(len(feats)):
            (u, v), (px, py) = to_pixel(feats.coords[i], SPEC)
            r = scatter_radius((u, v), float(feats.rcs_norm[i]), cfg)
            covered = 0
            for qy in range(SPEC.h):
                for qx in range(SPEC.w):
                    dx, dy = qx - px, qy - py
                    if (dx == 0 and dy == 0) or dx * dx + dy * dy < r * r:
                        covered += 1
            total += covered * float(feats.features[i].sum())
        assert abs(oracles.fsum_all(grid.data) - total) < 1e-9

    def test_monotone_coverage_in_cap(self):
        feats = feature_set(30)
        prev = -1
        for cap in (0.0, 1.0, 2.0, 4.0, 8.0):
            grid = rcs_scatter(feats, SPEC, ScatterConfig(radius_scale=0.1, radius_cap=cap))
            nz = int(np.count_nonzero(grid.data.any(axis=0)))
            assert nz >= prev
            prev = nz

    def test_determinism(self):
        feats = feature_set(50)
        cfg = ScatterConfig()
        a = rcs_scatter(feats, SPEC, cfg)
        b = rcs_scatter(feats, SPEC, cfg)
        assert np.array_equal(a.data, b.data)

    def test_points_in_last_row_and_column(self):
        top = np.nextafter(16.0, 0.0)
        coords = np.array([[top, top], [top, 3.25], [-7.5, top], [top, -16.0], [-16.0, top]])
        feats = PointFeatureSet(rng.standard_normal((5, 3)), coords, rng.uniform(0, 1, 5))
        cfg = ScatterConfig(radius_scale=0.01, radius_cap=3.0)
        grid = rcs_scatter(feats, SPEC, cfg)
        assert grid.data[:, SPEC.h - 1, SPEC.w - 1].any()
        assert np.array_equal(grid.data, oracle_scatter(feats, SPEC, cfg))

    def test_cap_beyond_every_edge(self):
        spec = BevSpec.from_extent(0.0, 12.0, -3.0, 6.0, 1.0)
        feats = feature_set(20, spec, rcs=np.ones(20))
        cfg = ScatterConfig(radius_scale=50.0, radius_cap=40.0)
        grid = rcs_scatter(feats, spec, cfg)
        assert np.all(grid.data.any(axis=0))
        assert np.array_equal(grid.data, oracle_scatter(feats, spec, cfg))

    def test_zero_cap_is_own_pixel(self):
        feats = feature_set(30)
        cfg = ScatterConfig(radius_scale=0.1, radius_cap=0.0)
        grid = rcs_scatter(feats, SPEC, cfg)
        assert np.array_equal(grid.data, oracle_scatter(feats, SPEC, cfg))

    def test_no_points(self):
        feats = feature_set(0)
        grid = rcs_scatter(feats, SPEC, ScatterConfig())
        assert grid.data.shape == (4, SPEC.h, SPEC.w)
        assert np.array_equal(grid.data, oracle_scatter(feats, SPEC, ScatterConfig()))

    def test_peak_memory_does_not_grow_with_table_times_channels(self):
        # the frame_dense shape: N = 864 points on a 32 x 32 grid, C = 64
        spec = BevSpec.from_extent(-51.2, 51.2, -51.2, 51.2, 3.2)
        cfg = ScatterConfig()
        wide = feature_set(864, spec, c=64)
        uv, _ = to_pixel(wide.coords, spec)
        entries = len(footprint(uv, scatter_radius(uv, wide.rcs_norm, cfg), spec)[0])
        peaks = {}
        for c in (1, 64):
            feats = PointFeatureSet(wide.features[:, :c].copy(), wide.coords, wide.rcs_norm)
            tracemalloc.start()
            try:
                rcs_scatter(feats, spec, cfg)
                peaks[c] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # gathering the whole table x C block at once would add 63 float64
        # columns of the table between C = 1 and C = 64
        assert peaks[64] - peaks[1] < 8 * entries * 8


class TestGaussianMap:
    CFG = ScatterConfig(radius_scale=0.06, radius_cap=6.0)

    def test_own_pixel_is_one(self):
        g = gaussian_bev_map(np.array([[7.3, 9.8]]), np.array([0.5]), SPEC, self.CFG)
        assert g.data[0, 9, 7] == 1.0

    def test_matches_scalar_formula(self):
        uv = (7.3, 9.8)
        v_rcs = 0.5
        g = gaussian_bev_map(np.array([uv]), np.array([v_rcs]), SPEC, self.CFG).data[0]
        for qy in range(SPEC.h):
            for qx in range(SPEC.w):
                if g[qy, qx] != 0.0:
                    ref = oracles.gaussian_value((qx, qy), (7, 9), uv, v_rcs)
                    assert abs(g[qy, qx] - ref) < 1e-12

    def test_max_combination(self):
        pts = np.array([[6.2, 6.9], [8.4, 7.1]])
        vr = np.array([0.7, 0.9])
        both = gaussian_bev_map(pts, vr, SPEC, self.CFG)
        a = gaussian_bev_map(pts[:1], vr[:1], SPEC, self.CFG)
        b = gaussian_bev_map(pts[1:], vr[1:], SPEC, self.CFG)
        assert np.array_equal(both.data, np.maximum(a.data, b.data))

    def test_empty_input_zero_map(self):
        g = gaussian_bev_map(np.zeros((0, 2)), np.zeros(0), SPEC, self.CFG)
        assert not g.data.any()

    def test_range_and_support(self):
        feats = feature_set(20)
        uv = np.array([to_pixel(c, SPEC)[0] for c in feats.coords])
        g = gaussian_bev_map(uv, feats.rcs_norm, SPEC, self.CFG)
        assert g.data.min() >= 0.0 and g.data.max() <= 1.0
        for i in range(len(feats)):
            (_, _), (px, py) = to_pixel(feats.coords[i], SPEC)
            assert g.data[0, py, px] == 1.0

    def test_degenerate_denominator(self):
        spec = BevSpec.from_extent(0.0, 8.0, 0.0, 8.0, 1.0)
        g = gaussian_bev_map(np.array([[0.0, 0.0]]), np.array([0.9]), spec, self.CFG)
        assert g.data[0, 0, 0] == 1.0
        assert np.count_nonzero(g.data) == 1

    @pytest.mark.parametrize(
        "spec, xy",
        [
            (BevSpec.from_extent(-8.0, 8.0, -8.0, 8.0, 1.0), (0.5, 7.999999999999999)),
            (BevSpec.from_extent(-8.0, 8.0, -8.0, 8.0, 1.0), (7.999999999999999, 0.5)),
            (BevSpec.from_extent(-51.2, 51.2, -51.2, 51.2, 0.8), (0.0, 51.199999999999996)),
        ],
    )
    def test_accepts_uv_of_a_point_just_inside_the_upper_edge(self, spec, xy):
        uv, (px, py) = to_pixel(xy, spec)
        assert max(uv[0] - spec.w, uv[1] - spec.h) == 0.0  # rounded up onto the edge
        g = gaussian_bev_map(np.array([uv]), np.array([0.5]), spec, self.CFG)
        assert g.data[0, py, px] == 1.0

    @pytest.mark.parametrize("uv", [(16.000000000000004, 3.0), (3.0, 16.000000000000004), (-1e-300, 3.0)])
    def test_rejects_uv_beyond_the_grid(self, uv):
        with pytest.raises(ContractError, match="outside the grid"):
            gaussian_bev_map(np.array([uv]), np.array([0.5]), BevSpec.from_extent(0.0, 16.0, 0.0, 16.0, 1.0), self.CFG)

    @pytest.mark.parametrize("side", [(24, 24), (20, 13)])
    def test_bit_equal_to_per_point_loop(self, side):
        w, h = side
        spec = BevSpec.from_extent(0.0, float(w), 0.0, float(h), 1.0)
        uv = np.stack([rng.uniform(0, w, 50), rng.uniform(0, h, 50)], axis=1)
        vr = rng.uniform(0, 1, 50)
        # a degenerate denominator at pixel (0, 0), then one footprint
        # clipped by each grid edge
        edges = [(0.0, 0.0), (0.3, h / 2), (w - 0.2, h / 2), (w / 2, 0.1), (w / 2, h - 0.1)]
        uv = np.concatenate([uv, edges])
        vr = np.concatenate([vr, [0.9, 1.0, 1.0, 1.0, 1.0]])
        ref = np.zeros((h, w))
        for (u, v), v_rcs in zip(uv.tolist(), vr.tolist()):
            p = (min(math.floor(u), w - 1), min(math.floor(v), h - 1))
            r = min(self.CFG.radius_scale * (u * u + v * v) * v_rcs, self.CFG.radius_cap)
            for qy in range(h):
                for qx in range(w):
                    if (qx, qy) == p or (qx - p[0]) ** 2 + (qy - p[1]) ** 2 < r * r:
                        val = oracles.gaussian_value((qx, qy), p, (u, v), v_rcs)
                        ref[qy, qx] = max(ref[qy, qx], val)
        g = gaussian_bev_map(uv, vr, spec, self.CFG)
        assert np.array_equal(g.data[0], ref)


def mix_mlp(*layers):
    """Per-pixel mix MLP from (w, b) pairs; ReLU on all but the last layer."""
    return MlpParams(tuple(MlpLayer(w, b, relu=j < len(layers) - 1) for j, (w, b) in enumerate(layers)))


def enc_block(ci, co):
    """A random encoder block as the schema would assemble it."""
    return CbrBlockParams(
        rng.standard_normal((co, ci, 3, 3)) * 0.3,
        rng.standard_normal(co) * 0.1,
        NormParams(
            rng.uniform(0.5, 1.5, co), rng.standard_normal(co) * 0.1, 1e-5,
            mean=rng.standard_normal(co) * 0.1, var=rng.uniform(0.5, 2.0, co),
        ),
        proj=(rng.standard_normal((co, ci)), rng.standard_normal(co)) if ci != co else None,
    )


class TestRcsBevFeature:
    def test_identity_like_mlp(self):
        c = 3
        params = mix_mlp((np.eye(c + 1), np.zeros(c + 1)))
        f = BevGrid(rng.standard_normal((c, SPEC.h, SPEC.w)), SPEC)
        g = BevGrid(rng.uniform(0, 1, size=(1, SPEC.h, SPEC.w)), SPEC)
        out = rcs_bev_feature(f, g, params)
        assert np.abs(out.data - np.concatenate([f.data, g.data], axis=0)).max() < 1e-12

    def test_zero_inputs_zero_bias(self):
        c = 3
        params = mix_mlp((rng.standard_normal((5, c + 1)), np.zeros(5)))
        zeros = BevGrid(np.zeros((c, SPEC.h, SPEC.w)), SPEC)
        out = rcs_bev_feature(zeros, BevGrid(np.zeros((1, SPEC.h, SPEC.w)), SPEC), params)
        assert not out.data.any()

    def test_matches_per_pixel_loop(self):
        spec = BevSpec.from_extent(0.0, 3.0, 0.0, 3.0, 1.0)
        c = 2
        w0, b0 = rng.standard_normal((4, c + 1)), rng.standard_normal(4)
        w1, b1 = rng.standard_normal((3, 4)), rng.standard_normal(3)
        f = BevGrid(rng.standard_normal((c, 3, 3)), spec)
        g = BevGrid(rng.uniform(0, 1, size=(1, 3, 3)), spec)
        out = rcs_bev_feature(f, g, mix_mlp((w0, b0), (w1, b1)))
        for y in range(3):
            for x in range(3):
                row = np.concatenate([f.data[:, y, x], g.data[:, y, x]])[None, :]
                hidden = np.maximum(oracles.loop_matmul(row, w0, b0), 0.0)
                ref = oracles.loop_matmul(hidden, w1, b1)
                assert np.abs(out.data[:, y, x] - ref[0]).max() < 1e-10


class TestBevEncode:
    def test_zero_blocks_is_concat(self):
        f = BevGrid(rng.standard_normal((3, SPEC.h, SPEC.w)), SPEC)
        base = BevGrid(rng.standard_normal((2, SPEC.h, SPEC.w)), SPEC)
        out = bev_encode(f, base, ())
        assert np.array_equal(out.data, np.concatenate([f.data, base.data], axis=0))

    def test_zero_kernels_residual_projection(self):
        c_in, c_out = 4, 2
        proj = rng.standard_normal((c_out, c_in))
        block = CbrBlockParams(
            np.zeros((c_out, c_in, 3, 3)), np.zeros(c_out), identity_norm(c_out, batch=True),
            proj=(proj, np.zeros(c_out)),
        )
        f = BevGrid(rng.standard_normal((2, SPEC.h, SPEC.w)), SPEC)
        base = BevGrid(rng.standard_normal((2, SPEC.h, SPEC.w)), SPEC)
        out = bev_encode(f, base, (block,))
        x = np.concatenate([f.data, base.data], axis=0)
        ref = np.einsum("kc,chw->khw", proj, x)
        assert np.abs(out.data - ref).max() < 1e-10

    def test_matches_composed_oracle(self):
        spec = BevSpec.from_extent(0.0, 5.0, 0.0, 5.0, 1.0)
        c_in, c_mid = 3, 4
        blocks = (enc_block(c_in, c_mid), enc_block(c_mid, c_mid))
        f = BevGrid(rng.standard_normal((2, 5, 5)), spec)
        base = BevGrid(rng.standard_normal((1, 5, 5)), spec)
        out = bev_encode(f, base, blocks)

        x = np.concatenate([f.data, base.data], axis=0)
        for blk in blocks:
            conv = oracles.loop_conv3x3(x, blk.conv_w, blk.conv_b)
            bn = (conv - blk.bn.mean[:, None, None]) / np.sqrt(
                blk.bn.var[:, None, None] + 1e-5
            ) * blk.bn.scale[:, None, None] + blk.bn.shift[:, None, None]
            y = np.maximum(bn, 0.0)
            if blk.proj is not None:
                res = np.einsum("kc,chw->khw", blk.proj[0], x) + blk.proj[1][:, None, None]
            else:
                res = x
            x = y + res
        assert np.abs(out.data - x).max() < 1e-9

    def test_peak_memory_of_one_block(self, monkeypatch):
        # one 128 -> 128 block on 128 x 128: measured 1.15x the output with 2
        # workers, the batch norm, ReLU and skip add running in place on the
        # conv output; 3.0x when each made a new array
        monkeypatch.setattr(rcbev.nn, "_workers", lambda: 2)
        c, h, w = 128, 128, 128
        bn = NormParams(
            rng.uniform(0.5, 2.0, c), rng.standard_normal(c), 1e-5, mean=rng.standard_normal(c), var=rng.uniform(0.5, 2.0, c)
        )
        block = CbrBlockParams(rng.standard_normal((c, c, 3, 3)), rng.standard_normal(c), bn)
        x = rng.standard_normal((c, h, w))
        tracemalloc.start()
        try:
            cbr_residual(x, block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes, f"peak {peak / 1e6:.1f} MB for a {x.nbytes / 1e6:.1f} MB output"

    def test_in_place_block_matches_composed_kernels(self):
        c_in, c_out = 3, 5
        block = enc_block(c_in, c_out)
        x = rng.standard_normal((c_in, 6, 7))
        conv = conv3x3(x, block.conv_w, block.conv_b)
        want = relu(batch_norm_2d(conv, block.bn)) + project_1x1(x, block.proj)
        assert cbr_residual(x, block).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "c_in, c_out, h, w",
        [(1, 4, 1, 1), (33, 7, 1, 1), (3, 5, 7, 9), (12, 7, 5, 11), (16, 8, 16, 16), (64, 128, 128, 128)],
    )
    def test_project_1x1_is_the_removed_string(self, c_in, c_out, h, w):
        x = rng.standard_normal((c_in, h, w))
        proj = (rng.standard_normal((c_out, c_in)), rng.standard_normal(c_out))
        want = np.einsum("kc,chw->khw", proj[0], x, optimize=False)
        want += proj[1][:, None, None]
        assert project_1x1(x, proj).tobytes() == want.tobytes()


LIVE_SPEC = BevSpec.from_extent(0.0, 12.0, 0.0, 12.0, 1.0)
LIVE_POINTS = {
    "corners": [(0.2, 0.3), (11.9, 0.1), (0.1, 11.8), (11.7, 11.9)],
    "edges": [(6.2, 0.1), (6.7, 11.9), (0.1, 5.3), (11.9, 4.4)],
    "empty": [],
    "covered": [(6.0, 6.0)],
}


class TestLiveEncode:
    """The radar encoder's stack is bit-identical to the same stack run with
    the whole-grid conv oracle, wherever the points fall, and each conv skips
    the background unless the grid has none."""

    @staticmethod
    def encoder_inputs(points, scatter):
        n = len(points)
        coords = np.asarray(points, dtype=float).reshape(n, 2)
        feats = PointFeatureSet(rng.standard_normal((n, 3)), coords, rng.uniform(0.2, 1.0, n))
        f_rcs = rcs_scatter(feats, LIVE_SPEC, scatter)
        base = rcs_scatter(feats, LIVE_SPEC, ScatterConfig(0.0, 0.0))
        uv, _ = to_pixel(coords, LIVE_SPEC)
        g_rcs = gaussian_bev_map(uv, feats.rcs_norm, LIVE_SPEC, scatter)
        # one linear layer, so the mixed feature varies wherever the Gaussian map does
        mix = mix_mlp((rng.standard_normal((4, 4)), rng.standard_normal(4)))
        return rcs_bev_feature(f_rcs, g_rcs, mix), base

    @staticmethod
    def assert_encode_matches_oracle(mixed, base, blocks, monkeypatch):
        got = bev_encode(mixed, base, blocks)
        monkeypatch.setattr(rcbev.bev, "conv3x3", oracles.whole_grid_conv3x3)
        assert got.data.tobytes() == bev_encode(mixed, base, blocks).data.tobytes()

    @pytest.mark.parametrize("where", sorted(LIVE_POINTS))
    def test_live_matches_dense(self, where, monkeypatch, conv_pixels):
        scatter = ScatterConfig(100.0, 30.0) if where == "covered" else ScatterConfig(0.05, 2.0)
        mixed, base = self.encoder_inputs(LIVE_POINTS[where], scatter)
        blocks = (enc_block(7, 4), enc_block(4, 4), enc_block(4, 4))
        self.assert_encode_matches_oracle(mixed, base, blocks, monkeypatch)
        # each of the 3 convs skips the background, unless the grid has none
        full = LIVE_SPEC.h * LIVE_SPEC.w
        assert len(conv_pixels) == 3 and all((n == full) == (where == "covered") for n in conv_pixels)

    def test_negative_zero_background_matches_dense(self, monkeypatch, conv_pixels):
        # a mixed feature whose background holds -0.0, next to +0.0 padding;
        # the corner pixel is far from every point, so it holds the background
        mixed, base = self.encoder_inputs(LIVE_POINTS["edges"], ScatterConfig(0.05, 2.0))
        mixed.data[:, (mixed.data == mixed.data[:, :1, :1]).all(axis=0)] = -0.0
        blocks = (enc_block(7, 4), enc_block(4, 4))
        self.assert_encode_matches_oracle(mixed, base, blocks, monkeypatch)
        assert len(conv_pixels) == 2 and all(n < LIVE_SPEC.h * LIVE_SPEC.w for n in conv_pixels)


class TestGridFile:
    def test_roundtrip(self, tmp_path):
        grid = BevGrid(rng.standard_normal((3, SPEC.h, SPEC.w)), SPEC)
        path = tmp_path / "g.bevgrid"
        save_grid(grid, path)
        back = load_grid(path)
        assert np.array_equal(back.data, grid.data)
        assert back.spec == grid.spec
        assert back.data.dtype == np.float64 and back.data.flags.writeable

    def test_version_1_rejected(self, tmp_path):
        grid = BevGrid(np.zeros((2, SPEC.h, SPEC.w)), SPEC)
        path = tmp_path / "g.bevgrid"
        save_grid(grid, path)
        head = 4 + struct.calcsize("<IIII5d")
        # version 1: the same header, then a float32 payload
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:head] + grid.data.astype("<f4").tobytes())
        with pytest.raises(FormatError, match="version 1"):
            load_grid(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "g.bevgrid"
        path.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(FormatError):
            load_grid(path)

    def test_truncated_payload(self, tmp_path):
        grid = BevGrid(np.zeros((2, SPEC.h, SPEC.w)), SPEC)
        path = tmp_path / "g.bevgrid"
        save_grid(grid, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_grid(path)

    def test_non_finite_rejected(self, tmp_path):
        grid = BevGrid(np.zeros((1, SPEC.h, SPEC.w)), SPEC)
        grid.data[0, 0, 0] = 1.0
        path = tmp_path / "g.bevgrid"
        save_grid(grid, path)
        raw = bytearray(path.read_bytes())
        head = 4 + struct.calcsize("<IIII5d")
        raw[head : head + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            load_grid(path)
