import numpy as np
import pytest

import helpers
from rcbev.bev import (
    BevGrid,
    BevSpec,
    CbrBlockParams,
    ScatterConfig,
    bev_encode,
    gaussian_bev_map,
    load_grid,
    rcs_bev_feature,
    rcs_scatter,
    save_grid,
    scatter_radius,
    to_pixel,
)
from rcbev.errors import ConfigError, ContractError, DataError, FormatError
from rcbev.ingest import PointFeatureSet
from rcbev.nn import MlpLayer, MlpParams, NormParams, identity_norm

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


class TestScatterRadius:
    def test_zero_rcs(self):
        assert scatter_radius((3.0, 4.0), 0.0, ScatterConfig()) == 0.0

    def test_pixel_arithmetic(self):
        r = scatter_radius((3.0, 4.0), 0.08, ScatterConfig(radius_scale=1.0, radius_cap=1e9))
        assert r == pytest.approx(2.0, abs=1e-12)

    def test_cap(self):
        r = scatter_radius((100.0, 100.0), 1.0, ScatterConfig(radius_scale=1.0, radius_cap=5.0))
        assert r == 5.0

    def test_negative_cap_rejected(self):
        with pytest.raises(ConfigError):
            ScatterConfig(radius_scale=-0.1)


def oracle_scatter(feats, spec, cfg):
    pixels = np.zeros((len(feats), 2), dtype=np.int64)
    radii = np.zeros(len(feats))
    for i in range(len(feats)):
        (u, v), (px, py) = to_pixel(feats.coords[i], spec)
        pixels[i] = (px, py)
        radii[i] = scatter_radius((u, v), float(feats.rcs_norm[i]), cfg)
    return helpers.scatter_reference(feats.features, pixels, radii, spec.h, spec.w)


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
        assert helpers.fsum_all(grid.data) == helpers.fsum_all(feats.features)

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
        assert abs(helpers.fsum_all(grid.data) - total) < 1e-9

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
                    ref = helpers.gaussian_value((qx, qy), (7, 9), uv, v_rcs)
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
                hidden = np.maximum(helpers.loop_matmul(row, w0, b0), 0.0)
                ref = helpers.loop_matmul(hidden, w1, b1)
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
            conv = helpers.loop_conv3x3(x, blk.conv_w, blk.conv_b)
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


class TestGridFile:
    def test_roundtrip(self, tmp_path):
        grid = BevGrid(rng.standard_normal((3, SPEC.h, SPEC.w)).astype(np.float32).astype(np.float64), SPEC)
        path = tmp_path / "g.bevgrid"
        save_grid(grid, path)
        back = load_grid(path)
        assert np.array_equal(back.data, grid.data)
        assert back.spec == grid.spec

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
        import struct as _struct

        head = 4 + _struct.calcsize("<IIII5d")
        raw[head : head + 4] = _struct.pack("<f", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            load_grid(path)
