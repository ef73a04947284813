import math

import numpy as np
import pytest

from rcbev.bev import BevSpec
from rcbev.errors import ConfigError, ContractError, DataError, FormatError
from rcbev.ingest import (
    ClusterSpec,
    PointCloud,
    RadarPoint,
    SceneConfig,
    assemble_features,
    canonical,
    filter_roi,
    load_point_cloud,
    load_point_cloud_binary,
    normalize_rcs,
    save_point_cloud,
    save_point_cloud_binary,
    synth_scene,
)

SPEC = BevSpec.from_extent(-10.0, 10.0, -10.0, 10.0, 1.0)


def pt(x, y, **kw):
    args = dict(z=0.0, rcs_dbsm=5.0, vx=0.0, vy=0.0, sweep_offset=0.0)
    args.update(kw)
    return RadarPoint(x, y, **args)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        cloud = canonical([pt(1.25, -3.5), pt(0.1, 0.2, sweep_offset=-0.083)], "f1")
        path = tmp_path / "r.csv"
        save_point_cloud(cloud, path)
        back = load_point_cloud(path)
        assert back.frame_id == "f1"
        assert back.points == cloud.points

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("# frame=empty compensated=true\nx,y,z,rcs,vx,vy,sweep_offset\n")
        assert len(load_point_cloud(path)) == 0

    def test_three_rows_canonical_order(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "x,y,z,rcs,vx,vy,sweep_offset\n"
            "5,0,0,1,0,0,0\n"
            "1,0,0,1,0,0,0\n"
            "3,0,0,1,0,0,-0.1\n"
        )
        cloud = load_point_cloud(path)
        assert [p.x for p in cloud.points] == [3.0, 1.0, 5.0]  # sweep first, then x

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x,y,z,vx,vy,sweep_offset\n1,2,3,4,5,0\n")
        with pytest.raises(FormatError, match="rcs"):
            load_point_cloud(path)

    def test_non_finite_field(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x,y,z,rcs,vx,vy,sweep_offset\n1,nan,0,1,0,0,0\n")
        with pytest.raises(DataError):
            load_point_cloud(path)


class TestBinary:
    def test_roundtrip(self, tmp_path):
        cloud = canonical([pt(1.5, 2.5, rcs_dbsm=3.0), pt(-4.0, 0.25, sweep_offset=-0.25)])
        path = tmp_path / "r.bin"
        save_point_cloud_binary(cloud, path)
        back = load_point_cloud_binary(path)
        assert len(back) == 2
        assert back.points[0].x == pytest.approx(-4.0)
        assert path.stat().st_size == 4 + 28 * 2

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "r.bin"
        path.write_bytes(b"\x02\x00\x00\x00" + b"\x00" * 27)
        with pytest.raises(FormatError):
            load_point_cloud_binary(path)


class TestPoints:
    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            pt(float("inf"), 0.0)

    def test_positive_sweep_offset_rejected(self):
        with pytest.raises(DataError):
            pt(0.0, 0.0, sweep_offset=0.5)


class TestFilterRoi:
    def test_half_open_boundaries(self):
        lo = filter_roi(PointCloud((pt(-10.0, 0.0),)), SPEC)
        hi = filter_roi(PointCloud((pt(10.0, 0.0),)), SPEC)
        assert len(lo) == 1 and len(hi) == 0

    def test_inside_identity_and_idempotent(self):
        cloud = canonical([pt(0, 0), pt(5, -5), pt(-9.99, 9.99)])
        once = filter_roi(cloud, SPEC)
        assert once.points == cloud.points
        assert filter_roi(once, SPEC).points == once.points


class TestNormalizeRcs:
    def test_endpoints_and_midpoint(self):
        assert normalize_rcs(-20.0) == 0.0
        assert normalize_rcs(30.0) == 1.0
        assert normalize_rcs(5.0) == pytest.approx(0.5)

    def test_clamps(self):
        assert normalize_rcs(-100.0) == 0.0
        assert normalize_rcs(100.0) == 1.0

    def test_monotone(self):
        vals = [normalize_rcs(v) for v in np.linspace(-40, 50, 200)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_bad_bounds(self):
        with pytest.raises(ConfigError):
            normalize_rcs(0.0, (5.0, 5.0))


class TestAssembleFeatures:
    def test_corner_normalizes_to_zero(self):
        cloud = PointCloud((pt(-10.0, -10.0),))
        feats = assemble_features(cloud, SPEC)
        assert feats.features[0, 0] == 0.0 and feats.features[0, 1] == 0.0

    def test_shape(self):
        cloud = canonical([pt(float(i), 0.0) for i in range(-5, 5)])
        feats = assemble_features(cloud, SPEC)
        assert feats.features.shape == (10, 7)
        assert feats.coords.shape == (10, 2)
        assert feats.rcs_norm.shape == (10,)

    def test_known_point(self):
        cloud = PointCloud((pt(0.0, 5.0, z=1.5, rcs_dbsm=5.0, vx=2.0, vy=-1.0, sweep_offset=-0.2),))
        row = assemble_features(cloud, SPEC).features[0]
        assert row == pytest.approx([0.5, 0.75, 1.5, 0.5, 2.0, -1.0, -0.2])

    def test_outside_roi_rejected(self):
        with pytest.raises(ContractError):
            assemble_features(PointCloud((pt(11.0, 0.0),)), SPEC)


class TestSynthScene:
    def test_deterministic(self):
        cfg = SceneConfig(n_clusters=3, points_per_cluster=4, n_sweeps=2)
        a = synth_scene(cfg, 9)
        b = synth_scene(cfg, 9)
        assert a.points == b.points

    def test_zero_noise_on_bearing(self):
        cfg = SceneConfig(
            azimuth_noise_deg=0.0,
            n_sweeps=3,
            clusters=(ClusterSpec(bearing_deg=30.0, range_m=10.0, n_points=5, rcs_dbsm=8.0),),
        )
        cloud = synth_scene(cfg, 1)
        for p in cloud.points:
            assert math.degrees(math.atan2(p.y, p.x)) == pytest.approx(30.0, abs=1e-9)

    def test_zero_clusters_empty(self):
        assert len(synth_scene(SceneConfig(n_clusters=0), 0)) == 0

    def test_counts(self):
        cfg = SceneConfig(n_clusters=2, points_per_cluster=3, n_sweeps=4)
        assert len(synth_scene(cfg, 0)) == 2 * 3 * 4

    def test_ingest_is_bit_deterministic(self, tmp_path):
        cfg = SceneConfig(n_clusters=2, points_per_cluster=5, n_sweeps=3, azimuth_noise_deg=1.0)
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_point_cloud(synth_scene(cfg, 3), path_a)
        save_point_cloud(synth_scene(cfg, 3), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        feats_a = assemble_features(filter_roi(load_point_cloud(path_a), SPEC), SPEC)
        feats_b = assemble_features(filter_roi(load_point_cloud(path_b), SPEC), SPEC)
        assert np.array_equal(feats_a.features, feats_b.features)


class TestIngestEdges:
    def test_columns_in_any_order(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "sweep_offset,vy,vx,rcs,z,y,x\n"
            "0,-1,2,5,1.5,5,0\n"
        )
        cloud = load_point_cloud(path)
        p = cloud.points[0]
        assert (p.x, p.y, p.z, p.rcs_dbsm, p.vx, p.vy, p.sweep_offset) == (0, 5, 1.5, 5, 2, -1, 0)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x,y,z,rcs,vx,vy,sweep_offset,extra\n1,2,3,4,5,6,0,9\n")
        with pytest.raises(FormatError, match="extra"):
            load_point_cloud(path)
