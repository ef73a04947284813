import hashlib
import math
import struct

import numpy as np
import pytest

from rcbev.bev import BevSpec
from rcbev.config import PipelineConfig
from rcbev.errors import ConfigError, ContractError, DataError, FormatError, ShapeError
from rcbev.ingest import (
    ClusterSpec,
    PointCloud,
    SceneConfig,
    assemble_features,
    filter_roi,
    load_point_cloud,
    load_point_cloud_binary,
    normalize_rcs,
    save_point_cloud,
    save_point_cloud_binary,
    synth_scene,
)

SPEC = BevSpec.from_extent(-10.0, 10.0, -10.0, 10.0, 1.0)

# sha256 of the save_point_cloud and save_point_cloud_binary output for
# synth_scene(PipelineConfig().scene, 0), computed on the code that held each
# point as an object, so the array representation is byte-compatible with it
RADAR_FILE_SHA256 = {
    "csv": "d879dd59d95df108e34a3b01e4a243f527c9391bff2441345241eb446c541505",
    "bin": "582a892d70fcc2a9e446a4bd00c30a98a11d0f8917c6133fe7cff6a2a83fe7e9",
}


def tied_rows(rng, n=24):
    """Rows on a coarse grid of values exact in float32, so many rows tie on
    (sweep_offset, x, y, z) and differ only in rcs or velocity, and three
    are duplicates."""
    rows = np.column_stack([
        rng.integers(-2, 3, n) * 0.5,
        rng.integers(-1, 2, n) * 0.5,
        np.zeros(n),
        rng.integers(0, 4, n) * 2.5,
        rng.integers(-1, 2, n) * 0.25,
        rng.integers(-1, 2, n) * 0.25,
        -rng.integers(0, 2, n) * 0.125,
    ])
    rows[1] = rows[2] = rows[0]
    return rows


def pt(x, y, **kw):
    args = dict(z=0.0, rcs_dbsm=5.0, vx=0.0, vy=0.0, sweep_offset=0.0)
    args.update(kw)
    return (x, y, args["z"], args["rcs_dbsm"], args["vx"], args["vy"], args["sweep_offset"])


class TestCsv:
    def test_roundtrip(self, tmp_path):
        cloud = PointCloud([pt(1.25, -3.5), pt(0.1, 0.2, sweep_offset=-0.083)], "f1")
        path = tmp_path / "r.csv"
        save_point_cloud(cloud, path)
        back = load_point_cloud(path)
        assert back.frame_id == "f1"
        assert np.array_equal(back.rows, cloud.rows)

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
        assert cloud.rows[:, 0].tolist() == [3.0, 1.0, 5.0]  # sweep first, then x

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


    def test_non_utf8_bytes_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"x,y,z,rcs,vx,vy,sweep_offset\n1,2,0,1,0,0,0\xff\n")
        with pytest.raises(FormatError, match="UTF-8"):
            load_point_cloud(path)

    def test_duplicate_column_named(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x,y,z,rcs,vx,vy,sweep_offset,x\n1,2,0,1,0,0,0,5\n")
        with pytest.raises(FormatError, match="duplicate column 'x'"):
            load_point_cloud(path)


class TestBinary:
    def test_roundtrip(self, tmp_path):
        cloud = PointCloud([pt(1.5, 2.5, rcs_dbsm=3.0), pt(-4.0, 0.25, sweep_offset=-0.25)])
        path = tmp_path / "r.bin"
        save_point_cloud_binary(cloud, path)
        back = load_point_cloud_binary(path)
        assert len(back) == 2
        assert back.rows[0, 0] == pytest.approx(-4.0)
        assert path.stat().st_size == 4 + 28 * 2

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "r.bin"
        path.write_bytes(b"\x02\x00\x00\x00" + b"\x00" * 27)
        with pytest.raises(FormatError):
            load_point_cloud_binary(path)


class TestPoints:
    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            PointCloud([pt(0.0, 0.0), pt(float("inf"), 0.0)])
        with pytest.raises(DataError, match="vy"):
            PointCloud([pt(0.0, 0.0, vy=float("nan"))])

    def test_positive_sweep_offset_rejected(self):
        with pytest.raises(DataError):
            PointCloud([pt(0.0, 0.0, sweep_offset=0.5)])

    @pytest.mark.parametrize("shape", [(3, 6), (3, 8), (7,), (0,), (1, 3, 7)])
    def test_not_n_by_7_rejected(self, shape):
        with pytest.raises(ShapeError):
            PointCloud(np.zeros(shape))

    def test_empty_cloud(self):
        cloud = PointCloud(np.zeros((0, 7)), "empty")
        assert len(cloud) == 0 and cloud.rows.shape == (0, 7)
        assert cloud.frame_id == "empty" and cloud.compensated

    def test_rows_read_only(self):
        src = np.array([pt(1.0, 2.0), pt(0.0, 3.0)])
        cloud = PointCloud(src)
        with pytest.raises(ValueError):
            cloud.rows[0, 0] = 9.0
        src[0, 0] = 9.0  # the cloud holds its own copy
        assert cloud.rows[:, 0].tolist() == [0.0, 1.0]

    def test_ties_on_position_broken_by_remaining_columns(self):
        rows = [pt(1.0, 1.0, rcs_dbsm=r, vx=vx, vy=vy) for r, vx, vy in [(5, 0, 1), (5, 0, 0), (3, 2, 0), (5, -1, 0)]]
        cloud = PointCloud(rows)
        assert cloud.rows[:, 3:6].tolist() == [[3, 2, 0], [5, -1, 0], [5, 0, 0], [5, 0, 1]]

    def test_every_permutation_gives_the_same_rows(self):
        rng = np.random.default_rng(4)
        rows = tied_rows(rng)
        ref = PointCloud(rows).rows
        for _ in range(20):
            assert PointCloud(rows[rng.permutation(len(rows))]).rows.tobytes() == ref.tobytes()

    def test_rows_differing_in_signed_zero_tie(self):
        # they compare equal, so their order is the input order
        a, b = pt(0.0, 1.0, vy=0.0), pt(0.0, 1.0, vy=-0.0)
        assert np.signbit(PointCloud([a, b]).rows[:, 5]).tolist() == [False, True]
        assert np.signbit(PointCloud([b, a]).rows[:, 5]).tolist() == [True, False]


class TestPermutedFiles:
    def test_permuted_csv_and_binary_load_identical_rows(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = tied_rows(rng)
        loaded = []
        for k in range(4):
            perm = rows[rng.permutation(len(rows))]
            csv, binary = tmp_path / f"p{k}.csv", tmp_path / f"p{k}.bin"
            lines = ["x,y,z,rcs,vx,vy,sweep_offset"] + [",".join(map(repr, r)) for r in perm.tolist()]
            csv.write_text("\n".join(lines) + "\n")
            binary.write_bytes(struct.pack("<I", len(perm)) + perm.astype("<f4").tobytes())
            loaded += [load_point_cloud(csv).rows, load_point_cloud_binary(binary).rows]
        for got in loaded:
            assert got.tobytes() == loaded[0].tobytes()

    def test_radar_file_bytes_pinned(self, tmp_path):
        cloud = synth_scene(PipelineConfig().scene, 0)
        for ext, save in (("csv", save_point_cloud), ("bin", save_point_cloud_binary)):
            path = tmp_path / f"scene.{ext}"
            save(cloud, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == RADAR_FILE_SHA256[ext]


class TestFilterRoi:
    def test_half_open_boundaries(self):
        lo = filter_roi(PointCloud([pt(-10.0, 0.0)]), SPEC)
        hi = filter_roi(PointCloud([pt(10.0, 0.0)]), SPEC)
        assert len(lo) == 1 and len(hi) == 0

    def test_inside_identity_and_idempotent(self):
        cloud = PointCloud([pt(0, 0), pt(5, -5), pt(-9.99, 9.99)])
        once = filter_roi(cloud, SPEC)
        assert np.array_equal(once.rows, cloud.rows)
        assert np.array_equal(filter_roi(once, SPEC).rows, once.rows)


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
        cloud = PointCloud([pt(-10.0, -10.0)])
        feats = assemble_features(cloud, SPEC)
        assert feats.features[0, 0] == 0.0 and feats.features[0, 1] == 0.0

    def test_shape(self):
        cloud = PointCloud([pt(float(i), 0.0) for i in range(-5, 5)])
        feats = assemble_features(cloud, SPEC)
        assert feats.features.shape == (10, 7)
        assert feats.coords.shape == (10, 2)
        assert feats.rcs_norm.shape == (10,)

    def test_known_point(self):
        cloud = PointCloud([pt(0.0, 5.0, z=1.5, rcs_dbsm=5.0, vx=2.0, vy=-1.0, sweep_offset=-0.2)])
        row = assemble_features(cloud, SPEC).features[0]
        assert row == pytest.approx([0.5, 0.75, 1.5, 0.5, 2.0, -1.0, -0.2])

    def test_outside_roi_rejected(self):
        with pytest.raises(ContractError):
            assemble_features(PointCloud([pt(11.0, 0.0)]), SPEC)

    def test_matches_per_point_formula(self):
        scene = SceneConfig(n_clusters=6, points_per_cluster=5, n_sweeps=3, max_range_m=12.0)
        cloud = filter_roi(synth_scene(scene, 2), SPEC)
        lo, hi = 0.0, 20.0
        feats = assemble_features(cloud, SPEC, (lo, hi))
        assert len(cloud) > 0 and {0.0, 1.0} <= set(feats.rcs_norm.tolist())  # both clamps hit
        for i, (x, y, z, rcs, vx, vy, t) in enumerate(cloud.rows.tolist()):
            r = min(1.0, max(0.0, (rcs - lo) / (hi - lo)))
            x_norm = (x - SPEC.x_min) / (SPEC.x_max - SPEC.x_min)
            y_norm = (y - SPEC.y_min) / (SPEC.y_max - SPEC.y_min)
            assert feats.features[i].tolist() == [x_norm, y_norm, z, r, vx, vy, t]
            assert feats.coords[i].tolist() == [x, y] and feats.rcs_norm[i] == r


class TestSynthScene:
    def test_deterministic(self):
        cfg = SceneConfig(n_clusters=3, points_per_cluster=4, n_sweeps=2)
        a = synth_scene(cfg, 9)
        b = synth_scene(cfg, 9)
        assert np.array_equal(a.rows, b.rows)

    def test_zero_noise_on_bearing(self):
        cfg = SceneConfig(
            azimuth_noise_deg=0.0,
            n_sweeps=3,
            clusters=(ClusterSpec(bearing_deg=30.0, range_m=10.0, n_points=5, rcs_dbsm=8.0),),
        )
        cloud = synth_scene(cfg, 1)
        for x, y in cloud.rows[:, :2]:
            assert math.degrees(math.atan2(y, x)) == pytest.approx(30.0, abs=1e-9)

    @pytest.mark.parametrize(
        "field, value",
        [("max_range_m", math.nan), ("z_m", math.inf), ("azimuth_noise_deg", -0.1), ("n_sweeps", -1)],
    )
    def test_scene_value_error_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SceneConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("range_m", math.nan), ("heading_deg", -math.inf), ("n_points", -1)])
    def test_cluster_value_error_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ClusterSpec(**{"bearing_deg": 0.0, "range_m": 5.0, "n_points": 3, "rcs_dbsm": 1.0, field: value})

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
        assert tuple(cloud.rows[0]) == (0, 5, 1.5, 5, 2, -1, 0)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x,y,z,rcs,vx,vy,sweep_offset,extra\n1,2,3,4,5,6,0,9\n")
        with pytest.raises(FormatError, match="extra"):
            load_point_cloud(path)
