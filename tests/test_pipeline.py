import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rcbev import cli, pipeline
from rcbev.bev import BevGrid, BevSpec, load_grid, save_grid
from rcbev.cli import main as cli_main
from rcbev.config import (
    PipelineConfig,
    config_from_kv,
    load_config,
    model_tensors,
    parse_kv_text,
)
from rcbev.errors import ConfigError, PipelineError
from rcbev.ingest import PointCloud, SceneConfig, load_point_cloud, load_point_cloud_binary, synth_scene
from rcbev.pipeline import checksum, gen_camera_bev, run_pipeline
from rcbev.selfcheck import run_selfcheck, tiny_pipeline_config
from rcbev.weights import init_weights, save_weights


def small_cfg(**kw):
    base = tiny_pipeline_config()
    return replace(base, **kw) if kw else base


class TestConfigFile:
    def test_parse_kv(self):
        kv = parse_kv_text("a.b = 1\n# comment\nc.d = hello  # trailing\n")
        assert kv == {"a.b": "1", "c.d": "hello"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv_text("a = 1\na = 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_kv({"nope.key": "1"})

    @pytest.mark.parametrize(
        "bad",
        [
            {"enc_blocks": -1},
            {"fuse_blocks": -1},
            {"radar_channels": 0},
            {"cam_channels": -8},
            {"fused_channels": 0},
            {"rcs_out": -1},
            {"rcs_hidden": (8, 0)},
            {"deform_heads": 0},
            {"deform_points": 0},
            {"cam_modes": -1},
            {"ffn_mult": 0},
            {"dmsa_heads": 0},
            {"cross_heads": 0},
            "fuse.blocks = -1",
            "enc.channels = -4",
            "backbone.dmsa_heads = 0",
            {"eps": float("nan")},
            {"eps": 0.0},
            {"rcs_bounds": (float("nan"), 30.0)},
            {"rcs_bounds": (30.0, -20.0)},
            "bev.resolution = nan",
            "bev.x_min = nan",
            "bev.y_max = inf",
            "bev.resolution = 0",
            "rcs.lo = nan",
            "rcs.hi = inf",
            "rcs.lo = 30\nrcs.hi = -20",
            "scatter.radius_scale = nan",
            "scatter.radius_cap = inf",
            "pipeline.eps = nan",
            "scene.max_range_m = nan",
            "scene.sweep_period_s = inf",
            "scene.azimuth_noise_deg = -0.5",
            "scene.cluster.0.bearing_deg = 30\nscene.cluster.0.range_m = nan",
            "scene.cluster.0.bearing_deg = 30\nscene.cluster.0.range_m = 5\nscene.cluster.0.speed_mps = -inf",
            "scene.cluster.0.bearing_deg = 30\nscene.cluster.0.range_m = 5\nscene.cluster.0.n_points = -1",
            "bev.x_min = -1e308\nbev.x_max = 1e308",
            "bev.resolution = 5e-324",
            {"seed": -1},
            "pipeline.seed = -1",
            "bev.resolution = 1e-300",  # h = w ~ 1e302: rejected at load, never run
        ],
    )
    def test_negative_count_or_size_rejected(self, bad, tmp_path):
        with pytest.raises(ConfigError):
            if isinstance(bad, str):
                path = tmp_path / "cfg.txt"
                path.write_text(bad + "\n")
                load_config(path)
            else:
                small_cfg(**bad)

    def test_encoder_without_blocks_needs_matching_widths_at_load(self, tmp_path):
        # with no conv block the radar BEV is the concat of the mix and the
        # scattered point features: 64 + 64 != 64 channels by default, 8 + 8 != 8 tiny
        path = tmp_path / "cfg.txt"
        path.write_text("enc.blocks = 0\n")
        names = r"enc\.blocks = 0 .*rcs_mlp\.out \+ backbone\.widths\[-1\] .* enc\.channels"
        for load in (lambda: PipelineConfig(enc_blocks=0), lambda: small_cfg(enc_blocks=0), lambda: load_config(path)):
            with pytest.raises(ConfigError, match=names):
                load()

    def test_encoder_without_blocks_runs_with_matching_widths(self):
        cfg = small_cfg(enc_blocks=0, radar_channels=16)  # rcs_out 8 + point channels 8
        out, report = run_pipeline(cfg)
        assert [s.name for s in report.stages][-1] == "fuse"
        assert out.radar_bev.data.shape == (16, 16, 16)
        # no conv: the radar BEV is the channel concat of the mix and the single-pixel scatter
        assert np.array_equal(out.radar_bev.data[8:], out.base.data)
        assert np.all(np.isfinite(out.fused.data))

    def test_full_roundtrip(self, tmp_path):
        text = """
        bev.x_min = -8
        bev.x_max = 8
        bev.y_min = -8
        bev.y_max = 8
        bev.resolution = 1.0
        backbone.widths = 8,8
        backbone.dmsa_heads = 2
        scatter.radius_scale = 0.05
        scatter.radius_cap = 3
        rcs.lo = -10
        rcs.hi = 20
        rcs_mlp.hidden = 8
        rcs_mlp.out = 8
        enc.blocks = 1
        enc.channels = 8
        align.heads = 2
        align.points = 2
        cam.channels = 8
        fuse.channels = 16
        fuse.blocks = 2
        pipeline.seed = 5
        scene.n_clusters = 2
        scene.points_per_cluster = 3
        scene.n_sweeps = 2
        scene.cluster.0.bearing_deg = 30
        scene.cluster.0.range_m = 5
        scene.cluster.0.rcs_dbsm = 12
        scene.cluster.1.bearing_deg = 200
        scene.cluster.1.range_m = 4
        """
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.bev.h == 16 and cfg.bev.w == 16
        assert cfg.stage_widths == (8, 8)
        assert cfg.scatter.radius_scale == 0.05
        assert cfg.rcs_bounds == (-10.0, 20.0)
        assert cfg.seed == 5
        assert len(cfg.scene.clusters) == 2
        assert cfg.scene.clusters[0].bearing_deg == 30.0

    def test_default_bev_is_nuscenes_like(self):
        cfg = PipelineConfig()
        assert (cfg.bev.h, cfg.bev.w) == (128, 128)
        assert cfg.bev.resolution == 0.8
        assert len(cfg.stage_widths) == 3


class TestGenCameraBev:
    SPEC = BevSpec.from_extent(-8, 8, -8, 8, 1.0)

    def test_deterministic(self):
        a = gen_camera_bev(self.SPEC, 4, 3)
        b = gen_camera_bev(self.SPEC, 4, 3)
        assert np.array_equal(a.data, b.data)

    def test_zero_mean_per_channel(self):
        g = gen_camera_bev(self.SPEC, 6, 1)
        assert np.abs(g.data.mean(axis=(1, 2))).max() < 1e-9

    def test_different_seeds_differ(self):
        a = gen_camera_bev(self.SPEC, 4, 1)
        b = gen_camera_bev(self.SPEC, 4, 2)
        assert checksum(a.data) != checksum(b.data)


def test_checksum_matches_copying_formula():
    # the digest hashes the array in place; it must equal the formula that
    # copied it twice (astype, then tobytes), which the benchmark records use
    def copied(arr):
        arr = np.ascontiguousarray(arr)
        h = hashlib.sha256()
        h.update(repr(arr.shape).encode())
        h.update(str(arr.dtype).encode())
        h.update(arr.astype("<f8").tobytes() if arr.dtype.kind == "f" else arr.tobytes())
        return h.hexdigest()

    a = np.random.default_rng(3).standard_normal((4, 5, 6))
    for arr in (a, a.transpose(2, 0, 1), a[:, ::2], a.astype(np.float32), a.astype(">f8"), np.arange(12).reshape(3, 4)):
        assert checksum(arr) == copied(arr)


class TestRunPipeline:
    def test_deterministic_checksums(self):
        cfg = small_cfg()
        out1, rep1 = run_pipeline(cfg)
        out2, rep2 = run_pipeline(cfg)
        assert checksum(out1.fused.data) == checksum(out2.fused.data)
        assert [s.checksum for s in rep1.stages] == [s.checksum for s in rep2.stages]

    def test_empty_cloud_runs_to_completion(self):
        cfg = small_cfg()
        empty = PointCloud(np.zeros((0, 7)), "empty")
        out, report = run_pipeline(cfg, cloud=empty)
        assert not out.f_rcs.data.any()
        assert not out.radar_bev.data.any()  # zero-init biases and identity bn stats
        assert out.fused.data.shape[0] == cfg.fused_channels
        assert out.backbone is None
        assert np.all(np.isfinite(out.fused.data))

    def test_scatter_count_matches_oracle(self):
        from rcbev import oracles
        from rcbev.bev import scatter_radius, to_pixel
        from rcbev.ingest import ClusterSpec

        three_clusters = SceneConfig(
            n_clusters=3,
            points_per_cluster=4,
            azimuth_noise_deg=0.5,
            n_sweeps=2,
            clusters=(
                ClusterSpec(20.0, 5.0, 4, 15.0, 1.0, 45.0),
                ClusterSpec(140.0, 6.0, 4, 5.0, 0.0, 0.0),
                ClusterSpec(300.0, 4.5, 4, 25.0, 4.0, 200.0),
            ),
        )
        cfg = small_cfg(scene=three_clusters)
        out, _ = run_pipeline(cfg)
        feats = out.backbone.fused
        n = feats.shape[0]
        # recount nonzero pixels with the brute-force predicate
        coords = np.zeros((n, 2), dtype=np.int64)
        radii = np.zeros(n)
        from rcbev.ingest import assemble_features, filter_roi, synth_scene

        cloud = filter_roi(synth_scene(cfg.scene, cfg.seed), cfg.bev)
        pf = assemble_features(cloud, cfg.bev, cfg.rcs_bounds)
        for i in range(n):
            (u, v), (px, py) = to_pixel(pf.coords[i], cfg.bev)
            coords[i] = (px, py)
            radii[i] = scatter_radius((u, v), float(pf.rcs_norm[i]), cfg.scatter)
        ref = oracles.scatter_reference(feats, coords, radii, cfg.bev.h, cfg.bev.w)
        got_nonzero = int(np.count_nonzero(out.f_rcs.data.any(axis=0)))
        ref_nonzero = int(np.count_nonzero(ref.any(axis=0)))
        assert got_nonzero == ref_nonzero
        assert np.array_equal(out.f_rcs.data, ref)

    def test_stage_attribution_on_error(self):
        cfg = small_cfg(weights_path="/nonexistent/weights.json")
        with pytest.raises((PipelineError, FileNotFoundError)) as err:
            run_pipeline(cfg)
        if isinstance(err.value, PipelineError):
            assert err.value.stage == "weights"

    @pytest.mark.parametrize(
        "extent, channels, key",
        [((-8, 8, -8, 8), 4, "cam.channels"), ((0, 16, 0, 16), 8, "bev.x_min")],
        ids=["channels", "x_min"],  # the second has the config's 16 x 16 size over another extent
    )
    def test_camera_mismatch_fails_in_camera_stage(self, extent, channels, key):
        cfg = small_cfg()
        spec = BevSpec.from_extent(*extent, cfg.bev.resolution)
        camera = BevGrid(np.random.default_rng(0).standard_normal((channels, spec.h, spec.w)), spec)
        with pytest.raises(PipelineError, match=key) as err:
            run_pipeline(cfg, camera=camera)
        assert err.value.stage == "camera"

    def test_loaded_weights_match_seeded(self, tmp_path):
        cfg = small_cfg()
        ws = init_weights(model_tensors(cfg), cfg.seed)
        path = tmp_path / "w.json"
        save_weights(ws, path)
        out_seeded, _ = run_pipeline(cfg)
        out_loaded, _ = run_pipeline(replace(cfg, weights_path=str(path)))
        assert checksum(out_seeded.fused.data) == checksum(out_loaded.fused.data)

    def test_fused_grid_invariant_under_row_permutations(self):
        cfg = small_cfg()
        rows = synth_scene(cfg.scene, cfg.seed).rows
        # rows tied with the first four on (sweep_offset, x, y, z) that differ
        # in rcs or vx, and one duplicate row
        tied = rows[:4].copy()
        tied[:, 3] += [3.0, -4.0, 0.0, 1.5]
        tied[2, 4] += 0.5
        rows = np.vstack([rows, tied, rows[5:6]])
        rng = np.random.default_rng(11)
        ref, _ = run_pipeline(cfg, cloud=PointCloud(rows))
        for _ in range(20):
            out, _ = run_pipeline(cfg, cloud=PointCloud(rows[rng.permutation(len(rows))]))
            assert np.array_equal(out.fused.data, ref.fused.data)
            assert np.array_equal(out.radar_bev.data, ref.radar_bev.data)

    @pytest.mark.parametrize(
        "xy, pixel", [((0.5, 7.999999999999999), (8, 15)), ((7.999999999999999, 0.5), (15, 8))]
    )
    def test_point_just_inside_the_upper_edge(self, xy, pixel):
        # (xy - min) / resolution rounds up to 16.0, the grid size, at both edges
        out, _ = run_pipeline(small_cfg(), cloud=PointCloud(np.array([[*xy, 0.0, 5.0, 0.0, 0.0, 0.0]])))
        px, py = pixel
        assert out.g_rcs.data[0, py, px] == 1.0 and out.f_rcs.data[:, py, px].any()

    def test_report_has_all_stages(self):
        _, report = run_pipeline(small_cfg())
        names = [s.name for s in report.stages]
        for stage in ("weights", "load", "ingest", "backbone", "scatter", "bev_encode", "camera", "align", "fuse"):
            assert stage in names
        assert all(s.ms >= 0 for s in report.stages)
        assert {g.name for g in report.grids} == {"f_rcs", "radar_bev", "fused"}

    @pytest.mark.parametrize("enc_blocks", [1, 2])
    def test_encoder_convs_skip_background_fuse_convs_do_not(self, enc_blocks, conv_pixels):
        # the golden run, and one more encoder block whose conv reads a block output
        cfg = replace(tiny_pipeline_config(), enc_blocks=enc_blocks)
        run_pipeline(cfg, cloud=load_point_cloud(Path(__file__).parent / "data" / "golden_scene.csv"))
        full = cfg.bev.h * cfg.bev.w
        encoder, fuse = conv_pixels[:enc_blocks], conv_pixels[enc_blocks:]
        assert len(fuse) == cfg.fuse_blocks + 1, conv_pixels
        assert all(0 < n < full for n in encoder) and all(n == full for n in fuse), conv_pixels


def write_tiny_config(path, seed=5):
    path.write_text(
        "bev.x_min = -8\nbev.x_max = 8\nbev.y_min = -8\nbev.y_max = 8\nbev.resolution = 1\n"
        "backbone.widths = 8,8\nbackbone.dmsa_heads = 2\n"
        "rcs_mlp.hidden = 8\nrcs_mlp.out = 8\nenc.blocks = 1\nenc.channels = 8\n"
        "align.heads = 2\nalign.points = 2\ncam.channels = 8\ncam.modes = 3\n"
        "fuse.channels = 16\nfuse.blocks = 2\n"
        f"pipeline.seed = {seed}\n"
        "scene.n_clusters = 2\nscene.points_per_cluster = 3\n"
        "scene.azimuth_noise_deg = 0.4\nscene.n_sweeps = 2\n"
        "scene.cluster.0.bearing_deg = 30\nscene.cluster.0.range_m = 5\n"
        "scene.cluster.0.rcs_dbsm = 12\nscene.cluster.0.speed_mps = 2\nscene.cluster.0.heading_deg = 90\n"
        "scene.cluster.1.bearing_deg = 200\nscene.cluster.1.range_m = 4\nscene.cluster.1.rcs_dbsm = -2\n"
    )


class TestCli:
    @pytest.mark.parametrize("suffix", ["csv", "bin"])
    def test_synth_extract_gencam_fuse_chain(self, suffix, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_tiny_config(cfg_path)
        radar = tmp_path / f"scene.{suffix}"
        assert cli_main(["synth", "--config", str(cfg_path), "--out", str(radar)]) == 0
        assert len((load_point_cloud_binary if suffix == "bin" else load_point_cloud)(radar))

        radar_grid = tmp_path / "radar.bevgrid"
        assert cli_main(["extract", str(radar), "--config", str(cfg_path), "--out", str(radar_grid)]) == 0
        rg = load_grid(radar_grid)
        assert rg.channels == 8

        cam_grid = tmp_path / "cam.bevgrid"
        assert cli_main(["gen-cam", "--config", str(cfg_path), "--out", str(cam_grid)]) == 0
        cg = load_grid(cam_grid)
        assert cg.channels == 8

        fused = tmp_path / "fused.bevgrid"
        assert cli_main([
            "fuse", str(radar_grid), str(cam_grid), "--config", str(cfg_path), "--out", str(fused)
        ]) == 0
        fg = load_grid(fused)
        assert fg.data.shape == (16, 16, 16)

        # through its grid files the chain computes run_pipeline's grids, bit for bit
        want, _ = run_pipeline(load_config(cfg_path), radar_path=str(radar))
        assert checksum(rg.data) == checksum(want.radar_bev.data)
        assert checksum(fg.data) == checksum(want.fused.data)
        capsys.readouterr()

    def test_extract_deterministic_output_bytes(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_tiny_config(cfg_path)
        radar = tmp_path / "scene.csv"
        cli_main(["synth", "--config", str(cfg_path), "--out", str(radar)])
        g1, g2 = tmp_path / "a.bevgrid", tmp_path / "b.bevgrid"
        cli_main(["extract", str(radar), "--config", str(cfg_path), "--out", str(g1)])
        cli_main(["extract", str(radar), "--config", str(cfg_path), "--out", str(g2)])
        assert g1.read_bytes() == g2.read_bytes()
        capsys.readouterr()

    def test_binary_radar_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_tiny_config(cfg_path)
        radar = tmp_path / "scene.bin"
        assert cli_main(["synth", "--config", str(cfg_path), "--out", str(radar)]) == 0
        out = tmp_path / "r.bevgrid"
        assert cli_main(["extract", str(radar), "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()

    def test_missing_input_nonzero_exit(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_tiny_config(cfg_path)
        rc = cli_main(["extract", str(tmp_path / "missing.csv"), "--config", str(cfg_path), "--out", str(tmp_path / "o.bevgrid")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "load" in err or "missing.csv" in err

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("bogus.key = 1\n")
        rc = cli_main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "bogus.key" in capsys.readouterr().err

    def test_fuse_grid_mismatch_nonzero_exit(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_tiny_config(cfg_path)
        spec = BevSpec.from_extent(-8, 8, -8, 8, 1.0)
        from rcbev.bev import BevGrid

        a = tmp_path / "a.bevgrid"
        b = tmp_path / "b.bevgrid"
        rng = np.random.default_rng(0)
        save_grid(BevGrid(rng.standard_normal((8, 16, 16)), spec), a)
        spec_small = BevSpec.from_extent(-4, 4, -4, 4, 1.0)
        save_grid(BevGrid(rng.standard_normal((8, 8, 8)), spec_small), b)
        rc = cli_main(["fuse", str(a), str(b), "--config", str(cfg_path), "--out", str(tmp_path / "f.bevgrid")])
        assert rc == 1
        assert "stage 'load-camera'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "which, extent, channels, field",
        [
            ("camera", (0, 16, 0, 16), 8, "bev.x_min"),  # same 16 x 16 size, extent [0, 16) under [-8, 8)
            ("radar", (-8, 8, -8, 7), 8, "bev.y_max"),
            ("radar", (-8, 8, -8, 8), 4, "enc.channels"),
            ("camera", (-8, 8, -8, 8), 16, "cam.channels"),
        ],
        ids=["camera-x_min", "radar-y_max", "radar-channels", "camera-channels"],
    )
    def test_fuse_input_mismatch_fails_in_its_load_stage(self, tmp_path, capsys, which, extent, channels, field):
        cfg_path = tmp_path / "cfg.txt"
        write_tiny_config(cfg_path)
        from rcbev.bev import BevGrid

        rng = np.random.default_rng(0)
        paths = {name: tmp_path / f"{name}.bevgrid" for name in ("radar", "camera")}
        for name, path in paths.items():
            spec = BevSpec.from_extent(*(extent if name == which else (-8, 8, -8, 8)), 1.0)
            c = channels if name == which else 8
            save_grid(BevGrid(rng.standard_normal((c, spec.h, spec.w)), spec), path)
        out = tmp_path / "f.bevgrid"
        rc = cli_main(["fuse", str(paths["radar"]), str(paths["camera"]), "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"stage 'load-{which}'" in err and field in err, err
        assert not out.exists()

    def test_manifest_of_other_config_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_tiny_config(cfg_path)
        bigger = replace(tiny_pipeline_config(), fuse_blocks=4, enc_blocks=2)
        manifest = tmp_path / "w.json"
        save_weights(init_weights(model_tensors(bigger), 0), manifest)
        radar = tmp_path / "scene.csv"
        assert cli_main(["synth", "--config", str(cfg_path), "--out", str(radar)]) == 0
        rc = cli_main([
            "extract", str(radar), "--config", str(cfg_path), "--weights", str(manifest),
            "--out", str(tmp_path / "r.bevgrid"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "weights" in err and "fuse.cbr2" in err

    def test_dump_intermediates(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_tiny_config(cfg_path)
        radar = tmp_path / "scene.csv"
        cli_main(["synth", "--config", str(cfg_path), "--out", str(radar)])
        out = tmp_path / "r.bevgrid"
        assert cli_main([
            "extract", str(radar), "--config", str(cfg_path), "--out", str(out), "--dump-intermediates"
        ]) == 0
        assert (tmp_path / "r.bevgrid.f_rcs.bevgrid").exists()
        assert (tmp_path / "r.bevgrid.backbone_fused.npy").exists()
        for name in ("camera", "aligned_cam", "aligned_rad", "fused"):
            assert not (tmp_path / f"r.bevgrid.{name}.bevgrid").exists(), name
        capsys.readouterr()

    @pytest.mark.parametrize("suffix", ["csv", "bin"])
    def test_extract_writes_the_pipelines_radar_bev(self, suffix, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_tiny_config(cfg_path)
        radar = tmp_path / f"scene.{suffix}"
        assert cli_main(["synth", "--config", str(cfg_path), "--out", str(radar)]) == 0
        got = tmp_path / "r.bevgrid"
        assert cli_main(["extract", str(radar), "--config", str(cfg_path), "--out", str(got)]) == 0
        want = tmp_path / "want.bevgrid"
        save_grid(run_pipeline(load_config(cfg_path), radar_path=str(radar))[0].radar_bev, want)
        assert got.read_bytes() == want.read_bytes()
        capsys.readouterr()

    def test_extract_runs_no_camera_align_or_fuse(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_tiny_config(cfg_path)
        radar = tmp_path / "scene.csv"
        assert cli_main(["synth", "--config", str(cfg_path), "--out", str(radar)]) == 0
        for name in ("gen_camera_bev", "cross_align", "channel_spatial_fuse"):
            monkeypatch.setattr(pipeline, name, lambda *a, _name=name, **k: pytest.fail(f"extract ran {_name}"))
        out = tmp_path / "r.bevgrid"
        assert cli_main([
            "extract", str(radar), "--config", str(cfg_path), "--out", str(out), "--dump-intermediates"
        ]) == 0
        stages = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.strip()]
        assert not {"camera", "align", "fuse"} & set(stages), stages
        assert load_grid(out).channels == 8

    def test_manifest_without_a_fuse_tensor_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_tiny_config(cfg_path)
        cfg = load_config(cfg_path)
        weights = init_weights(model_tensors(cfg), cfg.seed)
        dropped = next(name for name in weights.entries if name.startswith("fuse."))
        del weights.entries[dropped]
        manifest = tmp_path / "w.json"
        save_weights(weights, manifest)
        radar = tmp_path / "scene.csv"
        assert cli_main(["synth", "--config", str(cfg_path), "--out", str(radar)]) == 0
        out = tmp_path / "r.bevgrid"
        rc = cli_main([
            "extract", str(radar), "--config", str(cfg_path), "--weights", str(manifest), "--out", str(out)
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "stage 'weights'" in err and dropped in err, err
        assert not out.exists()

    def test_nan_config_exits_with_error_not_traceback(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("bev.resolution = nan\n")
        rc = cli_main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "resolution" in err and "Traceback" not in err

    def test_overflowing_extent_exits_with_error_not_traceback(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("bev.x_min = -1e308\nbev.x_max = 1e308\n")
        rc = cli_main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "x_max - x_min" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["synth", "gen-cam", "bench"])
    def test_negative_seed_exits_with_error_not_traceback(self, command, tmp_path, capsys):
        rc = cli_main([command, "--seed", "-1", "--out", str(tmp_path / "x.out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(lambda d: ["synth", "--config", str(d), "--out", str(d / "x.csv")], id="synth-config-dir"),
            pytest.param(
                lambda d: ["synth", "--config", str(d / "bad.txt"), "--out", str(d / "x.csv")], id="synth-config-not-utf8"
            ),
            pytest.param(lambda d: ["gen-cam", "--config", str(d / "cfg.txt"), "--out", str(d)], id="gen-cam-out-dir"),
            pytest.param(
                lambda d: ["extract", str(d / "scene.csv"), "--config", str(d / "cfg.txt"), "--out", str(d)],
                id="extract-out-dir",
            ),
        ],
    )
    def test_os_and_encoding_faults_exit_with_error_not_traceback(self, argv, tmp_path, capsys):
        write_tiny_config(tmp_path / "cfg.txt")
        (tmp_path / "bad.txt").write_bytes(b"pipeline.seed = 1\n\xff\n")
        assert cli_main(["synth", "--config", str(tmp_path / "cfg.txt"), "--out", str(tmp_path / "scene.csv")]) == 0
        capsys.readouterr()
        assert cli_main(argv(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["extract", "fuse", "synth", "gen-cam", "bench"])
    @pytest.mark.parametrize("out", ["dir", "no-parent"])
    def test_bad_out_rejected_before_any_work(self, command, out, tmp_path, monkeypatch, capsys):
        for name in ("run_pipeline", "run_radar", "run_bench", "load_grid", "synth_scene", "gen_camera_bev"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: pytest.fail(f"{_name} ran before --out check"))
        positional = {"extract": ["scene.csv"], "fuse": ["r.bevgrid", "c.bevgrid"]}.get(command, [])
        out_path = tmp_path if out == "dir" else tmp_path / "missing" / "x.out"
        assert cli_main([command, *positional, "--out", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out_path) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("fuse", "--dump-intermediates"),
            ("synth", "--dump-intermediates"),
            ("gen-cam", "--dump-intermediates"),
            ("bench", "--dump-intermediates"),
            ("synth", "--weights"),
            ("gen-cam", "--weights"),
            ("bench", "--weights"),
            ("bench", "--config"),
        ],
    )
    def test_flag_a_subcommand_does_not_read_is_a_usage_error(self, command, flag, capsys):
        positional = ["r.bevgrid", "c.bevgrid"] if command == "fuse" else []
        value = [] if flag == "--dump-intermediates" else ["x"]
        with pytest.raises(SystemExit) as exit_:
            cli_main([command, *positional, flag, *value, "--out", "o"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: rcbev") and f"unrecognized arguments: {flag}" in err

    def test_seed_flag_changes_output(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_tiny_config(cfg_path)
        a, b = tmp_path / "a.bevgrid", tmp_path / "b.bevgrid"
        cli_main(["gen-cam", "--config", str(cfg_path), "--out", str(a)])
        cli_main(["gen-cam", "--config", str(cfg_path), "--seed", "99", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()
        capsys.readouterr()


class TestSelfcheckCli:
    def test_perturbed_weight_fails_named_check(self, monkeypatch, capsys):
        from rcbev import oracles

        dense_mha = oracles.dense_mha
        monkeypatch.setattr(oracles, "dense_mha", lambda *args: dense_mha(*args) + 1e-3)
        report = run_selfcheck()
        assert not report.passed
        failed = [r.name for r in report.results if not r.passed]
        assert failed == ["dmsa-oracle"]
        assert cli_main(["selfcheck"]) == 1
        assert "[FAIL] dmsa-oracle" in capsys.readouterr().out

    def test_report_lists_many_properties(self):
        report = run_selfcheck()
        assert len(report.results) >= 12
        text = report.to_text()
        assert "tol=" in text and "measured=" in text
