import numpy as np
import pytest

from rcbev.bev import BevSpec, load_grid, save_grid
from rcbev.cli import main as cli_main
from rcbev.config import (
    PipelineConfig,
    config_from_kv,
    load_config,
    model_tensors,
    parse_kv_text,
)
from rcbev.errors import ConfigError, PipelineError
from rcbev.ingest import PointCloud, SceneConfig, load_point_cloud
from rcbev.pipeline import checksum, gen_camera_bev, run_pipeline
from rcbev.selfcheck import run_selfcheck, tiny_pipeline_config
from rcbev.weights import init_weights, save_weights


def small_cfg(**kw):
    base = tiny_pipeline_config()
    from dataclasses import replace

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
        pipeline.sweeps = 2
        pipeline.seed = 5
        scene.n_clusters = 2
        scene.points_per_cluster = 3
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


class TestRunPipeline:
    def test_deterministic_checksums(self):
        cfg = small_cfg()
        out1, rep1 = run_pipeline(cfg)
        out2, rep2 = run_pipeline(cfg)
        assert checksum(out1.fused.data) == checksum(out2.fused.data)
        assert [s.checksum for s in rep1.stages] == [s.checksum for s in rep2.stages]

    def test_empty_cloud_runs_to_completion(self):
        cfg = small_cfg()
        empty = PointCloud((), "empty")
        out, report = run_pipeline(cfg, cloud=empty)
        assert not out.f_rcs.data.any()
        assert not out.radar_bev.data.any()  # zero-init biases and identity bn stats
        assert out.fused.data.shape[0] == cfg.fused_channels
        assert out.backbone is None
        assert np.all(np.isfinite(out.fused.data))

    def test_scatter_count_matches_oracle(self):
        import helpers
        from dataclasses import replace
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
        ref = helpers.scatter_reference(feats, coords, radii, cfg.bev.h, cfg.bev.w)
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

    def test_loaded_weights_match_seeded(self, tmp_path):
        cfg = small_cfg()
        ws = init_weights(model_tensors(cfg), cfg.seed)
        path = tmp_path / "w.json"
        save_weights(ws, path)
        from dataclasses import replace

        out_seeded, _ = run_pipeline(cfg)
        out_loaded, _ = run_pipeline(replace(cfg, weights_path=str(path)))
        assert checksum(out_seeded.fused.data) == checksum(out_loaded.fused.data)

    def test_report_has_all_stages(self):
        _, report = run_pipeline(small_cfg())
        names = [s.name for s in report.stages]
        for stage in ("weights", "load", "ingest", "backbone", "scatter", "bev_encode", "camera", "align", "fuse"):
            assert stage in names
        assert all(s.ms >= 0 for s in report.stages)
        assert {g.name for g in report.grids} == {"f_rcs", "radar_bev", "fused"}


def write_tiny_config(path, seed=5):
    path.write_text(
        "bev.x_min = -8\nbev.x_max = 8\nbev.y_min = -8\nbev.y_max = 8\nbev.resolution = 1\n"
        "backbone.widths = 8,8\nbackbone.dmsa_heads = 2\n"
        "rcs_mlp.hidden = 8\nrcs_mlp.out = 8\nenc.blocks = 1\nenc.channels = 8\n"
        "align.heads = 2\nalign.points = 2\ncam.channels = 8\ncam.modes = 3\n"
        "fuse.channels = 16\nfuse.blocks = 2\n"
        f"pipeline.sweeps = 2\npipeline.seed = {seed}\n"
        "scene.n_clusters = 2\nscene.points_per_cluster = 3\n"
        "scene.azimuth_noise_deg = 0.4\nscene.n_sweeps = 2\n"
        "scene.cluster.0.bearing_deg = 30\nscene.cluster.0.range_m = 5\n"
        "scene.cluster.0.rcs_dbsm = 12\nscene.cluster.0.speed_mps = 2\nscene.cluster.0.heading_deg = 90\n"
        "scene.cluster.1.bearing_deg = 200\nscene.cluster.1.range_m = 4\nscene.cluster.1.rcs_dbsm = -2\n"
    )


class TestCli:
    def test_synth_extract_gencam_fuse_chain(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_tiny_config(cfg_path)
        radar = tmp_path / "scene.csv"
        assert cli_main(["synth", "--config", str(cfg_path), "--out", str(radar)]) == 0
        assert load_point_cloud(radar).points

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
        assert "align" in capsys.readouterr().err

    def test_manifest_of_other_config_rejected(self, tmp_path, capsys):
        from dataclasses import replace

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
        capsys.readouterr()

    def test_seed_flag_changes_output(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_tiny_config(cfg_path)
        a, b = tmp_path / "a.bevgrid", tmp_path / "b.bevgrid"
        cli_main(["gen-cam", "--config", str(cfg_path), "--out", str(a)])
        cli_main(["gen-cam", "--config", str(cfg_path), "--seed", "99", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()
        capsys.readouterr()


class TestSelfcheckCli:
    def test_env_thread_cap_parsed(self, monkeypatch):
        monkeypatch.setenv("RCBEV_THREADS", "1")
        report = run_selfcheck(max_workers=None)
        assert report.passed

    def test_bad_thread_env_rejected(self, monkeypatch):
        monkeypatch.setenv("RCBEV_THREADS", "zero")
        with pytest.raises(ConfigError):
            run_selfcheck()

    def test_perturbed_weight_fails_named_check(self):
        report = run_selfcheck(perturb="dmsa-oracle", max_workers=2)
        assert not report.passed
        failed = [r.name for r in report.results if not r.passed]
        assert failed == ["dmsa-oracle"]

    def test_report_lists_many_properties(self):
        report = run_selfcheck(max_workers=2)
        assert len(report.results) >= 12
        text = report.to_text()
        assert "tol=" in text and "measured=" in text
