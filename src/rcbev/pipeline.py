"""End-to-end orchestration: ingest -> dual backbone -> RCS-aware BEV encoding
-> cross-modal alignment and fusion, with per-stage timing, checksums and
optional intermediate dumps. Deterministic per (inputs, config, seed).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .backbone import BackboneResult, dual_backbone_forward
from .bev import (
    BevGrid,
    BevSpec,
    CbrBlockParams,
    bev_encode,
    gaussian_bev_map,
    rcs_bev_feature,
    rcs_scatter,
    to_pixel,
    ScatterConfig,
)
from .config import ModelParams, PipelineConfig, model_schema, model_tensors
from .errors import PipelineError, ShapeError
from .fusion import AlignParams, FuseParams, channel_spatial_fuse, cross_align
from .ingest import (
    PointCloud,
    PointFeatureSet,
    assemble_features,
    filter_roi,
    load_point_cloud,
    load_point_cloud_binary,
    synth_scene,
)
from .nn import MlpParams
from .weights import WeightSet, check_names, init_weights, load_weights


def checksum(arr: np.ndarray) -> str:
    """sha256 over shape, dtype and raw little-endian bytes."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(repr(arr.shape).encode())
    h.update(str(arr.dtype).encode())
    h.update(arr.astype("<f8").tobytes() if arr.dtype.kind == "f" else arr.tobytes())
    return h.hexdigest()


@dataclass
class StageReport:
    name: str
    ms: float
    checksum: str


@dataclass
class GridStats:
    name: str
    nonzero: int
    ch_min: list[float]
    ch_max: list[float]
    ch_mean: list[float]


@dataclass
class RunReport:
    stages: list[StageReport] = field(default_factory=list)
    grids: list[GridStats] = field(default_factory=list)

    def stage(self, name: str) -> StageReport:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_text(self) -> str:
        lines = ["stage            ms        checksum"]
        for s in self.stages:
            lines.append(f"{s.name:<14} {s.ms:>9.3f}  {s.checksum[:16]}")
        for g in self.grids:
            lines.append(
                f"grid {g.name}: nonzero={g.nonzero} "
                f"mean[0]={g.ch_mean[0]:.6g} min={min(g.ch_min):.6g} max={max(g.ch_max):.6g}"
            )
        return "\n".join(lines)


@dataclass
class FusionOutput:
    fused: BevGrid
    radar_bev: BevGrid
    camera: BevGrid
    f_rcs: BevGrid
    g_rcs: BevGrid
    base: BevGrid
    aligned_cam: BevGrid
    aligned_rad: BevGrid
    backbone: Optional[BackboneResult]


def grid_stats(name: str, grid: BevGrid) -> GridStats:
    data = grid.data
    return GridStats(
        name=name,
        nonzero=int(np.count_nonzero(data)),
        ch_min=[float(v) for v in data.min(axis=(1, 2))],
        ch_max=[float(v) for v in data.max(axis=(1, 2))],
        ch_mean=[float(v) for v in data.mean(axis=(1, 2))],
    )


class _StageRunner:
    def __init__(self, report: RunReport):
        self.report = report

    def run(self, name: str, fn: Callable, out_array=None):
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            raise PipelineError(name, exc) from exc
        ms = (time.perf_counter() - t0) * 1e3
        arr = out_array(result) if out_array else _default_array(result)
        self.report.stages.append(StageReport(name, ms, checksum(arr) if arr is not None else ""))
        return result


def _default_array(result):
    if isinstance(result, BevGrid):
        return result.data
    if isinstance(result, np.ndarray):
        return result
    return None


def resolve_weights(cfg: PipelineConfig) -> WeightSet:
    """The seeded init of the config's tensors, or the config's manifest,
    which must hold exactly the tensor names of the config's schema."""
    specs = model_tensors(cfg)
    if not cfg.weights_path:
        return init_weights(specs, cfg.seed)
    w = load_weights(cfg.weights_path)
    check_names(w, specs)
    return w


def load_model(cfg: PipelineConfig) -> tuple[WeightSet, ModelParams]:
    """The weight set, and the typed params assembled from it through the
    model schema, which checks every shape."""
    w = resolve_weights(cfg)
    return w, model_schema(w, cfg)


def gen_camera_bev(spec: BevSpec, c_c: int, seed: int, modes: int = 6) -> BevGrid:
    """Deterministic smooth random field: per channel a sum of seeded 2D
    cosine modes with integer wavenumbers, centered to zero mean."""
    rng = np.random.default_rng(seed)
    h, w = spec.h, spec.w
    ys = np.arange(h)[None, :, None]
    xs = np.arange(w)[None, None, :]
    data = np.zeros((c_c, h, w))
    for c in range(c_c):
        kx = rng.integers(1, 8, size=modes)[:, None, None]
        ky = rng.integers(1, 8, size=modes)[:, None, None]
        amp = rng.uniform(0.2, 1.0, size=modes)[:, None, None]
        phase = rng.uniform(0.0, 2.0 * np.pi, size=modes)[:, None, None]
        waves = amp * np.cos(2.0 * np.pi * (kx * xs / w + ky * ys / h) + phase)
        data[c] = waves.sum(axis=0)
    data -= data.mean(axis=(1, 2), keepdims=True)
    return BevGrid(data, spec)


def radar_branch(
    cfg: PipelineConfig,
    cloud: PointCloud,
    w: WeightSet,
    encoder: tuple[MlpParams, tuple[CbrBlockParams, ...]],
    runner: _StageRunner,
) -> tuple[BevGrid, BevGrid, BevGrid, BevGrid, Optional[BackboneResult]]:
    """Point features -> dual backbone -> RCS scatter -> BEV encoder. The
    backbone takes the weight set, the encoder its typed params."""
    arch = cfg.backbone_arch()
    rcs_mlp, enc_blocks = encoder

    def ingest():
        inside = filter_roi(cloud, cfg.bev)
        return assemble_features(inside, cfg.bev, cfg.rcs_bounds)

    feats = runner.run("ingest", ingest, out_array=lambda f: f.features)

    backbone = None
    if len(feats):
        backbone = runner.run(
            "backbone",
            lambda: dual_backbone_forward(feats, w, arch),
            out_array=lambda r: r.fused,
        )
        point_feats = PointFeatureSet(backbone.fused, feats.coords, feats.rcs_norm)
    else:
        runner.report.stages.append(StageReport("backbone", 0.0, ""))
        point_feats = PointFeatureSet(
            np.zeros((0, arch.out_channels)), feats.coords, feats.rcs_norm
        )

    def scatter():
        f_rcs = rcs_scatter(point_feats, cfg.bev, cfg.scatter)
        base = rcs_scatter(point_feats, cfg.bev, ScatterConfig(0.0, 0.0))
        if len(point_feats):
            px = np.array([to_pixel(c, cfg.bev)[0] for c in point_feats.coords])
        else:
            px = np.zeros((0, 2))
        g_rcs = gaussian_bev_map(px, point_feats.rcs_norm, cfg.bev, cfg.scatter)
        return f_rcs, base, g_rcs

    f_rcs, base, g_rcs = runner.run("scatter", scatter, out_array=lambda t: t[0].data)

    radar_bev = runner.run(
        "bev_encode",
        lambda: bev_encode(rcs_bev_feature(f_rcs, g_rcs, rcs_mlp), base, enc_blocks),
    )
    if radar_bev.channels != cfg.radar_channels:
        raise PipelineError(
            "bev_encode",
            ShapeError(f"encoder produced {radar_bev.channels} channels, configured {cfg.radar_channels}"),
        )
    return radar_bev, f_rcs, base, g_rcs, backbone


def fusion_branch(
    cam: BevGrid, radar_bev: BevGrid, params: tuple[AlignParams, FuseParams], runner: _StageRunner
) -> tuple[BevGrid, BevGrid, BevGrid]:
    """The align and fuse stages: (aligned camera, aligned radar, fused)."""
    align_p, fuse_p = params
    aligned_cam, aligned_rad = runner.run(
        "align", lambda: cross_align(cam, radar_bev, align_p), out_array=lambda t: t[0].data
    )
    fused = runner.run("fuse", lambda: channel_spatial_fuse(aligned_cam, aligned_rad, fuse_p))
    return aligned_cam, aligned_rad, fused


def run_pipeline(
    cfg: PipelineConfig,
    cloud: Optional[PointCloud] = None,
    camera: Optional[BevGrid] = None,
    radar_path: Optional[str] = None,
    camera_path: Optional[str] = None,
) -> tuple[FusionOutput, RunReport]:
    report = RunReport()
    runner = _StageRunner(report)

    # params.backbone is only checked here: dual_backbone_forward assembles
    # the backbone's params from the weight set itself
    w, params = runner.run("weights", lambda: load_model(cfg))

    def get_cloud() -> PointCloud:
        if cloud is not None:
            return cloud
        if radar_path:
            p = Path(radar_path)
            if p.suffix == ".bin":
                return load_point_cloud_binary(p)
            return load_point_cloud(p)
        return synth_scene(cfg.scene, cfg.seed)

    in_cloud = runner.run("load", get_cloud)

    radar_bev, f_rcs, base, g_rcs, backbone = radar_branch(cfg, in_cloud, w, params.encoder, runner)

    def get_camera() -> BevGrid:
        if camera is not None:
            return camera
        if camera_path:
            from .bev import load_grid

            return load_grid(camera_path)
        return gen_camera_bev(cfg.bev, cfg.cam_channels, cfg.seed, cfg.cam_modes)

    cam = runner.run("camera", get_camera)
    if cam.channels != cfg.cam_channels:
        raise PipelineError(
            "camera",
            ShapeError(f"camera grid has {cam.channels} channels, configured {cfg.cam_channels}"),
        )

    aligned_cam, aligned_rad, fused = fusion_branch(cam, radar_bev, params.fusion, runner)

    report.grids.append(grid_stats("f_rcs", f_rcs))
    report.grids.append(grid_stats("radar_bev", radar_bev))
    report.grids.append(grid_stats("fused", fused))

    out = FusionOutput(
        fused=fused,
        radar_bev=radar_bev,
        camera=cam,
        f_rcs=f_rcs,
        g_rcs=g_rcs,
        base=base,
        aligned_cam=aligned_cam,
        aligned_rad=aligned_rad,
        backbone=backbone,
    )
    return out, report


def dump_intermediates(out: FusionOutput, stem: Path) -> list[Path]:
    """Write every intermediate grid (and backbone matrices) next to ``stem``."""
    from .bev import save_grid

    written = []
    for name in ("f_rcs", "g_rcs", "base", "radar_bev", "camera", "aligned_cam", "aligned_rad", "fused"):
        path = stem.with_name(stem.name + f".{name}.bevgrid")
        save_grid(getattr(out, name), path)
        written.append(path)
    if out.backbone is not None:
        for name in ("f_p", "f_t", "fused"):
            path = stem.with_name(stem.name + f".backbone_{name}.npy")
            np.save(path, getattr(out.backbone, name))
            written.append(path)
    return written
