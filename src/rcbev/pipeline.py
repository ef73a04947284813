"""End-to-end orchestration, with per-stage timing, checksums and optional
intermediate dumps. ``run_radar`` is RadarBEVNet alone: ingest -> dual
backbone -> RCS-aware BEV encoding. ``run_pipeline`` adds the camera grid and
the cross-modal alignment and fusion. Deterministic per (inputs, config, seed).
``check_grid`` checks a given grid against the config, for ``run_pipeline``'s
camera grid and for both grid files of ``rcbev fuse``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, fields
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
    save_grid,
)
from .config import ModelParams, PipelineConfig, model_schema, model_tensors
from .errors import PipelineError, ShapeError
from .fusion import AlignParams, channel_spatial_fuse, cross_align
from .ingest import (
    PointCloud,
    PointFeatureSet,
    assemble_features,
    filter_roi,
    load_point_cloud,
    load_point_cloud_binary,
    synth_scene,
)
from .weights import WeightSet, check_names, init_weights, load_weights


def checksum(arr: np.ndarray) -> str:
    """sha256 over shape, dtype and raw little-endian bytes."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(repr(arr.shape).encode())
    h.update(str(arr.dtype).encode())
    # hashed in place: no float64 copy when arr already is one, no bytes copy
    h.update(memoryview(np.ascontiguousarray(arr, dtype="<f8")) if arr.dtype.kind == "f" else arr.tobytes())
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

    def run(self, name: str, fn: Callable, out_array=None):
        """fn() as stage ``name``: its time and the checksum of its output
        array are recorded, and a failure is raised as a PipelineError."""
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            raise PipelineError(name, exc) from exc
        ms = (time.perf_counter() - t0) * 1e3
        arr = out_array(result) if out_array else _default_array(result)
        self.stages.append(StageReport(name, ms, checksum(arr) if arr is not None else ""))
        return result

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
class RadarOutput:
    radar_bev: BevGrid
    f_rcs: BevGrid
    g_rcs: BevGrid
    base: BevGrid
    backbone: Optional[BackboneResult]
    params: ModelParams  # the full model's, so run_pipeline fuses without a second load


@dataclass
class FusionOutput(RadarOutput):
    """The radar branch's output, plus the camera grid and the fusion's."""

    camera: BevGrid
    aligned_cam: BevGrid
    aligned_rad: BevGrid
    fused: BevGrid


def grid_stats(name: str, grid: BevGrid) -> GridStats:
    data = grid.data
    return GridStats(
        name=name,
        nonzero=int(np.count_nonzero(data)),
        ch_min=[float(v) for v in data.min(axis=(1, 2))],
        ch_max=[float(v) for v in data.max(axis=(1, 2))],
        ch_mean=[float(v) for v in data.mean(axis=(1, 2))],
    )


def _default_array(result):
    if isinstance(result, BevGrid):
        return result.data
    if isinstance(result, np.ndarray):
        return result
    return None


def check_grid(grid: BevGrid, cfg: PipelineConfig, channels_key: str, source: str) -> BevGrid:
    """``grid``, if it has the config's grid spec and the channel count that
    ``channels_key`` (``enc.channels`` or ``cam.channels``) configures; a
    mismatch raises a ShapeError naming ``source`` and the config key."""
    for f in fields(BevSpec):
        got, want = getattr(grid.spec, f.name), getattr(cfg.bev, f.name)
        if got != want:
            raise ShapeError(f"{source}: grid has bev.{f.name} = {got}, config has {want}")
    channels = {"enc.channels": cfg.radar_channels, "cam.channels": cfg.cam_channels}[channels_key]
    if grid.channels != channels:
        raise ShapeError(f"{source}: grid has {grid.channels} channels, config has {channels_key} = {channels}")
    return grid


def resolve_weights(cfg: PipelineConfig) -> WeightSet:
    """The seeded init of the config's tensors, or the config's manifest,
    which must hold exactly the tensor names of the config's schema."""
    specs = model_tensors(cfg)
    if not cfg.weights_path:
        return init_weights(specs, cfg.seed)
    w = load_weights(cfg.weights_path)
    check_names(w, specs)
    return w


def load_model(cfg: PipelineConfig) -> ModelParams:
    """The typed params, assembled from the resolved weight set through the
    model schema, which checks every shape."""
    return model_schema(resolve_weights(cfg), cfg)


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
    cfg: PipelineConfig, cloud: PointCloud, params: ModelParams, report: RunReport
) -> RadarOutput:
    """Point features -> dual backbone -> RCS scatter -> BEV encoder."""
    rcs_mlp, enc_blocks = params.encoder

    def ingest():
        inside = filter_roi(cloud, cfg.bev)
        return assemble_features(inside, cfg.bev, cfg.rcs_bounds)

    feats = report.run("ingest", ingest, out_array=lambda f: f.features)

    backbone = None
    if len(feats):
        backbone = report.run(
            "backbone",
            lambda: dual_backbone_forward(feats, params.backbone),
            out_array=lambda r: r.fused,
        )
        point_feats = PointFeatureSet(backbone.fused, feats.coords, feats.rcs_norm)
    else:
        report.stages.append(StageReport("backbone", 0.0, ""))
        point_feats = PointFeatureSet(
            np.zeros((0, cfg.point_channels)), feats.coords, feats.rcs_norm
        )

    def scatter():
        f_rcs = rcs_scatter(point_feats, cfg.bev, cfg.scatter)
        base = rcs_scatter(point_feats, cfg.bev, ScatterConfig(0.0, 0.0))
        uv, _ = to_pixel(point_feats.coords, cfg.bev)
        g_rcs = gaussian_bev_map(uv, point_feats.rcs_norm, cfg.bev, cfg.scatter)
        return f_rcs, base, g_rcs

    f_rcs, base, g_rcs = report.run("scatter", scatter, out_array=lambda t: t[0].data)

    radar_bev = report.run("bev_encode", lambda: bev_encode(rcs_bev_feature(f_rcs, g_rcs, rcs_mlp), base, enc_blocks))
    return RadarOutput(radar_bev, f_rcs, g_rcs, base, backbone, params)


def fusion_branch(
    cam: BevGrid,
    radar_bev: BevGrid,
    params: tuple[AlignParams, tuple[CbrBlockParams, ...]],
    report: RunReport,
) -> tuple[BevGrid, BevGrid, BevGrid]:
    """The align and fuse stages: (aligned camera, aligned radar, fused)."""
    align_p, fuse_p = params
    aligned_cam, aligned_rad = report.run(
        "align", lambda: cross_align(cam, radar_bev, align_p), out_array=lambda t: t[0].data
    )
    fused = report.run("fuse", lambda: channel_spatial_fuse(aligned_cam, aligned_rad, fuse_p))
    return aligned_cam, aligned_rad, fused


def run_radar(
    cfg: PipelineConfig,
    cloud: Optional[PointCloud] = None,
    radar_path: Optional[str] = None,
) -> tuple[RadarOutput, RunReport]:
    """RadarBEVNet alone: the weights and load stages, then the radar branch.
    The weights are the full config's, so a manifest must hold every tensor
    name of it, the fuser's too."""
    report = RunReport()

    params = report.run("weights", lambda: load_model(cfg))

    def get_cloud() -> PointCloud:
        if cloud is not None:
            return cloud
        if radar_path:
            p = Path(radar_path)
            if p.suffix == ".bin":
                return load_point_cloud_binary(p)
            return load_point_cloud(p)
        return synth_scene(cfg.scene, cfg.seed)

    in_cloud = report.run("load", get_cloud)

    radar = radar_branch(cfg, in_cloud, params, report)

    report.grids.append(grid_stats("f_rcs", radar.f_rcs))
    report.grids.append(grid_stats("radar_bev", radar.radar_bev))
    return radar, report


def run_pipeline(
    cfg: PipelineConfig,
    cloud: Optional[PointCloud] = None,
    camera: Optional[BevGrid] = None,
    radar_path: Optional[str] = None,
) -> tuple[FusionOutput, RunReport]:
    """run_radar, then the camera stage, then the align and fuse stages."""
    radar, report = run_radar(cfg, cloud, radar_path)

    def get_camera() -> BevGrid:
        if camera is None:
            return gen_camera_bev(cfg.bev, cfg.cam_channels, cfg.seed, cfg.cam_modes)
        return check_grid(camera, cfg, "cam.channels", "camera")

    cam = report.run("camera", get_camera)
    aligned_cam, aligned_rad, fused = fusion_branch(cam, radar.radar_bev, radar.params.fusion, report)

    report.grids.append(grid_stats("fused", fused))
    out = FusionOutput(**vars(radar), camera=cam, aligned_cam=aligned_cam, aligned_rad=aligned_rad, fused=fused)
    return out, report


def dump_intermediates(radar: RadarOutput, stem: Path) -> list[Path]:
    """Write the radar branch's grids and backbone matrices next to ``stem``."""
    written = []
    for name in ("f_rcs", "g_rcs", "base", "radar_bev"):
        path = stem.with_name(stem.name + f".{name}.bevgrid")
        save_grid(getattr(radar, name), path)
        written.append(path)
    if radar.backbone is not None:
        for name in ("f_p", "f_t", "fused"):
            path = stem.with_name(stem.name + f".backbone_{name}.npy")
            np.save(path, getattr(radar.backbone, name))
            written.append(path)
    return written
