"""Pipeline configuration: defaults, the flat key-value config file format,
and the whole-model parameter schema that enumerates and loads every tensor.

Config files are plain text, one `dotted.key = value` per line, `#` comments.
Unknown keys are rejected. Every default is documented next to its field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .backbone import BackboneArch, BackboneParams, backbone_schema
from .bev import BevSpec, CbrBlockParams, ScatterConfig, encoder_schema
from .errors import ConfigError
from .fusion import AlignParams, FuseParams, fusion_schema
from .ingest import ClusterSpec, SceneConfig
from .nn import MlpParams
from .weights import TensorSource, TensorSpec, record_tensors


@dataclass(frozen=True)
class PipelineConfig:
    # BEV raster: 128 x 128 pixels at 0.8 m/px over [-51.2, 51.2) m both axes
    bev: BevSpec = field(
        default_factory=lambda: BevSpec.from_extent(-51.2, 51.2, -51.2, 51.2, 0.8)
    )
    # dual-stream backbone: 3 stages, channel widths per stage
    stage_widths: tuple[int, ...] = (32, 64, 64)
    dmsa_heads: int = 4  # self-attention heads per transformer block
    cross_heads: int = 1  # heads in inject/extract cross-attention
    ffn_mult: int = 2  # feed-forward hidden width multiplier
    # RCS-aware scatter: radius = min(scale * range_px^2 * v_rcs, cap)
    scatter: ScatterConfig = field(default_factory=ScatterConfig)  # scale 0.02, cap 5 px
    rcs_bounds: tuple[float, float] = (-20.0, 30.0)  # dBsm normalization window
    rcs_hidden: tuple[int, ...] = (64,)  # hidden widths of the per-pixel mix MLP
    rcs_out: int = 64  # channels of the mixed RCS-aware feature
    enc_blocks: int = 2  # residual conv blocks in the BEV encoder
    radar_channels: int = 64  # radar BEV feature channels (encoder output)
    # cross-modal alignment and fusion
    cam_channels: int = 64  # camera BEV feature channels
    deform_heads: int = 4  # M
    deform_points: int = 4  # K sampled keys per head
    fused_channels: int = 128  # channels after channel/spatial fusion
    fuse_blocks: int = 3  # trailing residual CBR blocks
    cam_modes: int = 6  # cosine modes per channel in the synthetic camera BEV
    # run parameters
    sweeps: int = 6  # radar sweeps accumulated per frame
    seed: int = 0  # seeds weight init and synthetic inputs
    eps: float = 1e-5  # normalization epsilon
    weights_path: Optional[str] = None  # load manifest instead of seeded init
    dump_intermediates: bool = False
    scene: SceneConfig = field(default_factory=SceneConfig)

    def __post_init__(self):
        if len(self.stage_widths) < 1:
            raise ConfigError("need at least one backbone stage")
        if self.radar_channels % self.deform_heads or self.cam_channels % self.deform_heads:
            raise ConfigError("deform_heads must divide both radar and camera channels")
        if self.sweeps < 1:
            raise ConfigError("sweeps must be >= 1")

    @property
    def point_channels(self) -> int:
        return self.stage_widths[-1]

    def backbone_arch(self) -> BackboneArch:
        return BackboneArch(
            in_channels=7,
            widths=self.stage_widths,
            dmsa_heads=self.dmsa_heads,
            cross_heads=self.cross_heads,
            ffn_mult=self.ffn_mult,
            eps=self.eps,
        )


@dataclass(frozen=True)
class ModelParams:
    """Typed params of the three learned blocks."""

    backbone: BackboneParams
    encoder: tuple[MlpParams, tuple[CbrBlockParams, ...]]  # (rcs mlp, conv blocks)
    fusion: tuple[AlignParams, FuseParams]


def model_schema(src: TensorSource, cfg: PipelineConfig) -> ModelParams:
    """Ask ``src`` for every learned tensor of the pipeline, in canonical
    order, and assemble the typed params."""
    return ModelParams(
        backbone_schema(src, cfg.backbone_arch()),
        encoder_schema(
            src, cfg.point_channels, cfg.rcs_hidden, cfg.rcs_out, cfg.enc_blocks, cfg.radar_channels, cfg.eps
        ),
        fusion_schema(
            src, cfg.cam_channels, cfg.radar_channels, cfg.bev.h, cfg.bev.w,
            cfg.deform_heads, cfg.deform_points, cfg.fused_channels, cfg.fuse_blocks, cfg.eps,
        ),
    )


def model_tensors(cfg: PipelineConfig) -> list[TensorSpec]:
    """Every learned tensor of the pipeline, in canonical order."""
    return record_tensors(model_schema, cfg)


# ---------------------------------------------------------------------------
# flat key-value files
# ---------------------------------------------------------------------------

def parse_kv_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {ln_no}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"line {ln_no}: duplicate key '{key}'")
        out[key] = value
    return out


def _as_float(key: str, v: str) -> float:
    try:
        return float(v)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got {v!r}") from None


def _as_int(key: str, v: str) -> int:
    try:
        return int(v)
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {v!r}") from None


def _as_bool(key: str, v: str) -> bool:
    low = v.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"key '{key}': expected a boolean, got {v!r}")


def _as_int_tuple(key: str, v: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in v.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"key '{key}': expected comma-separated integers, got {v!r}") from None


def _scene_from_kv(kv: dict[str, str], defaults: SceneConfig) -> SceneConfig:
    scene_keys = {k: v for k, v in kv.items() if k.startswith("scene.")}
    if not scene_keys:
        return defaults
    simple = {
        "scene.n_clusters": ("n_clusters", _as_int),
        "scene.points_per_cluster": ("points_per_cluster", _as_int),
        "scene.azimuth_noise_deg": ("azimuth_noise_deg", _as_float),
        "scene.n_sweeps": ("n_sweeps", _as_int),
        "scene.sweep_period_s": ("sweep_period_s", _as_float),
        "scene.range_spread_m": ("range_spread_m", _as_float),
        "scene.z_m": ("z_m", _as_float),
        "scene.max_range_m": ("max_range_m", _as_float),
        "scene.frame_id": ("frame_id", lambda _k, v: v),
    }
    fields: dict = {}
    cluster_kv: dict[int, dict[str, str]] = {}
    for key, value in scene_keys.items():
        if key in simple:
            name, conv = simple[key]
            fields[name] = conv(key, value)
            continue
        parts = key.split(".")
        if len(parts) == 4 and parts[1] == "cluster" and parts[2].isdigit():
            cluster_kv.setdefault(int(parts[2]), {})[parts[3]] = value
            continue
        raise ConfigError(f"unknown config key '{key}'")
    clusters = []
    for idx in sorted(cluster_kv):
        ck = cluster_kv[idx]
        try:
            clusters.append(
                ClusterSpec(
                    bearing_deg=float(ck["bearing_deg"]),
                    range_m=float(ck["range_m"]),
                    n_points=int(ck.get("n_points", fields.get("points_per_cluster", defaults.points_per_cluster))),
                    rcs_dbsm=float(ck.get("rcs_dbsm", 10.0)),
                    speed_mps=float(ck.get("speed_mps", 0.0)),
                    heading_deg=float(ck.get("heading_deg", 0.0)),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"scene.cluster.{idx} is missing field {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"scene.cluster.{idx}: {exc}") from None
    if clusters:
        fields["clusters"] = tuple(clusters)
        fields.setdefault("n_clusters", len(clusters))
    return replace(defaults, **fields)


def config_from_kv(kv: dict[str, str], base: Optional[PipelineConfig] = None) -> PipelineConfig:
    cfg = base or PipelineConfig()
    bev_kv = {
        "bev.x_min": cfg.bev.x_min,
        "bev.x_max": cfg.bev.x_max,
        "bev.y_min": cfg.bev.y_min,
        "bev.y_max": cfg.bev.y_max,
        "bev.resolution": cfg.bev.resolution,
    }
    scalar_keys = {
        "backbone.widths": ("stage_widths", _as_int_tuple),
        "backbone.dmsa_heads": ("dmsa_heads", _as_int),
        "backbone.cross_heads": ("cross_heads", _as_int),
        "backbone.ffn_mult": ("ffn_mult", _as_int),
        "rcs_mlp.hidden": ("rcs_hidden", _as_int_tuple),
        "rcs_mlp.out": ("rcs_out", _as_int),
        "enc.blocks": ("enc_blocks", _as_int),
        "enc.channels": ("radar_channels", _as_int),
        "align.heads": ("deform_heads", _as_int),
        "align.points": ("deform_points", _as_int),
        "cam.channels": ("cam_channels", _as_int),
        "cam.modes": ("cam_modes", _as_int),
        "fuse.channels": ("fused_channels", _as_int),
        "fuse.blocks": ("fuse_blocks", _as_int),
        "pipeline.sweeps": ("sweeps", _as_int),
        "pipeline.seed": ("seed", _as_int),
        "pipeline.eps": ("eps", _as_float),
        "pipeline.weights": ("weights_path", lambda _k, v: v),
        "pipeline.dump_intermediates": ("dump_intermediates", _as_bool),
    }
    updates: dict = {}
    rcs_lo, rcs_hi = cfg.rcs_bounds
    scale, cap = cfg.scatter.radius_scale, cfg.scatter.radius_cap
    for key, value in kv.items():
        if key.startswith("scene."):
            continue
        if key in bev_kv:
            bev_kv[key] = _as_float(key, value)
        elif key == "rcs.lo":
            rcs_lo = _as_float(key, value)
        elif key == "rcs.hi":
            rcs_hi = _as_float(key, value)
        elif key == "scatter.radius_scale":
            scale = _as_float(key, value)
        elif key == "scatter.radius_cap":
            cap = _as_float(key, value)
        elif key in scalar_keys:
            name, conv = scalar_keys[key]
            updates[name] = conv(key, value)
        else:
            raise ConfigError(f"unknown config key '{key}'")
    updates["bev"] = BevSpec.from_extent(
        bev_kv["bev.x_min"], bev_kv["bev.x_max"], bev_kv["bev.y_min"], bev_kv["bev.y_max"],
        bev_kv["bev.resolution"],
    )
    updates["rcs_bounds"] = (rcs_lo, rcs_hi)
    updates["scatter"] = ScatterConfig(scale, cap)
    scene = _scene_from_kv(kv, cfg.scene)
    if "scene.n_sweeps" not in kv and "pipeline.sweeps" in kv:
        scene = replace(scene, n_sweeps=updates["sweeps"])
    updates["scene"] = scene
    return replace(cfg, **updates)


def load_config(path: str | Path, base: Optional[PipelineConfig] = None) -> PipelineConfig:
    return config_from_kv(parse_kv_text(Path(path).read_text()), base)
