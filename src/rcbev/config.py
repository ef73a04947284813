"""Pipeline configuration: defaults, the flat key-value config file format,
and the whole-model parameter schema that enumerates and loads every tensor.

Config files are plain text, one `dotted.key = value` per line, `#` comments.
Unknown keys are rejected. Every default is documented next to its field.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Optional, get_type_hints

from .backbone import BackboneParams, backbone_schema
from .bev import BevSpec, CbrBlockParams, ScatterConfig, encoder_schema
from .errors import ConfigError, read_file, require_finite
from .fusion import AlignParams, fusion_schema
from .ingest import DEFAULT_RCS_BOUNDS, ClusterSpec, SceneConfig
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
    rcs_bounds: tuple[float, float] = DEFAULT_RCS_BOUNDS  # dBsm normalization window
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
    seed: int = 0  # seeds weight init and synthetic inputs
    eps: float = 1e-5  # normalization epsilon
    weights_path: Optional[str] = None  # load manifest instead of seeded init
    scene: SceneConfig = field(default_factory=SceneConfig)

    def __post_init__(self):
        if len(self.stage_widths) < 1:
            raise ConfigError("need at least one backbone stage")
        bad = [f"{n} = {getattr(self, n)}" for n in ("enc_blocks", "fuse_blocks", "seed") if getattr(self, n) < 0]
        if bad:
            raise ConfigError(f"values must be >= 0, got {', '.join(bad)}")
        sizes = {
            "radar_channels": self.radar_channels,
            "cam_channels": self.cam_channels,
            "fused_channels": self.fused_channels,
            "rcs_out": self.rcs_out,
            "deform_heads": self.deform_heads,
            "deform_points": self.deform_points,
            "cam_modes": self.cam_modes,
            "ffn_mult": self.ffn_mult,
            "dmsa_heads": self.dmsa_heads,
            "cross_heads": self.cross_heads,
        }
        sizes.update({f"rcs_hidden[{i}]": h for i, h in enumerate(self.rcs_hidden)})
        sizes.update({f"stage_widths[{i}]": w for i, w in enumerate(self.stage_widths)})
        bad = [f"{name} = {v}" for name, v in sizes.items() if v <= 0]
        if bad:
            raise ConfigError(f"sizes must be positive, got {', '.join(bad)}")
        lo, hi = self.rcs_bounds
        require_finite(eps=self.eps, rcs_lo=lo, rcs_hi=hi)
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if lo >= hi:
            raise ConfigError(f"rcs_bounds must satisfy lo < hi, got ({lo}, {hi})")
        if not self.enc_blocks and self.rcs_out + self.point_channels != self.radar_channels:
            raise ConfigError(
                f"enc.blocks = 0 passes rcs_mlp.out + backbone.widths[-1] = {self.rcs_out} + {self.point_channels}"
                f" channels through, not enc.channels = {self.radar_channels}"
            )
        if self.radar_channels % self.deform_heads or self.cam_channels % self.deform_heads:
            raise ConfigError("deform_heads must divide both radar and camera channels")
        heads = f"dmsa_heads {self.dmsa_heads} and cross_heads {self.cross_heads}"
        for w in self.stage_widths:
            if w % 2 or w % self.dmsa_heads or w % self.cross_heads:
                raise ConfigError(f"stage_widths {self.stage_widths}: {w} must be even and divisible by {heads}")
        widest = max(self.cam_channels + self.radar_channels, self.fused_channels, self.rcs_out + self.point_channels)
        if (n := self.bev.h * self.bev.w * widest) > 2**27:  # 1 GiB of float64 in the widest grid
            raise ConfigError(f"bev {self.bev.h} x {self.bev.w} x {widest} channels is {n} values, above 2**27")

    @property
    def point_channels(self) -> int:
        return self.stage_widths[-1]


@dataclass(frozen=True)
class ModelParams:
    """Typed params of the three learned blocks."""

    backbone: BackboneParams
    encoder: tuple[MlpParams, tuple[CbrBlockParams, ...]]  # (rcs mlp, conv blocks)
    fusion: tuple[AlignParams, tuple[CbrBlockParams, ...]]  # (align, fuse blocks)


def model_schema(src: TensorSource, cfg: PipelineConfig) -> ModelParams:
    """Ask ``src`` for every learned tensor of the pipeline, in canonical
    order, and assemble the typed params."""
    return ModelParams(
        backbone_schema(src, cfg.stage_widths, cfg.dmsa_heads, cfg.cross_heads, cfg.ffn_mult, cfg.eps),
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


def _as_int_tuple(key: str, v: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in v.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"key '{key}': expected comma-separated integers, got {v!r}") from None


_PARSERS = {int: _as_int, float: _as_float, tuple[int, ...]: _as_int_tuple}
_PARSERS[str] = _PARSERS[Optional[str]] = lambda _key, v: v

# top-level keys are named by pipeline part, not by PipelineConfig field
_TOP_LEVEL = {
    "backbone.widths": "stage_widths",
    "backbone.dmsa_heads": "dmsa_heads",
    "backbone.cross_heads": "cross_heads",
    "backbone.ffn_mult": "ffn_mult",
    "rcs_mlp.hidden": "rcs_hidden",
    "rcs_mlp.out": "rcs_out",
    "enc.blocks": "enc_blocks",
    "enc.channels": "radar_channels",
    "align.heads": "deform_heads",
    "align.points": "deform_points",
    "cam.channels": "cam_channels",
    "cam.modes": "cam_modes",
    "fuse.channels": "fused_channels",
    "fuse.blocks": "fuse_blocks",
    "pipeline.seed": "seed",
    "pipeline.eps": "eps",
    "pipeline.weights": "weights_path",
}
# nested keys are "<prefix>.<field>" for every field of the prefix's dataclass
# but those listed, which no key sets
_NESTED = {
    "bev": (BevSpec, ("h", "w")),  # follow from extent and resolution
    "scatter": (ScatterConfig, ()),
    "scene": (SceneConfig, ("clusters",)),  # built from the scene.cluster.<i>.* keys
    "scene.cluster.0": (ClusterSpec, ()),  # stands for every cluster index <i>
}
_CLUSTER_KEY = re.compile(r"scene\.cluster\.(0|[1-9][0-9]*)\.(.*)")  # canonical indices only


def _key_table() -> dict[str, tuple[str, str | int, Callable[[str, str], object]]]:
    """Every config key -> (prefix, field or tuple slot, parser); the parser
    follows the field's declared type."""
    hints = get_type_hints(PipelineConfig)
    table = {key: ("", name, _PARSERS[hints[name]]) for key, name in _TOP_LEVEL.items()}
    table["rcs.lo"] = ("rcs", 0, _as_float)  # the two slots of rcs_bounds
    table["rcs.hi"] = ("rcs", 1, _as_float)
    for prefix, (cls, unkeyed) in _NESTED.items():
        hints = get_type_hints(cls)
        for name in (f.name for f in fields(cls) if f.name not in unkeyed):
            table[f"{prefix}.{name}"] = (prefix, name, _PARSERS[hints[name]])
    return table


_KEYS = _key_table()


def _cluster(idx: int, given: dict, points_per_cluster: int) -> ClusterSpec:
    spec = {"n_points": points_per_cluster, "rcs_dbsm": 10.0, **given}
    missing = [f.name for f in fields(ClusterSpec) if f.name not in spec and f.default is MISSING]
    if missing:
        raise ConfigError(f"scene.cluster.{idx} is missing field '{missing[0]}'")
    return ClusterSpec(**spec)


def config_from_kv(kv: dict[str, str]) -> PipelineConfig:
    """The default config with the given keys set; every key is parsed by the
    type of the field it sets, and the dataclasses check the values."""
    got: dict[str, dict] = defaultdict(dict)
    clusters: dict[int, dict] = {}
    for key, value in kv.items():
        cluster = _CLUSTER_KEY.fullmatch(key)
        entry = _KEYS.get(f"scene.cluster.0.{cluster[2]}" if cluster else key)
        if entry is None:
            raise ConfigError(f"unknown config key '{key}'")
        prefix, name, parse = entry
        target = clusters.setdefault(int(cluster[1]), {}) if cluster else got[prefix]
        target[name] = parse(key, value)
    cfg = PipelineConfig()
    extent = {name: getattr(cfg.bev, name) for prefix, name, _ in _KEYS.values() if prefix == "bev"} | got["bev"]
    scene = got["scene"]
    if clusters:
        ppc = scene.get("points_per_cluster", cfg.scene.points_per_cluster)
        specs = tuple(_cluster(i, clusters[i], ppc) for i in sorted(clusters))
        scene = {"n_clusters": len(specs), **scene, "clusters": specs}
    return replace(
        cfg,
        **got[""],
        bev=BevSpec.from_extent(**extent),
        rcs_bounds=tuple(got["rcs"].get(slot, v) for slot, v in enumerate(cfg.rcs_bounds)),
        scatter=replace(cfg.scatter, **got["scatter"]),
        scene=replace(cfg.scene, **scene),
    )


def load_config(path: str | Path) -> PipelineConfig:
    """Read a UTF-8 key = value config file."""
    return config_from_kv(parse_kv_text(read_file(path, ConfigError, text=True)))
