"""Radar point-cloud ingestion: file formats, ROI filtering, per-point
feature assembly and synthetic test scenes.

Point order is canonical (sorted by sweep_offset, x, y, z) after load or
synthesis, so every downstream summation is bit-deterministic.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, ContractError, DataError, FormatError

CSV_COLUMNS = ("x", "y", "z", "rcs", "vx", "vy", "sweep_offset")
DEFAULT_RCS_BOUNDS = (-20.0, 30.0)  # dBsm window covering typical automotive targets
FEATURE_CHANNELS = 7  # x_norm, y_norm, z, rcs_norm, vx, vy, sweep_offset


@dataclass(frozen=True)
class RadarPoint:
    """One radar return in the ego frame; Doppler is ego-motion compensated."""

    x: float
    y: float
    z: float
    rcs_dbsm: float
    vx: float
    vy: float
    sweep_offset: float  # seconds relative to the key frame, <= 0

    def __post_init__(self):
        for name in ("x", "y", "z", "rcs_dbsm", "vx", "vy", "sweep_offset"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise DataError(f"radar point field '{name}' is non-finite")
            object.__setattr__(self, name, v)
        if self.sweep_offset > 0:
            raise DataError(f"sweep_offset must be <= 0, got {self.sweep_offset}")

    def sort_key(self):
        return (self.sweep_offset, self.x, self.y, self.z)


@dataclass(frozen=True)
class PointCloud:
    points: tuple[RadarPoint, ...]
    frame_id: str = ""
    compensated: bool = True

    def __len__(self) -> int:
        return len(self.points)


def canonical(points: Iterable[RadarPoint], frame_id: str = "", compensated: bool = True) -> PointCloud:
    return PointCloud(tuple(sorted(points, key=RadarPoint.sort_key)), frame_id, compensated)


@dataclass(frozen=True)
class PointFeatureSet:
    """Per-point feature matrix plus the coordinates and RCS kept for scattering."""

    features: np.ndarray  # N x C
    coords: np.ndarray  # N x 2, meters
    rcs_norm: np.ndarray  # N, in [0, 1]

    def __post_init__(self):
        n = self.features.shape[0]
        if self.coords.shape != (n, 2) or self.rcs_norm.shape != (n,):
            raise DataError(
                f"feature set rows disagree: {self.features.shape}, {self.coords.shape}, {self.rcs_norm.shape}"
            )
        if n and (self.rcs_norm.min() < 0 or self.rcs_norm.max() > 1):
            raise DataError("rcs_norm entries must lie in [0, 1]")

    def __len__(self) -> int:
        return self.features.shape[0]


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_COMMENT_RE = re.compile(r"#\s*frame=(\S+)\s+compensated=(true|false)", re.IGNORECASE)


def load_point_cloud(path: str | Path) -> PointCloud:
    """Read the radar CSV format: optional '# frame=<id> compensated=<bool>'
    comment, header 'x,y,z,rcs,vx,vy,sweep_offset', one point per row."""
    path = Path(path)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    frame_id, compensated = "", True
    if lines and lines[0].lstrip().startswith("#"):
        m = _COMMENT_RE.search(lines[0])
        if m:
            frame_id = m.group(1)
            compensated = m.group(2).lower() == "true"
        lines = lines[1:]
    if not lines:
        raise FormatError(f"{path}: missing header line")
    header = [h.strip() for h in lines[0].split(",")]
    for col in CSV_COLUMNS:
        if col not in header:
            raise FormatError(f"{path}: missing column '{col}'")
    for col in header:
        if col not in CSV_COLUMNS:
            raise FormatError(f"{path}: unknown column '{col}'")
    idx = {col: header.index(col) for col in CSV_COLUMNS}
    points = []
    for ln_no, ln in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(header):
            raise FormatError(f"{path}:{ln_no}: expected {len(header)} cells, got {len(cells)}")
        try:
            vals = {col: float(cells[idx[col]]) for col in CSV_COLUMNS}
        except ValueError as exc:
            raise FormatError(f"{path}:{ln_no}: {exc}") from exc
        for col, v in vals.items():
            if not math.isfinite(v):
                raise DataError(f"{path}:{ln_no}: non-finite value in column '{col}'")
        points.append(
            RadarPoint(
                vals["x"], vals["y"], vals["z"], vals["rcs"],
                vals["vx"], vals["vy"], vals["sweep_offset"],
            )
        )
    return canonical(points, frame_id, compensated)


def save_point_cloud(cloud: PointCloud, path: str | Path) -> None:
    path = Path(path)
    out = [f"# frame={cloud.frame_id or 'unknown'} compensated={str(cloud.compensated).lower()}"]
    out.append(",".join(CSV_COLUMNS))
    for p in cloud.points:
        out.append(
            ",".join(repr(v) for v in (p.x, p.y, p.z, p.rcs_dbsm, p.vx, p.vy, p.sweep_offset))
        )
    path.write_text("\n".join(out) + "\n")


def load_point_cloud_binary(path: str | Path) -> PointCloud:
    """Binary twin format: little-endian uint32 count, then 28-byte f32 rows."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated binary radar file")
    (count,) = struct.unpack_from("<I", raw, 0)
    expected = 4 + 28 * count
    if len(raw) != expected:
        raise FormatError(f"{path}: {len(raw)} bytes, expected {expected} for {count} points")
    rows = np.frombuffer(raw, dtype="<f4", offset=4).reshape(count, 7).astype(np.float64)
    if not np.all(np.isfinite(rows)):
        raise DataError(f"{path}: non-finite value in binary payload")
    points = [RadarPoint(*row) for row in rows]
    return canonical(points)


def save_point_cloud_binary(cloud: PointCloud, path: str | Path) -> None:
    rows = np.array(
        [[p.x, p.y, p.z, p.rcs_dbsm, p.vx, p.vy, p.sweep_offset] for p in cloud.points],
        dtype="<f4",
    ).reshape(len(cloud), 7)
    Path(path).write_bytes(struct.pack("<I", len(cloud)) + rows.tobytes())


# ---------------------------------------------------------------------------
# filtering and featurization
# ---------------------------------------------------------------------------

def filter_roi(cloud: PointCloud, spec) -> PointCloud:
    """Keep points with x in [x_min, x_max) and y in [y_min, y_max)."""
    kept = [
        p
        for p in cloud.points
        if spec.x_min <= p.x < spec.x_max and spec.y_min <= p.y < spec.y_max
    ]
    return PointCloud(tuple(kept), cloud.frame_id, cloud.compensated)


def normalize_rcs(rcs_dbsm: float, bounds: tuple[float, float] = DEFAULT_RCS_BOUNDS) -> float:
    lo, hi = bounds
    if lo >= hi:
        raise ConfigError(f"rcs bounds must satisfy lo < hi, got ({lo}, {hi})")
    return min(1.0, max(0.0, (rcs_dbsm - lo) / (hi - lo)))


def assemble_features(
    cloud: PointCloud, spec, bounds: tuple[float, float] = DEFAULT_RCS_BOUNDS
) -> PointFeatureSet:
    """Build the 7-channel feature rows
    [x_norm, y_norm, z, rcs_norm, vx, vy, sweep_offset] for an ROI-filtered cloud."""
    n = len(cloud)
    feats = np.zeros((n, FEATURE_CHANNELS))
    coords = np.zeros((n, 2))
    rcs = np.zeros(n)
    x_span = spec.x_max - spec.x_min
    y_span = spec.y_max - spec.y_min
    for i, p in enumerate(cloud.points):
        if not (spec.x_min <= p.x < spec.x_max and spec.y_min <= p.y < spec.y_max):
            raise ContractError(f"point ({p.x}, {p.y}) lies outside the ROI")
        r = normalize_rcs(p.rcs_dbsm, bounds)
        feats[i] = (
            (p.x - spec.x_min) / x_span,
            (p.y - spec.y_min) / y_span,
            p.z,
            r,
            p.vx,
            p.vy,
            p.sweep_offset,
        )
        coords[i] = (p.x, p.y)
        rcs[i] = r
    return PointFeatureSet(feats, coords, rcs)


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterSpec:
    bearing_deg: float
    range_m: float
    n_points: int
    rcs_dbsm: float
    speed_mps: float = 0.0
    heading_deg: float = 0.0


@dataclass(frozen=True)
class SceneConfig:
    n_clusters: int = 3
    points_per_cluster: int = 12
    azimuth_noise_deg: float = 0.3
    n_sweeps: int = 6
    sweep_period_s: float = 0.083
    range_spread_m: float = 1.5
    z_m: float = 0.0
    max_range_m: float = 45.0
    frame_id: str = "synth"
    clusters: tuple[ClusterSpec, ...] = ()

    def __post_init__(self):
        if self.n_clusters < 0 or self.points_per_cluster < 0 or self.n_sweeps < 0:
            raise ConfigError("scene counts must be >= 0")


def synth_scene(config: SceneConfig, seed: int) -> PointCloud:
    """Deterministic synthetic radar scene: object clusters on configured
    bearings, per-cluster RCS level and Doppler, optional azimuth noise."""
    rng = np.random.default_rng(seed)
    clusters = list(config.clusters)
    if not clusters:
        for _ in range(config.n_clusters):
            clusters.append(
                ClusterSpec(
                    bearing_deg=float(rng.uniform(0.0, 360.0)),
                    range_m=float(rng.uniform(8.0, config.max_range_m)),
                    n_points=config.points_per_cluster,
                    rcs_dbsm=float(rng.uniform(-5.0, 25.0)),
                    speed_mps=float(rng.uniform(0.0, 15.0)),
                    heading_deg=float(rng.uniform(0.0, 360.0)),
                )
            )
    points: list[RadarPoint] = []
    sigma = math.radians(config.azimuth_noise_deg)
    for cl in clusters:
        theta = math.radians(cl.bearing_deg)
        heading = math.radians(cl.heading_deg)
        vx = cl.speed_mps * math.cos(heading)
        vy = cl.speed_mps * math.sin(heading)
        for sweep in range(config.n_sweeps):
            t = -sweep * config.sweep_period_s
            for _ in range(cl.n_points):
                r = cl.range_m + float(rng.uniform(-config.range_spread_m, config.range_spread_m))
                x = r * math.cos(theta) + vx * t
                y = r * math.sin(theta) + vy * t
                if sigma > 0:
                    az = float(rng.normal(0.0, sigma))
                    c, s = math.cos(az), math.sin(az)
                    x, y = c * x - s * y, s * x + c * y
                points.append(RadarPoint(x, y, config.z_m, cl.rcs_dbsm, vx, vy, t))
    return canonical(points, config.frame_id)
