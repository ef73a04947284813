"""Radar point-cloud ingestion: file formats, ROI filtering, per-point
feature assembly and synthetic test scenes.

A cloud's points are the rows of one N x 7 float64 array. The PointCloud
constructor is the one place that validates and orders them: rows are sorted
by (sweep_offset, x, y, z, rcs, vx, vy), so only equal rows can tie, and a
cloud is canonical by construction, whatever order its points arrived in.
(Rows that differ only in the sign of a zero compare equal and keep their
input order.) Every downstream summation is therefore bit-deterministic
under point permutations.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError, ShapeError, read_file, require_finite_fields, require_inside

CSV_COLUMNS = ("x", "y", "z", "rcs", "vx", "vy", "sweep_offset")  # also the columns of PointCloud.rows
SORT_PRIORITY = (6, 0, 1, 2, 3, 4, 5)  # sweep_offset, x, y, z, rcs, vx, vy
DEFAULT_RCS_BOUNDS = (-20.0, 30.0)  # dBsm window covering typical automotive targets


class PointCloud:
    """Radar returns in the ego frame, one read-only row per point with the
    columns CSV_COLUMNS: rcs in dBsm, Doppler ego-motion compensated and
    sweep_offset in seconds relative to the key frame, <= 0."""

    def __init__(self, rows, frame_id: str = "", compensated: bool = True):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != len(CSV_COLUMNS):
            raise ShapeError(f"point rows must be N x {len(CSV_COLUMNS)}, got shape {rows.shape}")
        bad = np.argwhere(~np.isfinite(rows))
        if len(bad):
            raise DataError(f"radar point {bad[0][0]}: field '{CSV_COLUMNS[bad[0][1]]}' is non-finite")
        late = rows[rows[:, 6] > 0, 6]
        if len(late):
            raise DataError(f"sweep_offset must be <= 0, got {late[0]}")
        # np.lexsort is stable and sorts by its last key first
        self.rows = rows[np.lexsort(rows[:, SORT_PRIORITY[::-1]].T)]
        self.rows.flags.writeable = False
        self.frame_id = frame_id
        self.compensated = compensated

    def __len__(self) -> int:
        return self.rows.shape[0]


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
    """Read the radar CSV format (UTF-8): optional '# frame=<id> compensated=<bool>'
    comment, header naming x,y,z,rcs,vx,vy,sweep_offset once each, one point per row."""
    lines = [ln for ln in read_file(path, text=True).splitlines() if ln.strip()]
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
    for i, col in enumerate(header):
        if col not in CSV_COLUMNS:
            raise FormatError(f"{path}: unknown column '{col}'")
        if col in header[:i]:
            raise FormatError(f"{path}: duplicate column '{col}'")
    idx = [header.index(col) for col in CSV_COLUMNS]
    rows = []
    for ln_no, ln in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(header):
            raise FormatError(f"{path}:{ln_no}: expected {len(header)} cells, got {len(cells)}")
        try:
            row = [float(cells[i]) for i in idx]
        except ValueError as exc:
            raise FormatError(f"{path}:{ln_no}: {exc}") from exc
        for col, v in zip(CSV_COLUMNS, row):
            if not math.isfinite(v):
                raise DataError(f"{path}:{ln_no}: non-finite value in column '{col}'")
        rows.append(row)
    return PointCloud(np.reshape(rows, (-1, len(CSV_COLUMNS))), frame_id, compensated)


def save_point_cloud(cloud: PointCloud, path: str | Path) -> None:
    path = Path(path)
    out = [f"# frame={cloud.frame_id or 'unknown'} compensated={str(cloud.compensated).lower()}"]
    out.append(",".join(CSV_COLUMNS))
    out.extend(",".join(map(repr, row)) for row in cloud.rows.tolist())
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


def load_point_cloud_binary(path: str | Path) -> PointCloud:
    """Binary twin format: little-endian uint32 count, then 28-byte f32 rows."""
    raw = read_file(path)
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated binary radar file")
    (count,) = struct.unpack_from("<I", raw, 0)
    expected = 4 + 28 * count
    if len(raw) != expected:
        raise FormatError(f"{path}: {len(raw)} bytes, expected {expected} for {count} points")
    return PointCloud(np.frombuffer(raw, dtype="<f4", offset=4).reshape(count, 7))


def save_point_cloud_binary(cloud: PointCloud, path: str | Path) -> None:
    Path(path).write_bytes(struct.pack("<I", len(cloud)) + cloud.rows.astype("<f4").tobytes())


# ---------------------------------------------------------------------------
# filtering and featurization
# ---------------------------------------------------------------------------

def _in_roi(rows: np.ndarray, spec) -> np.ndarray:
    x, y = rows[:, 0], rows[:, 1]
    return (spec.x_min <= x) & (x < spec.x_max) & (spec.y_min <= y) & (y < spec.y_max)


def filter_roi(cloud: PointCloud, spec) -> PointCloud:
    """Keep points with x in [x_min, x_max) and y in [y_min, y_max)."""
    return PointCloud(cloud.rows[_in_roi(cloud.rows, spec)], cloud.frame_id, cloud.compensated)


def normalize_rcs(rcs_dbsm, bounds: tuple[float, float] = DEFAULT_RCS_BOUNDS):
    """RCS in dBsm mapped linearly from ``bounds`` onto [0, 1] and clamped;
    elementwise over an array."""
    lo, hi = bounds
    if not lo < hi:
        raise ConfigError(f"rcs bounds must satisfy lo < hi, got ({lo}, {hi})")
    return np.minimum(1.0, np.maximum(0.0, (rcs_dbsm - lo) / (hi - lo)))


def assemble_features(
    cloud: PointCloud, spec, bounds: tuple[float, float] = DEFAULT_RCS_BOUNDS
) -> PointFeatureSet:
    """Build the 7-channel feature rows
    [x_norm, y_norm, z, rcs_norm, vx, vy, sweep_offset] for an ROI-filtered cloud."""
    rows = cloud.rows
    require_inside(rows[:, :2], (spec.x_min, spec.y_min), (spec.x_max, spec.y_max), "point ({}, {}) outside the ROI")
    rcs = normalize_rcs(rows[:, 3], bounds)
    feats = rows.copy()
    feats[:, 0] = (rows[:, 0] - spec.x_min) / (spec.x_max - spec.x_min)
    feats[:, 1] = (rows[:, 1] - spec.y_min) / (spec.y_max - spec.y_min)
    feats[:, 3] = rcs
    return PointFeatureSet(feats, rows[:, :2].copy(), rcs)


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

    def __post_init__(self):
        require_finite_fields(self)
        if self.n_points < 0:
            raise ConfigError(f"n_points must be >= 0, got {self.n_points}")


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
        require_finite_fields(self)
        nonneg = ("n_clusters", "points_per_cluster", "n_sweeps", "azimuth_noise_deg")
        bad = [f"{name} = {getattr(self, name)}" for name in nonneg if getattr(self, name) < 0]
        if bad:
            raise ConfigError(f"scene values must be >= 0, got {', '.join(bad)}")


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
    rows = []
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
                rows.append((x, y, config.z_m, cl.rcs_dbsm, vx, vy, t))
    return PointCloud(np.reshape(rows, (-1, len(CSV_COLUMNS))), config.frame_id)
