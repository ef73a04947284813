"""RCS-aware BEV rasterization and encoding.

Each radar point writes its feature not just to its own BEV pixel but to every
pixel strictly closer than a radius proportional to (range in pixels)^2 times
the normalized RCS, with summation pooling on collisions. A Gaussian weight
map built per point over the same support (max-combined across points) is
concatenated and mixed by a per-pixel MLP; a residual conv/bn/relu stack then
produces the radar BEV feature.

Scatter accumulation follows canonical point order, so grids are
bit-deterministic.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataError, FormatError, ShapeError
from .ingest import PointFeatureSet
from .nn import MlpLayer, MlpParams, NormParams, as_f64, batch_norm_2d, conv3x3, mlp, relu
from .weights import TensorSource, INIT_GLOROT, INIT_ONES, INIT_ZEROS, linear_schema

GRID_MAGIC = b"BEVG"
GRID_VERSION = 1


@dataclass(frozen=True)
class BevSpec:
    """Metric extent and pixel layout of a BEV grid.

    x maps to pixel column (width W), y to pixel row (height H); intervals
    are half-open so quantization is total and unambiguous.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution: float
    h: int
    w: int

    def __post_init__(self):
        if self.resolution <= 0:
            raise ConfigError(f"resolution must be positive, got {self.resolution}")
        if self.h <= 0 or self.w <= 0:
            raise ConfigError(f"grid dims must be positive, got {self.h} x {self.w}")
        for span, px, name in (
            (self.x_max - self.x_min, self.w, "x"),
            (self.y_max - self.y_min, self.h, "y"),
        ):
            ratio = span / self.resolution
            if abs(ratio - px) > 1e-6:
                raise ConfigError(
                    f"{name} extent {span} / resolution {self.resolution} = {ratio}, expected {px} pixels"
                )

    @staticmethod
    def from_extent(x_min: float, x_max: float, y_min: float, y_max: float, resolution: float) -> "BevSpec":
        w = round((x_max - x_min) / resolution)
        h = round((y_max - y_min) / resolution)
        return BevSpec(x_min, x_max, y_min, y_max, resolution, h, w)


@dataclass
class BevGrid:
    data: np.ndarray  # C x H x W
    spec: BevSpec

    def __post_init__(self):
        self.data = as_f64(self.data)
        if self.data.ndim != 3 or self.data.shape[1:] != (self.spec.h, self.spec.w):
            raise ShapeError(
                f"grid data {self.data.shape} does not match spec {self.spec.h} x {self.spec.w}"
            )

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    def validate_finite(self) -> "BevGrid":
        if not np.all(np.isfinite(self.data)):
            raise DataError("BEV grid contains non-finite values")
        return self


@dataclass(frozen=True)
class ScatterConfig:
    """radius = min(radius_scale * (c_x^2 + c_y^2) * v_rcs, radius_cap), in pixels."""

    radius_scale: float = 0.02
    radius_cap: float = 5.0

    def __post_init__(self):
        if self.radius_scale < 0 or self.radius_cap < 0:
            raise ConfigError("scatter radius scale/cap must be >= 0")


def to_pixel(coord: Sequence[float], spec: BevSpec) -> tuple[tuple[float, float], tuple[int, int]]:
    """Continuous pixel coordinate (u, v) and its integer pixel (floor)."""
    x, y = float(coord[0]), float(coord[1])
    if not (spec.x_min <= x < spec.x_max and spec.y_min <= y < spec.y_max):
        raise ContractError(f"coordinate ({x}, {y}) outside ROI")
    u = (x - spec.x_min) / spec.resolution
    v = (y - spec.y_min) / spec.resolution
    px = min(int(math.floor(u)), spec.w - 1)
    py = min(int(math.floor(v)), spec.h - 1)
    return (u, v), (px, py)


def scatter_radius(c: Sequence[float], v_rcs: float, cfg: ScatterConfig) -> float:
    """Scatter radius in pixels for a point at continuous pixel coordinate c."""
    cx, cy = float(c[0]), float(c[1])
    return min(cfg.radius_scale * (cx * cx + cy * cy) * v_rcs, cfg.radius_cap)


def _covered_offsets(r: float) -> Iterable[tuple[int, int]]:
    """Integer offsets (dx, dy) with distance strictly below r, plus (0, 0)."""
    yield (0, 0)
    rad = int(math.ceil(r))
    r2 = r * r
    for dy in range(-rad, rad + 1):
        for dx in range(-rad, rad + 1):
            if (dx, dy) == (0, 0):
                continue
            if dx * dx + dy * dy < r2:
                yield (dx, dy)


def rcs_scatter(feats: PointFeatureSet, spec: BevSpec, cfg: ScatterConfig) -> BevGrid:
    """Sum-pool each point's feature into its own pixel and every pixel whose
    center lies strictly inside its scatter radius."""
    c = feats.features.shape[1]
    data = np.zeros((c, spec.h, spec.w))
    for i in range(len(feats)):
        (u, v), (px, py) = to_pixel(feats.coords[i], spec)
        r = scatter_radius((u, v), float(feats.rcs_norm[i]), cfg)
        f = feats.features[i]
        for dx, dy in _covered_offsets(r):
            qx, qy = px + dx, py + dy
            if 0 <= qx < spec.w and 0 <= qy < spec.h:
                data[:, qy, qx] += f
    return BevGrid(data, spec)


DENOM_FLOOR = 1e-9  # below this the Gaussian degenerates to a single pixel


def gaussian_bev_map(
    pixel_coords: np.ndarray, v_rcs: np.ndarray, spec: BevSpec, cfg: ScatterConfig
) -> BevGrid:
    """Max-combined per-point Gaussian weight maps (1 x H x W).

    For a point with continuous pixel coordinate c and integer pixel p, the
    value at in-radius pixel q is exp(-|q - p|^2 / ((1/3)(c_x^2 + c_y^2) v)),
    exactly 1 at p itself and 0 outside the scatter radius. A degenerate
    denominator (< 1e-9) contributes 1 at p only.
    """
    pixel_coords = as_f64(pixel_coords).reshape(-1, 2)
    v_rcs = as_f64(v_rcs).reshape(-1)
    if pixel_coords.shape[0] != v_rcs.shape[0]:
        raise ShapeError(f"{pixel_coords.shape[0]} coords vs {v_rcs.shape[0]} rcs values")
    data = np.zeros((1, spec.h, spec.w))
    for i in range(pixel_coords.shape[0]):
        u, v = pixel_coords[i]
        if not (0 <= u < spec.w and 0 <= v < spec.h):
            raise ContractError(f"pixel coordinate ({u}, {v}) outside the grid")
        px, py = min(int(math.floor(u)), spec.w - 1), min(int(math.floor(v)), spec.h - 1)
        denom = (u * u + v * v) * float(v_rcs[i]) / 3.0
        r = scatter_radius((u, v), float(v_rcs[i]), cfg)
        for dx, dy in _covered_offsets(r):
            qx, qy = px + dx, py + dy
            if not (0 <= qx < spec.w and 0 <= qy < spec.h):
                continue
            if denom < DENOM_FLOOR:
                val = 1.0 if (dx, dy) == (0, 0) else 0.0
            else:
                val = math.exp(-(dx * dx + dy * dy) / denom)
            if val > data[0, qy, qx]:
                data[0, qy, qx] = val
    return BevGrid(data, spec)


# ---------------------------------------------------------------------------
# per-pixel MLP and residual conv encoder
# ---------------------------------------------------------------------------

def rcs_bev_feature(f_rcs: BevGrid, g_rcs: BevGrid, params: MlpParams) -> BevGrid:
    """Concatenate the scattered features with the Gaussian map and mix them
    with a per-pixel MLP."""
    if f_rcs.spec != g_rcs.spec:
        raise ShapeError("feature and weight-map grids have different specs")
    stacked = np.concatenate([f_rcs.data, g_rcs.data], axis=0)
    c_in = stacked.shape[0]
    if params.in_channels != c_in:
        raise ShapeError(f"rcs mlp expects {params.in_channels} channels, grid has {c_in}")
    h, wd = f_rcs.spec.h, f_rcs.spec.w
    rows = stacked.reshape(c_in, h * wd).T
    out = mlp(rows, params)
    return BevGrid(out.T.reshape(params.out_channels, h, wd), f_rcs.spec)


@dataclass(frozen=True)
class CbrBlockParams:
    conv_w: np.ndarray
    conv_b: np.ndarray
    bn: NormParams
    proj: tuple[np.ndarray, np.ndarray] | None = None  # 1x1 channel-matching residual


def cbr_schema(src: TensorSource, prefix: str, c_in: int, c_out: int, eps: float) -> CbrBlockParams:
    """A residual conv3x3 + batch-norm + ReLU block; the skip gets a 1x1
    projection when the channel count changes."""
    conv_w = src.require(f"{prefix}.conv.w", (c_out, c_in, 3, 3), INIT_GLOROT)
    conv_b = src.require(f"{prefix}.conv.b", (c_out,), INIT_ZEROS)
    bn = NormParams(
        src.require(f"{prefix}.bn.scale", (c_out,), INIT_ONES),
        src.require(f"{prefix}.bn.shift", (c_out,), INIT_ZEROS),
        eps,
        mean=src.require(f"{prefix}.bn.mean", (c_out,), INIT_ZEROS),
        var=src.require(f"{prefix}.bn.var", (c_out,), INIT_ONES),
    )
    proj = linear_schema(src, f"{prefix}.proj", c_out, c_in) if c_in != c_out else None
    return CbrBlockParams(conv_w, conv_b, bn, proj)


def project_1x1(x: np.ndarray, proj: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """Residual path: identity, or a 1x1 linear map when channels change."""
    if proj is None:
        return x
    w, b = proj
    return np.einsum("kc,chw->khw", as_f64(w), as_f64(x), optimize=False) + as_f64(b)[:, None, None]


def cbr_residual(x: np.ndarray, p: CbrBlockParams) -> np.ndarray:
    return relu(batch_norm_2d(conv3x3(x, p.conv_w, p.conv_b), p.bn)) + project_1x1(x, p.proj)


def bev_encode(f_rcs_prime: BevGrid, base: BevGrid, blocks: Sequence[CbrBlockParams]) -> BevGrid:
    """Channel-concat the mixed feature with the single-pixel scatter and run
    the residual conv3x3 + batch-norm + ReLU stack; zero blocks = raw concat."""
    if f_rcs_prime.spec != base.spec:
        raise ShapeError("encoder inputs have different grid specs")
    x = np.concatenate([f_rcs_prime.data, base.data], axis=0)
    for block in blocks:
        x = cbr_residual(x, block)
    return BevGrid(x, f_rcs_prime.spec)


def encoder_schema(
    src: TensorSource,
    point_channels: int,
    rcs_hidden: tuple[int, ...],
    rcs_out: int,
    enc_blocks: int,
    enc_channels: int,
    eps: float,
) -> tuple[MlpParams, tuple[CbrBlockParams, ...]]:
    """Ask ``src`` for the per-pixel mix MLP (bev.rcs_mlp.*) and the conv
    encoder stack (bev.enc.block{k}.*); returns (mlp, blocks)."""
    dims = (point_channels + 1,) + tuple(rcs_hidden) + (rcs_out,)
    layers = tuple(
        MlpLayer(*linear_schema(src, f"bev.rcs_mlp.layer{j}", cout, cin), relu=j < len(dims) - 2)
        for j, (cin, cout) in enumerate(zip(dims, dims[1:]))
    )
    blocks = []
    cin = rcs_out + point_channels
    for k in range(enc_blocks):
        blocks.append(cbr_schema(src, f"bev.enc.block{k}", cin, enc_channels, eps))
        cin = enc_channels
    return MlpParams(layers), tuple(blocks)


# ---------------------------------------------------------------------------
# grid file format
# ---------------------------------------------------------------------------

def save_grid(grid: BevGrid, path: str | Path) -> None:
    """Header: magic, version, C/H/W u32, spec as 5 little-endian f64;
    payload: C*H*W little-endian f32, channel-major row-major."""
    grid.validate_finite()
    c, h, w = grid.data.shape
    s = grid.spec
    header = GRID_MAGIC + struct.pack(
        "<IIII5d", GRID_VERSION, c, h, w, s.x_min, s.x_max, s.y_min, s.y_max, s.resolution
    )
    Path(path).write_bytes(header + np.ascontiguousarray(grid.data, dtype="<f4").tobytes())


def load_grid(path: str | Path) -> BevGrid:
    raw = Path(path).read_bytes()
    head_len = 4 + struct.calcsize("<IIII5d")
    if len(raw) < head_len:
        raise FormatError(f"{path}: truncated grid file")
    if raw[:4] != GRID_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    version, c, h, w, x_min, x_max, y_min, y_max, res = struct.unpack_from("<IIII5d", raw, 4)
    if version != GRID_VERSION:
        raise FormatError(f"{path}: unsupported grid version {version}")
    expected = head_len + 4 * c * h * w
    if len(raw) != expected:
        raise FormatError(f"{path}: {len(raw)} bytes, expected {expected}")
    data = np.frombuffer(raw, dtype="<f4", offset=head_len).astype(np.float64).reshape(c, h, w)
    if not np.all(np.isfinite(data)):
        raise DataError(f"{path}: grid payload contains non-finite values")
    return BevGrid(data, BevSpec(x_min, x_max, y_min, y_max, res, h, w))
