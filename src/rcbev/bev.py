"""RCS-aware BEV rasterization and encoding.

Each radar point writes its feature not just to its own BEV pixel but to every
pixel strictly closer than a radius proportional to (range in pixels)^2 times
the normalized RCS, with summation pooling on collisions. A Gaussian weight
map built per point over the same support (max-combined across points) is
concatenated and mixed by a per-pixel MLP; a residual conv/bn/relu (CBR) stack
then produces the radar BEV feature. The same stack, bev_encode, fuses the
aligned camera and radar grids in fusion. In every conv, pixels whose window
is all background, compared by bits, take one computed output, so the radar
grid, which the points leave mostly empty, is convolved only near its points.
Each CBR block applies its batch norm, ReLU and skip add in place on the conv
output, so a block holds one output-sized array beyond its input.

Coverage is decided by one rule, footprint: the scatter and the Gaussian map
each build their own table of (point, pixel, d2) entries ordered by point. Sums
follow table order, so each pixel adds its points in canonical order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError, DataError, FormatError, ShapeError, read_file, require_finite, require_finite_fields, require_inside,
)
from .ingest import PointFeatureSet
from .nn import MlpLayer, MlpParams, NormParams, as_f64, batch_norm_2d, conv3x3, mlp, product
from .weights import TensorSource, INIT_GLOROT, INIT_ONES, INIT_ZEROS, linear_schema

GRID_MAGIC = b"BEVG"
GRID_VERSION = 2


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
        require_finite_fields(self)
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
        require_finite(x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max, resolution=resolution)
        if resolution <= 0:
            raise ConfigError(f"resolution must be positive, got {resolution}")
        w, h = (x_max - x_min) / resolution, (y_max - y_min) / resolution
        require_finite(**{"(x_max - x_min) / resolution": w, "(y_max - y_min) / resolution": h})
        return BevSpec(x_min, x_max, y_min, y_max, resolution, round(h), round(w))


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
        require_finite_fields(self)
        if self.radius_scale < 0 or self.radius_cap < 0:
            raise ConfigError("scatter radius scale/cap must be >= 0")


def to_pixel(coords, spec: BevSpec) -> tuple[np.ndarray, np.ndarray]:
    """Continuous pixel coordinates (u, v) and their integer pixels (floor),
    elementwise over one (x, y) pair or an N x 2 array."""
    xy = as_f64(coords)
    require_inside(xy, (spec.x_min, spec.y_min), (spec.x_max, spec.y_max), "coordinate ({}, {}) outside ROI")
    uv = (xy - (spec.x_min, spec.y_min)) / spec.resolution
    return uv, _floor_pixel(uv, spec)


def _floor_pixel(uv: np.ndarray, spec: BevSpec) -> np.ndarray:
    return np.minimum(np.floor(uv), (spec.w - 1, spec.h - 1)).astype(np.int64)


def scatter_radius(c, v_rcs, cfg: ScatterConfig):
    """Scatter radius in pixels for a point at continuous pixel coordinate c;
    elementwise over an N x 2 array of coordinates and N RCS values."""
    cx, cy = as_f64(c).T
    return np.minimum(cfg.radius_scale * (cx * cx + cy * cy) * v_rcs, cfg.radius_cap)


def footprint(uv: np.ndarray, radius: np.ndarray, spec: BevSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The footprint table of N points at continuous pixel coordinates uv:
    (point, pixel, d2) for the point's own pixel p and every grid pixel q with
    |q - p|^2 = d2 < radius^2, ordered by point. Pixels are row-major flat
    indices y * W + x."""
    pix = _floor_pixel(uv, spec)
    # pixels more than max(H, W) away are off the grid whatever the radius
    reach = np.minimum(np.ceil(radius), max(spec.h, spec.w)).astype(np.int64)[:, None]
    lo = np.maximum(pix - reach, 0)
    size = np.minimum(pix + reach, (spec.w - 1, spec.h - 1)) - lo + 1
    count = size[:, 0] * size[:, 1]
    pt = np.repeat(np.arange(len(pix)), count)
    k = np.arange(len(pt)) - np.repeat(np.cumsum(count) - count, count)
    qx = lo[pt, 0] + k % size[pt, 0]
    qy = lo[pt, 1] + k // size[pt, 0]
    d2 = (qx - pix[pt, 0]) ** 2 + (qy - pix[pt, 1]) ** 2
    keep = (d2 < radius[pt] ** 2) | (d2 == 0)
    return pt[keep], (qy * spec.w + qx)[keep], d2[keep]


def rcs_scatter(feats: PointFeatureSet, spec: BevSpec, cfg: ScatterConfig) -> BevGrid:
    """Sum-pool each point's feature into its own pixel and every pixel whose
    center lies strictly inside its scatter radius."""
    uv, _ = to_pixel(feats.coords, spec)
    pt, pixel, _ = footprint(uv, scatter_radius(uv, feats.rcs_norm, cfg), spec)
    data = np.empty((feats.features.shape[1], spec.h * spec.w))
    # one channel at a time, so no table x C block is ever gathered; bincount
    # adds in table order, so each pixel sums its points in canonical order
    for c, column in enumerate(np.ascontiguousarray(feats.features.T)):
        data[c] = np.bincount(pixel, weights=column[pt], minlength=spec.h * spec.w)
    return BevGrid(data.reshape(len(data), spec.h, spec.w), spec)


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
    uv = as_f64(pixel_coords).reshape(-1, 2)
    v_rcs = as_f64(v_rcs).reshape(-1)
    if uv.shape[0] != v_rcs.shape[0]:
        raise ShapeError(f"{uv.shape[0]} coords vs {v_rcs.shape[0]} rcs values")
    # to_pixel maps the half-open ROI onto the closed [0, extent / resolution]:
    # (y - y_min) / resolution can round up to H for y just below y_max
    uv_max = (np.array((spec.x_max, spec.y_max)) - (spec.x_min, spec.y_min)) / spec.resolution
    require_inside(uv, 0, np.nextafter(uv_max, np.inf), "pixel coordinate ({}, {}) outside the grid")
    u, v = uv[:, 0], uv[:, 1]
    pt, pixel, d2 = footprint(uv, scatter_radius(uv, v_rcs, cfg), spec)
    denom = ((u * u + v * v) * v_rcs / 3.0)[pt]
    val = (d2 == 0).astype(np.float64)
    live = denom >= DENOM_FLOOR
    # math.exp, as np.exp may differ in the last bit; streamed, as a list of floats raised peak RSS 7%
    t = -d2[live] / denom[live]
    val[live] = np.fromiter(map(math.exp, t), np.float64, count=t.size)
    data = np.zeros(spec.h * spec.w)
    np.maximum.at(data, pixel, val)
    return BevGrid(data.reshape(1, spec.h, spec.w), spec)


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
    y = product(as_f64(w), as_f64(x).reshape(len(x), -1))
    y += as_f64(b)[:, None]
    return y.reshape(-1, *x.shape[1:])


def cbr_residual(x: np.ndarray, p: CbrBlockParams) -> np.ndarray:
    """relu(batch_norm(conv3x3(x))) + skip(x), the batch norm, ReLU and skip
    add applied in place on the conv output."""
    y = conv3x3(x, p.conv_w, p.conv_b)
    batch_norm_2d(y, p.bn, out=y)
    np.maximum(y, 0.0, out=y)
    y += project_1x1(x, p.proj)
    return y


def cbr_stack_schema(
    src: TensorSource, prefixes: Sequence[str], c_in: int, c_out: int, eps: float
) -> tuple[CbrBlockParams, ...]:
    """One residual CBR block per prefix: the first maps c_in to c_out (a 1x1
    skip projection when they differ), the rest keep c_out."""
    return tuple(cbr_schema(src, prefix, c_out if k else c_in, c_out, eps) for k, prefix in enumerate(prefixes))


def bev_encode(a: BevGrid, b: BevGrid, blocks: Sequence[CbrBlockParams]) -> BevGrid:
    """The residual CBR stack: channel-concat two grids and run the residual
    conv3x3 + batch-norm + ReLU blocks; zero blocks = raw concat. The radar
    encoder runs it on (mixed feature, single-pixel scatter), the fuser on
    (aligned camera, aligned radar). Each conv finds its input's background
    itself (nn.conv3x3), so the sparse radar grid costs only its live pixels."""
    if a.spec != b.spec:
        raise ShapeError("CBR stack inputs have different grid specs")
    x = np.concatenate([a.data, b.data], axis=0)
    for block in blocks:
        x = cbr_residual(x, block)
    return BevGrid(x, a.spec)


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
    prefixes = [f"bev.enc.block{k}" for k in range(enc_blocks)]
    return MlpParams(layers), cbr_stack_schema(src, prefixes, rcs_out + point_channels, enc_channels, eps)


# ---------------------------------------------------------------------------
# grid file format
# ---------------------------------------------------------------------------

def save_grid(grid: BevGrid, path: str | Path) -> None:
    """Header: magic, version (2), C/H/W u32, spec as 5 little-endian f64;
    payload: the C*H*W grid values as little-endian f64, channel-major
    row-major, so a grid read back is bit-equal to the grid written. The
    payload is written from the array's own buffer, with no copy of it."""
    grid.validate_finite()
    c, h, w = grid.data.shape
    s = grid.spec
    with open(path, "wb") as f:
        f.write(GRID_MAGIC + struct.pack(
            "<IIII5d", GRID_VERSION, c, h, w, s.x_min, s.x_max, s.y_min, s.y_max, s.resolution
        ))
        f.write(memoryview(np.ascontiguousarray(grid.data, dtype="<f8")))


def load_grid(path: str | Path) -> BevGrid:
    """The grid of a version-2 file, as a writable float64 array; any other
    version raises a FormatError naming it."""
    raw = read_file(path)
    head_len = 4 + struct.calcsize("<IIII5d")
    if len(raw) < head_len:
        raise FormatError(f"{path}: truncated grid file")
    if raw[:4] != GRID_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    version, c, h, w, x_min, x_max, y_min, y_max, res = struct.unpack_from("<IIII5d", raw, 4)
    if version != GRID_VERSION:
        raise FormatError(f"{path}: grid version {version}, only version {GRID_VERSION} is read")
    expected = head_len + 8 * c * h * w
    if len(raw) != expected:
        raise FormatError(f"{path}: {len(raw)} bytes, expected {expected}")
    # astype copies: a view of the file's bytes would be read-only
    data = np.frombuffer(raw, dtype="<f8", offset=head_len).astype(np.float64).reshape(c, h, w)
    if not np.all(np.isfinite(data)):
        raise DataError(f"{path}: grid payload contains non-finite values")
    return BevGrid(data, BevSpec(x_min, x_max, y_min, y_max, res, h, w))
