"""Named-tensor parameter store with deterministic init and a manifest format.

On disk a weight set is two files: a JSON text manifest listing every tensor
(name, shape, dtype=f32, byte_offset, byte_length, payload order = manifest
order) and a raw little-endian float32 payload. A format_version field guards
compatibility. Internally values are float64 but always exactly representable
in float32, so save -> load round-trips bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import ConfigError, DataError, FormatError, WeightLookupError, read_file

FORMAT_VERSION = 1

# init kinds understood by init_weights
INIT_GLOROT = "glorot"
INIT_ZEROS = "zeros"
INIT_ONES = "ones"


@dataclass(frozen=True)
class TensorSpec:
    """One tensor of an architecture: name, shape and init rule."""

    name: str
    shape: tuple[int, ...]
    init: str = INIT_GLOROT

    def __post_init__(self):
        if any(d <= 0 for d in self.shape):
            raise ConfigError(f"tensor '{self.name}' has non-positive dim in {self.shape}")


@dataclass
class WeightSet:
    entries: dict[str, np.ndarray] = field(default_factory=dict)
    seed: int | None = None

    def get(self, name: str) -> np.ndarray:
        try:
            return self.entries[name]
        except KeyError:
            raise WeightLookupError(f"weight tensor '{name}' not found") from None

    def require(self, name: str, shape: tuple[int, ...], init: str = INIT_GLOROT) -> np.ndarray:
        """The tensor ``name``, which must have ``shape``; ``init`` is unused
        here and lets a schema function ask a WeightSet and a recorder alike."""
        arr = self.get(name)
        if arr.shape != shape:
            raise FormatError(f"weight '{name}' has shape {arr.shape}, expected {shape}")
        return arr

    def names(self) -> list[str]:
        return list(self.entries)


class TensorSource(Protocol):
    """What a schema function asks for each tensor: a WeightSet loads it, the
    recorder behind record_tensors declares it."""

    def require(self, name: str, shape: tuple[int, ...], init: str = INIT_GLOROT) -> np.ndarray: ...


class _Recorder:
    def __init__(self):
        self.specs: list[TensorSpec] = []

    def require(self, name: str, shape: tuple[int, ...], init: str = INIT_GLOROT) -> np.ndarray:
        self.specs.append(TensorSpec(name, shape, init))
        return np.zeros(shape)


def record_tensors(schema: Callable[..., object], *args) -> list[TensorSpec]:
    """Every tensor ``schema(source, *args)`` asks for, in request order; the
    schema runs on zero tensors and its result is discarded."""
    rec = _Recorder()
    schema(rec, *args)
    return rec.specs


def linear_schema(src: TensorSource, prefix: str, c_out: int, c_in: int) -> tuple[np.ndarray, np.ndarray]:
    """A dense layer's weight ``{prefix}.w`` (c_out x c_in) and bias ``{prefix}.b``."""
    return src.require(f"{prefix}.w", (c_out, c_in), INIT_GLOROT), src.require(f"{prefix}.b", (c_out,), INIT_ZEROS)


def check_names(ws: WeightSet, specs: Sequence[TensorSpec]) -> None:
    """Reject a weight set whose tensor names are not exactly those of ``specs``."""
    expected = [s.name for s in specs]
    missing = [n for n in expected if n not in ws.entries]
    unexpected = sorted(set(ws.entries) - set(expected))
    if missing or unexpected:
        raise FormatError(
            f"weight set does not match the model: missing {missing}, unexpected {unexpected}"
        )


def _fan(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 2:  # out x in
        return shape[1], shape[0]
    if len(shape) == 4:  # c_out x c_in x kh x kw
        rf = shape[2] * shape[3]
        return shape[1] * rf, shape[0] * rf
    # fall back to total size both ways for odd shapes
    n = int(np.prod(shape))
    return n, n


def _f32_exact(arr: np.ndarray) -> np.ndarray:
    """Round to float32 precision, kept as float64 for computation."""
    return arr.astype(np.float32).astype(np.float64)


def init_weights(tensors: Sequence[TensorSpec], seed: int) -> WeightSet:
    """Deterministically initialize every tensor of an architecture.

    Matrix/conv weights are symmetric-uniform with half-width
    sqrt(6 / (fan_in + fan_out)); zero/one fills cover biases, gates and
    norm parameters. Identical (tensors, seed) give byte-identical results.
    """
    rng = np.random.default_rng(seed)
    ws = WeightSet(seed=seed)
    for spec in tensors:
        if spec.name in ws.entries:
            raise ConfigError(f"duplicate tensor name '{spec.name}'")
        if spec.init == INIT_ZEROS:
            arr = np.zeros(spec.shape)
        elif spec.init == INIT_ONES:
            arr = np.ones(spec.shape)
        elif spec.init == INIT_GLOROT:
            fan_in, fan_out = _fan(spec.shape)
            a = math.sqrt(6.0 / (fan_in + fan_out))
            arr = _f32_exact(rng.uniform(-a, a, size=spec.shape))
        else:
            raise ConfigError(f"unknown init kind '{spec.init}' for '{spec.name}'")
        ws.entries[spec.name] = arr
    return ws


def payload_path_for(manifest_path: Path) -> Path:
    return manifest_path.with_suffix(manifest_path.suffix + ".bin")


def save_weights(ws: WeightSet, manifest_path: str | Path) -> None:
    manifest_path = Path(manifest_path)
    payload_path = payload_path_for(manifest_path)
    records = []
    chunks = []
    offset = 0
    for name, arr in ws.entries.items():
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        records.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": "f32",
                "byte_offset": offset,
                "byte_length": len(raw),
            }
        )
        chunks.append(raw)
        offset += len(raw)
    manifest = {
        "format_version": FORMAT_VERSION,
        "seed": ws.seed,
        "payload": payload_path.name,
        "tensors": records,
    }
    manifest_path.write_text(json.dumps(manifest, indent=1) + "\n")
    payload_path.write_bytes(b"".join(chunks))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def load_weights(manifest_path: str | Path) -> WeightSet:
    """Read a manifest and its payload. The payload must be a bare file name
    in the manifest's directory, every shape a non-empty list of positive
    integers, and the records must tile the payload in order."""
    manifest_path = Path(manifest_path)
    text = read_file(manifest_path, text=True)
    try:
        manifest = json.loads(text)
    except ValueError as exc:
        raise FormatError(f"weight manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError("weight manifest must be a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported weight format_version {version!r}")
    payload_name = manifest.get("payload")
    bare = isinstance(payload_name, str) and payload_name not in ("", "..") and "\x00" not in payload_name
    if not bare or Path(payload_name).name != payload_name:
        raise FormatError(f"weight manifest 'payload' must be a bare file name, got {payload_name!r}")
    records = manifest.get("tensors", [])
    if not isinstance(records, list):
        raise FormatError("weight manifest 'tensors' must be a list")
    try:
        payload = (manifest_path.parent / payload_name).read_bytes()
    except OSError as exc:  # missing, a directory, or a name too long for the file system
        raise FormatError(f"weight payload {payload_name!r} cannot be read: {exc.strerror}") from exc
    ws = WeightSet(seed=manifest.get("seed"))
    expected_offset = 0
    for rec in records:
        if not isinstance(rec, dict):
            raise FormatError(f"malformed tensor record {rec!r}")
        name, shape = rec.get("name"), rec.get("shape")
        if not isinstance(name, str) or not name or name in ws.entries:
            raise FormatError(f"missing or duplicate tensor name in record {rec!r}")
        if not isinstance(shape, list) or not shape or not all(_is_int(d) and d > 0 for d in shape):
            raise FormatError(f"tensor '{name}' shape {shape!r} is not a list of positive integers")
        shape = tuple(shape)
        if rec.get("dtype") != "f32":
            raise FormatError(f"tensor '{name}' has unsupported dtype {rec.get('dtype')!r}")
        off, length = rec.get("byte_offset"), rec.get("byte_length")
        if not _is_int(off) or off != expected_offset:
            raise FormatError(f"tensor '{name}' offset {off!r} breaks payload order")
        n = math.prod(shape)
        if not _is_int(length) or length != 4 * n:
            raise FormatError(
                f"tensor '{name}' declares shape {shape} ({n} floats) over {length!r} bytes"
            )
        if off + length > len(payload):
            raise FormatError(f"tensor '{name}' extends past payload end")
        arr = np.frombuffer(payload[off : off + length], dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise DataError(f"tensor '{name}' payload contains non-finite values")
        ws.entries[name] = arr.reshape(shape)
        expected_offset += length
    if expected_offset != len(payload):
        raise FormatError(
            f"payload has {len(payload)} bytes but manifest covers {expected_offset}"
        )
    return ws
