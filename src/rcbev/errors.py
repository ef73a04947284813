"""Error taxonomy shared by every module.

The split mirrors how problems surface: bad static configuration, arrays
that do not line up, corrupted or non-finite payloads, malformed files,
violated caller contracts, and degenerate empty inputs.
"""

import math
from pathlib import Path

import numpy as np


class RcbevError(Exception):
    """Base class for all package errors."""


class ConfigError(RcbevError, ValueError):
    """Invalid static configuration (non-positive dims, bad bounds, ...)."""


class ShapeError(RcbevError, ValueError):
    """Array dimensions do not agree."""


class DataError(RcbevError, ValueError):
    """Payload values violate data invariants (non-finite, out of range)."""


class FormatError(RcbevError, ValueError):
    """A file does not conform to its declared format."""


class ContractError(RcbevError, ValueError):
    """Caller violated an operation precondition (e.g. point outside ROI)."""


class EmptyInputError(RcbevError, ValueError):
    """Operation requires at least one element."""


class WeightLookupError(RcbevError, KeyError):
    """Requested tensor name is absent from the weight set."""


def read_file(path: str | Path, error: type[RcbevError] = FormatError, text: bool = False) -> bytes | str:
    """The bytes of the file ``path`` (its UTF-8 text with ``text``); a directory
    or non-UTF-8 text raises ``error`` naming the path, a missing file FileNotFoundError."""
    try:
        raw = Path(path).read_bytes()
    except IsADirectoryError:
        raise error(f"{path}: is a directory, not a file") from None
    try:
        return raw.decode("utf-8") if text else raw
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc


def require_finite(**fields: float) -> None:
    """Raise a ConfigError naming every field whose value is NaN or infinite."""
    bad = [f"{name} = {v}" for name, v in fields.items() if not math.isfinite(v)]
    if bad:
        raise ConfigError(f"values must be finite, got {', '.join(bad)}")


def require_finite_fields(obj) -> None:
    """require_finite over every float field of the dataclass instance ``obj``."""
    require_finite(**{name: v for name, v in vars(obj).items() if isinstance(v, (float, np.floating))})


def require_inside(xy, lo, hi, message: str) -> None:
    """Raise a ContractError, ``message`` formatted with the first row of ``xy`` outside [lo, hi)."""
    rows = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    outside = np.flatnonzero(~np.all((lo <= rows) & (rows < hi), axis=1))
    if len(outside):
        raise ContractError(message.format(*rows[outside[0]]))


class PipelineError(RcbevError, RuntimeError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
