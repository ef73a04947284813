"""Scaling benchmark: deformable cross-attention vs a dense cross-attention
comparator across growing BEV sizes.

Adjacent table sizes quadruple H*W, i.e. two doublings per step, so the
per-doubling growth factor is sqrt(t_next / t_prev). Linear scaling gives
~2.0 per doubling; quadratic gives ~4.0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fusion import DeformAttnParams, deform_attn
from .oracles import dense_cross_attention_grid

DEFAULT_SIDES = (16, 32, 64, 128)  # H = W; H*W in {256, 1024, 4096, 16384}
# timed reps per round of every deformable cell: one takes at most ~60 ms, and
# with 3 reps at 128 x 128 a doubling ratio once read above the 2.5 bound
DEFORM_REPS = 10


@dataclass(frozen=True)
class BenchRow:
    method: str
    h: int
    w: int
    hw: int
    seconds: float
    step_ratio: Optional[float]  # vs previous size of the same method (4x pixels)
    doubling_ratio: Optional[float]  # per-doubling growth = sqrt(step_ratio)


@dataclass
class BenchReport:
    rows: list[BenchRow]
    channels: int
    heads: int
    points: int

    def method_rows(self, method: str) -> list[BenchRow]:
        return [r for r in self.rows if r.method == method]

    def to_text(self) -> str:
        lines = [
            f"cross-attention scaling (C={self.channels}, M={self.heads}, K={self.points})",
            f"{'method':<8} {'H':>4} {'W':>4} {'HxW':>6} {'seconds':>10} {'step_x':>8} {'per_dbl':>8}",
        ]
        for r in self.rows:
            step = f"{r.step_ratio:.2f}" if r.step_ratio is not None else "-"
            dbl = f"{r.doubling_ratio:.2f}" if r.doubling_ratio is not None else "-"
            lines.append(
                f"{r.method:<8} {r.h:>4} {r.w:>4} {r.hw:>6} {r.seconds:>10.5f} {step:>8} {dbl:>8}"
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["method,h,w,hw,seconds,step_ratio,doubling_ratio"]
        for r in self.rows:
            step = f"{r.step_ratio:.6f}" if r.step_ratio is not None else ""
            dbl = f"{r.doubling_ratio:.6f}" if r.doubling_ratio is not None else ""
            lines.append(f"{r.method},{r.h},{r.w},{r.hw},{r.seconds:.9f},{step},{dbl}")
        return "\n".join(lines) + "\n"


def _dense_reps(hw: int) -> int:
    return {256: 8, 1024: 6, 4096: 3}.get(hw, 1)


def _deform_params(rng, c: int, m: int, k: int) -> DeformAttnParams:
    d = c // m
    return DeformAttnParams(
        m=m,
        k=k,
        w_off=rng.standard_normal((2 * m * k, c)) * 0.1,
        b_off=rng.standard_normal(2 * m * k) * 0.1,
        w_att=rng.standard_normal((m * k, c)),
        b_att=rng.standard_normal(m * k),
        w_val=rng.standard_normal((m, d, c)),
        w_out=rng.standard_normal((m, c, d)),
    )


def run_bench(
    sides: Sequence[int] = DEFAULT_SIDES,
    channels: int = 16,
    heads: int = 2,
    points: int = 4,
    seed: int = 0,
    rounds: int = 3,
) -> BenchReport:
    rng = np.random.default_rng(seed)
    p = _deform_params(rng, channels, heads, points)
    wq = rng.standard_normal((channels, channels))
    wk = rng.standard_normal((channels, channels))
    wv = rng.standard_normal((channels, channels))
    cells = []  # (method, side, fn, reps)
    for side in sides:
        hw = side * side
        queries = rng.standard_normal((channels, side, side))
        values = rng.standard_normal((channels, side, side))
        z = queries.reshape(channels, hw).T.copy()
        kv = values.reshape(channels, hw).T.copy()
        cells.append(
            ("deform", side, (lambda q=queries, v=values: deform_attn(q, None, v, p)), DEFORM_REPS)
        )
        cells.append(
            ("dense", side, (lambda a=z, b=kv: dense_cross_attention_grid(a, b, wq, wk, wv)), _dense_reps(hw))
        )

    # round-robin over cells so machine-state drift hits every cell alike;
    # min per cell across rounds is the reported time
    best: dict[tuple[str, int], float] = {(m, s): math.inf for m, s, _, _ in cells}
    for rnd in range(rounds):
        for method, side, fn, reps in cells:
            if rnd == 0:
                fn()  # warmup / first-touch
            for _ in range(reps):
                t0 = time.perf_counter()
                fn()
                best[(method, side)] = min(best[(method, side)], time.perf_counter() - t0)

    rows: list[BenchRow] = []
    for method in ("deform", "dense"):
        prev = None
        for side in sides:
            sec = best[(method, side)]
            step = sec / prev if prev else None
            rows.append(
                BenchRow(
                    method, side, side, side * side, sec,
                    step, math.sqrt(step) if step else None,
                )
            )
            prev = sec
    return BenchReport(rows, channels, heads, points)
