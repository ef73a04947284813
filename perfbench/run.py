"""rcbev benchmark: per-frame latency of the radar/camera BEV pipeline.

    python3 perfbench/run.py --workload frame_default --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

One invocation runs one workload in this process as a closed loop with one
client: frames run back to back on inputs generated from --seed during
set-up, until the next frame would end after --seconds. Every output grid is
checked (configured shape, finite values) and its checksum kept.

--trace 0 reports the end-to-end metrics. --trace 1 spends half the time on
untraced frames, replays the same frames with span recording on, checks that
each replay reproduces its untraced checksum, and reports the per-layer
metrics. --workload all runs every workload in its own process, untraced and
then traced.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The full result (context, per-frame checksums, spans) is
written under .bench_out/. The exit code is nonzero when any check fails.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "rcbev").is_dir():
    sys.exit(f"no rcbev sources under {ROOT / 'src'}; run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import rcbev.cli
import rcbev.pipeline
from rcbev.bev import BevSpec, load_grid
from rcbev.config import PipelineConfig
from rcbev.errors import RcbevError
from rcbev.ingest import load_point_cloud, save_point_cloud, save_point_cloud_binary, synth_scene
from rcbev.pipeline import checksum, gen_camera_bev, resolve_weights
from rcbev.selfcheck import tiny_pipeline_config

from spans import FRAME, LAYER_METRICS, Tracer, layer_metrics

OUT_DIR = ROOT / ".bench_out"
GOLDEN_SCENE = ROOT / "tests" / "data" / "golden_scene.csv"
GOLDEN_SOURCE = ROOT / "tests" / "test_acceptance.py"
SETUP_REPS = 3  # set-ups per run; setup_s reports their median
IMPORT_REPS = 5  # fresh interpreters timed per run; setup_s adds their median
FRAMES_PER_SETUP = 2  # inputs one set-up generates; later frames get fresh batches


@dataclass(frozen=True)
class Workload:
    kind: str  # "frame": run_pipeline on in-memory inputs; "extract": `rcbev extract` on files
    cfg: PipelineConfig


def _dense_config() -> PipelineConfig:
    cfg = PipelineConfig()
    return replace(
        cfg,
        bev=BevSpec.from_extent(-51.2, 51.2, -51.2, 51.2, 3.2),
        scene=replace(cfg.scene, points_per_cluster=48),
    )


# Why these three (see perfbench/README.md): frame_default is ~94% conv3x3 and
# frame_dense ~94% backbone attention, so each is the no-change control for a
# gain on the other; extract_files adds file loading and grid writing on the
# CLI path.
WORKLOADS = {
    "frame_default": Workload("frame", PipelineConfig()),
    "frame_dense": Workload("frame", _dense_config()),
    "extract_files": Workload("extract", PipelineConfig()),
}

END_TO_END = {
    "frame_s_p50": "s",
    "frames_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class OutputError(Exception):
    """A frame's output failed the benchmark's check."""


def golden_gate() -> None:
    """The golden scene through the tiny config must reproduce the checksums
    the acceptance test pins; they are read from that test, not copied."""
    text = GOLDEN_SOURCE.read_text()
    out, _ = rcbev.pipeline.run_pipeline(tiny_pipeline_config(), cloud=load_point_cloud(GOLDEN_SCENE))
    got = {"GOLDEN_FUSED_CHECKSUM": checksum(out.fused.data), "GOLDEN_RADAR_CHECKSUM": checksum(out.radar_bev.data)}
    for name, value in got.items():
        match = re.search(rf'^{name}\s*=\s*"([0-9a-f]{{64}})"', text, re.M)
        if match is None:
            sys.exit(f"golden gate: no {name} in {GOLDEN_SOURCE}")
        if match.group(1) != value:
            sys.exit(f"golden gate: {name} is {value}, {GOLDEN_SOURCE.name} pins {match.group(1)}")


def make_inputs(wl: Workload, seed: int, first: int, count: int, work_dir: Path) -> list:
    """Inputs of frames first..first+count-1; frame i is generated from seed+i
    alone. extract inputs are radar files: .bin for an odd frame seed, CSV
    for an even one."""
    cfg = wl.cfg
    inputs = []
    for i in range(first, first + count):
        cloud = synth_scene(cfg.scene, seed + i)
        if wl.kind == "frame":
            inputs.append((cloud, gen_camera_bev(cfg.bev, cfg.cam_channels, seed + i, cfg.cam_modes)))
            continue
        binary = (seed + i) % 2 == 1
        path = work_dir / f"frame{i}.{'bin' if binary else 'csv'}"
        (save_point_cloud_binary if binary else save_point_cloud)(cloud, path)
        inputs.append(path)
    return inputs


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports the program."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = []
    for _ in range(IMPORT_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import rcbev.cli"], env=env, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def set_up(wl: Workload, seed: int, work_dir: Path) -> tuple[list, float]:
    """SETUP_REPS set-ups, each a weight init and the inputs of the next
    FRAMES_PER_SETUP frames. Returns the inputs and the set-up time: the
    median interpreter start and import plus the median set-up."""
    inputs, times = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        resolve_weights(wl.cfg)
        inputs += make_inputs(wl, seed, len(inputs), FRAMES_PER_SETUP, work_dir)
        times.append(perf_counter() - t0)
    return inputs, import_seconds() + statistics.median(times)


def run_frame(wl: Workload, inp, out_path: Path):
    """One frame of the workload, as its user would call it."""
    if wl.kind == "frame":
        cloud, camera = inp
        out, _ = rcbev.pipeline.run_pipeline(wl.cfg, cloud=cloud, camera=camera)
        return out.fused
    with redirect_stdout(io.StringIO()):
        code = rcbev.cli.main(["extract", str(inp), "--out", str(out_path)])
    if code != 0:
        raise OutputError(f"rcbev extract exited {code}")
    return None


def check_output(wl: Workload, grid, out_path: Path) -> str:
    """Checksum of the frame's output grid, after checking its shape and values."""
    if grid is None:
        grid = load_grid(out_path)
    channels = wl.cfg.fused_channels if wl.kind == "frame" else wl.cfg.radar_channels
    if grid.spec != wl.cfg.bev or grid.channels != channels:
        raise OutputError(f"output grid {grid.data.shape} {grid.spec} is not {channels} x {wl.cfg.bev}")
    if not np.all(np.isfinite(grid.data)):
        raise OutputError("output grid has non-finite values")
    return checksum(grid.data)


def play(wl: Workload, inp, out_path: Path, frame: dict, scope=nullcontext()) -> float:
    """Run one frame inside ``scope`` and check it, recording its outcome in
    ``frame``; returns the frame's wall time."""
    t0 = perf_counter()
    try:
        with scope:
            grid = run_frame(wl, inp, out_path)
    except Exception as exc:  # a failed frame is counted and the loop goes on
        traceback.print_exc()
        frame["error"] = repr(exc)
        return perf_counter() - t0
    seconds = perf_counter() - t0
    try:
        frame["checksum"] = check_output(wl, grid, out_path)
    except (OutputError, RcbevError, OSError) as exc:
        frame["error"] = repr(exc)
    out_path.unlink(missing_ok=True)
    return seconds


def closed_loop(wl: Workload, seed: int, seconds: float, inputs: list, work_dir: Path) -> tuple[list[dict], float]:
    """Frames back to back until the next one would end after ``seconds``.
    Returns the frames and the measured wall time, which leaves out the
    generation of inputs beyond the set-up's."""
    frames = []
    paused = 0.0
    start = perf_counter()
    while True:
        i = len(frames)
        if i == len(inputs):
            t0 = perf_counter()
            inputs += make_inputs(wl, seed, i, FRAMES_PER_SETUP, work_dir)
            paused += perf_counter() - t0
        frame = {"index": i, "seed": seed + i, "checksum": None, "error": None}
        frame["seconds"] = play(wl, inputs[i], work_dir / f"frame{i}.bevgrid", frame)
        frames.append(frame)
        wall = perf_counter() - start - paused
        done = [f["seconds"] for f in frames if f["error"] is None]
        if wall + (statistics.median(done) if done else 0.0) > seconds:
            return frames, wall


def replay_traced(wl: Workload, inputs: list, untraced: list[dict], work_dir: Path) -> tuple[list[dict], Tracer]:
    """Replay the untraced frames with spans on; each must reproduce its checksum."""
    frames = []
    with Tracer() as tracer:
        for f in untraced:
            i = f["index"]
            frame = {"index": i, "seed": f["seed"], "checksum": None, "error": None}
            out_path = work_dir / f"frame{i}.traced.bevgrid"
            frame["seconds"] = play(wl, inputs[i], out_path, frame, tracer.span(FRAME))
            if frame["error"] is None and frame["checksum"] != f["checksum"]:
                frame["error"] = f"traced checksum {frame['checksum']} != untraced {f['checksum']}"
            frames.append(frame)
    return frames, tracer


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def context(name: str, wl: Workload) -> dict:
    """What a result depends on besides the code; compare results only when it matches."""
    return {
        "workload": name,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "config_sha256": hashlib.sha256(repr(wl.cfg).encode()).hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    wl = WORKLOADS[name]
    golden_gate()
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        inputs, setup_s = set_up(wl, seed, work_dir)
        frames, wall = closed_loop(wl, seed, seconds / 2 if trace else seconds, inputs, work_dir)
        traced, tracer = replay_traced(wl, inputs, frames, work_dir) if trace else ([], None)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(frames) + len(traced)
    failed = sum(f["error"] is not None for f in frames + traced)
    times = [f["seconds"] for f in frames if f["error"] is None]
    metrics, units = {}, LAYER_METRICS if trace else END_TO_END
    if failed == 0:
        if trace:
            metrics = layer_metrics(tracer.spans, times)
        else:
            metrics = {
                "frame_s_p50": statistics.median(times),
                "frames_per_s": len(times) / wall,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "context": context(name, wl),
        "args": {"seed": seed, "seconds": seconds, "trace": int(trace)},
        "result": result,
        "fail_ratio": failed / attempted,
        "frames": frames,
        "traced_frames": traced,
        "spans": [asdict(s) for s in tracer.spans] if trace else [],
    }
    out_file = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(record, indent=1))

    print(f"workload {name}  seed {seed}  {len(times)} timed frames  fail_ratio {failed}/{attempted}")
    for k, v in metrics.items():
        print(f"  {k:<28} {v:>16.6g} {units[k]}")
    for f in frames + traced:
        if f["error"] is not None:
            print(f"  frame {f['index']} failed: {f['error']}")
    print(f"  results in {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    code = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
            code |= subprocess.run(cmd).returncode
    return 1 if code else 0


if __name__ == "__main__":
    sys.exit(main())
