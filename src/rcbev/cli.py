"""Command-line interface.

Subcommands: extract (radar file -> radar BEV grid, through the radar branch
alone: no camera grid, no fusion), fuse (radar BEV + camera BEV -> fused
grid), synth (scene config -> radar file), gen-cam (-> camera BEV file),
selfcheck, bench. Any contract violation exits nonzero and names the
offending stage.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .bench import run_bench
from .bev import load_grid, save_grid
from .config import PipelineConfig, load_config
from .errors import PipelineError, RcbevError
from .ingest import save_point_cloud, save_point_cloud_binary, synth_scene
from .pipeline import (
    RunReport,
    check_grid,
    dump_intermediates,
    fusion_branch,
    gen_camera_bev,
    load_model,
    run_pipeline,  # unused here; perfbench/spans.py wraps rcbev.cli.run_pipeline by name
    run_radar,
)
from .selfcheck import run_selfcheck


_FLAGS = {
    "config": dict(type=str, default=None, help="flat key=value config file"),
    "seed": dict(type=int, default=None, help="override pipeline.seed"),
    "weights": dict(type=str, default=None, help="weight manifest path"),
    "out": dict(type=str, default=None, help="output path"),
    "dump-intermediates": dict(action="store_true", help="write the radar branch's arrays next to --out"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Give a subcommand the flags it reads, and no others."""
    for name in names:
        parser.add_argument(f"--{name}", **_FLAGS[name])


def _load_cfg(args) -> PipelineConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else PipelineConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "weights", None) is not None:
        cfg = replace(cfg, weights_path=args.weights)
    return cfg


def _check_out(out: str) -> Path:
    """The output path; a directory or a missing parent is rejected before any work."""
    path = Path(out)
    if path.is_dir() or not path.parent.is_dir():
        raise RcbevError(f"--out {out}: not a file in an existing directory")
    return path


def _require_out(args) -> Path:
    if not args.out:
        raise RcbevError("missing required --out path")
    return _check_out(args.out)


def cmd_extract(args) -> int:
    cfg = _load_cfg(args)
    out_path = _require_out(args)
    radar, report = run_radar(cfg, radar_path=args.radar)
    save_grid(radar.radar_bev, out_path)
    if args.dump_intermediates:
        dump_intermediates(radar, out_path)
    print(report.to_text())
    print(f"wrote radar BEV grid to {out_path}")
    return 0


def cmd_fuse(args) -> int:
    cfg = _load_cfg(args)
    out_path = _require_out(args)
    report = RunReport()
    radar = report.run(
        "load-radar", lambda: check_grid(load_grid(args.radar_grid), cfg, "enc.channels", args.radar_grid)
    )
    camera = report.run(
        "load-camera", lambda: check_grid(load_grid(args.camera_grid), cfg, "cam.channels", args.camera_grid)
    )
    params = report.run("weights", lambda: load_model(cfg))
    _, _, fused = fusion_branch(camera, radar, params.fusion, report)
    save_grid(fused, out_path)
    print(report.to_text())
    print(f"wrote fused grid to {out_path}")
    return 0


def cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    out_path = _require_out(args)
    report = RunReport()
    cloud = report.run("synth", lambda: synth_scene(cfg.scene, cfg.seed))

    def write():
        if out_path.suffix == ".bin":
            save_point_cloud_binary(cloud, out_path)
        else:
            save_point_cloud(cloud, out_path)

    report.run("write", write)
    print(f"wrote {len(cloud)} points to {out_path}")
    return 0


def cmd_gen_cam(args) -> int:
    cfg = _load_cfg(args)
    out_path = _require_out(args)
    grid = RunReport().run(
        "gen-cam", lambda: gen_camera_bev(cfg.bev, cfg.cam_channels, cfg.seed, cfg.cam_modes)
    )
    save_grid(grid, out_path)
    print(f"wrote camera BEV grid ({grid.channels} channels) to {out_path}")
    return 0


def cmd_selfcheck(args) -> int:
    report = run_selfcheck()
    print(report.to_text())
    return 0 if report.passed else 1


def cmd_bench(args) -> int:
    seed = _load_cfg(args).seed
    out_path = args.out and _check_out(args.out)
    report = run_bench(seed=seed)
    print(report.to_text())
    if out_path:
        out_path.write_text(report.to_csv())
        print(f"wrote CSV to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcbev",
        description="Radar BEV feature extraction and radar/camera BEV fusion (inference only).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="radar point file -> radar BEV grid file")
    p.add_argument("radar", type=str, help="radar CSV (or count-prefixed .bin) file")
    _add_flags(p, "config", "seed", "weights", "out", "dump-intermediates")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("fuse", help="radar BEV grid + camera BEV grid -> fused grid")
    p.add_argument("radar_grid", type=str)
    p.add_argument("camera_grid", type=str)
    _add_flags(p, "config", "seed", "weights", "out")
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("synth", help="scene config -> radar point file")
    _add_flags(p, "config", "seed", "out")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("gen-cam", help="generate a deterministic camera BEV grid file")
    _add_flags(p, "config", "seed", "out")
    p.set_defaults(fn=cmd_gen_cam)

    p = sub.add_parser("selfcheck", help="run the oracle/identity verification suite")
    p.set_defaults(fn=cmd_selfcheck)

    p = sub.add_parser("bench", help="deformable vs dense cross-attention scaling table")
    _add_flags(p, "seed", "out")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PipelineError as exc:
        print(f"error in stage '{exc.stage}': {exc.cause}", file=sys.stderr)
        return 1
    except RcbevError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
