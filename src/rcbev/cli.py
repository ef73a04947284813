"""Command-line interface.

Subcommands: extract (radar file -> radar BEV grid), fuse (radar BEV + camera
BEV -> fused grid), synth (scene config -> radar file), gen-cam (-> camera BEV
file), selfcheck, bench. Any contract violation exits nonzero and names the
offending stage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .bench import run_bench
from .bev import load_grid, save_grid
from .config import PipelineConfig, load_config
from .errors import PipelineError, RcbevError
from .ingest import save_point_cloud, save_point_cloud_binary, synth_scene
from .pipeline import (
    RunReport,
    _StageRunner,
    dump_intermediates,
    fusion_branch,
    gen_camera_bev,
    load_model,
    run_pipeline,
)
from .selfcheck import max_workers_from_env, run_selfcheck


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override pipeline.seed")
    parser.add_argument("--weights", type=str, default=None, help="weight manifest path")
    parser.add_argument("--out", type=str, default=None, help="output path")
    parser.add_argument(
        "--dump-intermediates", action="store_true", help="write per-stage arrays next to --out"
    )


def _load_cfg(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    from dataclasses import replace

    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.weights is not None:
        cfg = replace(cfg, weights_path=args.weights)
    if getattr(args, "dump_intermediates", False):
        cfg = replace(cfg, dump_intermediates=True)
    return cfg


def _require_out(args) -> Path:
    if not args.out:
        raise RcbevError("missing required --out path")
    return Path(args.out)


def cmd_extract(args) -> int:
    cfg = _load_cfg(args)
    out_path = _require_out(args)
    out, report = run_pipeline(cfg, radar_path=args.radar)
    save_grid(out.radar_bev, out_path)
    if cfg.dump_intermediates:
        dump_intermediates(out, out_path)
    print(report.to_text())
    print(f"wrote radar BEV grid to {out_path}")
    return 0


def cmd_fuse(args) -> int:
    cfg = _load_cfg(args)
    out_path = _require_out(args)
    report = RunReport()
    runner = _StageRunner(report)
    radar = runner.run("load-radar", lambda: load_grid(args.radar_grid))
    camera = runner.run("load-camera", lambda: load_grid(args.camera_grid))
    _, params = runner.run("weights", lambda: load_model(cfg))
    _, _, fused = fusion_branch(camera, radar, params.fusion, runner)
    save_grid(fused, out_path)
    print(report.to_text())
    print(f"wrote fused grid to {out_path}")
    return 0


def cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    out_path = _require_out(args)
    report = RunReport()
    runner = _StageRunner(report)
    cloud = runner.run("synth", lambda: synth_scene(cfg.scene, cfg.seed))

    def write():
        if out_path.suffix == ".bin":
            save_point_cloud_binary(cloud, out_path)
        else:
            save_point_cloud(cloud, out_path)

    runner.run("write", write)
    print(f"wrote {len(cloud)} points to {out_path}")
    return 0


def cmd_gen_cam(args) -> int:
    cfg = _load_cfg(args)
    out_path = _require_out(args)
    report = RunReport()
    runner = _StageRunner(report)
    grid = runner.run(
        "gen-cam", lambda: gen_camera_bev(cfg.bev, cfg.cam_channels, cfg.seed, cfg.cam_modes)
    )
    save_grid(grid, out_path)
    print(f"wrote camera BEV grid ({grid.channels} channels) to {out_path}")
    return 0


def cmd_selfcheck(args) -> int:
    report = run_selfcheck(perturb=args.perturb, max_workers=max_workers_from_env())
    print(report.to_text())
    return 0 if report.passed else 1


def cmd_bench(args) -> int:
    report = run_bench(seed=args.seed if args.seed is not None else 0)
    print(report.to_text())
    if args.out:
        Path(args.out).write_text(report.to_csv())
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
    _add_common(p)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("fuse", help="radar BEV grid + camera BEV grid -> fused grid")
    p.add_argument("radar_grid", type=str)
    p.add_argument("camera_grid", type=str)
    _add_common(p)
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("synth", help="scene config -> radar point file")
    _add_common(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("gen-cam", help="generate a deterministic camera BEV grid file")
    _add_common(p)
    p.set_defaults(fn=cmd_gen_cam)

    p = sub.add_parser("selfcheck", help="run the oracle/identity verification suite")
    p.add_argument("--perturb", type=str, default=None, help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_selfcheck)

    p = sub.add_parser("bench", help="deformable vs dense cross-attention scaling table")
    _add_common(p)
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
