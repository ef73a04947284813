"""Fast self-test of the benchmark harness, at tiny_pipeline_config size.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and the harness name the same workloads and
metrics with the same units; that untraced and traced runs of both workload
kinds report every metric of their mode with its unit; and that a corrupted
checksum in the traced replay is reported as a failure with a nonzero exit.
It also checks that a frame shared by runs on neighbouring seeds has one
checksum in both records.
"""

import io
import json
import sys
from contextlib import redirect_stdout

import compare
import run  # puts the checkout's src/ on sys.path

import rcbev.cli
import rcbev.pipeline
from rcbev.selfcheck import tiny_pipeline_config

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, trace: int, seed: int = 7) -> tuple[int, dict]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)])
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def check(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    check(failures, [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    units = {"0": run.END_TO_END, "1": run.LAYER_METRICS}
    check(failures, {m["name"]: m["unit"] for m in spec["end_to_end"]} == units["0"], "end_to_end metrics")
    check(failures, {m["name"]: m["unit"] for m in spec["per_layer"]} == units["1"], "per_layer metrics")

    cfg = tiny_pipeline_config()
    run.WORKLOADS["tiny_frame"] = run.Workload("frame", cfg)
    run.WORKLOADS["tiny_extract"] = run.Workload("extract", cfg)
    default_config = rcbev.cli.PipelineConfig
    rcbev.cli.PipelineConfig = tiny_pipeline_config  # what `rcbev extract` builds without --config
    try:
        for workload in ("tiny_frame", "tiny_extract"):
            for trace in (0, 1):
                tag = f"{workload} trace {trace}"
                code, res = bench(workload, trace)
                check(failures, code == 0 and res["correct"] and res["failed"] == 0, f"{tag}: run failed")
                check(failures, set(res) == RESULT_KEYS and res["attempted"] >= 1, f"{tag}: result keys")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                check(failures, got == units[str(trace)], f"{tag}: metrics {sorted(got)}")
                values = [v["value"] for v in res["metrics"].values()]
                check(failures, all(isinstance(v, (int, float)) for v in values), f"{tag}: values")
                if trace:
                    m = {k: v["value"] for k, v in res["metrics"].items()}
                    calls = cfg.enc_blocks + 1 + cfg.fuse_blocks
                    check(failures, m["nn.conv3x3.calls"] == calls, f"{tag}: conv3x3 calls")
                    file_io = m["ingest.load_s"] > 0 and m["bev.save_grid_s"] > 0
                    check(failures, file_io == (workload == "tiny_extract"), f"{tag}: file spans")

            # frame i of seed s is frame i-1 of seed s+1: neighbouring seeds share frames
            bench(workload, 0, seed=8)
            records = [str(run.OUT_DIR / f"{workload}-seed{seed}-trace0.json") for seed in (7, 8)]
            with redirect_stdout(io.StringIO()):
                same = compare.main(records) == 0
            check(failures, same, f"{workload}: a frame shared by two seeds has two checksums")

        real_checksum = run.checksum
        # corrupt every checksum taken while the tracer's wrappers are installed
        run.checksum = lambda a: "0" * 64 if hasattr(rcbev.pipeline.bev_encode, "__wrapped__") else real_checksum(a)
        try:
            code, res = bench("tiny_frame", 1)
        finally:
            run.checksum = real_checksum
        check(failures, code != 0 and not res["correct"], "corrupted checksum: run passed")
        check(failures, res["failed"] == res["attempted"] // 2, "corrupted checksum: not every replay failed")
        check(failures, not hasattr(rcbev.pipeline.bev_encode, "__wrapped__"), "tracer left wrappers installed")
    finally:
        rcbev.cli.PipelineConfig = default_config

    for what in failures:
        print(f"FAIL {what}")
    print("selftest", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
