"""Compare benchmark records: frame checksums must agree, and records whose
contexts differ are named, since their timings are not comparable.

    python3 perfbench/compare.py .bench_out/*.json

Frame i of a run with --seed s uses seed s+i, so two records of a workload
share every frame seed their ranges have in common, traced or not. Each
shared frame must have one checksum. The commit is left out of the context
comparison on purpose: a change that keeps the numerics keeps the checksums.
Exits nonzero on any checksum mismatch.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path


def main(paths: list[str]) -> int:
    checksums: dict[tuple, set[str]] = defaultdict(set)
    contexts: dict[str, dict[str, list[str]]] = defaultdict(lambda: defaultdict(list))
    for path in paths:
        record = json.loads(Path(path).read_text())
        ctx = record["context"]
        env = json.dumps({k: v for k, v in ctx.items() if k != "commit"}, sort_keys=True)
        contexts[ctx["workload"]][env].append(path)
        for frame in record["frames"] + record["traced_frames"]:
            if frame["checksum"] is not None:
                checksums[(ctx["workload"], ctx["config_sha256"], frame["seed"])].add(frame["checksum"])

    for workload, envs in contexts.items():
        if len(envs) > 1:
            print(f"{workload}: {len(envs)} different contexts; timings across them are not comparable")
            for env, files in envs.items():
                print(f"  {env}\n    {' '.join(files)}")
    bad = sorted(key for key, sums in checksums.items() if len(sums) > 1)
    for key in bad:
        workload, _, seed = key
        print(f"{workload}: frame seed {seed} has checksums {sorted(checksums[key])}")
    print(f"{len(paths)} records, {len(checksums)} distinct frames, {len(bad)} with differing checksums")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
