"""Record the benchmark: run perfbench/run.py per workload and seed, write BENCH_<label>.json.

    python3 scripts/record_bench.py --label 10
    python3 scripts/record_bench.py --label smoke --seconds 2 --workload cli_pipe --seed 1 \\
        --out-dir /tmp

By default every workload of BENCHMARK.json runs on the development seed
1 and the held-out seed 7919, for the benchmark's own run length. Runs
go one after another, never side by side, since each one times the
machine it runs on. The file holds, per run, the end-to-end metrics
(the result line of run.py) and the details line before it. A run that
fails (a wrong answer, a checkout without sources) stops the recording
and no file is written.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7919)


def record(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"record_bench: {' '.join(cmd[1:])} exited {res.returncode}:\n{res.stderr}")
    *_, details, result = res.stdout.splitlines()
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "metrics": json.loads(result), "details": json.loads(details)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeatable; default every workload")
    parser.add_argument("--seed", action="append", type=int,
                        help=f"repeatable; default {' and '.join(map(str, SEEDS))}")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs = []
    for seed in args.seed or SEEDS:
        for workload in workloads:
            print(f"record_bench: {workload} seed {seed}", file=sys.stderr)
            runs.append(record(workload, seed, args.seconds))
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({"label": args.label, "python": platform.python_version(),
                               "runs": runs}, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
