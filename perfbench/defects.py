"""Probe the known defects that the timed workloads stay clear of.

    python3 perfbench/defects.py --seed 1

The workloads in workloads.py hold only op classes that finish on every
seed, so that no op fails and runs repeat. The sizes past them, where
the library fails or takes seconds, are probed here, once each, with a
time budget per op: the 112-box planar tail, extremal n = 14, tau on
16- and 24-box dense families, the 2,500-box unit-interval chain, and
the CLI refusing a 35-box two-line family over its default cap. Each
line gives the op, its outcome (`ok`, `timeout`, the exception raised,
or the exit code of a CLI stage) and its wall time. A fix shows here as
an op that now finishes. Answers that do come back go through the same
gate as in a run. The exit code is 0 unless an answer is wrong.
"""

from __future__ import annotations

import argparse
import random
import signal
import sys

import run as bench
from gate import Gate, GateError
from workloads import Op, _chain, _dense, _seed

BUDGET_S = 5.0
TAU_FAMILIES = 10


def probes(bp, seed: int) -> list[Op]:
    ops = []
    for slot, policy in enumerate((bp.SplitPolicy.BALANCED, bp.SplitPolicy.DP_OPTIMAL)):
        fam = bp.gen_random(bp.RandomSpec(112, 2, (0, 1000), seed=_seed(seed, 0, slot)))
        ops.append(Op(f"planar-{policy.value}-112", "pierce_planar", fam,
                      {"policy": policy, "cap": 112}))
    fam = bp.gen_extremal_two_line(14)
    ops.append(Op("extremal-14", "pierce_two_lines", fam, {"cap": len(fam)},
                  pins={"nu": 14, "tau": 21}))
    rng = random.Random(_seed(seed, 0, 98))
    for n in (16, 24):
        for i in range(TAU_FAMILIES):
            ops.append(Op(f"tau-dense-{n}", "tau_exact", _dense(bp, n, rng), {"cap": n},
                          group=f"dense-{n}-{i}"))
    ops.append(Op("nu-chain-2500", "nu_exact", _chain(bp, 2500, 0), {"cap": 2500},
                  pins={"nu": 1250}))
    ops.append(Op("cli-extremal14-twoline", "cli", pins={"nu": 14, "tau": 21},
                  argv=(("gen", "extremal", "14"), ("pierce", "--algo", "twoline"), ("verify",)),
                  expect=lambda: bp.gen_extremal_two_line(14)))
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=bench.DEV_SEED)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(bench.SRC))
    signal.signal(signal.SIGALRM, bench._alarm)
    bp, gate, env = bench.import_fresh(), Gate(), bench.cli_env()
    try:
        for op in probes(bp, args.seed):
            latency, failure, result = bench.run_op(bp, op, BUDGET_S, env)
            if failure is None:
                gate.check(op, result)
            print(f"{op.label:<24} {failure or 'ok':<16} {latency:.3f} s", flush=True)
    except GateError as exc:
        print(f"defects: WRONG ANSWER: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
