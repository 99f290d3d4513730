"""Regenerate pins.json: exact nu and tau for the random ops of every pool cycle.

    python3 perfbench/pin.py

Closed-form answers (extremal families, gadget, unit-interval chains)
are written into workloads.py, and the gate derives those of interval
families itself. This file pins the seeded random families in two and
three dimensions, for the development seed and the held-out seed, in
all POOL_CYCLES cycles a run draws from, so a change that alters an
exact answer on them aborts the benchmark. Each answer is computed by
the library's exact oracles with the cap lifted and a time limit; one
that does not finish in time is left unpinned. Rerun only when a
workload's definition changes.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

LIMIT_S = 10


def _limited(fn, *args):
    try:
        with bench.budget(LIMIT_S):
            return fn(*args)
    except bench.OpTimeout:
        return None


def pins_for(bp, op) -> dict:
    if op.pins:
        return {}
    family = op.expect() if op.kind == "cli" else op.family
    if family is None or family.dim == 1 or op.kind == "common_point":
        return {}  # the gate derives interval families' answers itself
    cap = len(family) + 1
    if op.kind == "tau_exact":
        res = _limited(bp.tau_exact, family, cap)
        return {} if res is None else {"tau": res.tau}
    res = _limited(bp.nu_exact, family, cap)
    return {} if res is None else {"nu": res.nu}


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    signal.signal(signal.SIGALRM, bench._alarm)
    bp = bench.import_fresh()
    out = {}
    for seed in bench.PINNED_SEEDS:
        for name, wl in sorted(bench.WORKLOADS.items()):
            pool = wl.build(bp, seed, bench.POOL_CYCLES)
            for c, cycle in enumerate(pool):
                for i, op in enumerate(cycle):
                    pins = pins_for(bp, op)
                    if pins:
                        out.setdefault(str(seed), {}).setdefault(name, {}) \
                           .setdefault(str(c), {})[str(i)] = pins
                print(f"seed {seed} {name} cycle {c} done", file=sys.stderr)
    bench.PINS_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
