"""The four workloads as seeded op cycles.

A workload is a fixed list of op classes (its *cycle*); each cycle
instance draws fresh families from (seed, cycle index, slot), so the
same seed always yields the same inputs. A run repeats whole cycles,
which keeps the mix of op classes identical from run to run.

Every op class finishes well inside its per-op budget at the seed
commit, whatever the seed, so no op fails. The known defects show as
cost growth inside the workloads (planar families up to 64 boxes,
extremal n up to 13, chains up to 36 boxes); the sizes past them, where
ops fail or stop at a budget (planar at 112 boxes, extremal n = 14,
tau on 14 or more dense boxes, the 2,500-box chain, the CLI cap), are
probed by defects.py instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

POOL_CYCLES = 32


@dataclass
class Op:
    """One public call (or one CLI pipeline) with what the gate needs to check it."""

    label: str
    kind: str  # public function name, or "cli"
    family: object = None
    kwargs: dict = field(default_factory=dict)
    pins: dict = field(default_factory=dict)  # exact answers known for this op
    group: str | None = None  # ops sharing one family (nu and tau are cross-checked)
    argv: tuple = ()  # cli: the gen, pierce and verify command lines after `boxpierce`
    expect: object = None  # cli: zero-argument callable building the family gen emits


@dataclass(frozen=True)
class Workload:
    budget_s: float
    tail_pct: int  # percentile reported as latency_tail_ms
    build: object  # (bp, seed, cycles) -> one list of ops per cycle
    warm: object  # bp -> small ops, the same for every seed, run during set-up
    reference: str  # speed.py reference task the run's times are scaled by


def _seed(seed: int, cycle: int, slot: int) -> int:
    return (seed * 1_000_003 + cycle) * 101 + slot


def _shifted(bp, fam, dx: int, dy: int):
    """Translate a planar family; a two-line certificate moves with it.

    The work the library does depends only on the order of coordinates,
    so a translated family costs what the original does.
    """
    boxes = [bp.Box.from_bounds(((x0 + dx, x1 + dx), (y0 + dy, y1 + dy)))
             for (x0, x1), (y0, y1) in (b.bounds() for b in fam.boxes)]
    lines = fam.lines and bp.TwoLines(fam.lines.axis, fam.lines.c1 + dy, fam.lines.c2 + dy)
    return bp.BoxFamily(2, tuple(boxes), lines)


def _uniform(bp, seed: int, c: int) -> list[Op]:
    # Four 48-box families per policy put the median op inside one size
    # class; every op gets its own family.
    bal, dp = bp.SplitPolicy.BALANCED, bp.SplitPolicy.DP_OPTIMAL
    ops = []
    for n in (32, 40, 48, 48, 48, 48, 56, 64):
        for policy in (bal, dp):
            fam = bp.gen_random(bp.RandomSpec(n, 2, (0, 1000), seed=_seed(seed, c, len(ops))))
            ops.append(Op(f"planar-{policy.value}-{n}", "pierce_planar", fam,
                          {"policy": policy, "cap": n}))
    for n in (24, 32, 40, 48, 56):
        fam = bp.gen_random(bp.RandomSpec(n, 3, (0, 1000), seed=_seed(seed, c, len(ops))))
        ops.append(Op(f"ddim-dp-{n}", "pierce_ddim", fam, {"policy": dp, "cap": n}))
    # The tail class: one fixed 72-box family (about 0.15 s under either
    # policy) per policy, translated by a seeded offset. Its cost is the
    # same on every seed, and it is 2 of 23 ops, so the p97 tail lies
    # inside it instead of on the heaviest random families of the seed.
    fixed = bp.gen_random(bp.RandomSpec(72, 2, (0, 1000), seed=2))
    rng = random.Random(_seed(seed, c, len(ops)))
    for policy in (bal, dp):
        fam = _shifted(bp, fixed, rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        ops.append(Op(f"planar-{policy.value}-72-fixed", "pierce_planar", fam,
                      {"policy": policy, "cap": 72}))
    return ops


def _twoline(bp, seed: int, c: int) -> list[Op]:
    # Per cycle, 4 of 11 ops are always cheaper than the controls of 72
    # and 80 boxes and extremal n = 10 and 11, whose costs overlap, and 3
    # (extremal n = 12 twice, 13) are always dearer. The median op sits
    # in the middle of those four classes.
    rng = random.Random(_seed(seed, c, 0))
    ops = []
    for slot, n in enumerate((16, 24, 72, 80), start=1):
        fam = bp.gen_random(bp.RandomSpec(n, 2, (0, 1000), seed=_seed(seed, c, slot),
                                          two_line=True))
        ops.append(Op(f"random2line-{n}", "pierce_two_lines", fam, {"cap": n}))
    for n in (*range(8, 14), 12):
        fam = _shifted(bp, bp.gen_extremal_two_line(n),
                       rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        ops.append(Op(f"extremal-{n}", "pierce_two_lines", fam, {"cap": len(fam)},
                      pins={"nu": n, "tau": 3 * n // 2}))
    return ops


def _dense(bp, n: int, rng: random.Random):
    """Boxes of side <= 15 inside [0, 75]^2."""
    boxes = []
    for _ in range(n):
        x, y = rng.randint(0, 60), rng.randint(0, 60)
        boxes.append(bp.Box.from_bounds(((x, x + rng.randint(0, 15)),
                                         (y, y + rng.randint(0, 15)))))
    return bp.BoxFamily(2, tuple(boxes))


def _star(bp, n: int, rng: random.Random):
    """Pairwise-intersecting boxes: every one contains the centre of [0, 75]^2."""
    boxes = [bp.Box.from_bounds(((rng.randint(0, 37), rng.randint(37, 75)),
                                 (rng.randint(0, 37), rng.randint(37, 75))))
             for _ in range(n)]
    return bp.BoxFamily(2, tuple(boxes))


def _chain(bp, n: int, offset: int):
    """Unit intervals [o+i, o+i+1]: consecutive ones touch, so nu = ceil(n/2)."""
    return bp.BoxFamily(1, tuple(bp.Box.from_bounds(((offset + i, offset + i + 1),))
                                 for i in range(n)))


def _exact(bp, seed: int, cycles: int) -> list[list[Op]]:
    # Chains depend only on the seed (one offset per chain), so they are
    # built once and shared by every cycle. Their cost doubles every two
    # boxes and does not depend on the offset. Per cycle, the 7
    # dense-box ops cost less than the 30-box chain and the 31- to 36-box
    # chains and common_point cost more, so the median op is the 30-box
    # chain and the p97 tail lies inside the 36-box one.
    rng = random.Random(_seed(seed, 0, 99))
    chains = [Op(f"nu-chain-{n}", "nu_exact", _chain(bp, n, rng.randint(-10**9, 10**9)),
                 {"cap": n}, pins={"nu": (n + 1) // 2})
              for n in range(30, 37)]
    pool = []
    for c in range(cycles):
        rng = random.Random(_seed(seed, c, 0))
        ops = []
        # tau has a heavy tail on dense boxes: at 16 boxes about 1 family in
        # 70 takes over 0.5 s and some over 2 s, so tau runs on 10 and 12
        # boxes only (at most 0.07 s in 600 draws); nu runs on every size.
        for n in (10, 12, 20, 24, 28):
            fam = _dense(bp, n, rng)
            group = f"dense-{n}-cycle{c}"
            ops.append(Op(f"nu-dense-{n}", "nu_exact", fam, {"cap": n}, group=group))
            if n <= 12:
                ops.append(Op(f"tau-dense-{n}", "tau_exact", fam, {"cap": n}, group=group))
        ops.append(Op("common-point-star-300", "common_point", _star(bp, 300, rng)))
        pool.append(ops + chains)
    return pool


def _cli(bp, seed: int, c: int) -> list[Op]:
    s3, s2, s1, s1_half = (_seed(seed, c, slot) for slot in (1, 2, 3, 4))
    rand3 = ("gen", "random", "--boxes", "24", "--dim", "3", "--range", "0", "1000", "--seed", str(s3))
    rand2 = ("gen", "random", "--boxes", "24", "--two-line", "--range", "0", "1000", "--seed", str(s2))
    rand1 = ("gen", "random", "--boxes", "20000", "--dim", "1", "--seed", str(s1))
    rand1_half = ("gen", "random", "--boxes", "10000", "--dim", "1", "--seed", str(s1_half))
    verify = ("verify",)

    def spec(n, dim, rng, s, two_line=False):
        return lambda: bp.gen_random(bp.RandomSpec(n, dim, rng, seed=s, two_line=two_line))

    # Four pipelines dominated by interpreter start, then two dominated by
    # JSON and verify: the median op lies inside the first group and the
    # p72 tail inside the 10,000-interval class, not at an edge between
    # classes. p72 keeps 10 ops beyond it down to 36 ops per run.
    return [
        Op("cli-gadget-planar-dp", "cli", pins={"nu": 2, "tau": 3},
           argv=(("gen", "gadget"), ("pierce", "--algo", "planar", "--policy", "dp"), verify),
           expect=bp.gen_gadget),
        Op("cli-random3d-ddim-dp", "cli",
           argv=(rand3, ("pierce", "--algo", "ddim", "--policy", "dp", "--cap", "64"), verify),
           expect=spec(24, 3, (0, 1000), s3)),
        Op("cli-random2line-twoline", "cli",
           argv=(rand2, ("pierce", "--algo", "twoline"), verify),
           expect=spec(24, 2, (0, 1000), s2, two_line=True)),
        Op("cli-extremal10-twoline", "cli", pins={"nu": 10, "tau": 15},
           argv=(("gen", "extremal", "10"), ("pierce", "--algo", "twoline"), verify),
           expect=lambda: bp.gen_extremal_two_line(10)),
        Op("cli-random1d-10000-ddim", "cli",
           argv=(rand1_half, ("pierce", "--algo", "ddim"), verify),
           expect=spec(10000, 1, (0, 20), s1_half)),
        Op("cli-random1d-20000-ddim", "cli",
           argv=(rand1, ("pierce", "--algo", "ddim"), verify),
           expect=spec(20000, 1, (0, 20), s1)),
    ]


def _warm_planar(bp):
    gadget = bp.gen_gadget()
    small3d = bp.gen_random(bp.RandomSpec(12, 3, (0, 1000), seed=0))
    return [Op("warm-planar-balanced", "pierce_planar", gadget,
               {"policy": bp.SplitPolicy.BALANCED}, pins={"nu": 2, "tau": 3}),
            Op("warm-planar-dp", "pierce_planar", gadget,
               {"policy": bp.SplitPolicy.DP_OPTIMAL}, pins={"nu": 2, "tau": 3}),
            Op("warm-ddim-dp", "pierce_ddim", small3d, {"policy": bp.SplitPolicy.DP_OPTIMAL})]


def _warm_twoline(bp):
    return [Op("warm-two-lines", "pierce_two_lines", bp.gen_gadget(), pins={"nu": 2, "tau": 3})]


def _warm_exact(bp):
    gadget = bp.gen_gadget()
    return [Op("warm-nu", "nu_exact", gadget, pins={"nu": 2}),
            Op("warm-tau", "tau_exact", gadget, pins={"tau": 3}),
            Op("warm-common-point", "common_point", _star(bp, 20, random.Random(0)))]


def _warm_cli(bp):
    return _cli(bp, 0, 0)[:1]


def _per_cycle(build_cycle):
    return lambda bp, seed, cycles: [build_cycle(bp, seed, c) for c in range(cycles)]


WORKLOADS = {
    "uniform_random": Workload(10.0, 97, _per_cycle(_uniform), _warm_planar, "python"),
    "twoline_extremal": Workload(10.0, 95, _per_cycle(_twoline), _warm_twoline, "python"),
    "exact_oracles": Workload(10.0, 97, _exact, _warm_exact, "python"),
    "cli_pipe": Workload(30.0, 72, _per_cycle(_cli), _warm_cli, "start"),
}
