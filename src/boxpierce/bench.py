"""Seeded fuzz campaign: random instances vs. algorithms vs. exact oracles.

Every trial generates a deterministic random family, runs each
applicable piercing algorithm, and checks soundness (every box hit),
the certified guarantee, and the exact-piercing lower bound. Statistics
are aggregated with order-independent reductions (sums, maxima), so the
optional process-parallel mode reports identically to the sequential
one. The numbers are engineering telemetry only.
"""

from __future__ import annotations

from functools import partial
from math import ceil

from .generators import RandomSpec, gen_random
from .instances import verify_piercing
from .oracles import DEFAULT_CAP, nu_exact, tau_exact
from .piercing import (
    SplitPolicy,
    pierce_ddim,
    pierce_intervals_1d,
    pierce_planar,
    pierce_two_lines,
)

#: every how-many trials a planar campaign draws a two-line instance
TWO_LINE_EVERY = 3


def _trial_seed(base_seed: int, t: int) -> int:
    return base_seed * 1_000_003 + t


def _algo_runs(family):
    if family.dim == 1:
        yield "intervals", pierce_intervals_1d(family)
        return
    if family.dim == 2:
        yield "planar/balanced", pierce_planar(family, SplitPolicy.BALANCED)
        yield "planar/dp", pierce_planar(family, SplitPolicy.DP_OPTIMAL)
        if family.lines is not None:
            yield "twoline", pierce_two_lines(family)
        return
    yield "ddim/balanced", pierce_ddim(family, SplitPolicy.BALANCED)
    yield "ddim/dp", pierce_ddim(family, SplitPolicy.DP_OPTIMAL)


def run_trial(base_seed: int, t: int, max_boxes: int, dim: int,
              coord_range: tuple[int, int], cap: int) -> dict:
    """One instance, all applicable algorithms, full oracle comparison."""
    n_boxes = 1 + t % max_boxes
    two_line = dim == 2 and t % TWO_LINE_EVERY == 0
    spec = RandomSpec(n_boxes=n_boxes, dim=dim, coord_range=coord_range,
                      seed=_trial_seed(base_seed, t), two_line=two_line)
    family = gen_random(spec)
    nu = nu_exact(family, cap).nu
    tau = tau_exact(family, cap).tau
    stats: dict = {"trials": 1, "violations": 0, "boxes_total": len(family), "algos": {}}
    for name, report in _algo_runs(family):
        sound = verify_piercing(family, report.points).hits_all
        within = report.size <= report.guarantee
        sandwich = tau <= report.size or report.size == tau == 0
        ok = sound and within and sandwich
        entry = {
            "runs": 1,
            "failures": 0 if ok else 1,
            "points_total": report.size,
            "tau_total": tau,
            "nu_total": nu,
            "max_points_minus_tau": report.size - tau,
            "max_guarantee_slack": report.guarantee - report.size,
        }
        stats["algos"][name] = entry
        if not ok:
            stats["violations"] += 1
    return stats


def merge_stats(parts) -> dict:
    total: dict = {"trials": 0, "violations": 0, "boxes_total": 0, "algos": {}}
    for part in parts:
        total["trials"] += part["trials"]
        total["violations"] += part["violations"]
        total["boxes_total"] += part["boxes_total"]
        for name, entry in part["algos"].items():
            agg = total["algos"].setdefault(name, {
                "runs": 0, "failures": 0, "points_total": 0, "tau_total": 0,
                "nu_total": 0, "max_points_minus_tau": 0, "max_guarantee_slack": 0.0,
            })
            for key in ("runs", "failures", "points_total", "tau_total", "nu_total"):
                agg[key] += entry[key]
            for key in ("max_points_minus_tau", "max_guarantee_slack"):
                agg[key] = max(agg[key], entry[key])
    return total


def run_bench(trials: int, seed: int = 0, max_boxes: int = 10, dim: int = 2,
              coord_range: tuple[int, int] = (0, 20), cap: int = DEFAULT_CAP,
              jobs: int = 1) -> dict:
    """Run the campaign; jobs > 1 distributes trials over processes."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    trial = partial(run_trial, seed, max_boxes=max_boxes, dim=dim,
                    coord_range=coord_range, cap=cap)
    if jobs <= 1 or trials <= 1:
        return merge_stats(map(trial, range(trials)))
    # imported here so that starting the CLI does not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return merge_stats(pool.map(trial, range(trials), chunksize=ceil(trials / jobs)))
