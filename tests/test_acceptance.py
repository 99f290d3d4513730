"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s`. Fuzz counts and
tolerances are fixed here, not tunable: seeded generation makes every
run identical.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from boxpierce import (
    LOG_CBRT9_OF_2,
    RandomSpec,
    SplitPolicy,
    bound_best_known,
    bound_hadwiger2,
    bound_lemma1,
    bound_prop1,
    bound_prop3,
    gen_extremal_two_line,
    gen_random,
    h,
    nu_exact,
    pierce_ddim,
    pierce_intervals_1d,
    pierce_planar,
    pierce_two_lines,
    tau_exact,
)
from boxpierce.bounds import log_base_cbrt9

from _helpers import brute_force_nu, brute_force_tau, is_sound


@contextmanager
def criterion(cid, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {cid}: PASS - {description}")


def test_criterion_01_flagship_bound_values():
    with criterion("C1", "three-way split gives 10 at n=5, one below the pairwise split"):
        start = time.perf_counter()
        assert bound_prop3(5) == 10
        assert bound_prop1(5, 2) == 11
        assert time.perf_counter() - start < 1.0


def test_criterion_02_constants():
    with criterion("C2", "h(2) and the asymptotic constant match to stated tolerances"):
        assert h(2) == pytest.approx(3.892789, abs=1e-5)
        assert LOG_CBRT9_OF_2 == pytest.approx(0.946395, abs=1e-6)
        assert 1.0 / LOG_CBRT9_OF_2 == pytest.approx(1.057, abs=1e-3)


def test_criterion_03_strict_log_window():
    with criterion("C3", "table value strictly below n*log_cbrt9(n) for 5 <= n <= 14"):
        start = time.perf_counter()
        for n in range(5, 15):
            assert bound_prop3(n) < n * log_base_cbrt9(n), n
        assert time.perf_counter() - start < 1.0


def test_criterion_04_domination_and_monotonicity():
    with criterion("C4", "three-way table below h up to 200, below pairwise up to 50, all tables monotone"):
        for n in range(1, 201):
            assert bound_prop3(n) <= h(n) + 1e-9, n
        for n in range(2, 51):
            assert bound_prop3(n) <= bound_prop1(n, 2), n
        for n in range(1, 200):
            assert bound_prop3(n) <= bound_prop3(n + 1)
            assert h(n) <= h(n + 1)
        for n in range(1, 60):
            assert bound_hadwiger2(n) <= bound_hadwiger2(n + 1)
            for d in (1, 2, 3, 4):
                assert bound_prop1(n, d) <= bound_prop1(n + 1, d)
                assert bound_best_known(n, d) <= bound_best_known(n + 1, d)
                if d >= 2:
                    assert bound_lemma1(n, d) <= bound_lemma1(n + 1, d) + 1e-12


def test_criterion_05_two_line_sharpness():
    with criterion("C5", "extremal families: nu=n, tau=floor(3n/2), sweep within the bound"):
        start = time.perf_counter()
        for n in range(1, 7):
            fam = gen_extremal_two_line(n)
            target = (3 * n) // 2
            assert nu_exact(fam).nu == n, n
            assert tau_exact(fam).tau == target, n
            rep = pierce_two_lines(fam)
            assert is_sound(fam, rep.points), n
            assert rep.size <= target, n
        assert time.perf_counter() - start < 60.0


def test_criterion_06_fuzz_soundness_and_guarantees():
    with criterion("C6", "1000 planar + 500 two-line instances: sound, within guarantee, above tau"):
        violations = 0
        for t in range(1000):
            fam = gen_random(RandomSpec(n_boxes=1 + t % 12, dim=2,
                                        coord_range=(0, 16), seed=60_000 + t))
            tau = tau_exact(fam).tau
            runs = [pierce_planar(fam, SplitPolicy.BALANCED),
                    pierce_planar(fam, SplitPolicy.DP_OPTIMAL),
                    pierce_ddim(fam, SplitPolicy.DP_OPTIMAL)]
            for rep in runs:
                if not (is_sound(fam, rep.points)
                        and rep.size <= rep.guarantee + 1e-9
                        and tau <= rep.size):
                    violations += 1
        for t in range(500):
            fam = gen_random(RandomSpec(n_boxes=1 + t % 12, dim=2,
                                        coord_range=(0, 16), seed=70_000 + t,
                                        two_line=True))
            tau = tau_exact(fam).tau
            runs = [pierce_two_lines(fam),
                    pierce_planar(fam, SplitPolicy.BALANCED),
                    pierce_planar(fam, SplitPolicy.DP_OPTIMAL)]
            for rep in runs:
                if not (is_sound(fam, rep.points)
                        and rep.size <= rep.guarantee + 1e-9
                        and tau <= rep.size):
                    violations += 1
        assert violations == 0


def test_criterion_07_one_dimensional_exactness():
    with criterion("C7", "1000 interval families: sweep size equals nu equals tau"):
        for t in range(1000):
            fam = gen_random(RandomSpec(n_boxes=1 + t % 12, dim=1,
                                        coord_range=(0, 24), seed=80_000 + t))
            rep = pierce_intervals_1d(fam)
            assert is_sound(fam, rep.points), t
            assert rep.size == nu_exact(fam).nu == tau_exact(fam).tau, t


def test_criterion_08_oracle_cross_validation():
    with criterion("C8", "200+ families: oracles match exhaustive subset enumeration"):
        nu_checked = tau_checked = 0
        t = 0
        while (nu_checked < 200 or tau_checked < 200) and t < 1200:
            fam = gen_random(RandomSpec(n_boxes=1 + t % 10, dim=2,
                                        coord_range=(0, 8), seed=90_000 + t))
            assert nu_exact(fam).nu == brute_force_nu(fam), t
            nu_checked += 1
            tau = tau_exact(fam).tau
            if tau <= 3:  # exhaustive C(grid, t) enumeration stays tractable
                assert brute_force_tau(fam, limit=tau) == tau, t
                tau_checked += 1
            t += 1
        assert nu_checked >= 200 and tau_checked >= 200


def test_criterion_09_three_dimensional_recursion():
    with criterion("C9", "200 3-d instances: DP-policy recursion sound and within its table bound"):
        for t in range(200):
            fam = gen_random(RandomSpec(n_boxes=1 + t % 10, dim=3,
                                        coord_range=(0, 12), seed=95_000 + t))
            rep = pierce_ddim(fam, SplitPolicy.DP_OPTIMAL)
            assert is_sound(fam, rep.points), t
            assert rep.size <= bound_prop1(rep.nu_used, 3), t
            assert rep.guarantee == float(bound_prop1(rep.nu_used, 3)), t


def test_criterion_10_end_to_end_pipeline(tmp_path):
    with criterion("C10", "gen | pierce | verify pipeline exits 0 with size 3; files round-trip byte-exact"):
        cmd = [sys.executable, "-m", "boxpierce"]
        gen = subprocess.run(cmd + ["gen", "gadget"], capture_output=True, text=True)
        assert gen.returncode == 0
        pierce = subprocess.run(cmd + ["pierce", "--algo", "twoline"],
                                input=gen.stdout, capture_output=True, text=True)
        assert pierce.returncode == 0
        verify = subprocess.run(cmd + ["verify"], input=pierce.stdout,
                                capture_output=True, text=True)
        assert verify.returncode == 0
        report = json.loads(verify.stdout)
        assert report["hits_all"] is True and report["size"] == 3

        path = tmp_path / "roundtrip.json"
        path.write_text(gen.stdout)
        first = path.read_bytes()
        reread = subprocess.run(cmd + ["gen", "gadget", "--out", str(path)],
                                capture_output=True, text=True)
        assert reread.returncode == 0
        assert path.read_bytes() == first
        copy = subprocess.run(cmd + ["pierce", "--algo", "ddim", str(path)],
                              capture_output=True, text=True)
        assert copy.returncode == 0
        embedded = json.loads(copy.stdout)["instance"]
        assert json.loads(first.decode()) == embedded
