"""Bound recurrences: frozen values, dominance relations, monotonicity."""

import math
import subprocess
import sys

import pytest

from boxpierce import (
    LOG_CBRT9_OF_2,
    BoundRule,
    bound_best_known,
    bound_hadwiger2,
    bound_lemma1,
    bound_prop1,
    bound_prop3,
    build_table,
    h,
    table_to_csv,
)
from boxpierce.bounds import log_base_cbrt9, split_prop1, split_prop3


# --- pairwise-split DP -------------------------------------------------------

def test_prop1_bases():
    for d in (1, 2, 3, 5):
        assert bound_prop1(0, d) == 0
        assert bound_prop1(1, d) == 1
    for n in (0, 1, 4, 9):
        assert bound_prop1(n, 1) == n


def test_prop1_hand_unrolled_plane():
    # f(2)=min{0+1}+2=3, f(3)=min{0+3,1+1}+3=5, f(4)=min{0+5,1+3,3+1}+4=8
    assert bound_prop1(2, 2) == 3
    assert bound_prop1(3, 2) == 5
    assert bound_prop1(4, 2) == 8


def test_prop1_5_2_is_11():
    assert bound_prop1(5, 2) == 11


# --- three-way-split DP ------------------------------------------------------

def test_prop3_small_values():
    assert bound_prop3(0) == 0
    assert bound_prop3(1) == 1
    assert bound_prop3(2) == 3  # empty split plus floor(6/2)
    assert bound_prop3(3) == 5
    assert bound_prop3(4) == 8
    assert bound_prop3(6) == 14


def test_prop3_5_is_10_one_below_pairwise_split():
    assert bound_prop3(5) == 10
    assert bound_prop3(5) == bound_prop1(5, 2) - 1


# --- balanced-halving rule ---------------------------------------------------

def test_lemma1_base_n1():
    for d in (2, 3, 4):
        assert bound_lemma1(1, d) == 1.0


def test_lemma1_4_3():
    assert bound_prop3(4) == 8
    assert bound_lemma1(4, 3) == pytest.approx(4 + 2 * 8, abs=1e-12)


def test_lemma1_plane_closed_form():
    for n in (2, 3, 8, 20):
        assert bound_lemma1(n, 2) == pytest.approx(n + n * math.log2(n), abs=1e-9)


def test_lemma1_rejects_zero():
    with pytest.raises(ValueError):
        bound_lemma1(0, 3)


def test_lemma1_past_a_double_is_refused():
    assert math.isfinite(bound_lemma1(5, 841))
    with pytest.raises(ValueError, match=r"\(5, 842\)"):
        bound_lemma1(5, 842)
    with pytest.raises(ValueError, match=r"\(5, 842\)"):
        build_table(BoundRule.LEMMA1, 5, 900)
    with pytest.raises(ValueError, match=r"\(5, 1500\)"):  # also once the column ends in inf
        bound_lemma1(5, 1500)


def test_lemma1_table_takes_one_log2_per_cell(monkeypatch):
    cells = 3 * (1539 - 1)  # n = 1..3 at d = 2..1539, where the table stops
    calls = []
    log2 = math.log2

    def counted_log2(x):
        calls.append(x)
        assert len(calls) <= cells, "math.log2 called more than once per cell"
        return log2(x)

    monkeypatch.setattr(math, "log2", counted_log2)
    with pytest.raises(ValueError, match=r"\(3, 1539\)"):  # n = 3 leaves a double there
        build_table(BoundRule.LEMMA1, 3, 2000)
    assert calls


# --- quadratic planar rule ---------------------------------------------------

def test_hadwiger_values():
    assert bound_hadwiger2(5) == 10
    assert bound_hadwiger2(1) == 1
    # reported verbatim although it undercuts the exact value 3 at n=2
    assert bound_hadwiger2(2) == 1


# --- h and the constant ------------------------------------------------------

def test_rules_and_tables_refuse_bools_and_floats():
    for value in (True, 2.5, 2.0):
        with pytest.raises(ValueError, match="n must be an integer"):
            h(value)
        with pytest.raises(ValueError, match="max_n"):
            build_table(BoundRule.PROP1, value, 2)
        with pytest.raises(ValueError, match="max_d"):
            build_table(BoundRule.PROP1, 3, value)


def test_h_2():
    assert h(2) == pytest.approx(3.892789, abs=1e-5)


def test_h_1():
    assert h(1) == pytest.approx(1.0, abs=1e-12)


def test_h_3_exact_exponent():
    # log base 9^(1/3) of 3 is exactly 3/2, so h(3) = 3*(3/2) + 3
    assert log_base_cbrt9(3) == pytest.approx(1.5, abs=1e-12)
    assert h(3) == pytest.approx(7.5, abs=1e-9)


def test_asymptotic_constant():
    c = LOG_CBRT9_OF_2
    assert c == pytest.approx(0.946395, abs=1e-6)
    assert 1.0 / c == pytest.approx(1.057, abs=1e-3)
    assert c < 1.0


# --- rule relations ----------------------------------------------------------

def test_prop3_refines_prop1_in_plane():
    assert all(bound_prop3(n) <= bound_prop1(n, 2) for n in range(2, 301))


def test_prop3_below_h():
    assert all(bound_prop3(n) <= h(n) + 1e-9 for n in range(1, 201))


def test_prop3_strictly_below_n_log_for_5_to_14():
    for n in range(5, 15):
        assert bound_prop3(n) < n * log_base_cbrt9(n)


def test_tables_monotone_in_n():
    for n in range(1, 120):
        assert bound_prop3(n) <= bound_prop3(n + 1)
        assert h(n) <= h(n + 1)
        assert bound_hadwiger2(n) <= bound_hadwiger2(n + 1)
        for d in (2, 3, 4):
            assert bound_prop1(n, d) <= bound_prop1(n + 1, d)
            assert bound_lemma1(n, d) <= bound_lemma1(n + 1, d) + 1e-12
            assert bound_best_known(n, d) <= bound_best_known(n + 1, d)


def test_integer_rules_are_exact_ints():
    for n in range(0, 40):
        assert type(bound_prop3(n)) is int
        assert type(bound_prop1(n, 3)) is int
        assert type(bound_best_known(n, 2)) is int
    assert type(bound_hadwiger2(7)) is int


def test_dp_optimal_guarantee_never_worse_than_balanced():
    assert all(bound_prop3(n) <= h(n) + 1e-9 for n in range(1, 201))
    for n in range(2, 40):
        for d in (3, 4):
            assert bound_prop1(n, d) <= bound_lemma1(n, d) + 1e-9


# --- stored splits -----------------------------------------------------------

def reference_split_prop3(n):
    """First (k, l, m) in lexicographic order minimising the prop3 inner sum."""
    best = best_sum = None
    for k in range(n - 1):
        for l in range(n - 1 - k):
            m = n - 2 - k - l
            s = bound_prop3(k) + bound_prop3(l) + bound_prop3(m)
            if best_sum is None or s < best_sum:
                best, best_sum = (k, l, m), s
    return best


def reference_split_prop1(n, d):
    """Smallest k minimising bound_prop1(k, d) + bound_prop1(n-k-1, d)."""
    best_k = best_sum = None
    for k in range(n - 1):
        s = bound_prop1(k, d) + bound_prop1(n - k - 1, d)
        if best_sum is None or s < best_sum:
            best_k, best_sum = k, s
    return best_k


def test_split_prop3_matches_argmin_loop():
    for n in range(2, 61):
        k, l, m = split_prop3(n)
        assert (k, l, m) == reference_split_prop3(n)
        assert bound_prop3(k) + bound_prop3(l) + bound_prop3(m) + (3 * n) // 2 == bound_prop3(n)


def test_split_prop1_matches_argmin_loop():
    for d in (2, 3, 4):
        for n in range(2, 61):
            k = split_prop1(n, d)
            assert k == reference_split_prop1(n, d)
            assert (bound_prop1(k, d) + bound_prop1(n - k - 1, d) + bound_prop1(n, d - 1)
                    == bound_prop1(n, d))


def test_splits_reject_cells_without_a_split():
    for bad in (lambda: split_prop3(1), lambda: split_prop3(-1),
                lambda: split_prop1(1, 3), lambda: split_prop1(5, 1)):
        with pytest.raises(ValueError):
            bad()


# --- combined table ----------------------------------------------------------

def test_best_known_bases_and_minimum():
    assert bound_best_known(0, 2) == 0
    assert bound_best_known(1, 2) == 1
    assert bound_best_known(2, 2) == 3  # exact base, not the quadratic formula's 1
    for n in range(3, 30):
        assert bound_best_known(n, 2) == min(
            bound_prop3(n), bound_prop1(n, 2), bound_hadwiger2(n)
        )


def test_best_known_not_above_pure_rules_at_d3():
    for n in range(0, 25):
        assert bound_best_known(n, 3) <= bound_prop1(n, 3)


# --- table building and CSV --------------------------------------------------

def test_csv_contains_flagship_row():
    csv = table_to_csv(build_table(BoundRule.PROP3, 15, 2))
    lines = csv.splitlines()
    assert lines[0] == "rule,n,d,value"
    assert "prop3,5,2,10" in lines


def test_csv_byte_stable():
    a = table_to_csv(build_table(BoundRule.PROP1, 12, 3))
    b = table_to_csv(build_table(BoundRule.PROP1, 12, 3))
    assert a == b


def test_csv_real_rule_six_decimals():
    csv = table_to_csv(build_table(BoundRule.H, 3, 2))
    assert "h,2,2,3.892789" in csv.splitlines()


def test_planar_rules_reject_low_max_d():
    with pytest.raises(ValueError):
        build_table(BoundRule.PROP3, 10, 1)
    for rule, max_n, max_d in ((BoundRule.PROP1, 5, 0), (BoundRule.BEST_KNOWN, 4, -2),
                               (BoundRule.LEMMA1, 5, 1)):
        with pytest.raises(ValueError, match="max_d"):
            build_table(rule, max_n, max_d)
    with pytest.raises(ValueError, match="max_n"):
        build_table(BoundRule.PROP1, 0, 3)


def test_deep_columns_in_a_fresh_process_need_no_recursion():
    # a fresh process has empty tables, so the first call fills every column below d = 400
    code = ("from boxpierce import bound_best_known, bound_prop1\n"
            "print(bound_prop1(5, 400), bound_best_known(5, 400))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["161201", "160404"]
