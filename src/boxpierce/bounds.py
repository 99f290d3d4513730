"""Upper-bound recurrences for the worst-case piercing number.

Let F(n, d) denote the largest piercing number over d-dimensional box
families with packing number n. Known bases: F(0, d) = 0, F(1, d) = 1,
F(n, 1) = n, and F(2, 2) = 3. This module evaluates the upper-bound
rules exactly:

  prop1      F(n,d) <= min_{0<=k<=n-2} {F(k,d) + F(n-k-1,d)} + F(n,d-1)
             (hyperplane split: k+1 disjoint boxes left of the split
             force the right side down to n-k-1).
  prop3      F(n,2) <= min_{k+l+m=n-2} {F(k,2)+F(l,2)+F(m,2)} + floor(3n/2)
             (planar three-way split; the middle strip is pierced by a
             two-line sweep worth floor(3n/2) points).
  lemma1     F(n,d) <= n + log2(n) * F(n,d-1) (balanced halving,
             real-valued; d=2 uses F(n,1)=n, d=3 uses the prop3 table).
  hadwiger2  F(n,2) <= n(n-1)/2. Stated without small-n qualification
             although it contradicts F(2,2)=3 at n=2 (and known lower
             bounds at n=3); exposed verbatim, see README.
  h          h(n) = n*log_{9^(1/3)}(n) + n, a closed form dominating the
             prop3 table.
  bestknown  pointwise minimum of the applicable integer rules with the
             exact small bases injected; the d-1 column feeding its own
             pairwise-split recurrence at d >= 3.

Integer rules are computed in exact integer arithmetic; real-valued
rules in floating point, compared against integers with a 1e-9 absolute
tolerance where an exact rational threshold is unavailable.

The prop3 and prop1 tables also store the split that attains each value
(`split_prop3`, `split_prop1`), which the DP-optimal piercing policy uses.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

_LN9 = math.log(9.0)

#: log base 9^(1/3) of 2, the per-level growth constant of the combined
#: recursion; its reciprocal ~1.0566 is the improvement factor over the
#: plain n*log2(n)^(d-1) shape.
LOG_CBRT9_OF_2 = 3.0 * math.log(2.0) / _LN9


class BoundRule(str, Enum):
    PROP1 = "prop1"
    PROP3 = "prop3"
    LEMMA1 = "lemma1"
    HADWIGER2 = "hadwiger2"
    H = "h"
    BEST_KNOWN = "bestknown"


def log_base_cbrt9(x: float) -> float:
    return 3.0 * math.log(x) / _LN9


def _check(name: str, value, least: int) -> None:
    """Refuse a `value` that is not an int (a bool is not) of at least `least`."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def h(n: int) -> float:
    """The planar closed-form bound n * log_{9^(1/3)}(n) + n."""
    _check("n", n, 1)
    return n * log_base_cbrt9(n) + n


# Lazily extended DP tables. Each cell is (value, split): the exact int
# value and the smallest argmin attaining it (None below n = 2).
_prop3: list[tuple[int, tuple[int, int, int] | None]] = [(0, None), (1, None)]
_prop3_pairs: list[tuple[int, int]] = [(0, 0), (1, 0)]  # (min_{i+j=s} t[i]+t[j], first i)
_prop1: dict[int, list[tuple[int, int | None]]] = {}
_best: dict[int, list[tuple[int, int | None]]] = {}
_lemma1: dict[int, list[float]] = {}  # n -> [n, bound_prop3(n), bound_lemma1(n, 3), ...] up to inf


def _first_min(sums: list[int]) -> tuple[int, int]:
    v = min(sums)
    return v, sums.index(v)


def _pairwise_cell(tables: dict, d: int, n: int, bottom, bottom_d: int) -> tuple[int, int | None]:
    """Cell n of T_d(n) = min_k {T_d(k) + T_d(n-k-1)} + T_{d-1}(n); T_bottom_d is `bottom`.

    Each column e > bottom_d is kept in tables[e]. The columns short of
    cell n are filled bottom-up, so no call goes deeper per dimension.
    """
    low = d
    while low - 1 > bottom_d and len(tables.get(low - 1, ())) <= n:
        low -= 1
    for e in range(low, d + 1):
        table = tables.setdefault(e, [(0, None), (1, None)])
        below = tables.get(e - 1)  # None at the bottom column, which has no table
        while len(table) <= n:
            m = len(table)
            inner, k = _first_min([table[i][0] + table[m - 1 - i][0] for i in range(m - 1)])
            table.append((inner + (bottom(m) if below is None else below[m][0]), k))
    return tables[d][n]


def bound_prop3(n: int) -> int:
    """Planar three-way-split DP value at n (exact integer)."""
    _check("n", n, 0)
    while len(_prop3) <= n:
        m = len(_prop3)
        s = m - 2
        while len(_prop3_pairs) <= s:
            t = len(_prop3_pairs)
            # the first argmin over i <= t//2 is also the smallest over
            # all i, since the sum is symmetric in i <-> t-i
            _prop3_pairs.append(_first_min([_prop3[i][0] + _prop3[t - i][0]
                                            for i in range(t // 2 + 1)]))
        inner, k = _first_min([_prop3[i][0] + _prop3_pairs[s - i][0] for i in range(s + 1)])
        l = _prop3_pairs[s - k][1]
        _prop3.append((inner + (3 * m) // 2, (k, l, s - k - l)))
    return _prop3[n][0]


def split_prop3(n: int) -> tuple[int, int, int]:
    """Sizes (k, l, m), k+l+m = n-2, attaining bound_prop3(n); smallest (k, l) on ties."""
    _check("n", n, 2)
    bound_prop3(n)
    return _prop3[n][1]


def bound_prop1(n: int, d: int) -> int:
    """Pairwise-split DP value at (n, d), self-contained per dimension.

    The d-1 column is this same rule's table (F(n,1) = n at the bottom).
    pierce_ddim's DP-optimal policy splits by this table down to the
    plane, but pierces the last two axes by the four-way planar split,
    which achieves bound_prop3 there. Its guarantee still holds because
    bound_prop3(n) <= bound_prop1(n, 2).
    """
    _check("n", n, 0)
    _check("d", d, 1)
    if d == 1:
        return n
    return _pairwise_cell(_prop1, d, n, int, 1)[0]


def split_prop1(n: int, d: int) -> int:
    """Smallest k attaining bound_prop1(n, d): the left part gets bound k, the right n-k-1."""
    _check("n", n, 2)
    _check("d", d, 2)
    bound_prop1(n, d)
    return _prop1[d][n][1]


def bound_lemma1(n: int, d: int) -> float:
    """Balanced-halving bound n + log2(n) * base(n, d-1), real-valued.

    base(n, 1) = n, base(n, 2) = bound_prop3(n), and deeper bases extend
    the kept column of n, one rule step each. Past a double: ValueError.
    """
    _check("n", n, 1)
    _check("d", d, 2)
    column = _lemma1.setdefault(n, [n])  # base(n, e) at index e - 1
    while d > 2 and len(column) < d and column[-1] != math.inf:
        column.append(bound_prop3(n) if len(column) == 1 else n + math.log2(n) * column[-1])
    v = n + math.log2(n) * n if d == 2 else column[min(d - 1, len(column) - 1)]
    if v == math.inf:
        raise ValueError(f"bound_lemma1({n}, {d}) exceeds a double's range")
    return v


def bound_hadwiger2(n: int) -> int:
    """The quadratic planar bound n(n-1)/2, as stated.

    Only n=1 is patched (F(1,2)=1 dominates the formula's 0). At n=2 the
    formula yields 1, below the exact value F(2,2)=3; the rule is
    reported verbatim anyway and is meaningful only from n >= 4.
    """
    _check("n", n, 1)
    if n == 1:
        return 1
    return n * (n - 1) // 2


def bound_best_known(n: int, d: int) -> int:
    """Best integer upper bound obtained by combining the rules.

    d=2 column: exact bases {0, 1, 3}, then the pointwise minimum of
    prop3, prop1 and hadwiger2 (minimum of monotone tables, hence
    monotone). Higher dimensions run the pairwise-split recurrence over
    this combined column.
    """
    _check("n", n, 0)
    _check("d", d, 1)
    if d == 1:
        return n
    return _best_planar(n) if d == 2 else _pairwise_cell(_best, d, n, _best_planar, 2)[0]


def _best_planar(n: int) -> int:  # the bestknown d = 2 column
    return (0, 1, 3)[n] if n <= 2 else min(bound_prop3(n), bound_prop1(n, 2), bound_hadwiger2(n))


class BoundTable(NamedTuple):
    """Evaluated cells of one rule: values maps (n, d) to an int or float."""

    rule: BoundRule
    max_n: int
    max_d: int
    values: dict[tuple[int, int], int | float]


#: Each rule's evaluator at (n, d), its smallest n, its smallest d, and
#: whether it is planar-only (its table then holds the d = 2 column alone).
_RULES: dict[BoundRule, tuple[Callable[[int, int], int | float], int, int, bool]] = {
    BoundRule.PROP1: (bound_prop1, 0, 1, False),
    BoundRule.PROP3: (lambda n, d: bound_prop3(n), 0, 2, True),
    BoundRule.LEMMA1: (bound_lemma1, 1, 2, False),
    BoundRule.HADWIGER2: (lambda n, d: bound_hadwiger2(n), 1, 2, True),
    BoundRule.H: (lambda n, d: h(n), 1, 2, True),
    BoundRule.BEST_KNOWN: (bound_best_known, 0, 1, False),
}


def build_table(rule: BoundRule, max_n: int, max_d: int = 2) -> BoundTable:
    """Evaluate one rule over its cells up to (max_n, max_d)."""
    rule = BoundRule(rule)
    _check("max_n", max_n, 1)
    evaluate, n_lo, d_lo, planar_only = _RULES[rule]
    _check(f"rule {rule.value}'s max_d", max_d, d_lo)
    dims = (2,) if planar_only else range(d_lo, max_d + 1)
    values = {(n, d): evaluate(n, d) for d in dims for n in range(n_lo, max_n + 1)}
    return BoundTable(rule, max_n, max_d, values)


def table_to_csv(table: BoundTable) -> str:
    """Render as `rule,n,d,value` rows: integers unpadded, reals with 6 decimals."""
    lines = ["rule,n,d,value"]
    for (n, d) in sorted(table.values, key=lambda c: (c[1], c[0])):
        v = table.values[(n, d)]
        text = str(v) if isinstance(v, int) else f"{v:.6f}"
        lines.append(f"{table.rule.value},{n},{d},{text}")
    return "\n".join(lines) + "\n"
