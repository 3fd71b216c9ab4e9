"""Heffter-array validation, simple/compatible orderings, and small-size search.

An m x n partially filled array over Z_v (v = 2nk/lambda + t, J the subgroup of
order t) is a lambda-fold Heffter array relative to J when

1. every row has h filled cells and every column k filled cells,
2. the signed support {±x : x in A} meets each element of Z_v \\ J exactly
   lambda times (for lambda = 1: exactly one of x, -x appears, exactly once),
3. every row and every column sums to 0 mod v.

Orderings of a line are *simple* when their partial sums are pairwise distinct
mod v; the array is *globally simple* when every natural (left-to-right /
top-to-bottom) line ordering is simple.  Row and column orderings compose into
permutations of the filled entries, and a pair of such permutations is
*compatible* when the column-after-row composition is one full cycle.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .perm import Permutation
from .pfarray import PartiallyFilledArray, Skeleton, cyclic_diagonal_skeleton


# -- orderings and simplicity ---------------------------------------------------


@dataclass(frozen=True)
class Ordering:
    """An arrangement of one line's entries, with the ambient modulus."""

    values: tuple[int, ...]
    v: int

    def partial_sums(self) -> tuple[int, ...]:
        sums = []
        s = 0
        for x in self.values:
            s = (s + x) % self.v
            sums.append(s)
        return tuple(sums)

    @property
    def simple(self) -> bool:
        sums = self.partial_sums()
        return len(set(sums)) == len(sums)

    def reversed(self) -> "Ordering":
        return Ordering(tuple(reversed(self.values)), self.v)


def is_simple_ordering(values: Sequence[int], v: int) -> bool:
    """True iff the partial sums of ``values`` are pairwise distinct mod v."""
    return Ordering(tuple(x % v for x in values), v).simple


@dataclass(frozen=True)
class LineOrderingSet:
    """One ordering per row and per column, over an array's entry set.

    The induced row (column) permutation is the product of the disjoint cycles
    given by the row (column) orderings; that needs all entries of the array to
    be distinct residues, which holds for every array validated here.
    """

    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    v: int

    def __post_init__(self) -> None:
        row_elems = [x for line in self.rows for x in line]
        col_elems = [x for line in self.cols for x in line]
        if sorted(row_elems) != sorted(col_elems):
            raise ValueError("row and column orderings cover different entries")
        if len(set(row_elems)) != len(row_elems):
            raise ValueError(
                "array entries are not distinct residues: line permutations undefined"
            )

    @property
    def row_perm(self) -> Permutation:
        return Permutation.from_cycles(self.rows)

    @property
    def col_perm(self) -> Permutation:
        return Permutation.from_cycles(self.cols)


def orderings_from_orientations(
    array: PartiallyFilledArray,
    rows_dir: Sequence[int],
    cols_dir: Sequence[int],
) -> LineOrderingSet:
    """Line orderings induced by direction vectors.

    Row i is read left-to-right when ``rows_dir[i-1]`` is +1 and right-to-left
    when -1; column j top-to-bottom when ``cols_dir[j-1]`` is +1, else
    bottom-to-top.
    """
    _check_directions(rows_dir, array.m, "row")
    _check_directions(cols_dir, array.n, "column")
    rows = []
    for i in range(1, array.m + 1):
        line = array.row_values(i)
        rows.append(line if rows_dir[i - 1] == 1 else tuple(reversed(line)))
    cols = []
    for j in range(1, array.n + 1):
        line = array.column_values(j)
        cols.append(line if cols_dir[j - 1] == 1 else tuple(reversed(line)))
    return LineOrderingSet(tuple(rows), tuple(cols), array.v)


def natural_orderings(array: PartiallyFilledArray) -> LineOrderingSet:
    return orderings_from_orientations(array, (1,) * array.m, (1,) * array.n)


def _check_directions(vec: Sequence[int], length: int, what: str) -> None:
    if len(vec) != length or any(d not in (1, -1) for d in vec):
        raise ValueError(f"{what} direction vector must be ±1 of length {length}")


def are_compatible(row_perm: Permutation, col_perm: Permutation) -> bool:
    """True iff col_perm ∘ row_perm is a single cycle covering the entry set."""
    if row_perm.domain != col_perm.domain:
        raise ValueError("orderings act on different ground sets")
    return col_perm.compose(row_perm).is_single_cycle()


def composed_cycle(ords: LineOrderingSet) -> Permutation:
    """The column-after-row composition induced by a full ordering set."""
    return ords.col_perm.compose(ords.row_perm)


def is_globally_simple(array: PartiallyFilledArray) -> bool:
    """Are all natural line orderings simple?"""
    for i in range(1, array.m + 1):
        if not is_simple_ordering(array.row_values(i), array.v):
            return False
    for j in range(1, array.n + 1):
        if not is_simple_ordering(array.column_values(j), array.v):
            return False
    return True


def find_simple_line_orderings(array: PartiallyFilledArray) -> LineOrderingSet | None:
    """First simple ordering of every line, or None if some line has none.

    Lines are independent, so each is searched separately; candidate
    permutations are tried in lexicographic order of the line's natural order.
    """
    def first_simple(line: tuple[int, ...]) -> tuple[int, ...] | None:
        for cand in itertools.permutations(line):
            if is_simple_ordering(cand, array.v):
                return cand
        return None

    rows = []
    for i in range(1, array.m + 1):
        w = first_simple(array.row_values(i))
        if w is None:
            return None
        rows.append(w)
    cols = []
    for j in range(1, array.n + 1):
        w = first_simple(array.column_values(j))
        if w is None:
            return None
        cols.append(w)
    return LineOrderingSet(tuple(rows), tuple(cols), array.v)


# -- validation ----------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the Heffter conditions, one flag per condition.

    Flags are None when a prerequisite condition already failed.  ``h`` and
    ``k`` are the common row/column weights when condition 1 holds.
    """

    v: int
    t: int
    fold: int
    h: int | None
    k: int | None
    uniform_weights: bool
    support_ok: bool | None
    rows_sum_zero: bool | None
    cols_sum_zero: bool | None
    bad_rows: tuple[int, ...] = field(default=())
    bad_cols: tuple[int, ...] = field(default=())
    support_errors: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return bool(
            self.uniform_weights
            and self.support_ok
            and self.rows_sum_zero
            and self.cols_sum_zero
        )

    def to_json_dict(self) -> dict:
        return {
            "v": self.v,
            "t": self.t,
            "lambda": self.fold,
            "h": self.h,
            "k": self.k,
            "uniform_weights": self.uniform_weights,
            "support_ok": self.support_ok,
            "rows_sum_zero": self.rows_sum_zero,
            "cols_sum_zero": self.cols_sum_zero,
            "bad_rows": list(self.bad_rows),
            "bad_cols": list(self.bad_cols),
            "support_errors": list(self.support_errors),
            "passed": self.passed,
        }


def subgroup_members(v: int, t: int) -> frozenset[int]:
    """The order-t subgroup J of Z_v: multiples of v/t."""
    step = v // t
    return frozenset(range(0, v, step))


def validate_heffter(array: PartiallyFilledArray) -> ValidationReport:
    """Check the Heffter conditions on ``array``.

    Raises ValueError when v is inconsistent with 2nk/lambda + t (with k the
    observed column weight), since then the support condition is ill-posed.
    """
    v, t, lam = array.v, array.t, array.fold

    row_w = [len(array.row_values(i)) for i in range(1, array.m + 1)]
    col_w = [len(array.column_values(j)) for j in range(1, array.n + 1)]
    uniform = len(set(row_w)) == 1 and len(set(col_w)) == 1
    if not uniform:
        return ValidationReport(
            v, t, lam, None, None, False, None, None, None
        )
    h, k = row_w[0], col_w[0]

    if lam * (v - t) != 2 * array.n * k:
        raise ValueError(
            f"v={v} inconsistent with 2nk/lambda + t = "
            f"{2 * array.n * k // lam + t} (n={array.n}, k={k}, lambda={lam})"
        )

    J = subgroup_members(v, t)
    entries = array.entries()
    support_errors: list[str] = []

    signed_count: Counter[int] = Counter()
    for x in entries:
        signed_count[x] += 1
        signed_count[(-x) % v] += 1
    for x in sorted(J):
        if signed_count[x]:
            support_errors.append(f"element {x} of the subgroup J appears")
    if lam == 1:
        seen = Counter(entries)
        for x in range(1, v):
            if x in J or x > (-x) % v:
                continue
            y = (-x) % v
            if seen[x] + seen[y] != 1:
                support_errors.append(
                    f"class ±{x}: appears {seen[x] + seen[y]} times, expected 1"
                )
    else:
        for x in range(v):
            if x in J:
                continue
            if signed_count[x] != lam:
                support_errors.append(
                    f"element {x}: signed support hits it {signed_count[x]} "
                    f"times, expected {lam}"
                )
    support_ok = not support_errors

    bad_rows = tuple(
        i for i in range(1, array.m + 1) if sum(array.row_values(i)) % v != 0
    )
    bad_cols = tuple(
        j for j in range(1, array.n + 1) if sum(array.column_values(j)) % v != 0
    )

    return ValidationReport(
        v, t, lam, h, k, True, support_ok, not bad_rows, not bad_cols,
        bad_rows, bad_cols, tuple(support_errors),
    )


# -- exhaustive search for small arrays -------------------------------------------


def search_heffter(
    m: int,
    n: int,
    h: int,
    k: int,
    t: int = 1,
    *,
    limit: int = 1,
    skeleton: Skeleton | str | None = None,
) -> list[PartiallyFilledArray]:
    """Backtracking search for Heffter arrays with the given parameters.

    One representative of ±x is chosen per class; cells are filled row-major
    with candidate residues in ascending order, forcing the value whenever a
    line has a single empty cell left.  The global-negation symmetry is pruned
    by restricting the first cell to [1, v//2], so output is deterministic and
    canonical for fixed parameters.

    ``skeleton`` may be an explicit :class:`Skeleton`, the string ``"cyclic"``
    (k consecutive diagonals, square arrays only), or None for the fully
    filled grid (requires h = n and k = m).
    """
    if m * h != n * k:
        raise ValueError(f"infeasible parameters: m*h={m * h} != n*k={n * k}")
    if not (3 <= h <= n and 3 <= k <= m):
        raise ValueError("need 3 <= h <= n and 3 <= k <= m")
    if t < 1:
        raise ValueError(f"subgroup order t={t} must be >= 1")
    if limit < 0:
        raise ValueError(f"limit={limit} must be >= 0")
    v = 2 * n * k + t
    if v % t != 0:
        raise ValueError(f"t={t} does not divide v={v}")

    if skeleton is None:
        if h != n or k != m:
            raise ValueError("non-full weights need an explicit skeleton")
        skel = Skeleton(m, n, frozenset((i, j) for i in range(1, m + 1)
                                        for j in range(1, n + 1)))
    elif skeleton == "cyclic":
        if m != n or h != k:
            raise ValueError("cyclic diagonal skeletons need a square array")
        skel = cyclic_diagonal_skeleton(n, k)
    elif isinstance(skeleton, Skeleton):
        skel = skeleton
    else:
        raise ValueError(f"unknown skeleton option {skeleton!r}")

    for i in range(1, m + 1):
        if len(skel.row_columns(i)) != h:
            raise ValueError(f"skeleton row {i} has weight != {h}")
    for j in range(1, n + 1):
        if len(skel.column_rows(j)) != k:
            raise ValueError(f"skeleton column {j} has weight != {k}")

    return list(itertools.islice(_search_iter(m, n, v, t, skel), limit))


def _search_iter(
    m: int, n: int, v: int, t: int, skel: Skeleton
) -> Iterator[PartiallyFilledArray]:
    J = subgroup_members(v, t)
    cells = skel.positions()
    ncells = len(cells)

    row_left = [len(skel.row_columns(i)) for i in range(m + 1)]  # 1-based use
    col_left = [len(skel.column_rows(j)) for j in range(n + 1)]
    row_left[0] = col_left[0] = 0
    row_sum = [0] * (m + 1)
    col_sum = [0] * (n + 1)
    used = bytearray(v)  # marks both members of a used class
    grid: list[list[int | None]] = [[None] * n for _ in range(m)]

    def place(idx: int) -> Iterator[PartiallyFilledArray]:
        if idx == ncells:
            yield PartiallyFilledArray(
                m, n, v, t, 1, tuple(tuple(r) for r in grid)
            )
            return
        i, j = cells[idx]
        forced: int | None = None
        if row_left[i] == 1 and col_left[j] == 1:
            a = (-row_sum[i]) % v
            if a != (-col_sum[j]) % v:
                return
            forced = a
        elif row_left[i] == 1:
            forced = (-row_sum[i]) % v
        elif col_left[j] == 1:
            forced = (-col_sum[j]) % v

        if forced is not None:
            candidates: Iterator[int] = iter((forced,))
        elif idx == 0:
            candidates = iter(range(1, v // 2 + 1))
        else:
            candidates = iter(range(1, v))

        for val in candidates:
            if val in J or used[val]:
                continue
            used[val] = used[(-val) % v] = 1
            grid[i - 1][j - 1] = val
            row_sum[i] = (row_sum[i] + val) % v
            col_sum[j] = (col_sum[j] + val) % v
            row_left[i] -= 1
            col_left[j] -= 1

            yield from place(idx + 1)

            row_left[i] += 1
            col_left[j] += 1
            row_sum[i] = (row_sum[i] - val) % v
            col_sum[j] = (col_sum[j] - val) % v
            grid[i - 1][j - 1] = None
            used[val] = used[(-val) % v] = 0

    return place(0)
