"""Heffter-array validation, simple/compatible orderings, and small-size search.

An m x n partially filled array over Z_v (v = 2nk/lambda + t, J the subgroup of
order t) is a lambda-fold Heffter array relative to J when

1. every row has h filled cells and every column k filled cells,
2. the signed support {±x : x in A} meets each element of Z_v \\ J exactly
   lambda times (for lambda = 1: exactly one of x, -x appears, exactly once),
3. every row and every column sums to 0 mod v.

Orderings of a line are *simple* when their partial sums are pairwise distinct
mod v; the array is *globally simple* when every natural (left-to-right /
top-to-bottom) line ordering is simple.  Row and column orderings induce
permutations of the filled entries, and a pair of such permutations is
*compatible* when the column-after-row composition is one full cycle.

Every permutation here is held as the rotation rho0 of an embedding is: a
tuple indexed by element, holding the element's image, with -1 off the
domain.  :func:`cycle_from` walks such a table when nothing is known of it,
and :func:`is_single_cycle` is the single-cycle test built on it; the
embedding constructor counts its own walk, and code holding a checked
embedding walks its rotation directly.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from math import gcd
from typing import Collection, Iterator, NamedTuple, Sequence

from .pfarray import ArrayFormatError, PartiallyFilledArray, Skeleton, cyclic_diagonal_skeleton


class BudgetExceededError(ValueError):
    """Raised when an exhaustive scan or search would exceed its budget."""


# -- permutation tables ----------------------------------------------------------


def cycle_from(table: Sequence[int], x: int) -> list[int]:
    """The walk x, table[x], table[table[x]], ... up to its first repeat.

    The walk stops before a value off the table's domain (negative, past its
    end, or an element whose own image is negative) and before a value it has
    met, so it ends on any table, even one read from an untrusted file.  It is
    the cycle through x, listed from x, exactly when the table sends its last
    element back to x.
    """
    out = [x]
    seen = {x}
    size = len(table)
    d = table[x]
    while 0 <= d < size and table[d] >= 0 and d not in seen:
        out.append(d)
        seen.add(d)
        d = table[d]
    return out


def is_single_cycle(table: Sequence[int], domain: Collection[int]) -> bool:
    """True iff ``table`` is one cycle through exactly the elements of ``domain``."""
    if not domain:
        return False
    x = next(iter(domain))
    cyc = cycle_from(table, x)
    return table[cyc[-1]] == x and set(cyc) == set(domain)


def compose(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    """outer ∘ inner: apply ``inner`` first.  Off the domain of ``inner`` it is -1."""
    return tuple(-1 if d < 0 else outer[d] for d in inner)


# -- orderings and simplicity ---------------------------------------------------


def is_simple_ordering(values: Sequence[int], v: int) -> bool:
    """True iff the partial sums of ``values`` are pairwise distinct mod v."""
    seen = set()
    s = 0
    for x in values:
        s = (s + x) % v
        if s in seen:
            return False
        seen.add(s)
    return True


def _lines_table(
    lines: Sequence[Sequence[int]], dirs: Sequence[int], v: int
) -> tuple[int, ...]:
    """Table on Z_v of the product of the cycles ``lines``, each read in its direction."""
    table = [-1] * v
    for line, d in zip(lines, dirs):
        for a, b in zip(line, line[d:] + line[:d]):
            table[a] = b
    return tuple(table)


def orderings_from_orientations(
    array: PartiallyFilledArray,
    rows_dir: Sequence[int],
    cols_dir: Sequence[int],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The tables (row_perm, col_perm) of the line orderings direction vectors induce.

    Row i is read left-to-right when ``rows_dir[i-1]`` is +1 and right-to-left
    when -1; column j top-to-bottom when ``cols_dir[j-1]`` is +1, else
    bottom-to-top.  Raises ValueError unless the vectors are ±1 of the array's
    shape and the entries distinct residues (true of every validated array).
    """
    _check_directions(rows_dir, array.m, "row")
    _check_directions(cols_dir, array.n, "column")
    entries = array.entries()
    if len(set(entries)) != len(entries):
        raise ValueError(
            "array entries are not distinct residues: line permutations undefined"
        )
    rows, cols = _natural_lines(array)
    return _lines_table(rows, rows_dir, array.v), _lines_table(cols, cols_dir, array.v)


def _natural_lines(array: PartiallyFilledArray) -> tuple[list, list]:
    """The rows left to right and the columns top to bottom."""
    return ([array.row_values(i) for i in range(1, array.m + 1)],
            [array.column_values(j) for j in range(1, array.n + 1)])


def _check_directions(vec: Sequence[int], length: int, what: str) -> None:
    # 1.0 and True compare equal to 1, but only an int ±1 is a direction
    if len(vec) != length or any(type(d) is not int or d not in (1, -1) for d in vec):
        raise ValueError(f"{what} direction vector must be ±1 of length {length}")


def are_compatible(row_perm: Sequence[int], col_perm: Sequence[int]) -> bool:
    """True iff col_perm ∘ row_perm is a single cycle covering the entry set.

    The paper's compatibility condition; acceptance criterion 3 checks it on
    the golden orderings of the bundled array.
    """
    domain = [d for d, image in enumerate(row_perm) if image >= 0]
    if domain != [d for d, image in enumerate(col_perm) if image >= 0]:
        raise ValueError("orderings act on different ground sets")
    return is_single_cycle(compose(col_perm, row_perm), domain)


def is_globally_simple(array: PartiallyFilledArray) -> bool:
    """Are all natural line orderings simple?"""
    rows, cols = _natural_lines(array)
    return all(is_simple_ordering(line, array.v) for line in rows + cols)


# -- validation ----------------------------------------------------------------


class ValidationReport(NamedTuple):
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
    bad_rows: tuple[int, ...] = ()
    bad_cols: tuple[int, ...] = ()
    support_errors: tuple[str, ...] = ()

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

    Raises ArrayFormatError when v is inconsistent with 2nk/lambda + t (with k
    the observed column weight), since then the support condition is ill-posed.
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
        raise ArrayFormatError(
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
        for x in range(1, v):
            if x in J or x > (-x) % v:
                continue
            if signed_count[x] != 1:  # the number of entries in the class ±x
                support_errors.append(
                    f"class ±{x}: appears {signed_count[x]} times, expected 1"
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
    budget: int = 1 << 20,
) -> list[PartiallyFilledArray]:
    """Backtracking search for Heffter arrays with the given parameters.

    One representative of ±x is chosen per class.  Free cells are branched on
    in row-major order with the residues outside J in ascending order, so the
    arrays come out in lexicographic order of their row-major entries.  The
    global-negation symmetry is pruned by restricting the first cell to
    [1, v//2], so output is deterministic and canonical for fixed parameters.

    After each placement, a line left with one free cell is closed at once
    with its forced value -sum mod v, which must lie outside J and in an unused
    ± class, and must agree with the crossing line's forced value when that
    line closes on the same cell.  Closing one line can close others in turn,
    and a placement that leads to a dead end anywhere is undone at once
    instead of when row-major order reaches the dead cell.  This prunes only
    subtrees that hold no array, so it changes neither the arrays found nor
    their order.

    The tree is searched only below first-cell values a that divide v; the
    arrays with any other first cell are mapped from these by x -> u*x mod v
    for a unit u of Z_v:

    * A unit fixes J (the only subgroup of order t), permutes the ± classes
      of Z_v \\ J and keeps every line sum 0, so it maps the Heffter arrays
      on the skeleton one to one onto themselves, first cell a to u*a.
    * u*b runs over {a : gcd(a, v) = gcd(b, v)} as u runs over the units,
      so the arrays with first cell a are u times those with first cell
      gcd(a, v), which divides v and, being at most a, is searched before a.
    * x -> u*x does not keep the order of the row-major entries, so each
      mapped group is sorted again before it is yielded.

    A searched group a is itself searched only up to its stabilizer
    G = {u unit : u*a = a}, along a stabilizer chain (orderly generation):
    at a branched cell, with G_i the units that fix every value branched so
    far, only values least in their G_i-orbit are tried, and G_{i+1} is
    {u in G_i : u*val = val}.  The images under G of the completions found
    are deduplicated and sorted, like a mapped group.  This is exact:

    * Which cells are branched on depends only on the skeleton, since a line
      is closed when its count of free cells reaches one, and the branched
      values B determine the array.  G maps the group onto itself.
    * The member of a G-orbit whose B is lexicographically least passes every
      test, and no other member does: if u*B is less than B, first differing
      at index i, then u fixes B's first i values, so u is in G_i and B's
      value at i was not least in its G_i-orbit.

    When G is {1} (for a = 1 always, so for every first array) the group is
    searched in full and yielded lazily, as it is found; otherwise it is
    searched to the end before its first array is yielded.  For a prime v
    only a = 1 is searched, so nothing is quotiented.

    ``budget`` bounds the searched tree: every node (a free cell branched on,
    or a completed array) counts one, and :class:`BudgetExceededError` is
    raised when the count exceeds it.  Mapped arrays, and the images under
    a stabilizer, cost no nodes.
    ``limit`` (at least 1) caps the number of arrays returned; the search
    stops once it is reached.

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
    if limit < 1:
        raise ValueError(f"limit={limit} must be >= 1")
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

    try:
        return list(itertools.islice(_search_iter(m, n, v, t, skel, budget), limit))
    except RecursionError:  # the tree recurses once per free cell it fills
        raise BudgetExceededError(
            f"search tree is deeper than the recursion limit of {sys.getrecursionlimit()}"
        ) from None


def _search_iter(
    m: int, n: int, v: int, t: int, skel: Skeleton, budget: int
) -> Iterator[PartiallyFilledArray]:
    cells = skel.positions()
    ncells = len(cells)
    # lines 0..m-1 are the rows, m..m+n-1 the columns
    lines_of = [(i - 1, m + j - 1) for (i, j) in cells]
    line_cells: list[list[int]] = [[] for _ in range(m + n)]
    for c, (r, col) in enumerate(lines_of):
        line_cells[r].append(c)
        line_cells[col].append(c)
    left = [len(cs) for cs in line_cells]
    sums = [0] * (m + n)
    vals: list[int | None] = [None] * ncells
    trail: list[int] = []  # cells in the order they were filled
    # used[x] marks both members of a used ± class; J is marked from the start
    used = bytearray(v)
    for x in subgroup_members(v, t):
        used[x] = 1
    candidates = [x for x in range(1, v) if not used[x]]
    first_candidates = [x for x in candidates if x <= v // 2]
    nodes = 0

    def count_node() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"search tree exceeds budget of {budget} nodes"
            )

    # Requiring a line left with two free cells to still have two unused
    # classes a, b with a + b = -sum prunes more nodes, but it made the k = 3
    # searches slower overall, so it is not done.
    def assign(c: int, val: int) -> bool:
        """Fill c with val and every value that closes a line; False on a dead end.

        Each filled cell goes on the trail, so ``undo`` reverses this
        whether it succeeds or not.
        """
        todo = [(c, val)]
        while todo:
            c, val = todo.pop()
            if vals[c] is not None:
                # both lines through c forced it; filling it for one line
                # checked the other's sum, so the two values agreed
                continue
            if used[val]:
                return False
            used[val] = used[v - val] = 1
            vals[c] = val
            trail.append(c)
            dead = False
            for line in lines_of[c]:
                s = sums[line] = (sums[line] + val) % v
                k = left[line] = left[line] - 1
                if k == 1:
                    for d in line_cells[line]:
                        if vals[d] is None:
                            todo.append((d, -s % v))
                            break
                elif k == 0 and s:
                    dead = True
            if dead:
                return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            c = trail.pop()
            val = vals[c]
            vals[c] = None
            used[val] = used[v - val] = 0
            for line in lines_of[c]:
                sums[line] = (sums[line] - val) % v
                left[line] += 1

    def place(idx: int, stab: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """Row-major values of the completions of the cells from idx on.

        ``stab`` holds the units u != 1 that fix every value branched on so
        far; only completions whose branched values are least in their orbit
        under those units are yielded.
        """
        count_node()
        while idx < ncells and vals[idx] is not None:
            idx += 1
        if idx == ncells:
            yield tuple(vals)
            return
        # every line through a free cell has two or more free cells here,
        # since a line left with one is closed at once by assign
        r, col = lines_of[idx]
        close_r = left[r] == 2
        close_c = left[col] == 2
        rs, cs = sums[r], sums[col]
        mark = len(trail)
        for val in candidates:
            if used[val]:
                continue
            # cheap rejections of a closing value before any state changes
            if close_r:
                x = (-rs - val) % v
                if used[x] or x == val or x == v - val:
                    continue
            if close_c:
                x = (-cs - val) % v
                if used[x] or x == val or x == v - val:
                    continue
            if stab:
                if any(u * val % v < val for u in stab):
                    continue
                if assign(idx, val):
                    yield from place(idx + 1, tuple(u for u in stab if u * val % v == val))
            elif assign(idx, val):
                yield from place(idx + 1, stab)
            undo(mark)

    def to_array(values: tuple[int, ...]) -> PartiallyFilledArray:
        grid: list[list[int | None]] = [[None] * n for _ in range(m)]
        for (i, j), val in zip(cells, values):
            grid[i - 1][j - 1] = val
        return PartiallyFilledArray(m, n, v, t, 1, tuple(map(tuple, grid)))

    def arrays() -> Iterator[PartiallyFilledArray]:
        count_node()  # the root, whose free cell is the first one
        # every line through the first cell has h or k >= 3 free cells, so
        # a first value never closes a line and never hits a used class
        searched: dict[int, list[tuple[int, ...]]] = {}
        for a in first_candidates:
            g = gcd(a, v)  # at most a, and in J only when a is
            if g == a:
                stab = tuple(u for u in range(2, v) if u * a % v == a and gcd(u, v) == 1)
                assign(0, a)
                if stab:
                    group = searched[a] = sorted({tuple(u * x % v for x in vs)
                                                  for vs in place(1, stab)
                                                  for u in (1, *stab)})
                    yield from map(to_array, group)
                else:
                    group = searched[a] = []
                    for values in place(1, stab):
                        group.append(values)
                        yield to_array(values)
                undo(0)
            else:
                u = next(u for u in range(1, v) if u * g % v == a and gcd(u, v) == 1)
                mapped = sorted(tuple(u * x % v for x in vs) for vs in searched[g])
                yield from map(to_array, mapped)

    return arrays()
