"""Heffter-array validation, simple orderings, and small-size search.

An m x n partially filled array over Z_v (v = 2nk/lambda + t, J the subgroup of
order t) is a lambda-fold Heffter array relative to J when

1. every row has h filled cells and every column k filled cells,
2. the signed support {±x : x in A} meets each element of Z_v \\ J exactly
   lambda times (for lambda = 1: exactly one of x, -x appears, exactly once),
3. every row and every column sums to 0 mod v.

Orderings of a line are *simple* when their partial sums are pairwise distinct
mod v; the array is *globally simple* when every natural (left-to-right /
top-to-bottom) line ordering is simple.  Direction vectors (R, C) read each
row and column forwards or backwards, and these orderings are *compatible*
when the rotation rho0 they induce is one cycle on Z_v \\ J: the walk that
:class:`embedding.CombinatorialEmbedding` counts.  rho0 alternates between
the entries and their negatives, and its square on the entries is the
column-after-row composition, so this is the paper's test that the
composition is one full cycle.

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
from heapq import heappop, heappush
from math import gcd
from operator import itemgetter
from typing import Callable, Collection, Iterator, NamedTuple, Sequence

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


def _natural_lines(array: PartiallyFilledArray) -> tuple[list, list]:
    """The rows left to right and the columns top to bottom, one pass each."""
    return ([[x for x in row if x is not None] for row in array.cells],
            [[x for x in col if x is not None] for col in zip(*array.cells)])


def _check_directions(vec: Sequence[int], length: int, what: str) -> None:
    # 1.0 and True compare equal to 1, but only an int ±1 is a direction
    if len(vec) != length or any(type(d) is not int or d not in (1, -1) for d in vec):
        raise ValueError(f"{what} direction vector must be ±1 of length {length}")


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
    return _validate_lines(array, *_natural_lines(array))


def _validate_lines(array: PartiallyFilledArray, rows: Sequence[Sequence[int]],
                    cols: Sequence[Sequence[int]]) -> ValidationReport:
    """:func:`validate_heffter` on the array's natural lines, for callers
    that read them anyway."""
    v, t, lam = array.v, array.t, array.fold

    row_w, col_w = set(map(len, rows)), set(map(len, cols))
    if len(row_w) != 1 or len(col_w) != 1:
        return ValidationReport(
            v, t, lam, None, None, False, None, None, None
        )
    (h,), (k,) = row_w, col_w

    if lam * (v - t) != 2 * array.n * k:
        raise ArrayFormatError(
            f"v={v} inconsistent with 2nk/lambda + t = "
            f"{2 * array.n * k // lam + t} (n={array.n}, k={k}, lambda={lam})"
        )

    step = v // t
    count = [0] * v
    for row in rows:
        for x in row:
            count[x] += 1
    # the signed support hits x count[x] + count[-x] times
    support_errors = [f"element {x} of the subgroup J appears"
                      for x in range(0, v, step) if count[x] or count[-x]]
    if lam == 1:
        for x in range(1, v // 2 + 1):  # one x per class ±x
            if x % step and (hits := count[x] + count[v - x]) != 1:
                support_errors.append(f"class ±{x}: appears {hits} times, expected 1")
    else:
        for x in range(1, v):
            if x % step and (hits := count[x] + count[v - x]) != lam:
                support_errors.append(
                    f"element {x}: signed support hits it {hits} times, expected {lam}"
                )

    bad_rows = tuple(i for i, row in enumerate(rows, 1) if sum(row) % v)
    bad_cols = tuple(j for j, col in enumerate(cols, 1) if sum(col) % v)

    return ValidationReport(
        v, t, lam, h, k, True, not support_errors, not bad_rows, not bad_cols,
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

    Cell 0 is the first filled cell.  The tree below first cell 1 is always
    searched (up to moves, below), giving the group A1 of arrays with 1 at
    cell 0; every array with another first cell is an image of A1, or of a
    tree below a first cell a > 1 that divides v, under these symmetries of
    the Heffter arrays on the skeleton:

    * A unit u of Z_v, by x -> u*x: it fixes J (the only subgroup of order
      t), permutes the ± classes of Z_v \\ J and keeps every line sum 0.  A
      cell holds a unit exactly when it does after x -> u*x.
    * A line automorphism g, a row and a column permutation that send the
      filled cells onto themselves, by B = A.g (B holds at cell Y what A
      holds at g(Y)): each row and column of B is one of A.

    Let O be cell 0's orbit under the line automorphisms, with a map g_X for
    each X in O that sends X to cell 0 (:func:`_line_transversal`; g_0 is
    the identity).  For A in A1 and X in O, A.g_X holds 1 at X; it is kept
    when X is the least cell of O at which it holds a unit, and then its
    multiples u*(A.g_X) are made, one for each pair ±u of units, signed so
    that the first cell lies in [1, v/2].

    * Every array C (first cell in [1, v/2]) holding a unit on O is made
      exactly once.  Let X be the least cell of O at which C holds a unit w.
      Then A = w^-1 * C.g_X^-1 holds 1 at cell 0, so it is in A1, and
      C = w * A.g_X is made from (A, X, ±w).  Any (A', X', ±u) that makes C
      has X' = X, the least cell of O holding a unit in C, and u = ±w,
      since A'.g_X holds 1 at X; so A' = A.
    * The other arrays hold non-units from distinct ± classes at every cell
      of O.  There are none when |O| exceeds the number of non-unit ± classes
      of Z_v \\ J, and the trees below a > 1 are then skipped; otherwise they
      are searched, and what they find holding a unit on O is dropped, since
      it was made above.  A non-unit first cell b has d = gcd(b, v) > 1
      dividing v, so such an array is u times one with first cell d, for
      the unit u with u*d = b: exactly as below.
    * Neither bullet needs O to be a whole orbit: any set of cells that holds
      cell 0, each with a map to cell 0, splits the arrays the same way.

    The arrays are grouped by first cell.  An image with first cell c goes
    to the group of a = gcd(c, v), times each unit u with u*c = a (one of
    each pair ±u); the group of a first cell b that does not divide v is u
    times the group of gcd(b, v), for a unit u with u*gcd(b, v) = b, since
    u*d runs over {b : gcd(b, v) = gcd(d, v)} as u runs over the units.
    x -> u*x does not keep the order of the row-major entries, so each group
    is sorted before it is yielded, and the arrays and their order are those
    of a full search.  When Z_v \\ J has no non-unit (a prime v, say) every
    array holds a unit at cell 0, so the images use O = {cell 0} alone, and
    each group is A1 times a unit.

    Every tree that is searched is searched only up to moves, and the rest of
    it is rebuilt (orderly generation).  Let a be the tree's first cell.  A
    move sends A in the tree to u * A.g, for g a map g_X of the transversal
    (X != 0) or the inverse of one and u the least unit with u*A[g[0]] = a
    (it applies when there is one), or for g the identity and u != 1 a unit
    that fixes a.  Below first cell 1, u is w^-1 for the unit w at g[0], and
    the identity has no move; below a > 1, a map applies only where g[0]
    holds a non-unit.  Any other unit u' with u'*A[g[0]] = a is s*u for a
    unit s fixing a, so u' * A.g is two moves away.  "Smaller" is in the
    order of the row-major entries, the order in which the tree completes
    arrays.

    * The image is in the tree: it holds a at cell 0, and both symmetries
      keep the Heffter arrays on the skeleton.
    * Moves can be undone.  The identity's u is undone by u^-1.  For a map
      g, B = u * A.g holds u*a at g^-1[0], so g^-1 applies to B with some u'
      and sends it to s * A, s = u'*u fixing a: that is A, or the identity's
      s^-1 sends it to A.  So the arrays that moves connect fall into
      components, and the moves from any member reach all of its component.
    * Each node carries the moves still undecided, with the index up to which
      A and its image agree (cell Y of the image is u times cell g[Y] of A,
      and u is known once g[0] is filled).  After each placement the
      comparison resumes over the cells filled on both sides.  Those cells
      keep their values in every completion of the node, so an image that is
      smaller there is smaller in every completion, and the branch is cut; an
      image larger there is larger in every completion, and the move is
      dropped for the subtree, as is a map whose g[0] holds a w with no unit
      u*w = a.  So the tree completes exactly the arrays that no move
      makes smaller (A1's first array, completed before the moves are known,
      is the least of A1).
    * Every array of the tree descends by moves, each image smaller, to one
      that no move makes smaller, which is completed; so every component has
      a completed member.  Its least member is made smaller by no move (the
      image would be in the component), so it is the first member the tree
      completes.  That completion is yielded, and its component is walked by
      moves: the other members go to a set of those seen and to a heap.  A
      completion already seen is skipped, so each array is yielded once.
    * A member of the heap is yielded at the first node whose filled row-major
      prefix is above its own, or at the first completion not below it, or
      when the tree ends.  Every later completion is above it, and so is
      every later member of the heap, which comes from a component whose
      least member is completed later.  So the tree's arrays are yielded in
      ascending order, as the whole tree yields them.

    A1 is yielded lazily, as it is found, and its images are made once it is
    complete.  The automorphisms are searched once the first array has been
    taken, so ``limit = 1`` never searches for them.  A tree below a > 1 is
    searched when its group comes, to its end before the group's first array
    is yielded.

    ``budget`` bounds the work: every node of a searched tree (a free cell
    branched on, or a completed array) and of the automorphism search counts
    one, and :class:`BudgetExceededError` is raised when the count exceeds
    it.  Images under units and line automorphisms cost no nodes, nor do the
    arrays rebuilt by moves, and a cut branch is not entered.  So the
    first L arrays take at most the nodes that the uncut tree below first
    cell 1 takes to reach its L-th completion, plus the automorphism search
    for L >= 2.  Each node also compares the moves, so a small ``limit``
    inside A1 can take longer than the uncut tree needs for it.
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


def _line_transversal(
    skel: Skeleton, count_node: Callable[[], None]
) -> list[tuple[int, tuple[int, ...]]]:
    """Cell 0's orbit under the skeleton's line automorphisms, with a map per cell.

    A line automorphism is a pair of a row and a column permutation sending
    the filled cells onto themselves; on cells it is a permutation g of the
    indices of ``skel.positions()``.  The result lists (x, g), one for each
    cell x of the orbit of cell 0 in ascending order, with g[x] = 0, starting
    with (0, identity).

    Cells are tried in ascending order.  A cell x not reached yet from the
    maps found so far gets a depth-first search over row images: x's row
    first, sent to cell 0's row, then the other rows in ascending order, each
    sent to a free row, least first, such that the columns' incidence
    signatures (the set of rows placed so far that meet a column, x's column
    marked on one side and cell 0's on the other) agree as multisets.  The column
    permutation then pairs the columns by signature.  Each map is checked to
    send the filled cells onto themselves before it is used, and every
    search node calls ``count_node``.  A found map joins the generators,
    whose preimages of the cells known to reach cell 0 close the orbit.
    """
    cells = skel.positions()
    ncells = len(cells)
    index = {p: c for c, p in enumerate(cells)}
    filled, m, n = skel.filled, skel.m, skel.n
    rows, cols = range(1, m + 1), range(1, n + 1)
    row0, col0 = cells[0]
    mark = 1 << m  # the bit of the marked column; bit d is the row placed d-th

    def search(x: int) -> tuple[int, ...] | None:
        row, col = cells[x]
        order = [row, *(r for r in rows if r != row)]
        full = [sum(1 << d for d, r in enumerate(order) if (r, c) in filled) | (c == col) * mark
                for c in cols]
        wanted = [sorted(f & ((1 << d) - 1 | mark) for f in full) for d in range(m + 1)]
        image: list[int] = []

        def extend(sigs: list[int]) -> list[int] | None:
            count_node()
            d = len(image)
            if d == m:
                return sigs
            for r in (row0,) if d == 0 else rows:
                if r not in image:
                    new = [s | ((r, c) in filled) << d for c, s in zip(cols, sigs)]
                    if sorted(new) == wanted[d + 1]:
                        image.append(r)
                        found = extend(new)
                        if found is not None:
                            return found
                        image.pop()
            return None

        sigs = extend([(c == col0) * mark for c in cols])
        if sigs is None:
            return None
        sigma = dict(zip(order, image))
        tau = dict(zip(sorted(cols, key=lambda c: full[c - 1]),
                       sorted(cols, key=lambda c: sigs[c - 1])))
        # sigma and tau are one to one, so g is when every image is filled
        g = tuple(index.get((sigma[r], tau[c]), -1) for r, c in cells)
        return None if -1 in g else g

    maps: dict[int, tuple[int, ...]] = {0: tuple(range(ncells))}
    gens: list[tuple[tuple[int, ...], list[int]]] = []
    for x in range(1, ncells):
        g = None if x in maps else search(x)
        if g is None:
            continue
        gens.append((g, sorted(range(ncells), key=g.__getitem__)))  # g and its inverse
        todo = list(maps)
        while todo:  # y = h^-1(z) goes to 0 by maps[z] after h
            z = todo.pop()
            for h, h_inv in gens:
                y = h_inv[z]
                if y not in maps:
                    maps[y] = tuple(maps[z][d] for d in h)
                    todo.append(y)
    return sorted(maps.items())


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
    nonunit = bytearray(gcd(x, v) > 1 for x in range(v))
    units = [u for u in range(1, v) if not nonunit[u]]
    identity = tuple(range(ncells))
    nodes = 0
    # the line transversal, and the moves' maps other than the identity: its
    # maps and their inverses; found once A1's first array has been taken
    orbit: list[tuple[int, tuple[int, ...]]] | None = None
    maps: tuple[tuple[int, ...], ...] = ()

    def count_node() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"search tree exceeds budget of {budget} nodes"
            )

    def find_orbit() -> None:
        nonlocal orbit, maps
        orbit = _line_transversal(skel, count_node)
        found = {g for _, g in orbit[1:]}
        found |= {tuple(sorted(range(ncells), key=g.__getitem__)) for g in found}
        maps = tuple(sorted(found))

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

    def tree(a: int) -> Iterator[tuple[int, ...]]:
        """Row-major values of the arrays with a at cell 0, in ascending order."""
        to_a = [0] * v  # to_a[w]: the least unit u with u*w = a, or 0
        for u in reversed(units):
            to_a[pow(u, -1, v) * a % v] = u
        seen: set[tuple[int, ...]] = set()  # the arrays made or yielded
        heap: list[tuple[int, ...]] = []  # the made ones not yet yielded
        # each move's start state (g, index compared up to, u or 0 while g[0]
        # is empty), and its getter; None in A1 until the moves are found
        start: tuple | None = None
        movers: list[tuple[int, itemgetter, int]] = []

        def learn_moves() -> None:
            nonlocal start, movers
            fixing = [u for u in units[1:] if u * a % v == a]  # the identity's moves
            start = (*((g, 1, 0) for g in maps), *((identity, 1, u) for u in fixing))
            movers = [(g[0], itemgetter(*g), u) for g, _, u in start]

        def compare(undecided: tuple) -> tuple | None:
            """The moves still undecided on the filled cells, or None if one makes A smaller."""
            kept = []
            for move in undecided:
                g, pos, u = move
                if not u:
                    w = vals[g[0]]
                    if w is None:
                        kept.append(move)
                        continue
                    u = to_a[w]
                    if not u:
                        continue
                while pos < ncells:
                    x, y = vals[pos], vals[g[pos]]
                    if x is None or y is None:
                        kept.append((g, pos, u))
                        break
                    y = u * y % v
                    if y != x:
                        if y < x:
                            return None
                        break
                    pos += 1
            return tuple(kept)

        def rebuild(values: tuple[int, ...]) -> None:
            """Put the arrays that moves reach from values in seen and the heap."""
            if start is None:  # values is A1's first array, and it has been taken
                find_orbit()
                learn_moves()
            seen.add(values)
            todo = [values]
            while todo:
                x = todo.pop()
                for g0, get, u in movers:
                    u = u or to_a[x[g0]]
                    if u:
                        image = tuple([u * y % v for y in get(x)])
                        if image not in seen:
                            seen.add(image)
                            heappush(heap, image)
                            todo.append(image)

        def place(idx: int, undecided: tuple | None) -> Iterator[tuple[int, ...]]:
            """Row-major values of the completions of the cells from idx on.

            ``undecided`` holds the moves whose image is not yet known to be
            larger (None before the moves are found), and the arrays made by
            moves are yielded in order among the completions.
            """
            count_node()
            while idx < ncells and vals[idx] is not None:
                idx += 1
            if idx == ncells:
                values = tuple(vals)
                while heap and heap[0] <= values:
                    yield heappop(heap)
                if values not in seen:
                    yield values
                    rebuild(values)
                return
            if heap:  # every completion from here on is above this prefix
                prefix = tuple(vals[:idx])
                while heap and heap[0] < prefix:
                    yield heappop(heap)
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
                if assign(idx, val):
                    pending = start if undecided is None else undecided
                    if not pending:
                        yield from place(idx + 1, pending)
                    else:
                        child = compare(pending)
                        if child is not None:
                            yield from place(idx + 1, child)
                undo(mark)

        if orbit is not None:
            learn_moves()
        count_node()  # the root, whose free cell is the first one
        # every line through the first cell has h or k >= 3 free cells, so
        # a first value never closes a line and never hits a used class
        assign(0, a)
        yield from place(1, start)
        undo(0)
        yield from sorted(heap)  # the arrays made above the last completion

    # row i picks its cells' values from the values with None appended (at
    # index ncells) for its empty cells; n >= 3, so each picks a tuple
    index = {p: c for c, p in enumerate(cells)}
    row_getters = [itemgetter(*(index.get((i, j), ncells) for j in range(1, n + 1)))
                   for i in range(1, m + 1)]

    def to_array(values: tuple[int, ...]) -> PartiallyFilledArray:
        padded = (*values, None)
        # tuple.__new__ skips the constructor's checks, which hold here: the
        # getters give m rows of n cells, each value is a candidate in [1, v)
        # or a unit times one mod v, and search_heffter has checked t | v
        return tuple.__new__(PartiallyFilledArray,
                             (m, n, v, t, 1, tuple([row(padded) for row in row_getters])))

    def arrays() -> Iterator[PartiallyFilledArray]:
        nonlocal orbit
        first = []
        for values in tree(1):
            first.append(values)
            yield to_array(values)
        # the images A.g_x kept, by the gcd of their first cell with v
        images: dict[int, list[tuple[int, ...]]] = {
            a: [] for a in first_candidates if a > 1 and v % a == 0}
        # with no non-unit outside J, every array holds a unit at cell 0
        if not images:
            orbit = [(0, identity)]
        elif orbit is None:
            find_orbit()
        for x, g in orbit[1:]:
            before = [g[y] for y, _ in orbit if y < x]  # cell 0's first
            for values in first:
                if all(nonunit[values[d]] for d in before):
                    image = tuple(values[d] for d in g)
                    images[gcd(image[0], v)].append(image)
        orbit_cells = [x for x, _ in orbit]
        # with more orbit cells than non-unit classes, every array holds a
        # unit on the orbit, so no tree below a > 1 has anything to add
        trees = len(orbit) <= sum(nonunit[a] for a in first_candidates)
        groups = {1: first}
        for a in first_candidates[1:]:
            g = gcd(a, v)  # at most a, and in J only when a is
            if g != a:
                u = next(u for u in units if u * g % v == a)
                times_u = [u * x % v for x in range(v)].__getitem__
                group = [tuple(map(times_u, values)) for values in groups[g]]
            else:
                group = groups[a] = [tuple(u * y % v for y in image) for image in images[a]
                                     for u in units if u * image[0] % v == a]
                if trees:  # the arrays holding a unit on the orbit are made above
                    group.extend(values for values in tree(a)
                                 if all(nonunit[values[y]] for y in orbit_cells))
            yield from map(to_array, sorted(group))

    return arrays()
