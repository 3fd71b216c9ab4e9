"""Hot integer loops: tour stepping and orientation scans.

The loops are plain Python over tuples of ints and serial, so output order
never depends on scheduling.  The kernels take a :class:`Skeleton` and its
1-based cells.  The tour takes an orientation pair as its two ±1 direction
vectors, rows then columns, the form the whole library uses; the scan finds
the pairs as bit masks and returns them so, and :func:`_vectors` turns masks
into vectors.  Both step through one cached table of each filled cell's
neighbours along its row and its column.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .pfarray import Skeleton
from .validation import BudgetExceededError


@lru_cache(maxsize=128)
def _neighbours(skel: Skeleton) -> tuple[tuple, ...]:
    """The filled cells in row-major order, then four tables over their
    places x in it: the place of the next filled cell after cell x along its
    row (to the right), the previous one, the next along its column
    (downwards), and the previous one.  Lines wrap cyclically, and a line
    with one cell wraps to itself."""
    cells = skel.positions()
    if not cells:
        raise ValueError("empty skeleton")
    row_next, row_prev, col_next, col_prev = ([0] * len(cells) for _ in range(4))
    by_row: dict[int, list[int]] = {}
    by_col: dict[int, list[int]] = {}
    for x, (i, j) in enumerate(cells):
        by_row.setdefault(i, []).append(x)
        by_col.setdefault(j, []).append(x)
    for lines, nxt, prev in ((by_row, row_next, row_prev), (by_col, col_next, col_prev)):
        for line in lines.values():
            for a, x in enumerate(line):
                nxt[x] = line[(a + 1) % len(line)]
                prev[x] = line[a - 1]
    return cells, tuple(row_next), tuple(row_prev), tuple(col_next), tuple(col_prev)


def tour_orbit(
    skel: Skeleton, rows_dir: Sequence[int], cols_dir: Sequence[int], start: tuple[int, int]
) -> list[tuple[int, int]]:
    """The cells of the successor orbit from the filled cell ``start``, in visiting order.

    ``rows_dir[i - 1]`` is +1 when row i scans left-to-right and -1 when it
    scans right-to-left; ``cols_dir[j - 1]`` is +1 top-to-bottom and -1
    bottom-to-top.
    """
    cells, row_next, row_prev, col_next, col_prev = _neighbours(skel)
    orbit = []
    first = cur = cells.index(start)
    while True:
        cell = cells[cur]
        orbit.append(cell)
        mid = row_prev[cur] if rows_dir[cell[0] - 1] < 0 else row_next[cur]
        cur = col_prev[mid] if cols_dir[cells[mid][1] - 1] < 0 else col_next[mid]
        if cur == first:
            return orbit


def scan_orientations(skel: Skeleton, trivial_rows: bool, budget: int) -> list[tuple[int, int]]:
    """The direction-vector pairs (R, C) whose tour covers every cell, as
    (R-mask, C-mask) int pairs in ascending order.

    A mask has bit 1 for -1 and its first entry as the most significant bit,
    so the order is the lexicographic one over (R, C) with +1 before -1; with
    ``trivial_rows`` R is all +1, mask 0.

    When the skeleton is square and its filled cells are closed under the
    shift (i, j) -> (i+1, j+1) mod n (a union of full diagonals), the shift
    maps each row and each column onto the next one, keeping the cyclic order
    of the filled cells in every line.  So it conjugates the successor map of
    (R, C) to that of the pair with both vectors rotated one place, and
    (-R, -C) gives the inverse successor map up to conjugation: both keep the
    orbit lengths, so they map solutions to solutions.  Let G be the n
    shifts, times negation unless ``trivial_rows`` (negation would move the
    trivial R).  Each pair (R, C) has an image (r, c) with r least in its
    G-orbit and c least in its orbit under the stabilizer of r: move R to r
    by some g, then c' = g(C) to c by an h fixing r.  Only those pairs are
    traced, and each covering one is mapped through all of G, so every
    solution is listed and nothing else; the set is sorted at the end.  Any
    other skeleton is scanned pair by pair, by the same loop with G trivial.

    Budget: the plain scan is refused when it has more than ``budget``
    pairs.  The symmetric one is refused when its sieve of 2^n vectors is
    larger than ``budget``, before anything of that size is allocated, and
    raises once it has traced more than ``budget`` pairs.  Both raise
    :class:`BudgetExceededError`.
    """
    cells, row_next, row_prev, col_next, col_prev = _neighbours(skel)
    m, n, filled = skel
    ncells = len(cells)
    symmetric = m == n and all((i % n + 1, j % n + 1) in filled for i, j in filled)
    if symmetric:
        if 1 << n > budget:
            raise BudgetExceededError(
                f"symmetric scan sieve of {1 << n} vectors exceeds budget {budget}"
            )
        shifts = n
        negations = (0,) if trivial_rows else (0, (1 << n) - 1)
    else:
        total = 1 << (n if trivial_rows else m + n)
        if total > budget:
            raise BudgetExceededError(
                f"scan of {total} orientation pairs exceeds budget {budget}"
            )
        shifts, negations = 1, (0,)
    group = [(s, e) for e in negations for s in range(shifts)]
    full = (1 << n) - 1

    def rotations(x: int) -> list[int]:
        """x rotated toward its end by 0, 1, ... places, one per shift."""
        if shifts == 1:  # the rows of a plain scan have m bits, not n
            return [x]
        doubled = x | x << n
        return [doubled >> s & full for s in range(shifts)]

    found: set[tuple[int, int]] = set()
    traced = 0
    row_seen = bytearray(1 if trivial_rows else 1 << m)
    for r in range(len(row_seen)):
        if row_seen[r]:
            continue
        rr = rotations(r)
        for s, e in group:
            row_seen[rr[s] ^ e] = 1
        stab = [(s, e) for s, e in group if rr[s] ^ e == r]
        col_seen = bytearray(1 << n) if len(stab) > 1 else None
        # the successor of cell x is fwd[x] or back[x] as bit[x] of the
        # column mask (the column its row move under r lands in) is 0 or 1
        mids = [row_prev[x] if r >> (m - i) & 1 else row_next[x]
                for x, (i, _) in enumerate(cells)]
        fwd = [col_next[x] for x in mids]
        back = [col_prev[x] for x in mids]
        bit = [1 << (n - cells[x][1]) for x in mids]
        for c in range(1 << n):
            if col_seen is not None:
                if col_seen[c]:
                    continue
                cr = rotations(c)
                for s, e in stab:
                    col_seen[cr[s] ^ e] = 1
            traced += 1
            if traced > budget:
                raise BudgetExceededError(
                    f"scan traced more orientation pairs than its budget {budget}"
                )
            cur, length = 0, 1
            while True:
                cur = back[cur] if c & bit[cur] else fwd[cur]
                if cur == 0:
                    break
                length += 1
            if length == ncells:
                # the sieve step has rotated c already
                cr = rotations(c) if col_seen is None else cr
                found.update((rr[s] ^ e, cr[s] ^ e) for s, e in group)
    return sorted(found)


def _vectors(masks: Iterable[int], length: int) -> list[tuple[int, ...]]:
    """The vectors of ``masks`` (see :func:`_vector`), each the concatenation
    of its top and bottom halves, taken from the tables of :func:`_halves`
    made once per call."""
    tops, bottoms = _halves(length)
    low = length // 2
    cut = (1 << low) - 1
    return [tops[x >> low] + bottoms[x & cut] for x in masks]


def _halves(length: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The vectors of every top-half mask and of every bottom-half mask of a
    ``length``-bit mask, whose bottom half is its low length // 2 bits."""
    low = length // 2
    return ([_vector(x, length - low) for x in range(1 << (length - low))],
            [_vector(x, low) for x in range(1 << low)])


def _vector(mask: int, length: int) -> tuple[int, ...]:
    """The ±1 vector of a mask: bit 1 is -1, the first entry the top bit."""
    return tuple(map({"0": 1, "1": -1}.__getitem__, bin(mask | 1 << length)[3:]))
