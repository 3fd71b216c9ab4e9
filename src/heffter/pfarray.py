"""Partially filled arrays over cyclic groups, skeletons, and diagonal structure.

Conventions used across the package:

* all public row/column/diagonal indices are 1-based;
* entries are residues stored in [0, v-1]; display uses the symmetric signed
  form in [-v//2, v//2] because that is how such arrays are usually printed;
* equality of entries is always mod v.

The *i*-th diagonal of an n x n array is D_i = {(i,1),(i+1,2),...,(i-1,n)}
with row indices wrapping on the residues {1,...,n}.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from math import gcd
from typing import Iterable, NamedTuple


class ArrayFormatError(ValueError):
    """Raised for malformed array files."""


class NotDiagonalError(ValueError):
    """Raised when a skeleton is not a union of full diagonals."""


def signed(x: int, v: int) -> int:
    """Symmetric representative of x mod v, in [-(v//2), v//2]."""
    x %= v
    return x if x <= v // 2 else x - v


class Skeleton(namedtuple("Skeleton", "m n filled")):
    """The set of filled positions of an array (1-based)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, m: int, n: int, filled: frozenset[tuple[int, int]]) -> "Skeleton":
        if m < 1 or n < 1:
            raise ValueError("skeleton dimensions must be positive")
        for (i, j) in filled:
            if not (1 <= i <= m and 1 <= j <= n):
                raise ValueError(f"position {(i, j)} outside {m}x{n} grid")
        return super().__new__(cls, m, n, filled)

    def positions(self) -> tuple[tuple[int, int], ...]:
        """Filled positions sorted row-major."""
        return tuple(sorted(self.filled))

    def row_columns(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(j for (r, j) in self.filled if r == i))

    def column_rows(self, j: int) -> tuple[int, ...]:
        return tuple(sorted(i for (i, c) in self.filled if c == j))

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "filled": [list(p) for p in self.positions()]}


class PartiallyFilledArray(namedtuple("PartiallyFilledArray", "m n v t fold cells")):
    """An m x n grid over Z_v with empty cells.

    ``t`` is the order of the distinguished subgroup J of Z_v (the subgroup of
    the multiples of v/t); ``fold`` is the multiplicity lambda of the signed
    support (1 for ordinary arrays).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, m: int, n: int, v: int, t: int, fold: int,
                cells: tuple[tuple[int | None, ...], ...]) -> "PartiallyFilledArray":
        if m < 1 or n < 1:
            raise ValueError("array dimensions must be positive")
        if v < 1 or t < 1 or fold < 1:
            raise ValueError("v, t and fold must be positive")
        if v % t != 0:
            raise ValueError(f"t={t} does not divide v={v}")
        if len(cells) != m or any(len(r) != n for r in cells):
            raise ValueError("cell grid does not match declared dimensions")
        for row in cells:
            for x in row:
                if x is not None and not (0 <= x < v):
                    raise ValueError(f"entry {x} outside [0, {v - 1}]")
        return super().__new__(cls, m, n, v, t, fold, cells)

    def skeleton(self) -> Skeleton:
        filled = frozenset(
            (i + 1, j + 1)
            for i, row in enumerate(self.cells)
            for j, x in enumerate(row)
            if x is not None
        )
        return Skeleton(self.m, self.n, filled)

    # -- serialization -----------------------------------------------------------

    def to_text(self) -> str:
        v, half = self.v, self.v // 2
        lines = [f"v={v} t={self.t} lambda={self.fold} m={self.m} n={self.n}"]
        # each cell in the signed form of :func:`signed`
        lines += [",".join(["" if x is None else str(x if x <= half else x - v) for x in row])
                  for row in self.cells]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "v": self.v,
            "t": self.t,
            "lambda": self.fold,
            "m": self.m,
            "n": self.n,
            "cells": [
                [None if x is None else signed(x, self.v) for x in row]
                for row in self.cells
            ],
        }


# -- parsing ---------------------------------------------------------------------

_HEADER_KEYS = {"v": "v", "t": "t", "lambda": "fold", "λ": "fold", "m": "m", "n": "n"}


def _parse_header(line: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for token in line.split():
        m = re.fullmatch(r"([^=\s]+)=(-?\d+)", token)
        if not m or m.group(1) not in _HEADER_KEYS:
            raise ArrayFormatError(f"malformed header token {token!r}")
        try:
            out[_HEADER_KEYS[m.group(1)]] = int(m.group(2))
        except ValueError:  # past the interpreter's int-from-str digit limit
            raise ArrayFormatError(f"malformed header token {token!r}") from None
    if "v" not in out or "t" not in out:
        raise ArrayFormatError("header must define v= and t=")
    return out


def parse_array(text: str) -> PartiallyFilledArray:
    """Parse the text format (header line + comma-separated rows) or its JSON mirror.

    Empty fields are empty cells; integers may be negative and are reduced mod v.
    """
    stripped = text.lstrip()
    if not stripped:
        raise ArrayFormatError("empty input")
    if stripped.startswith("{"):
        return _parse_array_json(stripped)

    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = _parse_header(lines[0])
    v, t, fold = head["v"], head["t"], head.get("fold", 1)
    _check_moduli(v, t, fold)

    rows: list[list[int | None]] = []
    for ln in lines[1:]:
        row: list[int | None] = []
        for field in ln.split(","):
            field = field.strip()
            if not field:
                row.append(None)
                continue
            try:
                row.append(int(field) % v)
            except ValueError:
                raise ArrayFormatError(f"non-integer token {field!r}") from None
        rows.append(row)

    if not rows:
        raise ArrayFormatError("no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ArrayFormatError("ragged rows")
    if "m" in head and head["m"] != len(rows):
        raise ArrayFormatError(f"header m={head['m']} but {len(rows)} rows given")
    if "n" in head and head["n"] != width:
        raise ArrayFormatError(f"header n={head['n']} but rows have {width} fields")
    return PartiallyFilledArray(len(rows), width, v, t, fold, tuple(map(tuple, rows)))


def _check_moduli(v: int, t: int, fold: int) -> None:
    if v < 1 or t < 1 or v % t != 0:
        raise ArrayFormatError(f"t={t} does not divide v={v}")
    if fold < 1:
        raise ArrayFormatError(f"lambda={fold} must be at least 1")


def _parse_array_json(text: str) -> PartiallyFilledArray:
    try:
        data = json.loads(text)
        v, t, fold = int(data["v"]), int(data["t"]), int(data.get("lambda", 1))
        _check_moduli(v, t, fold)
        shape = {key: int(data[key]) for key in ("m", "n") if key in data}
        grid = [[None if x is None else int(x) % v for x in row] for row in data["cells"]]
    except (KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise ArrayFormatError(f"invalid JSON array: {exc}") from None
    if not grid or any(len(r) != len(grid[0]) for r in grid):
        raise ArrayFormatError("ragged or empty cell grid")
    if shape.get("m", len(grid)) != len(grid):
        raise ArrayFormatError("JSON m does not match cell grid")
    if shape.get("n", len(grid[0])) != len(grid[0]):
        raise ArrayFormatError("JSON n does not match cell grid")
    return PartiallyFilledArray(
        len(grid), len(grid[0]), v, t, fold, tuple(map(tuple, grid))
    )


def parse_skeleton_json(text: str) -> Skeleton:
    """Parse a bare skeleton: {"m": .., "n": .., "filled": [[i, j], ...]}.

    Every row and column must hold a filled cell, so m and n are bounded by
    the file's size.
    """
    try:
        data = json.loads(text)
        skel = Skeleton(
            int(data["m"]),
            int(data["n"]),
            frozenset((int(i), int(j)) for i, j in data["filled"]),
        )
    except (KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise ArrayFormatError(f"invalid skeleton JSON: {exc}") from None
    if (len({i for i, _ in skel.filled}) != skel.m
            or len({j for _, j in skel.filled}) != skel.n):
        raise ArrayFormatError("invalid skeleton JSON: a row or column has no filled cell")
    return skel


# -- diagonal structure -----------------------------------------------------------


class DiagonalProfile(NamedTuple):
    """Exact diagonal structure of a square skeleton.

    ``strip_widths`` lists the widths of the maximal runs of empty diagonals in
    cyclic order of their starting index; ``strip_gcds`` holds, per strip,
    gcd(n, width+1), the modulus governing which reversed-column positions can
    reconnect the tour across that strip (width+1 is the index step between the
    filled diagonals bounding the strip).
    """

    n: int
    filled_diagonals: tuple[int, ...]
    k: int
    strip_widths: tuple[int, ...]
    cyclic: bool
    strip_gcds: tuple[int, ...]


def diagonal_cells(n: int, i: int) -> tuple[tuple[int, int], ...]:
    """Cells of the i-th diagonal of an n x n grid: (i,1),(i+1,2),...,(i-1,n)."""
    return tuple(((i - 1 + c) % n + 1, c + 1) for c in range(n))


def diagonal_skeleton(n: int, diagonals: Iterable[int]) -> Skeleton:
    """Square skeleton whose filled cells are exactly the given full diagonals."""
    filled: set[tuple[int, int]] = set()
    for d in diagonals:
        d = (d - 1) % n + 1
        filled.update(diagonal_cells(n, d))
    return Skeleton(n, n, frozenset(filled))


def cyclic_diagonal_skeleton(n: int, k: int) -> Skeleton:
    """Skeleton of a cyclically k-diagonal array: diagonals 1..k."""
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    return diagonal_skeleton(n, range(1, k + 1))


def classify_diagonality(obj: Skeleton | PartiallyFilledArray) -> DiagonalProfile:
    """Diagonal profile of a square skeleton.

    Raises :class:`NotDiagonalError` if some diagonal is only partially filled
    (the structure theory assumes unions of full diagonals) and ValueError on
    non-square input.
    """
    skel = obj.skeleton() if isinstance(obj, PartiallyFilledArray) else obj
    if skel.m != skel.n:
        raise ValueError("diagonal classification needs a square skeleton")
    n = skel.n
    # cell (i, j) lies on diagonal (i - j) mod n + 1
    hits = [0] * (n + 1)
    for (i, j) in skel.filled:
        hits[(i - j) % n + 1] += 1
    for d in range(1, n + 1):
        if 0 < hits[d] < n:
            raise NotDiagonalError(
                f"diagonal {d} is partially filled: not diagonal-structured"
            )
    filled_diags = [d for d in range(1, n + 1) if hits[d] == n]
    if not filled_diags:
        raise NotDiagonalError("empty skeleton has no diagonal structure")

    k = len(filled_diags)
    filled_set = set(filled_diags)
    widths: list[int] = []
    for d in filled_diags:
        # strip starting just after filled diagonal d
        w = 0
        j = d % n + 1
        while j not in filled_set:
            w += 1
            j = j % n + 1
        if w:
            widths.append(w)
    cyclic = len(widths) <= 1
    return DiagonalProfile(
        n=n,
        filled_diagonals=tuple(filled_diags),
        k=k,
        strip_widths=tuple(widths),
        cyclic=cyclic,
        strip_gcds=tuple(gcd(n, w + 1) for w in widths),
    )
