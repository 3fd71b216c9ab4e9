"""Rotation-system embeddings built from validated arrays and tour solutions.

The construction: the entries of a validated array A over Z_v, together with
their negatives, form the connection set of the Cayley graph Cay[Z_v : ±E(A)],
which is the complete multipartite graph K_{(v/t) x t}.  A pair of compatible
row/column orderings induces the permutation

    rho0(a) = -omega_r(a)   for entries a,
    rho0(a) = omega_c(-a)   for negated entries,

a single cycle on the whole connection set, and the rotation
rho((x, x+a)) = (x, x+rho0(a)) then defines a combinatorial embedding into an
orientable surface.

Faces are the orbits of next((x, y)) = (y, y + rho0(x - y)).  Orbits whose
boundary differences are negated entries close after h steps (they follow the
row orderings, and rows sum to zero); orbits through entries close after k
steps along the column orderings.  This is the 2-coloring: we call the former
row faces and the latter column faces.  The report checks that every face
stays in one class and has its row or column length; that each edge then
borders one face of each color follows from the entry class holding one of
each ± pair.

Translations act regularly on the oriented edges and commute with next, so the
difference of an edge evolves on its own, d -> rho0(-d), on the connection
set.  A difference cycle of length L and sum S lifts to gcd(S, v) faces of
length L * ord(S), the translates of one walk from 0 (the face lifting of
current graphs, Gross & Tucker, Topological Graph Theory, ch. 4).  The face
statistics therefore cost O(C), not O(v * C).
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, chain
from operator import getitem
from typing import Iterable, Iterator, NamedTuple, Sequence

from .pfarray import PartiallyFilledArray
from .validation import _check_directions, _natural_lines, _validate_lines


class EmbeddingSource(NamedTuple):
    """Provenance of an embedding: the array and orientation pair it came from."""

    m: int
    n: int
    h: int
    k: int
    array_key: str
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "m": self.m, "n": self.n, "h": self.h, "k": self.k,
            "array_key": self.array_key,
            "R": list(self.rows), "C": list(self.cols),
        }


@lru_cache(maxsize=16)
def connection_set(v: int, t: int) -> tuple[int, ...]:
    """Z_v \\ J in ascending order, one shared tuple per (v, t)."""
    step = v // t
    return tuple(d for d in range(v) if d % step)


@lru_cache(maxsize=16)
def _check_entry_class(v: int, t: int, entry_class: frozenset[int]) -> None:
    """Raise ValueError unless ``entry_class`` holds one of each ± pair of Z_v \\ J.

    Cached, so the class that every embedding of an array shares is checked
    once; a call that raises leaves nothing in the cache.
    """
    step = v // t
    # inside Z_v \ J, no x with -x and half its size: one of each ± pair
    paired = False
    for x in entry_class:
        if not (0 <= x < v and x % step):
            raise ValueError("entry class must lie inside the connection set")
        paired = paired or (-x) % v in entry_class
    if paired or 2 * len(entry_class) != v - t:
        raise ValueError("entry class must contain one of each ± pair")


class CombinatorialEmbedding(
        namedtuple("CombinatorialEmbedding", "v t rho0 entry_class source")):
    """Vertex set Z_v, connection set Z_v \\ J, and the rotation table rho0.

    ``rho0[d]`` is the image of the difference d under the rotation, which
    acts at every vertex x as x + d -> x + rho0[d]; it is -1 for d in J.
    Equal tables mean equal embeddings.  ``entry_class`` is the half of the
    connection set that appears as array entries; it fixes which faces are
    called column faces.  The connection set is fixed by (v, t).  Immutable
    and shareable.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, v: int, t: int, rho0: tuple[int, ...], entry_class: frozenset[int],
                source: EmbeddingSource | None = None) -> "CombinatorialEmbedding":
        if not (0 < t < v and v % t == 0):
            raise ValueError("t must be a proper divisor of v")
        step = v // t
        if len(rho0) != v or any(rho0[j] != -1 for j in range(0, v, step)):
            raise ValueError("rho0 must be a table of length v with -1 on J")
        # a counted walk from 1 (not in J): x_0 = 1, x_1 = rho0[1], ...  If
        # x_i = x_j with i < j < v - t, the walk repeats with period j - i
        # from x_i on, so x_{v-t-(j-i)} = x_{v-t} = 1 at a step in (0, v - t);
        # a walk that first returns to 1 at step v - t has therefore met v - t
        # distinct differences, each outside J (rho0 is -1 there, and each
        # image is checked to lie in Z_v), which are all of Z_v \ J
        d, steps = rho0[1], 1
        while 0 <= d < v and d != 1 and steps < v - t:
            d = rho0[d]
            steps += 1
        if d != 1 or steps != v - t:
            raise ValueError(
                "rho0 must be a single cycle on the connection set "
                "(orderings not compatible: (R, C) is not a tour solution)"
            )
        entry_class = frozenset(entry_class)
        _check_entry_class(v, t, entry_class)
        return super().__new__(cls, v, t, rho0, entry_class, source)

    @property
    def connection(self) -> tuple[int, ...]:
        """Z_v \\ J in ascending order, the order faces and maps index it in."""
        return connection_set(self.v, self.t)

    def degree(self) -> int:
        return self.v - self.t

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "v": self.v,
            "t": self.t,
            "connection": list(self.connection),
            "rho0": [[a, self.rho0[a]] for a in self.connection],
            "entry_class": sorted(self.entry_class),
            "source": None if self.source is None else self.source.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CombinatorialEmbedding":
        src = data.get("source")
        source = None
        if src is not None:
            source = EmbeddingSource(
                src["m"], src["n"], src["h"], src["k"], src["array_key"],
                tuple(src["R"]), tuple(src["C"]),
            )
        v = int(data["v"])
        pairs = [(int(a), int(b)) for a, b in data["rho0"]]
        # the v - t >= v/2 connection differences each need a pair, which
        # bounds the table by the file's size before it is allocated
        if v > 2 * len(pairs):
            raise ValueError("rho0 must give an image for every connection difference")
        rho0 = [-1] * v
        for a, b in pairs:
            # a negative index would wrap around instead of failing
            if not (0 <= a < v and 0 <= b < v):
                raise ValueError(f"rho0 pair ({a}, {b}) is not in Z_{v}")
            if rho0[a] != -1:
                raise ValueError(f"rho0 lists the difference {a} twice")
            rho0[a] = b
        t = int(data["t"])
        connection = sorted(int(x) for x in data["connection"])
        entry_class = frozenset(int(x) for x in data["entry_class"])
        # the list may come in any order; a bad t is the constructor's to report
        if 0 < t < v and v % t == 0 and connection != list(connection_set(v, t)):
            raise ValueError("connection set must be the complement of the subgroup J")
        return cls(v, t, tuple(rho0), entry_class, source)

    @classmethod
    def from_json(cls, text: str) -> "CombinatorialEmbedding":
        return cls.from_json_dict(json.loads(text))


def array_key(array: PartiallyFilledArray) -> str:
    import hashlib  # here, so that commands which never hash do not load it

    return hashlib.sha256(array.to_text().encode()).hexdigest()[:16]


def build_embeddings(
    array: PartiallyFilledArray,
    pairs: Iterable[tuple[Sequence[int], Sequence[int]]],
) -> list[CombinatorialEmbedding]:
    """Embeddings from a validated array and tour solutions (R, C), in order.

    The array is read into its lines, validated from them, checked for fold
    1 and hashed once for all pairs, and each pair is checked as it is
    embedded, so ``pairs`` may be a one-shot iterator.  Validation with fold
    1 leaves each ± class of Z_v \\ J exactly one entry, so the entries are
    distinct residues and hold no ± pair.
    Raises ValueError when the array fails validation, is a lambda-fold array
    with fold > 1 (those are validated but never embedded), or when some pair
    is not ±1 of the array's shape or induces orderings that are not
    compatible, i.e. (R, C) does not solve the tour problem of the skeleton.
    """
    rows, cols = _natural_lines(array)
    report = _validate_lines(array, rows, cols)
    if not report.passed:
        raise ValueError("array fails validation; cannot embed")
    if array.fold != 1:
        raise ValueError("fold > 1 arrays are not embedded")
    key = array_key(array)
    v = array.v
    entry_class = frozenset(chain.from_iterable(rows))
    # rho0 in line order: the rows give it on the entries (the negated
    # successor, which is the successor on the negated row), the columns on
    # their negatives; ``at[x]`` is where x is in that order, and J reads the
    # -1 put after the last line
    order = [*chain.from_iterable(rows), *((-a) % v for col in cols for a in col)]
    at = [len(order)] * v
    for i, x in enumerate(order):
        at[x] = i
    row_parts = _line_parts([[(-b) % v for b in row] for row in rows])
    col_parts = _line_parts(cols)
    out = []
    for rows_dir, cols_dir in pairs:
        rows_dir, cols_dir = tuple(rows_dir), tuple(cols_dir)
        _check_directions(rows_dir, array.m, "row")
        _check_directions(cols_dir, array.n, "column")
        values = [*chain.from_iterable(map(getitem, row_parts, rows_dir)),
                  *chain.from_iterable(map(getitem, col_parts, cols_dir)), -1]
        source = EmbeddingSource(array.m, array.n, report.h, report.k, key, rows_dir, cols_dir)
        out.append(CombinatorialEmbedding(
            v, array.t, tuple(map(values.__getitem__, at)), entry_class, source))
    return out


def _line_parts(lines: Sequence[Sequence[int]]) -> list[list]:
    """Per line, the successor of each of its values, in line order, when it
    is read forwards (``part[1]``) and backwards (``part[-1]``)."""
    return [[None, [*line[1:], *line[:1]], [*line[-1:], *line[:-1]]] for line in lines]


def build_embedding(
    array: PartiallyFilledArray,
    rows_dir: Sequence[int],
    cols_dir: Sequence[int],
) -> CombinatorialEmbedding:
    """Embedding from a validated array and a tour solution (R, C).

    The one-pair case of :func:`build_embeddings`, with its errors.
    """
    return build_embeddings(array, [(rows_dir, cols_dir)])[0]


# -- face tracing -------------------------------------------------------------------


ROW = "row"
COLUMN = "column"


def _difference_cycles(emb: CombinatorialEmbedding) -> Iterator[list[int]]:
    """The cycles of d -> rho0(-d), each as its list of differences, started
    at its first element in connection order.

    A cycle of length L and sum S returns to (x + S, d0) from (x, d0), so its
    face closes after ord(S) = v / gcd(S, v) laps and the cycle's v * L
    oriented edges form gcd(S, v) faces.  The map is a permutation of
    Z_v \\ J (negation, then rho0), so it keeps each cycle inside one sign
    class exactly when it maps the entry class into itself, which is checked
    first (else AssertionError); a cycle's color is that of any element.
    """
    v = emb.v
    rho = emb.rho0
    entry_class = emb.entry_class
    if not entry_class.issuperset([rho[v - d] for d in entry_class]):
        raise AssertionError("face boundary mixes entry and negated-entry differences")
    seen = bytearray(v)
    for d0 in emb.connection:
        if seen[d0]:
            continue
        diffs = []
        d = d0
        while not seen[d]:
            seen[d] = 1
            diffs.append(d)
            d = rho[v - d]
        yield diffs


def _face_ranges(emb: CombinatorialEmbedding) -> Iterator[tuple[int, int, int, list, str, bool]]:
    """The faces as ranges of translates of the difference cycles' walks:
    (key, lo, hi, starts, color, simple) per range.

    Faces are ordered by their least oriented-edge index x * C + i, where i
    is the index of the edge's difference in ``emb.connection``, so this is
    the order of the face orbits by their least element.  Each face is a
    translate of its difference cycle's walk, written from its least vertex.
    The translate by s starts at the least walk value x >= v - s, which wraps
    to x + s - v, or at the least value when there is none; its key is that
    vertex times C plus the least difference index leaving x on the walk.  A
    value met twice, only on a non-simple face, takes the least rotation.

    So, with the walk's values sorted, values[j] starts the translates s in
    [v - values[j], v - values[j-1]) for j >= 1, and values[0] = 0, where the
    walk starts, those in [0, v - values[-1]).  The values are a union of
    cosets of the subgroup generated by ``translates`` (the walk is invariant
    under adding its sum), so v - translates is one of them: the ranges of
    the values above it, and of 0, tile [0, translates), and the others start
    past it.  A range yields the translates s in [lo, hi), which start at
    x + lo = 0 (mod v) and have the keys ``key``, key + C, ...; ``starts``
    holds the walk read from each visit of x, one rotation for every value
    of a simple walk.  The face s of the range is, at each of its
    coordinates, the start's value y lifted to (y + s) % v, and is the least
    of these rotations when there are several.  ``color`` and ``simple`` are the
    cycle's.
    """
    v = emb.v
    conn_pos = [-1] * v
    for i, d in enumerate(emb.connection):
        conn_pos[d] = i
    entry_class = emb.entry_class
    for diffs in _difference_cycles(emb):
        translates = math.gcd(sum(diffs), v)
        walk = tuple(x % v for x in accumulate(diffs * (v // translates), initial=0))[:-1]
        color = COLUMN if diffs[0] in entry_class else ROW
        simple = len(set(walk)) == len(walk)
        twice = walk + walk
        # connection index of each edge's difference walk[i+1] - walk[i]
        # (a negative difference indexes from the end, at its residue)
        edge_di = [conn_pos[b - a] for a, b in zip(walk, twice[1:])]
        at: dict[int, list[int]] = {}
        for i, x in enumerate(walk):
            at.setdefault(x, []).append(i)
        values = sorted(at)
        for j, x in enumerate(values):
            lo, hi = (v - x if j else 0), v - values[j - 1]
            if lo < translates:
                yield (min(edge_di[i] for i in at[x]), lo, hi,
                       [twice[i:i + len(walk)] for i in at[x]], color, simple)


def _lift(starts: list, lo: int, hi: int, residues: list[int]) -> Iterator[tuple[int, ...]]:
    """The vertex tuples of the faces of a range of :func:`_face_ranges`;
    ``residues`` is 0 .. v-1 written twice."""
    lifted = [zip(*[residues[y + lo:y + hi] for y in start]) for start in starts]
    return lifted[0] if len(lifted) == 1 else map(min, zip(*lifted))


# -- genus and the full report ---------------------------------------------------------


def genus_formula(m: int, n: int, k: int, t: int) -> int:
    """Closed-form genus of the biembedding from an m x n array, weights (h, k).

    g = 1 + (nk - n - m - 1)(2nk + t)/2.  Raises when the value would be a
    half-integer, which cannot happen for consistent parameters.
    """
    num = (n * k - n - m - 1) * (2 * n * k + t)
    if num % 2 != 0:
        raise ValueError("half-integer genus: inconsistent parameters")
    return 1 + num // 2


class BiembeddingReport(NamedTuple):
    v: int
    face_count: int
    row_faces: int
    column_faces: int
    row_lengths_ok: bool
    column_lengths_ok: bool
    simple: bool
    genus_euler: int
    genus_closed_form: int
    euler_consistent: bool

    @property
    def two_colorable(self) -> bool:
        """Each edge borders one row face and one column face.

        True by construction: the entry class holds one of each ± pair
        (checked by the embedding's constructor), so of an edge's two
        oriented edges one has an entry difference and lies on a column
        face, the other a negated one and lies on a row face.
        """
        return True

    @property
    def z_v_regular(self) -> bool:
        """The translations x -> x + g are orientation-preserving automorphisms.

        True by construction: the rotation at x sends x + d to x + rho0[d]
        with rho0 the same at every vertex, so it commutes with every
        translation.
        """
        return True

    @property
    def passed(self) -> bool:
        return bool(self.row_lengths_ok and self.column_lengths_ok
                    and self.euler_consistent)

    def to_json_dict(self) -> dict:
        return {
            "v": self.v,
            "face_count": self.face_count,
            "row_faces": self.row_faces,
            "column_faces": self.column_faces,
            "row_lengths_ok": self.row_lengths_ok,
            "column_lengths_ok": self.column_lengths_ok,
            "two_colorable": self.two_colorable,
            "simple": self.simple,
            "genus_euler": self.genus_euler,
            "genus_closed_form": self.genus_closed_form,
            "euler_consistent": self.euler_consistent,
            "z_v_regular": self.z_v_regular,
            "passed": self.passed,
        }


def biembedding_report(emb: CombinatorialEmbedding) -> BiembeddingReport:
    """Full verification of the biembedding contract.

    Checks that each face stays in one difference class (else raises
    AssertionError), face lengths per color (h on row faces, k on column
    faces), and Euler consistency of the face count against the closed-form
    genus.  The face statistics come from the difference cycles, without
    listing the faces.  The 2-coloring and translation regularity hold by
    construction (see :class:`BiembeddingReport`).

    On an embedding from :func:`build_embeddings` the report is a fact about
    the array, the same for all of its tour solutions (R, C): every face is
    a translate of a row or a column read in the order R or C picks
    (Archdeacon, "Heffter arrays and biembedding graphs on surfaces", 2015).

    * d -> rho0(-d) sends a negated entry -b to -omega_r(b) and an entry b
      to omega_c(b), so each difference cycle walks one line, forwards or
      backwards: its length is the line's cell count, h or k.
    * Every line sums to 0, so each cycle lifts to gcd(0, v) = v faces of
      that length: ``row_faces`` = m * v, ``column_faces`` = n * v, and
      both length checks hold.
    * A face's vertices are the partial sums of its line (negated on a row),
      from the cycle's first difference.  Another start shifts them by a
      constant; reading the line backwards gives P_h - P_(h-i) = -P_(h-i)
      in place of P_i, the sums negated and shifted.  Neither changes
      whether they are distinct, so ``simple`` is that of the natural line
      orders (``validation.is_globally_simple``) for every (R, C).
    * V = v, E = v * n * k and F = (m + n) * v fix the Euler genus, equal to
      the closed form since v = 2nk + t.  ``passed`` reads nothing else.

    So :class:`heffter.pipeline.PipelineResult` reports one embedding per run.
    """
    if emb.source is None:
        raise ValueError("report needs source parameters (m, n, h, k)")
    src = emb.source
    v = emb.v
    entry_class = emb.entry_class
    row_ok = col_ok = simple = True
    row_faces = col_faces = 0
    for diffs in _difference_cycles(emb):
        translates = math.gcd(sum(diffs), v)
        length = len(diffs) * (v // translates)
        if diffs[0] in entry_class:
            col_ok = col_ok and length == src.k
            col_faces += translates
        else:
            row_ok = row_ok and length == src.h
            row_faces += translates
        # the face's walk is the partial sums p_i of one lap plus multiples of
        # the sum, which generate the subgroup translates * Z_v: so its
        # vertices are distinct exactly when the p_i are distinct mod translates
        lap = {p % translates for p in accumulate(diffs[:-1], initial=0)}
        simple = simple and len(lap) == len(diffs)

    V = emb.v
    E = emb.v * emb.degree() // 2
    F = row_faces + col_faces
    chi = V - E + F
    if (2 - chi) % 2 != 0:
        raise ValueError("half-integer genus from Euler count")
    genus_euler = (2 - chi) // 2
    genus_closed = genus_formula(src.m, src.n, src.k, emb.t)

    return BiembeddingReport(
        v=emb.v,
        face_count=F,
        row_faces=row_faces,
        column_faces=col_faces,
        row_lengths_ok=row_ok,
        column_lengths_ok=col_ok,
        simple=simple,
        genus_euler=genus_euler,
        genus_closed_form=genus_closed,
        euler_consistent=genus_euler == genus_closed,
    )

