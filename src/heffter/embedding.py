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
row faces and the latter column faces, and the report verifies the split
rather than assuming it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import kernels
from .perm import Permutation
from .pfarray import PartiallyFilledArray
from .validation import (
    LineOrderingSet,
    are_compatible,
    orderings_from_orientations,
    subgroup_members,
    validate_heffter,
)


@dataclass(frozen=True)
class EmbeddingSource:
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


@dataclass(frozen=True)
class CombinatorialEmbedding:
    """Vertex set Z_v, connection set Z_v \\ J, and rotation data rho0.

    ``entry_class`` is the half of the connection set that appears as array
    entries; it fixes which faces are called column faces.  Immutable and
    shareable; all derived arrays are cached.
    """

    v: int
    t: int
    connection: tuple[int, ...]
    rho0: Permutation
    entry_class: frozenset[int]
    source: EmbeddingSource | None = None

    def __post_init__(self) -> None:
        if not (0 < self.t < self.v and self.v % self.t == 0):
            raise ValueError("t must be a proper divisor of v")
        conn = set(self.connection)
        # the length test first keeps a huge v from allocating range(v)
        if (len(self.connection) != self.v - self.t
                or conn != set(range(self.v)) - subgroup_members(self.v, self.t)):
            raise ValueError("connection set must be the complement of the subgroup J")
        if self.rho0.domain != frozenset(conn):
            raise ValueError("rho0 must act exactly on the connection set")
        if not self.rho0.is_single_cycle():
            raise ValueError("rho0 must be a single cycle (orderings not compatible)")
        if not self.entry_class <= conn:
            raise ValueError("entry class must lie inside the connection set")
        if {(-x) % self.v for x in self.entry_class} != conn - self.entry_class:
            raise ValueError("entry class must contain one of each ± pair")

    # -- derived arrays (0-based residues) -------------------------------------

    @cached_property
    def rho0_array(self) -> np.ndarray:
        arr = np.full(self.v, -1, dtype=np.int64)
        for a, b in self.rho0.as_dict().items():
            arr[a] = b
        return arr

    @cached_property
    def rho0_inv_array(self) -> np.ndarray:
        arr = np.full(self.v, -1, dtype=np.int64)
        for a, b in self.rho0.as_dict().items():
            arr[b] = a
        return arr

    @cached_property
    def diff_index(self) -> np.ndarray:
        arr = np.full(self.v, -1, dtype=np.int64)
        for i, d in enumerate(self.connection):
            arr[d] = i
        return arr

    @cached_property
    def conn_array(self) -> np.ndarray:
        return np.asarray(self.connection, dtype=np.int64)

    def rho0_key(self) -> tuple[int, ...]:
        """Canonical serialization of the rotation; equal keys = equal embeddings."""
        return tuple(int(x) for x in self.rho0_array)

    def rho0_cycle_from(self, x: int) -> list[int]:
        out = [x]
        nxt = int(self.rho0_array[x])
        while nxt != x:
            out.append(nxt)
            nxt = int(self.rho0_array[nxt])
        return out

    def degree(self) -> int:
        return len(self.connection)

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "v": self.v,
            "t": self.t,
            "connection": list(self.connection),
            "rho0": [[a, int(self.rho0_array[a])] for a in self.connection],
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
        return cls(
            v=int(data["v"]),
            t=int(data["t"]),
            connection=tuple(int(x) for x in data["connection"]),
            rho0=Permutation({int(a): int(b) for a, b in data["rho0"]}),
            entry_class=frozenset(int(x) for x in data["entry_class"]),
            source=source,
        )

    @classmethod
    def from_json(cls, text: str) -> "CombinatorialEmbedding":
        return cls.from_json_dict(json.loads(text))


def build_rho0(array: PartiallyFilledArray, ords: LineOrderingSet) -> Permutation:
    """The rotation permutation induced by a full set of line orderings."""
    v = array.v
    row_perm, col_perm = ords.row_perm, ords.col_perm
    mapping: dict[int, int] = {}
    for a in array.entries():
        neg = (-a) % v
        if neg in row_perm:
            raise ValueError(
                f"entries {a} and {neg} are negatives of each other: "
                "the rotation construction needs one representative per pair"
            )
        mapping[a] = (-row_perm(a)) % v
        mapping[neg] = col_perm(a)
    return Permutation(mapping)


def array_key(array: PartiallyFilledArray) -> str:
    return hashlib.sha256(array.to_text().encode()).hexdigest()[:16]


def build_embedding(
    array: PartiallyFilledArray,
    rows_dir: Sequence[int],
    cols_dir: Sequence[int],
) -> CombinatorialEmbedding:
    """Embedding from a validated array and a tour solution (R, C).

    Raises ValueError when the array fails validation, is a lambda-fold array
    with fold > 1 (those are validated but never embedded), or when the
    induced orderings are not compatible, i.e. (R, C) does not solve the tour
    problem of the array's skeleton.
    """
    report = validate_heffter(array)
    if not report.passed:
        raise ValueError("array fails validation; cannot embed")
    if array.fold != 1:
        raise ValueError("fold > 1 arrays are not embedded")
    ords = orderings_from_orientations(array, rows_dir, cols_dir)
    if not are_compatible(ords.row_perm, ords.col_perm):
        raise ValueError("orderings not compatible: (R, C) is not a tour solution")
    rho0 = build_rho0(array, ords)
    conn = tuple(sorted(rho0.domain))
    source = EmbeddingSource(
        array.m, array.n, report.h, report.k, array_key(array),
        tuple(rows_dir), tuple(cols_dir),
    )
    return CombinatorialEmbedding(
        v=array.v,
        t=array.t,
        connection=conn,
        rho0=rho0,
        entry_class=frozenset(array.entries()),
        source=source,
    )


# -- face tracing -------------------------------------------------------------------


ROW = "row"
COLUMN = "column"


@dataclass(frozen=True)
class Face:
    """A face boundary: vertex circuit in canonical rotation, fixed orientation."""

    vertices: tuple[int, ...]
    color: str
    simple: bool

    @property
    def length(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class FaceSet:
    v: int
    faces: tuple[Face, ...]

    @property
    def count(self) -> int:
        return len(self.faces)

    def count_color(self, color: str) -> int:
        return sum(1 for f in self.faces if f.color == color)

    @property
    def all_simple(self) -> bool:
        return all(f.simple for f in self.faces)


def _canonical_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    lo = min(seq)
    best = None
    for i, x in enumerate(seq):
        if x == lo:
            cand = seq[i:] + seq[:i]
            if best is None or cand < best:
                best = cand
    return best  # type: ignore[return-value]


def trace_faces(emb: CombinatorialEmbedding) -> FaceSet:
    """Partition all oriented edges into face orbits.

    The successor of the oriented edge (x, y) is (y, y + rho0(x - y)).  Each
    orbit's boundary differences are asserted to stay inside one sign class,
    which determines its color.
    """
    v = emb.v
    conn = emb.conn_array
    C = conn.size
    # successor edge of (x, d): (x + d, rho0(-d)); precompute per-difference data
    next_di = emb.diff_index[emb.rho0_array[(v - conn) % v]]
    x = np.arange(v, dtype=np.int64)
    succ = (((x[:, None] + conn[None, :]) % v) * C + next_di[None, :]).ravel()

    orbit_order, orbit_lens = kernels.trace_orbits(succ)

    is_entry = np.zeros(v, dtype=bool)
    for e in emb.entry_class:
        is_entry[e] = True

    faces = []
    pos = 0
    for ln in orbit_lens.tolist():
        orbit = orbit_order[pos:pos + ln]
        pos += ln
        verts = tuple(int(e) // C for e in orbit)
        diffs_entry = is_entry[conn[orbit % C]]
        if diffs_entry.all():
            color = COLUMN
        elif not diffs_entry.any():
            color = ROW
        else:
            raise AssertionError(
                "face boundary mixes entry and negated-entry differences"
            )
        faces.append(
            Face(_canonical_rotation(verts), color, len(set(verts)) == len(verts))
        )
    return FaceSet(v, tuple(faces))


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


@dataclass(frozen=True)
class BiembeddingReport:
    v: int
    face_count: int
    row_faces: int
    column_faces: int
    row_lengths_ok: bool
    column_lengths_ok: bool
    two_colorable: bool
    simple: bool
    genus_euler: int
    genus_closed_form: int
    euler_consistent: bool
    z_v_regular: bool

    @property
    def passed(self) -> bool:
        return bool(
            self.row_lengths_ok
            and self.column_lengths_ok
            and self.two_colorable
            and self.euler_consistent
            and self.z_v_regular
        )

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


def biembedding_report(
    emb: CombinatorialEmbedding, faces: FaceSet | None = None
) -> BiembeddingReport:
    """Full verification of the biembedding contract.

    Checks face lengths per color (h on row faces, k on column faces), the
    2-coloring (each unoriented edge borders one face of each color), Euler
    consistency of the traced face count against the closed-form genus, and
    regularity of the translation action.
    """
    if emb.source is None:
        raise ValueError("report needs source parameters (m, n, h, k)")
    src = emb.source
    if faces is None:
        faces = trace_faces(emb)

    row_faces = [f for f in faces.faces if f.color == ROW]
    col_faces = [f for f in faces.faces if f.color == COLUMN]
    row_ok = all(f.length == src.h for f in row_faces)
    col_ok = all(f.length == src.k for f in col_faces)

    two_col = _check_two_coloring(emb)

    V = emb.v
    E = emb.v * len(emb.connection) // 2
    F = faces.count
    chi = V - E + F
    if (2 - chi) % 2 != 0:
        raise ValueError("half-integer genus from Euler count")
    genus_euler = (2 - chi) // 2
    genus_closed = genus_formula(src.m, src.n, src.k, emb.t)

    from .iso import PRESERVING, verify_map  # deferred: iso imports this module

    tau1 = tuple((x + 1) % emb.v for x in range(emb.v))
    regular = verify_map(emb, emb, tau1) == PRESERVING

    return BiembeddingReport(
        v=emb.v,
        face_count=F,
        row_faces=len(row_faces),
        column_faces=len(col_faces),
        row_lengths_ok=row_ok,
        column_lengths_ok=col_ok,
        two_colorable=two_col,
        simple=faces.all_simple,
        genus_euler=genus_euler,
        genus_closed_form=genus_closed,
        euler_consistent=genus_euler == genus_closed,
        z_v_regular=regular,
    )


def _check_two_coloring(emb: CombinatorialEmbedding) -> bool:
    """Each unoriented edge must carry one entry-class and one negated oriented edge.

    With faces colored by difference class this is exactly "one row face and
    one column face per edge": the oriented edge whose difference is an entry
    lies on a column face, its reverse on a row face.
    """
    v = emb.v
    for d in emb.connection:
        neg = (v - d) % v
        if (d in emb.entry_class) == (neg in emb.entry_class):
            return False
    return True


def translated_faces(faces: FaceSet, g: int) -> frozenset[tuple[tuple[int, ...], str]]:
    """The face set shifted by the translation x -> x+g (canonicalized)."""
    out = set()
    for f in faces.faces:
        verts = tuple((x + g) % faces.v for x in f.vertices)
        out.add((_canonical_rotation(verts), f.color))
    return frozenset(out)


def face_set_key(faces: FaceSet) -> frozenset[tuple[tuple[int, ...], str]]:
    return frozenset((f.vertices, f.color) for f in faces.faces)
