"""Embedding isomorphism, vertex stabilizers, and family classification.

Two embeddings with rotations rho, rho' are isomorphic when some graph
isomorphism sigma satisfies sigma∘rho = rho'∘sigma on every oriented edge
(orientation preserving) or sigma∘rho = rho'^{-1}∘sigma (reversing).

For the translation-regular embeddings built here the search space collapses:
composing with translations normalizes sigma(0) = 0, and a map fixing 0 is
determined on the whole neighborhood of 0 by the image of one neighbor
(propagate around the rotation at 0), then everywhere by the rotation at a
second vertex.  That leaves at most 2 * degree candidate maps, each checked
exactly on all oriented edges.

The same two walks give every embedding a canonical code
(:func:`canonical_code`): relabel the vertices from each of the 2 * degree
roots (a neighbor of 0 and a direction of rotation), write down the relabelled
rotation, and keep the least.  Embeddings are isomorphic exactly when their
codes are equal, so :func:`classify` groups a family by code in one pass and
searches for a map only to certify each member against its representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .embedding import CombinatorialEmbedding
from .knight import OrientationPair, is_solution
from .pfarray import PartiallyFilledArray, classify_diagonality, diagonal_cells
from .validation import is_globally_simple, validate_heffter

PRESERVING = "preserving"
REVERSING = "reversing"


@dataclass(frozen=True)
class EmbeddingMap:
    """A vertex bijection certified as an embedding isomorphism."""

    sigma: tuple[int, ...]
    kind: str

    def __call__(self, x: int) -> int:
        return self.sigma[x]

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "sigma": list(self.sigma)}


def _inverse(rho0: Sequence[int]) -> list[int]:
    """The table of rho0^{-1}, -1 where rho0 is."""
    inv = [-1] * len(rho0)
    for d, image in enumerate(rho0):
        if image >= 0:
            inv[image] = d
    return inv


def verify_map(
    e1: CombinatorialEmbedding,
    e2: CombinatorialEmbedding,
    sigma: Sequence[int],
) -> str | None:
    """Classify sigma as preserving, reversing, or not an isomorphism.

    sigma must be a bijection of Z_v; the check runs over all v * degree
    oriented edges.
    """
    if e1.v != e2.v:
        raise ValueError(f"mismatched moduli: {e1.v} != {e2.v}")
    v = e1.v
    S = np.asarray(sigma, dtype=np.int64)
    if S.shape != (v,) or not np.array_equal(np.sort(S), np.arange(v)):
        raise ValueError("sigma is not a bijection of Z_v")
    if len(e1.connection) != len(e2.connection):
        return None

    in_conn2 = np.zeros(v, dtype=bool)
    in_conn2[list(e2.connection)] = True
    rho2 = np.asarray(e2.rho0, dtype=np.int64)
    rho2_inv = np.asarray(_inverse(e2.rho0), dtype=np.int64)
    idx = np.arange(v, dtype=np.int64)

    pres = True
    rev = True
    for d in e1.connection:
        diffs = (S[(idx + d) % v] - S) % v
        if not in_conn2[diffs].all():
            return None  # not even a graph isomorphism
        lhs = S[(idx + e1.rho0[d]) % v]
        if pres and not np.array_equal(lhs, (S + rho2[diffs]) % v):
            pres = False
        if rev and not np.array_equal(lhs, (S + rho2_inv[diffs]) % v):
            rev = False
        if not (pres or rev):
            return None
    if pres:
        return PRESERVING
    if rev:
        return REVERSING
    return None


def _propagate(
    rho1: Sequence[int],
    rho2: Sequence[int],
    cyc1: Sequence[int],
    image_of_one: int,
) -> tuple[int, ...] | None:
    """Candidate sigma with sigma(0) = 0 and sigma(1) = image_of_one.

    ``rho1`` is the rotation table of e1 and ``cyc1`` its cycle from 1;
    ``rho2`` is e2's table for a preserving candidate, its inverse for a
    reversing one.  Determined by propagating around the rotation at vertex 0
    (fixing sigma on the whole connection set) and then around the rotation
    at vertex 1 (fixing it on the remaining subgroup coset).  Returns None on
    any inconsistency.
    """
    v = len(rho1)
    sigma = [-1] * v
    sigma[0] = 0

    # cyc1 has distinct elements and avoids 0, so this walk cannot conflict
    y = image_of_one
    for z in cyc1:
        sigma[z] = y
        y = rho2[y]

    # rotation at vertex 1 covers the subgroup coset J \ {0}
    z = 0
    w = 0
    for _ in range(len(cyc1)):
        z = (1 + rho1[(z - 1) % v]) % v
        w = (image_of_one + rho2[(w - image_of_one) % v]) % v
        if sigma[z] < 0:
            sigma[z] = w
        elif sigma[z] != w:
            return None
    if -1 in sigma or len(set(sigma)) != v:
        return None
    return tuple(sigma)


def _candidates(
    e1: CombinatorialEmbedding, e2: CombinatorialEmbedding
) -> Iterator[EmbeddingMap]:
    """All maps fixing 0 that survive propagation and full verification."""
    if e1.v != e2.v or e1.t != e2.t:
        return
    cyc1 = e1.rho0_cycle_from(1)
    rho2 = {PRESERVING: e2.rho0, REVERSING: _inverse(e2.rho0)}
    for target in e2.connection:
        for kind in (PRESERVING, REVERSING):
            sigma = _propagate(e1.rho0, rho2[kind], cyc1, target)
            if sigma is None:
                continue
            verdict = verify_map(e1, e2, sigma)
            if verdict is not None:
                yield EmbeddingMap(sigma, verdict)


def find_isomorphism(
    e1: CombinatorialEmbedding, e2: CombinatorialEmbedding
) -> EmbeddingMap | None:
    """First isomorphism fixing 0, in canonical candidate order, or None.

    Complete for the translation-regular embeddings built here: if any
    isomorphism exists, one fixing 0 exists (compose with a translation), and
    every such map appears among the propagated candidates.
    """
    for m in _candidates(e1, e2):
        return m
    return None


def all_isomorphisms_fixing_zero(
    e1: CombinatorialEmbedding, e2: CombinatorialEmbedding
) -> tuple[EmbeddingMap, ...]:
    """Exhaustive candidate sweep; deduplicated, in canonical order."""
    seen: dict[tuple[int, ...], EmbeddingMap] = {}
    for m in _candidates(e1, e2):
        seen.setdefault(m.sigma, m)
    return tuple(seen.values())


@dataclass(frozen=True)
class StabilizerGroup:
    """All embedding automorphisms fixing the vertex 0."""

    elements: tuple[EmbeddingMap, ...]
    degree: int

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def size_preserving(self) -> int:
        return sum(1 for m in self.elements if m.kind == PRESERVING)

    @property
    def bound(self) -> int:
        """The cap 2 * degree on the stabilizer size."""
        return 2 * self.degree

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "size_preserving": self.size_preserving,
            "degree": self.degree,
            "bound": self.bound,
        }


def stabilizer(emb: CombinatorialEmbedding) -> StabilizerGroup:
    """Brute-force the vertex-0 stabilizer through the candidate propagation."""
    return StabilizerGroup(all_isomorphisms_fixing_zero(emb, emb), emb.degree())


def compose_maps(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    return tuple(outer[x] for x in inner)


def phi_map(
    sigma: EmbeddingMap | Sequence[int],
    g: int,
    e1: CombinatorialEmbedding,
    e2: CombinatorialEmbedding,
) -> EmbeddingMap:
    """The automorphism sigma ∘ tau_g^{-1} ∘ sigma^{-1} ∘ tau_{sigma(g)} of e2.

    Needs sigma(0) = 0; the result fixes 0 and is certified to be an
    automorphism of e2 before being returned.
    """
    s = tuple(sigma.sigma if isinstance(sigma, EmbeddingMap) else sigma)
    if s[0] != 0:
        raise ValueError("phi needs sigma(0) = 0")
    v = e2.v
    s_inv = [0] * v
    for x, y in enumerate(s):
        s_inv[y] = x
    sg = s[g % v]
    phi = tuple(s[(s_inv[(x + sg) % v] - g) % v] for x in range(v))
    kind = verify_map(e2, e2, phi)
    if kind is None:
        raise ValueError("composed map is not an automorphism of the target")
    return EmbeddingMap(phi, kind)


# -- classification ------------------------------------------------------------------


@dataclass(frozen=True)
class IsomorphismClass:
    """One class: members are certified isomorphic to the representative.

    ``witnesses[i]`` is a verified map from member ``members[i]`` onto the
    representative (the identity for the representative itself).
    """

    representative: int
    members: tuple[int, ...]
    witnesses: tuple[EmbeddingMap, ...]
    cap: int

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ClassificationResult:
    total: int
    classes: tuple[IsomorphismClass, ...]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "class_count": self.class_count,
            "classes": [
                {
                    "representative": c.representative,
                    "members": list(c.members),
                    "witnesses": [w.to_json_dict() for w in c.witnesses],
                    "size": c.size,
                    "cap": c.cap,
                }
                for c in self.classes
            ],
        }


def _root_codes(emb: CombinatorialEmbedding) -> Iterator[bytes]:
    """The successor table relabelled from each root, in :func:`canonical_code`."""
    v = emb.v
    deg = emb.degree()
    conn = np.asarray(emb.connection, dtype=np.int64)
    tails = np.repeat(np.arange(v, dtype=np.int64), deg)
    diffs = np.tile(conn, v)
    heads = (tails + diffs) % v
    first = np.arange(1, deg + 1, dtype=np.int64)
    for rho in (emb.rho0, _inverse(emb.rho0)):
        succs = (tails + np.asarray(rho, dtype=np.int64)[diffs]) % v
        cycle = [emb.connection[0]]
        for _ in range(deg - 1):
            cycle.append(rho[cycle[-1]])
        pos = np.empty(v, dtype=np.int64)
        pos[cycle] = np.arange(deg)
        twice = np.asarray(cycle + cycle, dtype=np.int64)
        for c in emb.connection:
            lam = np.full(v, -1, dtype=np.int64)
            lam[0] = 0
            lam[twice[pos[c]:pos[c] + deg]] = first
            start = pos[(-c) % v]
            around_c = (c + twice[start:start + deg]) % v
            fresh = around_c[lam[around_c] < 0]
            lam[fresh] = np.arange(deg + 1, deg + 1 + len(fresh))
            table = np.full(v * v, -1, dtype=np.int32)
            table[lam[tails] * v + lam[heads]] = lam[succs]
            yield table.tobytes()


def canonical_code(emb: CombinatorialEmbedding) -> bytes:
    """A code that is equal for two embeddings exactly when they are isomorphic.

    A root is a pair (c, rho) of a neighbor c of 0 and rho one of rho0 and
    rho0^{-1}; there are 2 * degree roots.  A root relabels the vertices:
    lambda(0) = 0, then the vertices met walking the rotation at 0 from c are
    numbered in order, then those not yet numbered met walking the rotation
    at c from 0.  These are the two walks of the candidate propagation, and
    they reach every vertex: the first numbers the connection set Z_v \\ J,
    and the rest, J \\ {0}, misses c + J and so lies among the neighbors of c.
    The root's code is the relabelled successor table, written as the int32
    bytes of a v x v array with -1 off the edges::

        N[lambda(y), lambda(y + d)] = lambda(y + rho(d)),

    and the embedding's code is the least root code.

    Why equal codes mean isomorphic.  Translations are automorphisms, so
    composing with one turns any isomorphism into one fixing 0.  A map sigma
    fixing 0 from e1 onto e2 sends the root (c, rho) of e1 to the root
    (sigma(c), rho') of e2, where rho' turns the same way as rho when sigma
    preserves orientation and the other way when it reverses it.  It carries
    both walks of the first root onto those of the second, so the
    relabellings satisfy lambda' ∘ sigma = lambda and the two tables agree.
    Isomorphic embeddings thus have the same set of root tables and the same
    least one.  Conversely, if a root of e1 and a root of e2 give equal
    tables, then lambda'^{-1} ∘ lambda carries every oriented edge of e1 and
    its rho-successor onto an oriented edge of e2 and its rho'-successor:
    it is an isomorphism, preserving when rho and rho' turn the same way.

    The root codes are generated one at a time and only the least is kept.
    """
    return min(_root_codes(emb))


def classify(embeddings: Sequence[CombinatorialEmbedding]) -> ClassificationResult:
    """Partition distinct embeddings into isomorphism classes by canonical code.

    Inputs must share (v, t); duplicates as rotation maps are rejected.
    Embeddings with equal :func:`canonical_code` form one class; classes are
    listed in the order of their first member in the input, and members in
    input order.  Each class's representative is its member with the
    lexicographically least serialized rotation map, so representatives do
    not depend on the input order.  Every member gets a witness from
    :func:`find_isomorphism` onto the representative, certified by
    :func:`verify_map`; a member without one means the code is broken and
    aborts.  Every class size is checked against
    min(2*|Aut_0(rep)|*degree, 2*degree^2), where 2*degree^2 (4*degree^2 in
    general) holds because the translations preserve the orientation of
    every embedding here: its rotation is the same table at each vertex.
    Exceeding the cap indicates a logic error and aborts.
    """
    if not embeddings:
        return ClassificationResult(0, ())
    v, t = embeddings[0].v, embeddings[0].t
    if any(e.v != v or e.t != t for e in embeddings):
        raise ValueError("mixed parameters in classification input")
    if len({e.rho0 for e in embeddings}) != len(embeddings):
        raise ValueError("duplicate rotation maps: deduplicate before classify")

    groups: dict[bytes, list[int]] = {}
    for i, emb in enumerate(embeddings):
        groups.setdefault(canonical_code(emb), []).append(i)

    classes = []
    for group in groups.values():
        rep = min(group, key=lambda i: embeddings[i].rho0)
        emb = embeddings[rep]
        deg = emb.degree()
        aut0 = stabilizer(emb)
        cap = min(2 * aut0.size * deg, 2 * deg * deg)
        if len(group) > cap:
            raise RuntimeError(
                f"class of representative {rep} has {len(group)} members, above "
                f"the provable cap {cap}: classification logic is broken"
            )
        wit = []
        for i in group:
            found = find_isomorphism(embeddings[i], emb)
            if found is None:
                raise RuntimeError(
                    f"embedding {i} shares a canonical code with {rep} but no "
                    "isomorphism was found: classification logic is broken"
                )
            wit.append(found)
        classes.append(IsomorphismClass(rep, tuple(group), tuple(wit), cap))
    return ClassificationResult(len(embeddings), tuple(classes))


# -- distinctness certification without building embeddings ------------------------------


def certify_distinct(
    batch: Sequence[tuple[PartiallyFilledArray, OrientationPair]],
) -> int:
    """Number of distinct embeddings a batch of (array, solution) pairs induces.

    Applies the coincident-diagonal criterion: for globally simple
    diagonal-structured arrays sharing entries, skeleton, and a common fully
    filled diagonal on which all arrays agree, distinct (array, solution)
    pairs give distinct rotation maps.  Hypotheses are verified; violations
    raise ValueError.
    """
    if not batch:
        return 0
    arrays = [a for a, _ in batch]
    first = arrays[0]
    profile = classify_diagonality(first)
    skel = first.skeleton()
    entries = frozenset(first.entries())
    for a in arrays:
        if a.fold != 1:
            raise ValueError("certification applies to fold-1 arrays only")
        if not validate_heffter(a).passed:
            raise ValueError("batch contains an invalid array")
        if not is_globally_simple(a):
            raise ValueError("batch contains a non-globally-simple array")
        if a.skeleton() != skel:
            raise ValueError("batch skeletons differ")
        if frozenset(a.entries()) != entries:
            raise ValueError("batch supports differ")

    common = None
    for d in profile.filled_diagonals:
        cells = diagonal_cells(first.n, d)
        if all(
            all(a.entry(i, j) == first.entry(i, j) for (i, j) in cells)
            for a in arrays
        ):
            common = d
            break
    if common is None:
        raise ValueError("no common filled diagonal on which all arrays coincide")

    for a, pair in batch:
        if not is_solution(a.skeleton(), pair.rows, pair.cols):
            raise ValueError("batch contains a non-solution orientation pair")

    distinct = {
        (a.cells, pair.rows, pair.cols) for a, pair in batch
    }
    return len(distinct)
