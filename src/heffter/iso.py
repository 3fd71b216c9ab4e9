"""Embedding isomorphism, vertex stabilizers, and family classification.

Two embeddings with rotations rho, rho' are isomorphic when some graph
isomorphism sigma satisfies sigma∘rho = rho'∘sigma on every oriented edge
(orientation preserving) or sigma∘rho = rho'^{-1}∘sigma (reversing).

For the translation-regular embeddings built here every question reduces to
roots.  Translations are automorphisms, so any isomorphism composes with one
to a map fixing 0.  A root is a neighbor c of 0 with a direction rho, one of
rho0 and rho0^{-1}: 2 * degree roots in all.  Its labelling numbers 0, then
the rotation at 0 walked from c, then the vertices still unnumbered on the
rotation at c walked from 0.  A map fixing 0 sends each root of e1 to a root
of e2 and carries the one labelling onto the other, so it is the composite
of the two labellings.

:func:`canonical_code` writes the rotation system in the labels of each root,
one row per vertex, and keeps the least; roots are dropped at their first
row above the running minimum.  The roots that reach the end are one orbit
of the stabilizer Aut_0, so they give :func:`stabilizer` and, between
embeddings with equal codes, every isomorphism fixing 0
(:func:`find_isomorphism`).  Each such map is checked by :func:`verify_map`
on all oriented edges before it is returned.  :func:`classify` groups a
family by code in one pass and takes its witnesses from the same roots.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .embedding import CombinatorialEmbedding
from .knight import OrientationPair, is_solution
from .pfarray import PartiallyFilledArray, classify_diagonality, diagonal_cells
from .validation import cycle_from, is_globally_simple, validate_heffter

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

    sigma must be a bijection of Z_v.  The identity between equal rotation
    tables is preserving at once; any other map is checked on all v * degree
    oriented edges, one difference d of e1 at a time: the images of x + d
    and x + rho1(d) over all x, as list slices of sigma written twice.
    """
    if e1.v != e2.v:
        raise ValueError(f"mismatched moduli: {e1.v} != {e2.v}")
    v = e1.v
    S = list(sigma)
    identity = list(range(v))
    if sorted(S) != identity:
        raise ValueError("sigma is not a bijection of Z_v")
    if len(e1.connection) != len(e2.connection):
        return None
    if S == identity and e1.rho0 == e2.rho0:
        return PRESERVING

    # wrap[i] is i mod v for 0 <= i < 2v and -1 above; a difference in J
    # rotates to 2v, so a non-edge image fails both comparisons below
    wrap = [*identity, *identity, *[-1] * v]
    rho2 = [2 * v if r < 0 else r for r in e2.rho0]
    rho2_inv = [2 * v if r < 0 else r for r in _inverse(e2.rho0)]
    S2 = S + S

    pres = rev = True
    for d in e1.connection:
        # a = sigma(x + d) and b = sigma(x): the edge (x, d) goes to (b, a - b)
        ends = S2[d:d + v]
        r = e1.rho0[d]
        lhs = S2[r:r + v]
        if pres and lhs != [wrap[b + rho2[wrap[a - b + v]]] for a, b in zip(ends, S)]:
            pres = False
        if rev and lhs != [wrap[b + rho2_inv[wrap[a - b + v]]] for a, b in zip(ends, S)]:
            rev = False
        if not (pres or rev):
            return None
    if pres:
        return PRESERVING
    if rev:
        return REVERSING
    return None


class _Root(NamedTuple):
    """A root's direction and labelling: ``lam`` maps vertex to label, ``inv`` back."""

    reverses: bool
    lam: tuple[int, ...]
    inv: tuple[int, ...]


class _CanonicalForm(NamedTuple):
    """The canonical code and the roots that attain it: one orbit of Aut_0."""

    code: bytes
    roots: tuple[_Root, ...]


def _canonical_form(emb: CombinatorialEmbedding) -> _CanonicalForm:
    """The least root code, built row by row, and the roots that attain it."""
    v, deg = emb.v, emb.degree()
    fresh = (0, *range(deg + 1, v))  # labels of J, in the order row 1 meets it
    ranks = [k % deg + 1 for k in range(2 * deg)]
    cyc = cycle_from(emb.rho0, emb.connection[0])

    # Screen every root on row 1, the rotation at c read from 0, without
    # building its labelling: a vertex y outside J has label
    # (pos[y] - pos[c]) % deg + 1.  The vertices of J take the fresh labels
    # in the order the row meets them, so rows compare as they would with
    # every vertex of J read as deg + 1.
    best: list[int] | None = None
    tied = []
    for reverses, cycle in ((False, cyc), (True, cyc[:1] + cyc[:0:-1])):
        pos = [-1] * v
        for i, d in enumerate(cycle):
            pos[d] = i
        pos2 = pos + pos
        twice = cycle + cycle
        for c in emb.connection:
            label = ranks[deg - pos[c]:2 * deg - pos[c]]
            label.append(deg + 1)  # label[-1], read for J
            around = twice[pos[v - c]:pos[v - c] + deg]
            row = [label[pos2[c + d]] for d in around]
            if best is None or row < best:
                best, tied = row, []
            if row == best:
                tied.append((reverses, cycle, label, pos, around, c))

    # Full labellings for the survivors only.  Row a is the rotation at the
    # vertex labelled a, from its least label; a root leaves at its first
    # row above the least one.
    holes = [i for i, x in enumerate(best) if x > deg]
    for new, i in zip(fresh, holes):
        best[i] = new
    alive = []
    for reverses, cycle, label, pos, around, c in tied:
        lam = [label[q] for q in pos]
        for new, i in zip(fresh, holes):
            lam[(c + around[i]) % v] = new
        alive.append((reverses, cycle, lam, lam + lam,
                      sorted(range(v), key=lam.__getitem__)))
    code = [*range(1, deg + 1), *best]
    for a in range(2, v):
        rows = []
        for _, cycle, _, lam2, inv in alive:
            x = inv[a]
            labels = [lam2[x + d] for d in cycle]
            m = labels.index(min(labels))
            rows.append(labels[m:] + labels[:m])
        low = min(rows)
        alive = [root for root, row in zip(alive, rows) if row == low]
        code += low
    return _CanonicalForm(array("i", code).tobytes(), tuple(
        _Root(reverses, tuple(lam), tuple(inv)) for reverses, _, lam, _, inv in alive))


def canonical_code(emb: CombinatorialEmbedding) -> bytes:
    """A code that is equal for two embeddings exactly when they are isomorphic.

    A root (c, rho) is a neighbor c of 0 and rho one of rho0 and rho0^{-1}.
    Its labelling lambda numbers 0 as 0, the vertices met walking the
    rotation at 0 from c as 1, ..., degree, and then those not yet numbered
    met walking the rotation at c from 0.  The first walk numbers the
    connection set Z_v \\ J; the rest, J \\ {0}, misses c + J and so lies
    among the neighbors of c.  The root's code has one row per label a: the
    rotation at lambda^{-1}(a) in the direction rho, in labels, written as a
    cycle from its least label.  Row 0 is 1, ..., degree for every root, and
    row 1 is the rotation at c from 0.  The embedding's code is the least
    root code, rows compared in order, written as int32 bytes.

    It is built row by row.  Row 1 of every root is read straight from the
    positions of the vertices on the cycle of rho, without a labelling: y
    outside J has label (pos[y] - pos[c]) % degree + 1, and the vertices of
    J, whose fresh labels exceed degree and follow the order of the row,
    compare as degree + 1.  Only the roots that tie on row 1 get a
    labelling, and each later row is computed for the roots still tied,
    dropping those whose row is above the least.  On the
    embeddings of the tests and the benchmark, row 1 alone already leaves
    only the roots that tie on the whole code.

    Why equal codes mean isomorphic.  A map sigma fixing 0 from e1 onto e2
    sends the root (c, rho) of e1 to the root (sigma(c), rho') of e2, where
    rho' turns the same way as rho when sigma preserves orientation and the
    other way when it reverses it.  It carries both walks of the first root
    onto those of the second, so lambda' ∘ sigma = lambda and the two codes
    agree.  Isomorphic embeddings thus have the same root codes and the same
    least one.  Conversely a code lists the rotation at every vertex, so if a
    root of e1 and a root of e2 give equal codes then lambda'^{-1} ∘ lambda
    carries each rotation of e1 onto the matching rotation of e2: it is an
    isomorphism, preserving when rho and rho' turn the same way.

    Why the tied roots are one orbit of Aut_0.  Taking e1 = e2, the roots
    whose code is the least are mapped onto one another by the maps
    lambda_s^{-1} ∘ lambda_r, which are automorphisms fixing 0; an
    automorphism fixing 0 maps a least root to a root with the same code.
    An automorphism fixing 0 is determined by the root it sends a given root
    to, so |Aut_0| is the number of tied roots.
    """
    return _canonical_form(emb).code


def _isomorphisms(
    e1: CombinatorialEmbedding,
    root1: _Root,
    e2: CombinatorialEmbedding,
    roots2: Sequence[_Root],
) -> Iterator[EmbeddingMap]:
    """The maps lambda'^{-1} ∘ lambda from ``root1`` onto each of ``roots2``.

    Sorted as the isomorphisms fixing 0 are listed: by the index of sigma(1)
    in ``e2.connection``, preserving before reversing.  Only maps that
    :func:`verify_map` certifies are yielded, and each only once.
    """
    where = {d: i for i, d in enumerate(e2.connection)}
    turns: dict[tuple[int, ...], bool] = {}
    for root in roots2:
        sigma = tuple(map(root.inv.__getitem__, root1.lam))
        turns.setdefault(sigma, root.reverses != root1.reverses)
    for sigma in sorted(turns, key=lambda s: (where[s[1]], turns[s])):
        kind = verify_map(e1, e2, sigma)
        if kind is not None:
            yield EmbeddingMap(sigma, kind)


def _isomorphisms_between(
    e1: CombinatorialEmbedding, e2: CombinatorialEmbedding
) -> Iterator[EmbeddingMap]:
    if e1.v != e2.v or e1.t != e2.t:
        return iter(())
    form1 = _canonical_form(e1)
    form2 = form1 if e2 is e1 else _canonical_form(e2)
    if form1.code != form2.code:
        return iter(())
    return _isomorphisms(e1, form1.roots[0], e2, form2.roots)


def find_isomorphism(
    e1: CombinatorialEmbedding, e2: CombinatorialEmbedding
) -> EmbeddingMap | None:
    """First isomorphism fixing 0, or None.

    The isomorphisms fixing 0 are listed by the index of sigma(1) in
    ``e2.connection``, preserving before reversing.  Complete for the
    translation-regular embeddings built here: if any isomorphism exists, one
    fixing 0 exists (compose with a translation), and then the codes agree
    and every such map carries a least root of e1 onto a least root of e2.
    """
    return next(_isomorphisms_between(e1, e2), None)


def all_isomorphisms_fixing_zero(
    e1: CombinatorialEmbedding, e2: CombinatorialEmbedding
) -> tuple[EmbeddingMap, ...]:
    """Every isomorphism fixing 0, in :func:`find_isomorphism`'s order."""
    return tuple(_isomorphisms_between(e1, e2))


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
    """The vertex-0 stabilizer: one automorphism per root tied for the code.

    Listed in :func:`find_isomorphism`'s order, each certified by
    :func:`verify_map`.
    """
    return StabilizerGroup(all_isomorphisms_fixing_zero(emb, emb), emb.degree())


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


def classify(embeddings: Sequence[CombinatorialEmbedding]) -> ClassificationResult:
    """Partition distinct embeddings into isomorphism classes by canonical code.

    Inputs must share (v, t); duplicates as rotation maps are rejected.
    Embeddings with equal :func:`canonical_code` form one class; classes are
    listed in the order of their first member in the input, and members in
    input order.  Each class's representative is its member with the
    lexicographically least serialized rotation map, so representatives do
    not depend on the input order.  The representative's tied roots give
    Aut_0(rep), and each member's witness onto it is the one
    :func:`find_isomorphism` would return, taken from the same roots and
    certified by :func:`verify_map`; a member without one means the code is
    broken and aborts.  Every class size is checked against
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

    forms = [_canonical_form(emb) for emb in embeddings]
    groups: dict[bytes, list[int]] = {}
    for i, form in enumerate(forms):
        groups.setdefault(form.code, []).append(i)

    classes = []
    for group in groups.values():
        rep = min(group, key=lambda i: embeddings[i].rho0)
        emb, roots = embeddings[rep], forms[rep].roots
        deg = emb.degree()
        aut0 = tuple(_isomorphisms(emb, roots[0], emb, roots))
        cap = min(2 * len(aut0) * deg, 2 * deg * deg)
        if len(group) > cap:
            raise RuntimeError(
                f"class of representative {rep} has {len(group)} members, above "
                f"the provable cap {cap}: classification logic is broken"
            )
        wit = []
        for i in group:
            found = aut0[0] if i == rep else next(
                _isomorphisms(embeddings[i], forms[i].roots[0], emb, roots), None)
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
    raise ValueError.  Acceptance criterion 9 checks the lemma against the
    rotation maps of a searched array's embeddings.
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
