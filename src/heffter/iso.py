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
one row per vertex, and keeps the least.  Its row 1, the rotation at c read
from 0, is picked column by column over the roots still tied, and is an
isomorphism invariant on its own: a map fixing 0 sends roots to roots and
keeps every row.  So every isomorphism fixing 0 carries a root tied on row 1
onto a root tied on row 1, and the composites of their labellings, each
checked by :func:`verify_map` on all oriented edges, are exactly the
isomorphisms fixing 0 (:func:`find_isomorphism`) and, from an embedding to
itself, its stabilizer Aut_0 (:func:`stabilizer`).  :func:`classify` buckets
a family by row 1 and certifies each bucket as one class the same way; only
a bucket that holds a second class is split by full codes.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Mapping, NamedTuple, Sequence

from .embedding import CombinatorialEmbedding
from .validation import cycle_from

PRESERVING = "preserving"
REVERSING = "reversing"


class EmbeddingMap(NamedTuple):
    """A vertex bijection certified as an embedding isomorphism."""

    sigma: tuple[int, ...]
    kind: str

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


class _Screen(NamedTuple):
    """The least row 1 over the roots, and the roots that attain it."""

    row: tuple[int, ...]
    roots: tuple[_Root, ...]


class _CanonicalForm(NamedTuple):
    """The canonical code and the roots that attain it: one orbit of Aut_0."""

    code: bytes
    roots: tuple[_Root, ...]


def _directions(emb: CombinatorialEmbedding) -> tuple[list[int], list[int]]:
    """The cycle of rho0 from the first difference, and of rho0^{-1}."""
    cyc = cycle_from(emb.rho0, emb.connection[0])
    return cyc, cyc[:1] + cyc[:0:-1]


def _screen(emb: CombinatorialEmbedding) -> _Screen:
    """The least row 1, the rotation at c read from 0, and its tied roots.

    Row 1 is picked column by column: entry i is computed only for the roots
    still tied after entries 0..i-1.  It is read from positions on the cycle
    of the root's direction, without a labelling: y outside J has label
    (pos[y] - pos[c]) % degree + 1, and y in J compares as degree + 1, since
    the vertices of J take the fresh labels 0, degree + 1, degree + 2, ... in
    the order the row meets them.  Labellings are built for the tied roots
    only.
    """
    v, deg = emb.v, emb.degree()
    hole = deg + 1
    # per root: its direction, the cycle written twice, the positions on it
    # written twice (so c + d needs no reduction), c, and the positions of
    # -c, where the row starts, and of c
    tied = []
    for reverses, cycle in enumerate(_directions(emb)):
        pos = [-1] * v
        for i, d in enumerate(cycle):
            pos[d] = i
        twice, pos2 = cycle + cycle, pos + pos
        tied += [(reverses, twice, pos2, c, pos[v - c], pos[c]) for c in emb.connection]
    row = [hole]  # entry 0 is the vertex 0 for every root
    while len(row) < deg and len(tied) > 1:
        i = len(row)
        entries = [hole if (p := pos2[c + twice[start + i]]) < 0 else (p - pc) % deg + 1
                   for _, twice, pos2, c, start, pc in tied]
        low = min(entries)
        tied = [root for root, x in zip(tied, entries) if x == low]
        row.append(low)
    _, twice, pos2, c, start, pc = tied[0]
    row += [hole if (p := pos2[c + d]) < 0 else (p - pc) % deg + 1
            for d in twice[start + len(row):start + deg]]

    holes = [i for i, x in enumerate(row) if x == hole]
    fresh = (0, *range(hole, v))
    for new, i in zip(fresh, holes):
        row[i] = new
    roots = []
    for reverses, twice, pos2, c, start, pc in tied:
        subgroup = [(c + twice[start + i]) % v for i in holes]  # J in row order
        lam = [(p - pc) % deg + 1 for p in pos2[:v]]
        for new, x in zip(fresh, subgroup):
            lam[x] = new
        inv = (0, *twice[pc:pc + deg], *subgroup[1:])
        roots.append(_Root(bool(reverses), tuple(lam), inv))
    return _Screen(tuple(row), tuple(roots))


def _canonical_form(emb: CombinatorialEmbedding) -> _CanonicalForm:
    """The least root code, built row by row, and the roots that attain it.

    Rows 0 and 1 come from :func:`_screen`.  Row a is the rotation at the
    vertex labelled a, from its least label; a root leaves at its first row
    above the least one.
    """
    v, deg = emb.v, emb.degree()
    screen = _screen(emb)
    cycles = _directions(emb)
    alive = [(root, cycles[root.reverses], root.lam + root.lam) for root in screen.roots]
    code = [*range(1, deg + 1), *screen.row]
    for a in range(2, v):
        rows = []
        for root, cycle, lam2 in alive:
            x = root.inv[a]
            labels = [lam2[x + d] for d in cycle]
            m = labels.index(min(labels))
            rows.append(labels[m:] + labels[:m])
        low = min(rows)
        alive = [root for root, row in zip(alive, rows) if row == low]
        code += low
    return _CanonicalForm(array("i", code).tobytes(),
                          tuple(root for root, _, _ in alive))


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

    It is built row by row.  Row 1 is picked column by column over the
    roots still tied, and is read straight from the positions of the
    vertices on the cycle of rho, without a labelling: y outside J has label
    (pos[y] - pos[c]) % degree + 1, and the vertices of J, whose fresh labels
    exceed degree and follow the order of the row, compare as degree + 1.
    Only the roots that tie on row 1 get a labelling, and each later row is
    computed for the roots still tied, dropping those whose row is above the
    least.  Isomorphism tests and :func:`classify` stop at row 1; the whole
    code splits a :func:`classify` bucket that holds two classes.

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
    screen1 = _screen(e1)
    screen2 = screen1 if e2 is e1 else _screen(e2)
    if screen1.row != screen2.row:
        return iter(())
    return _isomorphisms(e1, screen1.roots[0], e2, screen2.roots)


def find_isomorphism(
    e1: CombinatorialEmbedding, e2: CombinatorialEmbedding
) -> EmbeddingMap | None:
    """First isomorphism fixing 0, or None.

    The isomorphisms fixing 0 are listed by the index of sigma(1) in
    ``e2.connection``, preserving before reversing.  Complete for the
    translation-regular embeddings built here: if any isomorphism exists, one
    fixing 0 exists (compose with a translation), and then the least rows 1
    agree and every such map carries a root of e1 tied on row 1 onto one of
    e2; the composites of the other pairs fail :func:`verify_map`.
    """
    return next(_isomorphisms_between(e1, e2), None)


def all_isomorphisms_fixing_zero(
    e1: CombinatorialEmbedding, e2: CombinatorialEmbedding
) -> tuple[EmbeddingMap, ...]:
    """Every isomorphism fixing 0, in :func:`find_isomorphism`'s order."""
    return tuple(_isomorphisms_between(e1, e2))


class StabilizerGroup(NamedTuple):
    """All embedding automorphisms fixing the vertex 0."""

    elements: tuple[EmbeddingMap, ...]
    degree: int

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def size_preserving(self) -> int:
        return sum(1 for m in self.elements if m.kind == PRESERVING)



def stabilizer(emb: CombinatorialEmbedding) -> StabilizerGroup:
    """The vertex-0 stabilizer: one automorphism per root tied for the code.

    Taken from the roots tied on row 1, listed in :func:`find_isomorphism`'s
    order, each certified by :func:`verify_map`.
    """
    return StabilizerGroup(all_isomorphisms_fixing_zero(emb, emb), emb.degree())


# -- classification ------------------------------------------------------------------


class IsomorphismClass(NamedTuple):
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


class ClassificationResult(NamedTuple):
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


class ClassificationError(RuntimeError):
    """A class above its provable cap, or a member with no witness."""


def _class(
    embeddings: Sequence[CombinatorialEmbedding],
    group: Sequence[int],
    roots: Mapping[int, Sequence[_Root]],
) -> IsomorphismClass:
    """``group`` as one class, each member certified onto the representative.

    The representative is the member with the least rotation table; its
    Aut_0 and each member's witness come from its ``roots``.
    Raises ClassificationError when the group is above its cap or a member
    has no isomorphism onto the representative.
    """
    rep = min(group, key=lambda i: embeddings[i].rho0)
    emb, tied = embeddings[rep], roots[rep]
    deg = emb.degree()
    aut0 = tuple(_isomorphisms(emb, tied[0], emb, tied))
    cap = min(2 * len(aut0) * deg, 2 * deg * deg)
    if len(group) > cap:
        raise ClassificationError(
            f"class of representative {rep} has {len(group)} members, above "
            f"the provable cap {cap}: classification logic is broken"
        )
    wit = []
    for i in group:
        found = aut0[0] if i == rep else next(
            _isomorphisms(embeddings[i], roots[i][0], emb, tied), None)
        if found is None:
            raise ClassificationError(
                f"embedding {i} shares a canonical code with {rep} but no "
                "isomorphism was found: classification logic is broken"
            )
        wit.append(found)
    return IsomorphismClass(rep, tuple(group), tuple(wit), cap)


def classify(embeddings: Sequence[CombinatorialEmbedding]) -> ClassificationResult:
    """Partition distinct embeddings into isomorphism classes.

    Inputs must share (v, t); duplicates as rotation maps are rejected.
    Classes are listed in the order of their first member in the input, and
    members in input order.  Each class's representative is its member with
    the lexicographically least serialized rotation map, so representatives
    do not depend on the input order.

    Embeddings are bucketed by their least row 1 (see
    :func:`canonical_code`), an isomorphism invariant, in input order.  A bucket is one class when every
    member maps onto its least member through the roots tied on row 1: a map
    fixing 0 sends roots to roots and keeps every row, so these roots give
    every isomorphism fixing 0 and :func:`verify_map` rejects the rest.  The
    representative's maps are Aut_0(rep), and each member's witness is the
    one :func:`find_isomorphism` would return.  A bucket holding a second
    class is split by :func:`canonical_code`, and each code is one class,
    certified the same way from the roots tied on the whole code; a member
    without a witness there means the code is broken and aborts.  Every
    class size is checked against min(2*|Aut_0(rep)|*degree, 2*degree^2),
    where 2*degree^2 (4*degree^2 in general) holds because the translations
    preserve the orientation of every embedding here: its rotation is the
    same table at each vertex.  Exceeding the cap indicates a logic error
    and aborts.
    """
    if not embeddings:
        return ClassificationResult(0, ())
    v, t = embeddings[0].v, embeddings[0].t
    if any(e.v != v or e.t != t for e in embeddings):
        raise ValueError("mixed parameters in classification input")
    if len({e.rho0 for e in embeddings}) != len(embeddings):
        raise ValueError("duplicate rotation maps: deduplicate before classify")

    screens = [_screen(emb) for emb in embeddings]
    buckets: dict[tuple[int, ...], list[int]] = {}
    for i, screen in enumerate(screens):
        buckets.setdefault(screen.row, []).append(i)

    classes = []
    for bucket in buckets.values():
        try:
            classes.append(_class(embeddings, bucket,
                                  {i: screens[i].roots for i in bucket}))
        except ClassificationError:
            # more than one class, or a fault the full codes show again
            forms = {i: _canonical_form(embeddings[i]) for i in bucket}
            groups: dict[bytes, list[int]] = {}
            for i in bucket:
                groups.setdefault(forms[i].code, []).append(i)
            roots = {i: form.roots for i, form in forms.items()}
            classes += (_class(embeddings, group, roots) for group in groups.values())
    classes.sort(key=lambda c: c.members[0])
    return ClassificationResult(len(embeddings), tuple(classes))

