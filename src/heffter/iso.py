"""Embedding isomorphism, vertex stabilizers, and family classification.

Two embeddings with rotations rho, rho' are isomorphic when some graph
isomorphism sigma satisfies sigma∘rho = rho'∘sigma on every oriented edge
(orientation preserving) or sigma∘rho = rho'^{-1}∘sigma (reversing).

For the translation-regular embeddings built here every question reduces to
roots.  Translations are automorphisms, so any isomorphism composes with one
to a map fixing 0.  A root (c, rho) is a neighbor c of 0 with a direction
rho, one of rho0 and rho0^{-1}: 2 * degree roots in all.  Its labelling
lambda numbers 0 as 0, the vertices met walking the rotation at 0 from c as
1, ..., degree, and then those not yet numbered met walking the rotation at
c from 0.  The first walk numbers the connection set Z_v \\ J; the rest,
J \\ {0}, misses c + J and so lies among the neighbors of c.  The root's
row 1 is the rotation at c read from 0, in labels.

Why the least row 1 is an invariant.  A map sigma fixing 0 from e1 onto e2
sends the root (c, rho) of e1 to the root (sigma(c), rho') of e2, where rho'
turns the same way as rho when sigma preserves orientation and the other way
when it reverses it.  It carries both walks of the first root onto those of
the second, so lambda' ∘ sigma = lambda and both roots read the same row 1.
So isomorphic embeddings have the same rows 1 and the same least one.

Why the roots tied on it give every isomorphism fixing 0.  By the same
argument sigma sends a root of e1 tied on the least row 1 onto a root of e2
tied on it, and lambda' ∘ sigma = lambda makes sigma the composite
lambda'^{-1} ∘ lambda of their labellings.  The composites from one tied
root of e1 onto each tied root of e2, each checked by :func:`verify_map`
(on all oriented edges, or at 0 for a multiplier), are thus exactly the
isomorphisms fixing 0
(:func:`find_isomorphism`) and, from an embedding to itself, its stabilizer
Aut_0 (:func:`stabilizer`).  :func:`classify` buckets a family by the least
row 1 and splits each bucket the same way: the members certified onto the
representative form its class, and the rest are certified onto the next.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .embedding import CombinatorialEmbedding

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
    tables is preserving at once.  A multiplier x -> u*x (u a unit, since
    sigma is a bijection) is decided at the vertex 0 alone: it sends the
    edge (x, d) to (u*x, u*d) and the rotation at x, x + d -> x + rho1(d),
    to u*x + u*d -> u*x + u*rho1(d), so it is preserving exactly when
    rho2(u*d) = u*rho1(d) for every d in the connection set, whatever x is,
    since both embeddings are translation invariant; reversing likewise with
    rho2^{-1}.  A unit fixes J, the subgroup of order t, so u*d stays in the
    connection set.  Any other map is checked on all v * degree oriented
    edges, one difference d of e1 at a time: the images of x + d and
    x + rho1(d) over all x, as list slices of sigma written twice.
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
    u = S[1]
    if S == [u * x % v for x in identity]:
        images = [u * e1.rho0[d] % v for d in e1.connection]
        moved = [u * d % v for d in e1.connection]
        if list(map(e2.rho0.__getitem__, moved)) == images:
            return PRESERVING
        if list(map(_inverse(e2.rho0).__getitem__, moved)) == images:
            return REVERSING
        return None

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
    """The least row 1 over the roots, and the roots that attain it.

    ``cycle`` is the cycle of rho0 from 1, ``tied`` each tied root as its
    direction (1 for rho0^{-1}) and c, and ``holes`` the indices of J on the
    row.  The labellings are built by :meth:`root` and :attr:`roots`, only
    when a certificate needs them.
    """

    row: tuple[int, ...]
    cycle: list[int]
    tied: tuple[tuple[int, int], ...]
    holes: tuple[int, ...]

    def root(self, i: int) -> _Root:
        return self._labellings(self.tied[i:i + 1])[0]

    @property
    def roots(self) -> tuple[_Root, ...]:
        return self._labellings(self.tied)

    def _labellings(self, tied: Sequence[tuple[int, int]]) -> tuple[_Root, ...]:
        """The labellings of ``tied``, from one position table per direction."""
        deg = len(self.cycle)
        v = deg + len(self.holes)  # c + d is in J for the t differences d in -c + J
        directions = {r: _direction(self.cycle, r, v) for r in {r for r, _ in tied}}
        roots = []
        for reverses, c in tied:
            cycle, pos = directions[reverses]
            start, pc = pos[v - c], pos[c]
            subgroup = [(c + cycle[(start + j) % deg]) % v for j in self.holes]  # J in row order
            lam = [(p - pc) % deg + 1 for p in pos]
            for new, x in zip((0, *range(deg + 1, v)), subgroup):
                lam[x] = new
            inv = (0, *cycle[pc:], *cycle[:pc], *subgroup[1:])
            roots.append(_Root(bool(reverses), tuple(lam), inv))
        return tuple(roots)


def _direction(cycle: list[int], reverses: int, v: int) -> tuple[list[int], list[int]]:
    """The cycle of rho0 from 1, or of rho0^{-1} when ``reverses``, and the
    position of each difference on it, -1 on J."""
    if reverses:
        cycle = cycle[:1] + cycle[:0:-1]
    pos = [-1] * v
    for i, d in enumerate(cycle):
        pos[d] = i
    return cycle, pos


def _screen(emb: CombinatorialEmbedding) -> _Screen:
    """The least row 1, the rotation at c read from 0, and its tied roots.

    An isomorphism sigma fixing 0 sends each root to one that reads the same
    row 1 (lambda' ∘ sigma = lambda; see the module docstring), so the least
    row is an isomorphism invariant and sigma carries the tied roots onto the
    tied roots: from one of them, the composites onto them give every
    isomorphism fixing 0.

    Row 1 is picked column by column: entry i is computed only for the roots
    still tied after entries 0..i-1.  It is read from positions on the cycle
    of the root's direction, without a labelling: y outside J has label
    (pos[y] - pos[c]) % degree + 1, and y in J compares as degree + 1, since
    the vertices of J take the fresh labels 0, degree + 1, degree + 2, ... in
    the order the row meets them.  The cycle is the walk of rho0 from 1, the
    first difference, which the constructor checked to be one cycle through
    the whole connection set.
    """
    v, deg, rho0 = emb.v, emb.degree(), emb.rho0
    hole = deg + 1
    cycle = [1]
    d = 1
    for _ in range(deg - 1):
        d = rho0[d]
        cycle.append(d)
    # per root: its direction, the cycle written twice, the positions on it
    # written twice (so c + d needs no reduction), c, and the positions of
    # -c, where the row starts, and of c
    tied = []
    for reverses in (0, 1):
        cyc, pos = _direction(cycle, reverses, v)
        twice, pos2 = cyc + cyc, pos + pos
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

    holes = tuple(i for i, x in enumerate(row) if x == hole)
    for new, i in zip((0, *range(hole, v)), holes):
        row[i] = new
    return _Screen(tuple(row), cycle, tuple((root[0], root[3]) for root in tied), holes)


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
    return _isomorphisms(e1, screen1.root(0), e2, screen2.roots)


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
    """The vertex-0 stabilizer Aut_0: of the maps from one root tied on row 1
    onto each, those :func:`verify_map` certifies, in :func:`find_isomorphism`'s
    order."""
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
    """A class above its provable cap."""


def _class(
    embeddings: Sequence[CombinatorialEmbedding],
    bucket: Sequence[int],
    screens: Sequence[_Screen],
) -> tuple[IsomorphismClass, list[int]]:
    """The class of the member with the least rotation table, and the rest.

    Each member's witness is its first map onto the representative from the
    roots tied on row 1, the one :func:`find_isomorphism` would return; a
    member without one is left over.  Both keep the order of ``bucket``.
    Raises ClassificationError when the class is above its cap.
    """
    rep = min(bucket, key=lambda i: embeddings[i].rho0)
    emb, tied = embeddings[rep], screens[rep].roots
    deg = emb.degree()
    aut0 = tuple(_isomorphisms(emb, tied[0], emb, tied))
    if not aut0:
        raise ClassificationError(
            f"representative {rep} has no certified automorphism, so its class "
            "is above the provable cap 0: classification logic is broken"
        )
    cap = min(2 * len(aut0) * deg, 2 * deg * deg)
    members, wit, rest = [], [], []
    for i in bucket:
        found = aut0[0] if i == rep else next(
            _isomorphisms(embeddings[i], screens[i].root(0), emb, tied), None)
        if found is None:
            rest.append(i)
        else:
            members.append(i)
            wit.append(found)
    if len(members) > cap:
        raise ClassificationError(
            f"class of representative {rep} has {len(members)} members, above "
            f"the provable cap {cap}: classification logic is broken"
        )
    return IsomorphismClass(rep, tuple(members), tuple(wit), cap), rest


def classify(embeddings: Sequence[CombinatorialEmbedding]) -> ClassificationResult:
    """Partition distinct embeddings into isomorphism classes.

    Inputs must share (v, t); duplicates as rotation maps are rejected.
    Classes are listed in the order of their first member in the input, and
    members in input order.  Each class's representative is its member with
    the lexicographically least serialized rotation map, so representatives
    do not depend on the input order.

    Embeddings are bucketed by their least row 1, an isomorphism invariant
    (see the module docstring), in input order.  A bucket is split by
    certification alone: the members that map onto its least member through
    the roots tied on row 1 are one class, since these roots give every
    isomorphism fixing 0 and :func:`verify_map` rejects the rest; the members
    left over are split the same way.  The representative's maps are
    Aut_0(rep), and each member's witness is the one :func:`find_isomorphism`
    would return.  Every class size is checked against
    min(2*|Aut_0(rep)|*degree, 2*degree^2), where 2*degree^2 (4*degree^2 in
    general) holds because the translations preserve the orientation of every
    embedding here: its rotation is the same table at each vertex.  Exceeding
    the cap, or an empty Aut_0(rep), indicates a logic error and aborts.
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
        while bucket:
            cls, bucket = _class(embeddings, bucket, screens)
            classes.append(cls)
    classes.sort(key=lambda c: c.members[0])
    return ClassificationResult(len(embeddings), tuple(classes))
