"""The crazy knight's tour engine.

Given a partially filled array viewed toroidally, direction vectors R (rows:
+1 = left-to-right) and C (columns: +1 = top-to-bottom) induce a successor map
on the filled cells: from (i, j) move within row i, in direction R_i, to the
next filled cell, landing in column j'; then move within column j', in
direction C_{j'}, to the next filled cell.  The map is a bijection, so the
question "does the orbit cover every filled cell?" does not depend on the
start cell; a covering pair (R, C) is called a solution for the skeleton.
R and C are held as ±1 vectors everywhere.  The walk and the orientation
scan are in :mod:`heffter.kernels`, which takes the skeleton, its 1-based
cells and the vectors as they are; this module checks the inputs and wraps
the results.

Besides direct orbit tracing (the oracle) this module implements two exact
characterizations of the trivial-R solutions of diagonal-structured square
skeletons, five constructive solution families with those shapes (closed
under negation, and under the row/column swap on cyclically diagonal
skeletons), and an exhaustive enumerator.  The cyclic characterization's two
reconnection permutations are tables indexed by position with -1 off E, the
library's one permutation form, and it tests their composition with
:func:`validation.is_single_cycle`.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import gcd, log10
from operator import neg
from typing import Callable, Iterator, NamedTuple, Sequence

from . import kernels
from .pfarray import (
    Skeleton,
    classify_diagonality,
    diagonal_skeleton,
)
from .validation import (
    BudgetExceededError,
    _check_directions,
    compose,
    is_single_cycle,
)


# -- orientation pairs -------------------------------------------------------------


class OrientationPair(NamedTuple):
    """Row and column direction vectors in {+1, -1}, checked where used, not here."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def negated(self) -> "OrientationPair":
        """The pair (-R, -C); solutions are closed under this."""
        return OrientationPair(tuple(map(neg, self.rows)), tuple(map(neg, self.cols)))

    @property
    def minus_positions(self) -> tuple[int, ...]:
        """E: the 1-based positions of the -1 entries of C."""
        return tuple(j for j, d in enumerate(self.cols, 1) if d == -1)

    def to_json_dict(self) -> dict:
        return {"R": list(self.rows), "C": list(self.cols), "E": list(self.minus_positions)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "OrientationPair":
        """The pair of a :meth:`to_json_dict` record.  ``E`` may be left out;
        when given, it must be :attr:`minus_positions`, else ValueError."""
        pair = cls(tuple(data["R"]), tuple(data["C"]))
        if "E" in data and data["E"] != list(pair.minus_positions):
            raise ValueError("E is not the positions of -1 in C")
        return pair

    @classmethod
    def from_minus_positions(
        cls, m: int, n: int, minus_positions: Sequence[int]
    ) -> "OrientationPair":
        """Trivial row vector plus the column vector with -1 at the given positions."""
        es = set(_positions(n, minus_positions))
        return cls((1,) * m, tuple(-1 if j + 1 in es else 1 for j in range(n)))


# -- successor map and tours ---------------------------------------------------------


class TourResult(NamedTuple):
    start: tuple[int, int]
    cells: tuple[tuple[int, int], ...]
    covers_all: bool
    period: int


_profile = lru_cache(maxsize=None)(classify_diagonality)


def tour(
    skel: Skeleton,
    rows_dir: Sequence[int],
    cols_dir: Sequence[int],
    start: tuple[int, int] | None = None,
) -> TourResult:
    """The full orbit of ``start`` (default: first filled cell, row-major)."""
    if not skel.filled:
        raise ValueError("empty skeleton")
    _check_directions(rows_dir, skel.m, "row")
    _check_directions(cols_dir, skel.n, "column")
    if start is None:
        start = min(skel.filled)
    if start not in skel.filled:
        raise ValueError(f"start cell {start} is not filled")
    orbit = kernels.tour_orbit(skel, rows_dir, cols_dir, start)
    return TourResult(start, tuple(orbit), len(orbit) == len(skel.filled), len(orbit))


def is_solution(
    skel: Skeleton, rows_dir: Sequence[int], cols_dir: Sequence[int]
) -> bool:
    """Does the successor orbit cover every filled cell?  Start-independent."""
    return tour(skel, rows_dir, cols_dir).covers_all


def enumerate_solutions(
    skel: Skeleton,
    *,
    trivial_rows: bool = False,
    budget: int = 1 << 20,
) -> list[OrientationPair]:
    """All solutions, in lexicographic order over (R, C) with +1 before -1.

    On a square skeleton made of full diagonals, the shift (i, j) ->
    (i+1, j+1) mod n, applied to the cells and rotating R and C together,
    maps solutions to solutions, and so does (R, C) -> (-R, -C).  The scan
    traces one row vector per orbit of that group (per orbit of the shifts
    with trivial rows), and for it one column vector per orbit of the row
    vector's stabilizer; mapped through the whole group, the covering ones
    give every solution (proof in :func:`kernels.scan_orientations`).  Any
    other skeleton is scanned pair by pair.

    Raises :class:`BudgetExceededError` when a pair-by-pair scan has more
    than ``budget`` pairs (2^n with trivial rows, else 2^(m+n)), and on the
    symmetric scan when its 2^n sieve is larger than ``budget`` or it traces
    more than ``budget`` pairs.
    """
    pairs = kernels.scan_orientations(skel, trivial_rows, budget)
    # few distinct rows, and m is unbounded when the rows are trivial
    rows = {r: kernels._vector(r, skel.m) for r in {r for r, _ in pairs}}
    return list(map(OrientationPair, [rows[r] for r, _ in pairs],
                    kernels._vectors([c for _, c in pairs], skel.n)))


# -- exact characterizations (trivial row vector) ---------------------------------------


def strip_criterion(skel: Skeleton, minus_positions: Sequence[int]) -> bool:
    """Solution test for diagonal-structured skeletons with a filled main diagonal.

    With trivial rows and column reversals at ``minus_positions`` (the list E),
    the pair solves the skeleton iff

    1. for every empty strip, E covers all residue classes modulo
       gcd(n, width+1), and
    2. the orbit of (1,1) meets every cell (e, e) with e in E.

    Requires odd k >= 3, size n > k, and a filled first diagonal.
    """
    profile = _profile(skel)
    n, k = profile.n, profile.k
    if k % 2 == 0 or k < 3:
        raise ValueError("criterion requires an odd diagonal count k >= 3")
    if n <= k:
        raise ValueError("criterion requires n > k")
    if 1 not in profile.filled_diagonals:
        raise ValueError("criterion requires the first diagonal to be filled")
    E = _positions(n, minus_positions)

    for d in profile.strip_gcds:
        if {e % d for e in E} != set(range(d)):
            return False

    targets = {(e, e) for e in E}
    if targets:
        pair = OrientationPair.from_minus_positions(n, n, E)
        orbit = tour(skel, pair.rows, pair.cols, start=(1, 1))
        if not targets <= set(orbit.cells):
            return False
    return True


def cyclic_criterion_perms(
    n: int, k: int, minus_positions: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two reconnection permutations of E for a cyclically k-diagonal skeleton.

    The first sends e to the first member of E met by stepping backwards from e
    in multiples of k-1 (mod n, on residues {1..n}); the second shifts the
    sorted list of E by k-1 positions.  Both are tables indexed by position
    0..n, with -1 off E.
    """
    E = _positions(n, minus_positions)
    if not E:
        raise ValueError("needs a nonempty position list")
    eset = set(E)
    w1 = [-1] * (n + 1)
    w2 = [-1] * (n + 1)
    for i, e in enumerate(E):
        back = ((e - step * (k - 1) - 1) % n + 1 for step in itertools.count(1))
        w1[e] = next(c for c in back if c in eset)
        w2[e] = E[(i + k - 1) % len(E)]
    return tuple(w1), tuple(w2)


def cyclic_criterion(n: int, k: int, minus_positions: Sequence[int]) -> bool:
    """Solution test for cyclically k-diagonal skeletons, trivial row vector.

    True iff E covers all classes mod gcd(n, k-1) and the composition of the
    two reconnection permutations is one cycle through all of E.
    """
    if k % 2 == 0 or k < 3:
        raise ValueError("criterion requires an odd diagonal count k >= 3")
    if n <= k:
        raise ValueError("criterion requires n > k")
    E = _positions(n, minus_positions)
    d = gcd(n, k - 1)
    if {e % d for e in E} != set(range(d)):
        return False
    w1, w2 = cyclic_criterion_perms(n, k, E)
    return is_single_cycle(compose(w2, w1), E)


def _positions(n: int, minus_positions: Sequence[int]) -> list[int]:
    """The distinct positions of E in ascending order, each checked to lie in [1, n]."""
    E = sorted(set(minus_positions))
    if any(not 1 <= e <= n for e in E):
        raise ValueError(f"positions {E} must lie in [1, {n}]")
    return E


# -- constructive families ----------------------------------------------------------


class FamilySpec(NamedTuple):
    """Parameters and admissibility diagnostics of a solution family."""

    family: str
    n: int
    k: int
    r: int | None
    diagonals: tuple[int, ...]
    admissibility: dict[str, bool]

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "k": self.k,
            "r": self.r,
            "diagonals": list(self.diagonals),
            "admissibility": dict(self.admissibility),
        }


class SolutionFamily:
    """A lazily generated, deterministic stream of certified solutions.

    Iteration yields, for each base set E in lexicographic order, the trivial-R
    pair, its negation, and (on cyclically diagonal skeletons, where
    ``swap_closed`` holds) the row/column swap and the negated swap.  Every
    base pair is re-certified before being emitted: by the cyclic criterion on
    cyclically diagonal skeletons, else by the strip criterion.
    """

    def __init__(self, spec: FamilySpec, swap_closed: bool, count: Callable[[], int],
                 bases: Callable[[], Iterator[tuple[int, ...]]]) -> None:
        self.spec = spec
        self.swap_closed = swap_closed
        self._count = count
        self._bases = bases

    @cached_property
    def base_count(self) -> int:
        """The number of base sets E, counted on first read."""
        return self._count()

    @cached_property
    def skeleton(self) -> Skeleton:
        """The n x n skeleton filled on ``spec.diagonals``, built on first read."""
        return diagonal_skeleton(self.spec.n, self.spec.diagonals)

    def _verify(self, minus_positions: Sequence[int]) -> bool:
        """Does the trivial-R pair with -1 at ``minus_positions`` solve the skeleton?"""
        n, k = self.spec.n, self.spec.k
        if not self.swap_closed:
            return strip_criterion(self.skeleton, minus_positions)
        if n > k:
            return cyclic_criterion(n, k, minus_positions)
        # n = k: a fully filled grid, outside the criterion's n > k regime;
        # certify by direct orbit trace instead.
        pair = OrientationPair.from_minus_positions(n, n, minus_positions)
        return is_solution(self.skeleton, pair.rows, pair.cols)

    def base_pairs(self) -> Iterator[OrientationPair]:
        n = self.spec.n
        for E in self._bases():
            if not self._verify(E):
                raise RuntimeError(
                    f"family {self.spec.family}: generated set {E} fails its "
                    "characterization; this is a bug"
                )
            yield OrientationPair.from_minus_positions(n, n, E)

    def __iter__(self) -> Iterator[OrientationPair]:
        for base in self.base_pairs():
            yield base
            yield base.negated()
            if self.swap_closed:
                sw = OrientationPair(base.cols, base.rows)
                yield sw
                yield sw.negated()

    def census(self) -> int:
        """Exact number of pairs the stream yields (all distinct).

        Raises :class:`bounds.TooLargeError` when the census has more digits
        than str() prints; a base count past that limit is not computed.
        """
        from .bounds import _check_printable

        census = self.base_count * (4 if self.swap_closed else 2)
        _check_printable(census)
        return census


def _default_prime_r(lo_num: int, lo_den: int, hi_num: int, hi_den: int,
                     coprime_to: int, what: str) -> int:
    """Smallest prime in the rational interval [lo, hi] coprime to ``coprime_to``."""
    from .bounds import _is_prime

    lo = -(-lo_num // lo_den)
    hi = hi_num // hi_den
    for p in range(max(lo, 2), hi + 1):
        if _is_prime(p) and gcd(p, coprime_to) == 1:
            return p
    raise ValueError(
        f"no admissible subset size in the default range [{lo_num}/{lo_den}, "
        f"{hi_num}/{hi_den}] for {what}; pass r explicitly"
    )


def three_diagonal_family(n: int) -> SolutionFamily:
    """Solutions of cyclically 3-diagonal skeletons from odd-position subsets.

    Every nonempty set of odd positions works; with negation and swap closure
    the stream holds 4*(2^((n+1)/2) - 1) distinct pairs.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("needs odd n >= 3")
    odds = range(1, n + 1, 2)

    def bases() -> Iterator[tuple[int, ...]]:
        for r in range(1, len(odds) + 1):
            yield from itertools.combinations(odds, r)

    spec = FamilySpec(
        "ThreeDiag", n, 3, None, (1, 2, 3),
        {"n_odd": n % 2 == 1, "n_at_least_3": n >= 3},
    )

    def count() -> int:
        from .bounds import _check_digits

        _check_digits((len(odds) - 1) * log10(2))  # 2^h - 1 >= 2^(h-1)
        return (1 << len(odds)) - 1

    return SolutionFamily(spec, True, count, bases)


def _congruent_positions(n: int, modulus: int, residue: int) -> range:
    """The positions x in [1, n] with x = residue mod modulus, without listing them."""
    return range(residue % modulus or modulus, n + 1, modulus)


def _subset_family(
    family_id: str,
    n: int,
    k: int,
    r: int,
    residues: Sequence[int],
    prefix: tuple[int, ...],
    swap_closed: bool,
    admissibility: dict[str, bool],
    diagonals: tuple[int, ...],
) -> SolutionFamily:
    pick = r - len(prefix)
    if not 0 < pick <= len(residues):
        raise ValueError(
            f"subset size r={r} infeasible: {len(residues)} admissible positions"
        )

    def bases() -> Iterator[tuple[int, ...]]:
        for combo in itertools.combinations(residues, pick):
            yield prefix + combo

    def count() -> int:
        from .bounds import binom

        return binom(len(residues), pick)

    spec = FamilySpec(family_id, n, k, r, diagonals, admissibility)
    return SolutionFamily(spec, swap_closed, count, bases)


def power_two_family(n: int, k: int, r: int | None = None) -> SolutionFamily:
    """Solutions of cyclically k-diagonal skeletons, k odd, gcd(n, k-1) = 1.

    E runs over the r-subsets of the positions congruent to 1 mod k-1, with
    the subset size r coprime to k-2.  The default r is the smallest prime in
    [n/(4(k-1)), n/(2(k-1))] (which needs n >= 4k-3); any admissible r may be
    passed explicitly.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("needs odd k >= 3")
    if n <= k:
        raise ValueError("needs n > k")
    if gcd(n, k - 1) != 1:
        raise ValueError(f"needs gcd(n, k-1) = 1, got {gcd(n, k - 1)}")
    if r is None:
        if n < 4 * k - 3:
            raise ValueError("default subset size needs n >= 4k-3; pass r explicitly")
        r = _default_prime_r(n, 4 * (k - 1), n, 2 * (k - 1), k - 2, "power-two family")
    if gcd(r, k - 2) != 1:
        raise ValueError(f"subset size r={r} must be coprime with k-2={k - 2}")
    residues = _congruent_positions(n, k - 1, 1)
    adm = {
        "k_odd": True,
        "gcd(n,k-1)=1": True,
        "r_coprime_k-2": gcd(r, k - 2) == 1,
        "default_range_n>=4k-3": n >= 4 * k - 3,
    }
    return _subset_family(
        "PowerTwo", n, k, r, residues, (), True, adm, tuple(range(1, k + 1))
    )


def seven_diagonal_family(n: int, r: int | None = None) -> SolutionFamily:
    """Solutions of cyclically 7-diagonal skeletons for odd n.

    When gcd(n, 6) = 1 this is the k = 7 power-two family.  When gcd(n, 6) = 3
    the sets are {1, 2} plus r-2 positions congruent to 3 mod 6, with r = 4
    mod 5 picked from [n/24, n/12] by default; the counting there wants
    n > 120, the construction itself only odd n > 7.
    """
    if n % 2 == 0:
        raise ValueError("needs odd n")
    if n <= 7:
        raise ValueError("needs n > 7")
    g = gcd(n, 6)
    if g == 1:
        fam = power_two_family(n, 7, r)
        fam.spec = fam.spec._replace(
            family="KSeven", admissibility={**fam.spec.admissibility, "gcd(n,6)=1": True})
        return fam

    residues = _congruent_positions(n, 6, 3)
    if r is None:
        lo, hi = -(-n // 24), n // 12
        r = next((x for x in range(max(lo, 4), hi + 1) if x % 5 == 4), None)
        if r is None:
            raise ValueError(
                f"no subset size = 4 mod 5 in the default range [{lo}, {hi}]; "
                "pass r explicitly"
            )
    if r % 5 != 4:
        raise ValueError(f"subset size r={r} must be congruent to 4 mod 5")
    adm = {"n_odd": True, "gcd(n,6)=3": True, "r=4_mod_5": r % 5 == 4,
           "counting_range_n>120": n > 120}
    return _subset_family(
        "KSeven", n, 7, r, residues, (1, 2), True, adm, tuple(range(1, 8))
    )


def prime_family(n: int, k: int, r: int | None = None) -> SolutionFamily:
    """Solutions of the near-diagonal prime-size skeletons.

    The skeleton fills diagonals 1..k-3 and k-1, k, k+1 of a prime-size grid;
    E runs over r-subsets of the positions congruent to 1 mod 2k, r coprime to
    k-2 (default: the smallest prime in [n/8k, n/4k], which wants n > 8k).
    No swap closure: the skeleton is not cyclically diagonal.  k = 3 leaves
    diagonal 1 empty, which the strip criterion certifying the family needs.
    """
    from .bounds import _is_prime

    if k < 5 or k % 2 == 0:
        raise ValueError("needs odd k >= 5")
    if not _is_prime(n):
        raise ValueError(f"needs prime n, got {n}")
    if n <= k + 1:
        raise ValueError("needs n > k+1")
    if r is None:
        if n <= 8 * k:
            raise ValueError("default subset size needs n > 8k; pass r explicitly")
        r = _default_prime_r(n, 8 * k, n, 4 * k, k - 2, "prime family")
    if gcd(r, k - 2) != 1:
        raise ValueError(f"subset size r={r} must be coprime with k-2={k - 2}")
    diagonals = tuple(range(1, k - 2)) + (k - 1, k, k + 1)
    residues = _congruent_positions(n, 2 * k, 1)
    adm = {"k_odd": True, "n_prime": True, "r_coprime_k-2": gcd(r, k - 2) == 1,
           "default_range_n>8k": n > 8 * k}
    return _subset_family("PrimeN", n, k, r, residues, (), False, adm, diagonals)


def pairs_family(n: int, k: int, i: int, s1: int) -> SolutionFamily:
    """Two-element solutions of the strip-patterned skeletons.

    The skeleton fills diagonals 1..i, i+s1, and i+s1+2 .. k+s1; every
    2-subset of [1, n] works once gcd(n, 2) = gcd(n, s1) = gcd(n, k+s1-1) = 1.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("needs odd k >= 3")
    if not (1 <= i <= k - 2):
        raise ValueError("needs 1 <= i <= k-2")
    if s1 < 2:
        raise ValueError("needs strip step s1 >= 2")
    if k + s1 > n:
        raise ValueError("diagonal pattern does not fit: needs k + s1 <= n")
    checks = {
        "gcd(n,2)=1": gcd(n, 2) == 1,
        "gcd(n,s1)=1": gcd(n, s1) == 1,
        "gcd(n,k+s1-1)=1": gcd(n, k + s1 - 1) == 1,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise ValueError(f"admissibility failed: {', '.join(failed)}")
    diagonals = tuple(range(1, i + 1)) + (i + s1,) + tuple(
        range(i + s1 + 2, k + s1 + 1)
    )
    return _subset_family(
        "PairsGeneral", n, k, 2, range(1, n + 1), (), False, checks, diagonals
    )


FAMILY_BUILDERS = {
    "ThreeDiag": three_diagonal_family,
    "PowerTwo": power_two_family,
    "KSeven": seven_diagonal_family,
    "PrimeN": prime_family,
    "PairsGeneral": pairs_family,
}


def build_family(family: str, **params) -> SolutionFamily:
    """Dispatch by family id (case-insensitive); see FAMILY_BUILDERS."""
    by_lower = {name.lower(): fn for name, fn in FAMILY_BUILDERS.items()}
    try:
        builder = by_lower[family.lower()]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; known: {sorted(FAMILY_BUILDERS)}"
        ) from None
    return builder(**params)
