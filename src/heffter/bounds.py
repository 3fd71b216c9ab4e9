"""Exact evaluation of the counting bounds, with hypothesis checkers.

Every bound's combinatorial side is computed in exact arithmetic (integers or
fractions); only the binary entropy and the asymptotic reference expressions
use floating point, at a documented 1e-12 relative tolerance.

Two unrelated parameters are both written "t" in this subject: the subgroup
order of a relative array, and the quantity (k-3)/4 attached to the k = 4t+3
array families.  The query schema names them ``subgroup_t`` and ``cdy_t`` so
they can never be aliased.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import comb, gcd
from typing import Callable, NamedTuple


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), extended by continuity at 0 and 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"entropy argument {p} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


class TooLargeError(ValueError):
    """Raised for an exact value with more digits than str() prints."""


def _check_digits(log10_value: float) -> None:
    """Raise :class:`TooLargeError` when a value whose log10 is at least
    ``log10_value`` is past the int-to-str digit limit; one digit absorbs rounding.

    A limit of 0 (or none, before 3.10.7) lets str() print any int, but the
    value would still take unbounded time to compute, so the interpreter's
    default limit applies then."""
    limit = (getattr(sys, "get_int_max_str_digits", int)()
             or getattr(sys.int_info, "default_max_str_digits", 4300))
    if log10_value > limit + 1:
        raise TooLargeError(f"more than {limit} digits")


def _check_printable(value: object) -> None:
    """Raise :class:`TooLargeError` when str() cannot print ``value``."""
    try:
        str(value)
    except ValueError:
        raise TooLargeError(f"more than {sys.get_int_max_str_digits()} digits") from None


def derangements(m: int) -> int:
    """Number of fixed-point-free permutations of m symbols, exactly; raises
    :class:`TooLargeError`, before computing it, past the digit limit."""
    if m < 0:
        raise ValueError("derangements need m >= 0")
    if m == 0:
        return 1
    if m == 1:
        return 0
    # D(m) >= m!/(2e) for m >= 2, and D grows with m, so capping m keeps it
    # a lower bound
    _check_digits((math.lgamma(min(m, 10 ** 300) + 1) - 1 - math.log(2)) / math.log(10))
    a, b = 1, 0  # D(0), D(1)
    for i in range(2, m + 1):
        a, b = b, (i - 1) * (a + b)
    return b


def binom(a: int, b: int) -> int:
    """C(a, b), exactly; raises :class:`TooLargeError`, before computing it,
    past the digit limit."""
    # C(a, b) = C(a, c) >= (a/c)^c, c = min(b, a-b); as a/c >= 2, capping c
    # keeps it a lower bound
    c = min(b, a - b)
    if c > 0:
        _check_digits(min(c, 10 ** 300) * (math.log10(a) - math.log10(c)))
    return comb(a, b)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981  # least strong pseudoprime to all bases


def _is_prime(x: int) -> bool:
    """Deterministic Miller-Rabin on the primes up to 41, exact below _MR_LIMIT.

    Raises ValueError at or above the limit, where these bases prove nothing.
    """
    if x >= _MR_LIMIT:
        raise ValueError(f"primality test is exact only below {_MR_LIMIT}, got {x}")
    if x < 2:
        return False
    for p in _MR_BASES:
        if x % p == 0:
            return x == p
    d, s = x - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        y = pow(a, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def _ceil(a: int, b: int) -> int:
    return -(-a // b)


def _float(compute: Callable[[], float]) -> float | None:
    """The float ``compute()`` returns, or None where it overflows a float or is NaN."""
    try:
        value = compute()
    except OverflowError:
        return None
    return None if math.isinf(value) or math.isnan(value) else value


class BoundQuery(NamedTuple):
    """A theorem id plus its parameters.

    ``n`` and ``k`` are always required; ``subgroup_t`` only matters for the
    diagonal-family theorems (default 1) and ``s1`` for the strip pattern.
    Derived quantities (v, cdy_t) are always recomputed.
    """

    theorem: str
    n: int
    k: int
    subgroup_t: int = 1
    s1: int | None = None

    @property
    def v(self) -> int:
        return 2 * self.n * self.k + self.subgroup_t

    @property
    def cdy_t(self) -> int | None:
        """(k-3)/4 when integral, else None."""
        return (self.k - 3) // 4 if (self.k - 3) % 4 == 0 else None


class BoundResult(NamedTuple):
    theorem: str
    exact: int | Fraction | None
    approx: float | None
    asymptotic_reference: float | None
    hypotheses: dict[str, bool]
    notes: tuple[str, ...] = ()

    @property
    def hypotheses_ok(self) -> bool:
        return all(self.hypotheses.values())

    def to_json_dict(self) -> dict:
        if isinstance(self.exact, Fraction):
            exact: object = {
                "numerator": self.exact.numerator,
                "denominator": self.exact.denominator,
            }
        else:
            exact = self.exact
        return {
            "theorem": self.theorem,
            "exact": exact,
            "approx": self.approx,
            "asymptotic_reference": self.asymptotic_reference,
            "hypotheses": dict(self.hypotheses),
            "hypotheses_ok": self.hypotheses_ok,
            "notes": list(self.notes),
        }


class HypothesisError(ValueError):
    """Raised when a theorem's hypotheses fail and evaluation is not forced."""


_E = math.e
_H14 = binary_entropy(0.25)


def _cdy_hypotheses(q: BoundQuery, prime_only: bool) -> dict[str, bool]:
    t = q.cdy_t
    hyp = {
        "k=4t+3": t is not None,
        "n=1_mod_4": q.n % 4 == 1,
    }
    if prime_only:
        hyp["n_prime"] = _is_prime(q.n)
        hyp["n>8k"] = q.n > 8 * q.k
    else:
        hyp["n_prime_or_n>=(7k+1)/3"] = 3 * q.n >= 7 * q.k + 1 or _is_prime(q.n)
        hyp["k=7_mod_12_when_3|n"] = q.n % 3 != 0 or q.k % 12 == 7
    hyp["derangement_domain_t>=2"] = t is not None and t >= 2
    return hyp


def _cdy_core(q: BoundQuery, a: int = 0, b: int = 0) -> int:
    """(n-2) D(t-2)^2 C(a, b); C(a, b) is not computed when the rest is 0."""
    t = q.cdy_t
    assert t is not None and t >= 2
    core = (q.n - 2) * derangements(t - 2) ** 2
    return core * binom(a, b) if core else 0


def _diag_t_hypothesis(q: BoundQuery) -> dict[str, bool]:
    t, n, k = q.subgroup_t, q.n, q.k
    return {
        "t_in_{1,2,k}_cases": (
            (t in (1, 2) and (n * k) % 4 == 3) or (t == k and n % 4 == 3)
        ),
    }


def _eval_cdy(q: BoundQuery) -> tuple[int, float | None]:
    t = q.cdy_t
    value = _cdy_core(q)
    ref = _float(lambda: (q.n - 2) * (math.factorial(t - 2) / _E) ** 2)
    return value, ref


def _eval_general_bound(q: BoundQuery) -> tuple:
    t = q.cdy_t
    value = Fraction(_cdy_core(q), 2 * (2 * q.n * q.k) ** 2)
    if t == 2:
        return value, None, "no asymptotic reference at t = 2: (t-2)^(2t-5) is 0^-1"
    ref = _float(
        lambda: math.pi * (t - 2) ** (2 * t - 5) / (64 * _E ** (2 * t - 2) * q.n)
    )
    return value, ref


def _eval_cdy2(q: BoundQuery) -> tuple[int, float | None]:
    t = q.cdy_t
    a, b = _ceil(q.n, 2 * q.k), _ceil(q.n, 8 * q.k)
    value = 2 * _cdy_core(q, a, b)
    ref = _float(lambda: (
        math.factorial(t - 2) ** 2
        * math.sqrt((4 * t + 3) * q.n)
        / (_E ** 2 * math.sqrt(3 * math.pi))
        * 2 ** (q.n / (2 * (4 * t + 3)) * _H14 + 3)
    ))
    return value, ref


def _eval_cdy3(q: BoundQuery) -> tuple[Fraction, float | None]:
    t = q.cdy_t
    a, b = _ceil(q.n, 2 * q.k), _ceil(q.n, 8 * q.k)
    value = Fraction(_cdy_core(q, a, b), (2 * q.n * q.k) ** 2)
    ref = _float(lambda: (
        math.factorial(t - 2) ** 2
        / (_E ** 2 * math.sqrt(3 * math.pi * (q.n * (4 * t + 3)) ** 3))
        * 2 ** (q.n / (2 * (4 * t + 3)) * _H14)
    ))
    return value, ref


def _eval_cdy4(q: BoundQuery) -> tuple[int, float | None]:
    t = q.cdy_t
    value = 2 * _cdy_core(q, q.n, 2)
    ref = _float(lambda: q.n ** 3 * math.factorial(t - 2) ** 2 / _E ** 2)
    return value, ref


def _eval_cdy5(q: BoundQuery) -> tuple[Fraction, float | None]:
    t = q.cdy_t
    value = Fraction(_cdy_core(q, q.n, 2), (2 * q.n * q.k) ** 2)
    ref = _float(
        lambda: q.n * math.factorial(t - 2) ** 2 / (8 * ((4 * t + 3) * _E) ** 2)
    )
    return value, ref


def _eval_diagbi(q: BoundQuery) -> tuple[None, float | None]:
    return None, _float(lambda: 2 ** (q.n / 2) / (9 * q.n ** 2))


def _eval_diagbi2(q: BoundQuery) -> tuple[Fraction, float | None]:
    n, k = q.n, q.k
    a, b = n // (k - 1), n // (4 * k - 4)
    value = Fraction(binom(a, b), (n * k) ** 2)
    ref = _float(lambda: (
        math.sqrt(2 * (k - 1) / (3 * n * math.pi))
        * 2 ** ((n // (k - 1)) * _H14 + 1)
        / (n * k) ** 2
    ))
    return value, ref


def _eval_diagbi3(q: BoundQuery) -> tuple[Fraction, float | None]:
    n, k = q.n, q.k
    a, b = _ceil(n, k - 1), _ceil(n, 4 * k - 4)
    value = Fraction(binom(a, b), (n * k) ** 2)
    ref = _float(lambda: (
        math.sqrt(2 * (k - 1) / (3 * n * math.pi))
        * 2 ** (n / (k - 1) * _H14 + 1)
        / (n * k) ** 2
    ))
    return value, ref


def _eval_p3diag(q: BoundQuery) -> tuple[None, float | None]:
    return None, _float(lambda: 2 ** (q.n / 2 + 2))


def _eval_ppower2(q: BoundQuery) -> tuple[int, float | None]:
    n, k = q.n, q.k
    a, b = _ceil(n, k - 1), _ceil(n, 4 * k - 4)
    value = 4 * binom(a, b)
    ref = _float(lambda: (
        math.sqrt(2 * (k - 1) / (3 * n * math.pi)) * 2 ** (n / (k - 1) * _H14 + 3)
    ))
    return value, ref


def _eval_pk7(q: BoundQuery) -> tuple[int, float | None]:
    n = q.n
    value = 4 * binom(n // 6, n // 24)
    ref = _float(lambda: 2 ** ((n // 6) * _H14 + 4) / math.sqrt(n * math.pi))
    return value, ref


def _eval_pprime(q: BoundQuery) -> tuple[int, float | None]:
    n, k = q.n, q.k
    a, b = _ceil(n, 2 * k), _ceil(n, 8 * k)
    value = 2 * binom(a, b)
    ref = _float(
        lambda: math.sqrt(k / (3 * math.pi * n)) * 2 ** (n / (2 * k) * _H14 + 3)
    )
    return value, ref


def _eval_ppairs(q: BoundQuery) -> tuple[int, None]:
    return 2 * binom(q.n, 2), None


# An evaluator returns the exact value and the reference float, then any notes.
_Spec = tuple[Callable[[BoundQuery], dict[str, bool]], Callable[[BoundQuery], tuple], str]

THEOREMS: dict[str, _Spec] = {
    # complete-graph families with k = 4t+3
    "CDY": (
        lambda q: _cdy_hypotheses(q, prime_only=False),
        _eval_cdy,
        "distinct simple k-gonal biembedding count, k = 4t+3 regime",
    ),
    "GeneralBound": (
        lambda q: _cdy_hypotheses(q, prime_only=False),
        _eval_general_bound,
        "non-isomorphic count: distinct count divided by 2(2nk)^2",
    ),
    "CDY2": (
        lambda q: _cdy_hypotheses(q, prime_only=True),
        _eval_cdy2,
        "distinct count boosted by the prime-size subset construction",
    ),
    "CDY3": (
        lambda q: _cdy_hypotheses(q, prime_only=True),
        _eval_cdy3,
        "non-isomorphic count from the prime-size subset construction",
    ),
    "CDY4": (
        lambda q: _cdy_hypotheses(q, prime_only=False),
        _eval_cdy4,
        "distinct count boosted by the two-element subset construction",
    ),
    "CDY5": (
        lambda q: _cdy_hypotheses(q, prime_only=False),
        _eval_cdy5,
        "non-isomorphic count from the two-element subset construction",
    ),
    # diagonal families on multipartite graphs
    "DiagBi": (
        lambda q: {
            "k=3": q.k == 3,
            "t_case": (
                (q.subgroup_t in (1, 2) and q.n % 4 == 1)
                or (q.subgroup_t == 3 and q.n % 4 == 3)
                or (q.subgroup_t in (q.n, 2 * q.n) and q.n % 2 == 1)
            ),
            "n>=3": q.n >= 3,
        },
        _eval_diagbi,
        "non-isomorphic 3-gonal biembeddings from 3-diagonal arrays",
    ),
    "DiagBi2": (
        lambda q: {
            "k_in_{5,7,9}": q.k in (5, 7, 9),
            "n>=120": q.n >= 120,
            **_diag_t_hypothesis(q),
        },
        _eval_diagbi2,
        "non-isomorphic k-gonal biembeddings, k in {5,7,9}",
    ),
    "DiagBi3": (
        lambda q: {
            "k>9_odd": q.k > 9 and q.k % 2 == 1,
            "n>=4k-3": q.n >= 4 * q.k - 3,
            "gcd(n,k-1)=1": gcd(q.n, q.k - 1) == 1,
            **_diag_t_hypothesis(q),
        },
        _eval_diagbi3,
        "non-isomorphic k-gonal biembeddings, large odd k",
    ),
    # solution-family census terms
    "Prop3diag": (
        lambda q: {"k=3": q.k == 3, "n_odd": q.n % 2 == 1, "n>=3": q.n >= 3},
        _eval_p3diag,
        "tour solution count of cyclically 3-diagonal skeletons",
    ),
    "PropPower2": (
        lambda q: {
            "k_odd": q.k % 2 == 1,
            "n>=4k-3": q.n >= 4 * q.k - 3,
            "gcd(n,k-1)=1": gcd(q.n, q.k - 1) == 1,
        },
        _eval_ppower2,
        "tour solution count of cyclically k-diagonal skeletons",
    ),
    "PropK7": (
        lambda q: {"k=7": q.k == 7, "n_odd": q.n % 2 == 1, "n>120": q.n > 120},
        _eval_pk7,
        "tour solution count of cyclically 7-diagonal skeletons",
    ),
    "PropPrime": (
        lambda q: {
            "k_odd": q.k % 2 == 1,
            "n_prime": _is_prime(q.n),
            "n>8k": q.n > 8 * q.k,
        },
        _eval_pprime,
        "tour solution count of the prime-size strip pattern",
    ),
    "PropPairs": (
        lambda q: {
            "k_odd": q.k % 2 == 1,
            "gcd(n,2)=1": gcd(q.n, 2) == 1,
            "gcd(n,s1)=1": q.s1 is not None and gcd(q.n, q.s1) == 1,
            "gcd(n,k+s1-1)=1": q.s1 is not None and gcd(q.n, q.k + q.s1 - 1) == 1,
            # the strip pattern's own conditions, as pairs_family checks them
            "s1>=2": q.s1 is not None and q.s1 >= 2,
            "k+s1<=n": q.s1 is not None and q.k + q.s1 <= q.n,
        },
        _eval_ppairs,
        "tour solution count of the two-element strip pattern",
    ),
}


def evaluate_bound(query: BoundQuery, *, force: bool = False) -> BoundResult:
    """Exact value of a bound's combinatorial side, plus its hypothesis report.

    Raises :class:`HypothesisError` when a hypothesis (or an evaluation-domain
    requirement, e.g. the derangement argument going negative) fails; pass
    ``force=True`` to evaluate anyway where the formula is still defined.
    Raises :class:`TooLargeError` when the exact value has more digits than
    the interpreter converts to a string, before computing any factor that has.
    """
    try:
        check, evaluate, _ = THEOREMS[query.theorem]
    except KeyError:
        raise ValueError(
            f"unknown theorem {query.theorem!r}; known: {sorted(THEOREMS)}"
        ) from None
    hypotheses = check(query)
    notes: list[str] = []
    failed = [name for name, ok in hypotheses.items() if not ok]
    if failed:
        # Formula-domain failures are never forced: the value does not exist.
        undefined = {"k=4t+3", "derangement_domain_t>=2"} & set(failed)
        if undefined:
            raise HypothesisError(
                f"{query.theorem}: formula undefined for k={query.k}: "
                f"{', '.join(sorted(undefined))}"
            )
        if not force:
            raise HypothesisError(
                f"{query.theorem}: hypotheses failed: {', '.join(failed)}"
            )
        notes.append(f"forced evaluation despite failed hypotheses: {failed}")
    try:
        exact, ref, *more_notes = evaluate(query)
        _check_printable(exact)
    except TooLargeError as exc:
        raise TooLargeError(f"{query.theorem}: exact value has {exc}") from None
    except (ArithmeticError, ValueError) as exc:
        # a forced evaluation can leave the formula's domain, at n = 0 say
        raise HypothesisError(
            f"{query.theorem}: formula undefined for n={query.n}, k={query.k}: {exc}"
        ) from None
    notes += more_notes
    approx = _float(lambda: float(exact)) if exact is not None else None
    if exact is None:
        # value itself is irrational (power of sqrt(2)); report the float
        approx = ref
        ref = None
    return BoundResult(
        theorem=query.theorem,
        exact=exact,
        approx=approx,
        asymptotic_reference=ref,
        hypotheses=hypotheses,
        notes=tuple(notes),
    )
