"""Entropy, derangements, binomials, and the per-theorem bound evaluators."""

import itertools
import json
import math
import re
import sys
from fractions import Fraction

import pytest

from heffter.bounds import (
    BoundQuery,
    HypothesisError,
    THEOREMS,
    TooLargeError,
    _is_prime,
    binary_entropy,
    binom,
    derangements,
    evaluate_bound,
)


class TestPrimitives:
    def test_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_entropy_quarter(self):
        closed = -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)
        assert abs(binary_entropy(0.25) - closed) <= 1e-12 * closed

    def test_entropy_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.5)

    @pytest.mark.parametrize("m", range(9))
    def test_derangements_brute_force(self, m):
        count = sum(
            1
            for p in itertools.permutations(range(m))
            if all(p[i] != i for i in range(m))
        )
        assert derangements(m) == count

    def test_derangement_values(self):
        assert [derangements(m) for m in range(7)] == [1, 0, 1, 2, 9, 44, 265]

    def test_derangements_match_inclusion_exclusion(self):
        for m in range(2, 21):
            series = sum(Fraction((-1) ** i, math.factorial(i))
                         for i in range(m + 1))
            assert derangements(m) == math.factorial(m) * series

    def test_derangements_domain(self):
        with pytest.raises(ValueError):
            derangements(-1)

    def test_binom(self):
        assert binom(6, 2) == 15
        assert binom(21, 7) == 116280


class TestEvaluators:
    def test_cdy_hand_value(self):
        r = evaluate_bound(BoundQuery("CDY", n=13, k=11))
        assert r.exact == 11  # (13-2) * derangements(0)^2
        assert r.hypotheses_ok

    def test_cdy_domain_error_small_k(self):
        with pytest.raises(HypothesisError, match="undefined"):
            evaluate_bound(BoundQuery("CDY", n=13, k=7))

    def test_cdy_undefined_even_with_force(self):
        with pytest.raises(HypothesisError):
            evaluate_bound(BoundQuery("CDY", n=13, k=7), force=True)

    @pytest.mark.parametrize("theorem", ["DiagBi", "DiagBi2", "PropK7", "PropPower2"])
    def test_forced_evaluation_outside_the_domain(self, theorem):
        with pytest.raises(HypothesisError, match="undefined for n=0"):
            evaluate_bound(BoundQuery(theorem, n=0, k=1), force=True)

    def test_cdy_mod3_clause(self):
        # n divisible by 3 demands k = 7 mod 12
        with pytest.raises(HypothesisError, match="hypotheses failed"):
            evaluate_bound(BoundQuery("CDY", n=33, k=11))
        r = evaluate_bound(BoundQuery("CDY", n=33, k=11), force=True)
        assert r.exact == 31 * derangements(0) ** 2
        assert r.notes

    def test_general_bound_fraction(self):
        r = evaluate_bound(BoundQuery("GeneralBound", n=13, k=11))
        assert r.exact == Fraction(11, 2 * (2 * 13 * 11) ** 2)

    def test_cdy2_and_cdy3(self):
        n, k = 97, 11  # prime, 1 mod 4, > 8k
        r2 = evaluate_bound(BoundQuery("CDY2", n=n, k=k))
        want = 2 * (n - 2) * binom(5, 2)  # ceil(97/22) = 5, ceil(97/88) = 2
        assert r2.exact == want
        r3 = evaluate_bound(BoundQuery("CDY3", n=n, k=k))
        assert r3.exact == Fraction((n - 2) * binom(5, 2), (2 * n * k) ** 2)

    def test_cdy4_and_cdy5(self):
        n, k = 45, 19  # 45 = 1 mod 4, k = 19 = 7 mod 12, 3n >= 7k+1
        r4 = evaluate_bound(BoundQuery("CDY4", n=n, k=k))
        assert r4.exact == 2 * (n - 2) * binom(n, 2) * derangements(2) ** 2
        r5 = evaluate_bound(BoundQuery("CDY5", n=n, k=k))
        assert r5.exact == Fraction((n - 2) * binom(n, 2), (2 * n * k) ** 2)

    def test_prop3diag_value(self):
        r = evaluate_bound(BoundQuery("Prop3diag", n=7, k=3))
        assert r.exact is None
        assert abs(r.approx - 2 ** (7 / 2 + 2)) < 1e-9
        assert r.approx == pytest.approx(45.254833995939045, rel=1e-12)

    def test_diagbi_value(self):
        r = evaluate_bound(BoundQuery("DiagBi", n=5, k=3))
        assert r.approx == pytest.approx(2 ** 2.5 / 225, rel=1e-12)

    def test_diagbi2(self):
        r = evaluate_bound(BoundQuery("DiagBi2", n=123, k=5, subgroup_t=5))
        assert r.exact == Fraction(binom(30, 7), (123 * 5) ** 2)

    def test_diagbi3(self):
        r = evaluate_bound(BoundQuery("DiagBi3", n=123, k=11, subgroup_t=11))
        assert r.exact == Fraction(binom(13, 4), (123 * 11) ** 2)

    def test_ppower2(self):
        r = evaluate_bound(BoundQuery("PropPower2", n=21, k=5))
        assert r.exact == 4 * binom(6, 2) == 60

    def test_pk7(self):
        r = evaluate_bound(BoundQuery("PropK7", n=123, k=7))
        assert r.exact == 4 * binom(20, 5)

    def test_pprime(self):
        r = evaluate_bound(BoundQuery("PropPrime", n=41, k=5))
        assert r.exact == 2 * binom(5, 2) == 20

    def test_ppairs(self):
        r = evaluate_bound(BoundQuery("PropPairs", n=11, k=5, s1=2))
        assert r.exact == 110

    def test_unknown_theorem(self):
        with pytest.raises(ValueError, match="unknown"):
            evaluate_bound(BoundQuery("Nope", n=5, k=3))

    def test_json_shapes(self):
        r = evaluate_bound(BoundQuery("GeneralBound", n=13, k=11))
        d = r.to_json_dict()
        assert d["exact"] == {"numerator": 1, "denominator": 14872}
        r2 = evaluate_bound(BoundQuery("PropPairs", n=11, k=5, s1=2))
        assert r2.to_json_dict()["exact"] == 110


class TestConsistencyWithFamilies:
    """The generators' certified censuses dominate the exact bound terms."""

    def test_pairs_census(self):
        from heffter.knight import pairs_family

        fam = pairs_family(11, 5, 3, 2)
        bound = evaluate_bound(BoundQuery("PropPairs", n=11, k=5, s1=2)).exact
        assert fam.census() >= bound

    @pytest.mark.parametrize("s1, failed", [(1, "s1>=2"), (-3, "s1>=2"), (11, "k+s1<=n")])
    def test_pairs_strip_step_refused_as_the_family_refuses_it(self, s1, failed):
        from heffter.knight import pairs_family

        # gcd(13, s1) = gcd(13, 5 + s1 - 1) = 1: only the strip conditions fail
        with pytest.raises(ValueError, match="s1 >= 2|k \\+ s1 <= n"):
            pairs_family(13, 5, 3, s1)
        query = BoundQuery("PropPairs", n=13, k=5, s1=s1)
        with pytest.raises(HypothesisError, match=f"hypotheses failed: {re.escape(failed)}$"):
            evaluate_bound(query)
        forced = evaluate_bound(query, force=True)
        assert forced.exact == 156
        assert [name for name, ok in forced.hypotheses.items() if not ok] == [failed]

    def test_prime_census(self):
        from heffter.knight import prime_family

        fam = prime_family(41, 5)
        bound = evaluate_bound(BoundQuery("PropPrime", n=41, k=5)).exact
        assert fam.census() >= bound

    def test_power2_census(self):
        from heffter.knight import power_two_family

        fam = power_two_family(21, 5)
        bound = evaluate_bound(BoundQuery("PropPower2", n=21, k=5)).exact
        assert fam.census() >= bound

    def test_three_diag_census(self):
        from heffter.knight import three_diagonal_family

        for n in (5, 7, 9):
            fam = three_diagonal_family(n)
            bound = evaluate_bound(BoundQuery("Prop3diag", n=n, k=3)).approx
            assert fam.census() >= bound

    def test_k7_census(self):
        from heffter.knight import seven_diagonal_family

        fam = seven_diagonal_family(123)
        bound = evaluate_bound(BoundQuery("PropK7", n=123, k=7)).exact
        assert fam.census() >= bound


def trial_division(x):
    return x >= 2 and all(x % f for f in range(2, math.isqrt(x) + 1))


class TestIsPrime:
    def test_matches_trial_division(self):
        assert [x for x in range(10 ** 5) if _is_prime(x)] == \
            [x for x in range(10 ** 5) if trial_division(x)]

    @pytest.mark.parametrize("x", [
        561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 63973,
        75361, 101101, 126217, 172081, 188461, 252601, 278545, 294409,
    ])
    def test_carmichael_numbers_are_composite(self, x):
        assert not trial_division(x) and not _is_prime(x)

    @pytest.mark.parametrize("x,factors", [
        (3215031751, (151, 751, 28351)),  # strong pseudoprime to bases 2..7
        (3825123056546413051, (149491, 747451, 34233211)),  # bases 2..23
        (318665857834031151167461, (399165290221, 798330580441)),  # 2..37
    ])
    def test_strong_pseudoprimes_are_composite(self, x, factors):
        assert math.prod(factors) == x
        assert not _is_prime(x)

    @pytest.mark.parametrize("p", [
        2 ** 31 - 1, 999999999989, 2 ** 61 - 1, 10 ** 18 + 3, 10 ** 24 + 7,
    ])
    def test_large_primes(self, p):
        assert _is_prime(p)
        assert not _is_prime(p * 3) and not _is_prime(p + 1)

    def test_past_the_deterministic_range(self):
        limit = 3317044064679887385961981  # strong pseudoprime to bases 2..41
        assert not _is_prime(limit - 1)
        for x in (limit, 2 ** 89 - 1):
            with pytest.raises(ValueError, match="exact only below"):
                _is_prime(x)


def test_monotonicity_spot_checks():
    # binomial-driven bounds grow with n within a family
    vals = [evaluate_bound(BoundQuery("PropPrime", n=n, k=5)).exact
            for n in (41, 83, 163)]
    assert vals == sorted(vals) and vals[0] < vals[-1]
    vals = [evaluate_bound(BoundQuery("PropPairs", n=n, k=5, s1=2)).exact
            for n in (11, 25, 35)]
    assert vals == sorted(vals) and vals[0] < vals[-1]


def test_every_theorem_has_checker_and_evaluator():
    assert set(THEOREMS) == {
        "CDY", "GeneralBound", "CDY2", "CDY3", "CDY4", "CDY5",
        "DiagBi", "DiagBi2", "DiagBi3",
        "Prop3diag", "PropPower2", "PropK7", "PropPrime", "PropPairs",
    }


# one query per theorem, at the sizes the evaluator tests above use
QUERIES = [
    BoundQuery("CDY", n=13, k=11),
    BoundQuery("GeneralBound", n=13, k=11),
    BoundQuery("GeneralBound", n=13, k=15),
    BoundQuery("CDY2", n=97, k=11),
    BoundQuery("CDY3", n=97, k=11),
    BoundQuery("CDY4", n=45, k=19),
    BoundQuery("CDY5", n=45, k=19),
    BoundQuery("DiagBi", n=5, k=3),
    BoundQuery("DiagBi2", n=123, k=5, subgroup_t=5),
    BoundQuery("DiagBi3", n=123, k=11, subgroup_t=11),
    BoundQuery("Prop3diag", n=7, k=3),
    BoundQuery("PropPower2", n=21, k=5),
    BoundQuery("PropK7", n=123, k=7),
    BoundQuery("PropPrime", n=41, k=5),
    BoundQuery("PropPairs", n=11, k=5, s1=2),
]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_queries_cover_every_theorem():
    assert {q.theorem for q in QUERIES} == set(THEOREMS)


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: f"{q.theorem}-{q.k}")
def test_output_is_strict_json(query):
    # the CLI prints json.dumps of this dict, which writes NaN and Infinity bare
    text = json.dumps(evaluate_bound(query).to_json_dict(), sort_keys=True)
    json.loads(text, parse_constant=_reject_constant)


def test_general_bound_reference_at_t2_is_null_with_a_note():
    r = evaluate_bound(BoundQuery("GeneralBound", n=13, k=11))
    assert r.asymptotic_reference is None
    assert any("t = 2" in note for note in r.notes)


def test_digit_check_refuses_only_unprintable_values():
    # around the least digit limit, every refused value really has more
    # digits than str() prints, and every value printed was computed; for an
    # int bound, a Fraction bound and a family census
    from heffter.knight import power_two_family

    def power_two_bound(n):
        q = BoundQuery("PropPower2", n=n, k=5)
        return (lambda: evaluate_bound(q, force=True).exact,
                4 * math.comb(-(-n // 4), -(-n // 16)))

    def diag_bi3_bound(n):
        q = BoundQuery("DiagBi3", n=n, k=11)
        return (lambda: evaluate_bound(q, force=True).exact,
                Fraction(math.comb(-(-n // 10), -(-n // 40)), (11 * n) ** 2))

    def power_two_census(n):
        family = power_two_family(n, 5)  # C(n/4, r) with r about n/16
        return family.census, 4 * math.comb((n + 3) // 4, family.spec.r)

    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for value, sizes in ((power_two_bound, range(9001, 25002, 800)),
                             (diag_bi3_bound, range(16001, 48002, 1600)),
                             (power_two_census, range(6001, 22002, 800))):
            refused = 0
            for n in sizes:
                compute, exact = value(n)
                try:
                    assert compute() == exact
                except TooLargeError:
                    refused += 1
                    with pytest.raises(ValueError):
                        str(exact)
            assert 0 < refused < len(sizes), value.__name__
    finally:
        sys.set_int_max_str_digits(old)
