"""Permutation tables: the shared cycle walk, the single-cycle test, composition.

A permutation is a tuple indexed by element, -1 off its domain.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from heffter.validation import compose, cycle_from, is_single_cycle

from conftest import cycles_table, inverse


def naive_cycles(table, domain):
    """The disjoint cycles of a permutation of ``domain``, each from its least element."""
    seen, cycles = set(), []
    for start in sorted(domain):
        if start not in seen:
            cyc = [start]
            while table[cyc[-1]] != start:
                cyc.append(table[cyc[-1]])
            seen.update(cyc)
            cycles.append(cyc)
    return cycles


@st.composite
def permutation_tables(draw):
    """(table, domain, damaged): a permutation of a subset of range(size) held
    as a table with -1 holes, with up to two images sent off the domain
    when ``damaged``."""
    size = draw(st.integers(1, 10))
    domain = sorted(draw(st.sets(st.integers(0, size - 1))))
    table = [-1] * size
    for d, image in zip(domain, draw(st.permutations(domain))):
        table[d] = image
    damaged = bool(domain) and draw(st.booleans())
    if damaged:
        holes = [d for d in range(size) if table[d] < 0]
        for d in draw(st.sets(st.sampled_from(domain), min_size=1, max_size=2)):
            table[d] = draw(st.sampled_from([-1, -3, size, size + 5] + holes))
    return tuple(table), domain, damaged


def test_identity():
    identity = tuple(range(5))
    assert identity[3] == 3
    assert not is_single_cycle(identity, range(5))
    assert all(cycle_from(identity, x) == [x] for x in range(5))


def test_non_bijection_rejected():
    not_bijective = (-1, 2, 2)  # 1 -> 2 -> 2
    assert cycle_from(not_bijective, 1) == [1, 2]
    assert not is_single_cycle(not_bijective, (1, 2))


def test_compose_applies_right_factor_first():
    a = cycles_table(4, [(1, 2), (3,)])
    b = cycles_table(4, [(1,), (2, 3)])
    assert compose(a, b)[2] == a[b[2]] == a[3] == 3
    assert compose(b, a)[2] == b[1] == 1
    assert compose(a, b)[0] == -1  # off the domain


def test_cycle_through_and_single_cycle():
    p = cycles_table(5, [(4, 1, 3, 2)])
    assert cycle_from(p, 3) == [3, 2, 4, 1]
    assert is_single_cycle(p, (1, 2, 3, 4))
    assert not is_single_cycle(p, ())
    q = cycles_table(5, [(1, 2), (3, 4)])
    assert not is_single_cycle(q, (1, 2, 3, 4))


def test_canonical_cycles():
    p = cycles_table(7, [(5, 6), (2, 4, 3)])
    assert naive_cycles(p, (2, 3, 4, 5, 6)) == [[2, 4, 3], [5, 6]]
    assert cycle_from(p, 3) == [3, 2, 4] and cycle_from(p, 6) == [6, 5]


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(8))))
def test_inverse_roundtrip(images):
    p = tuple(images)
    identity = tuple(range(8))
    assert compose(p, inverse(p)) == compose(inverse(p), p) == identity
    assert inverse(inverse(p)) == p


@settings(max_examples=200, deadline=None)
@given(permutation_tables())
def test_cycles_partition_domain(drawn):
    table, domain, damaged = drawn
    on_domain = lambda d: 0 <= d < len(table) and table[d] >= 0
    for x in domain:
        walk = cycle_from(table, x)
        # the walk follows the table from x without a repeat, and stops only
        # before a value off the domain or already met
        assert walk[0] == x and len(set(walk)) == len(walk)
        assert all(table[a] == b for a, b in zip(walk, walk[1:]))
        assert not on_domain(table[walk[-1]]) or table[walk[-1]] in walk
    if damaged:
        # some image is off the domain, so the table permutes no domain
        assert not is_single_cycle(table, domain)
        return
    cycles = naive_cycles(table, domain)
    assert sorted(x for c in cycles for x in c) == domain
    for cyc in cycles:
        for i, x in enumerate(cyc):
            assert cycle_from(table, x) == cyc[i:] + cyc[:i]
        assert is_single_cycle(table, cyc) and is_single_cycle(table, cyc[::-1])
    assert is_single_cycle(table, domain) == (len(cycles) == 1)
    if len(cycles) > 1:
        assert not is_single_cycle(table, cycles[0] + cycles[1])
