"""Unit tests for characterization oracles and the classifier."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (ORACLE_CASES, domain_words, naive_sortable_123_132,
                     naive_sortable_123_312, perm_word)
from pamsort.bijections import schroder_to_sort123
from pamsort.enumeration import sort123_formula
from pamsort.machine import (MachineSpec, image_set, is_sortable, iter_domain,
                             fertility, sortable_words)
from pamsort.oracles import (FallbackRequired, classify, fertility_123, hat,
                             is_effective, is_fully_bijective_cayley,
                             is_injective, oracle_for, oracle_is_sortable,
                             sortable_123, sorted_set, sorted_set_123,
                             verify_witness)
from pamsort.patterns import classical, format_pattern, parse_pattern
from pamsort.words_core import Domain, is_member, standardize


def spec(body, domain=Domain.PERM):
    return MachineSpec((classical(body),), domain)


def test_hat():
    assert hat((1, 3, 2)) == (3, 1, 2)
    assert hat((2, 3, 1)) == (3, 2, 1)
    assert hat((1, 2)) == (2, 1)
    assert hat((1, 1, 2)) == (1, 1, 2)


def test_sortable_123_examples():
    assert sortable_123((4, 1, 3, 2))
    assert not sortable_123((1, 3, 2))
    assert sortable_123((5, 6, 7, 4, 8, 9, 1, 3, 2))
    # words of distinct letters are standardized first
    assert sortable_123((0, 2)) and not sortable_123((5, 7, 6))


def test_sortable_123_rejects_repeated_letters():
    for w in ((1, 1), (2, 2, 1), (1, 2, 2)):
        with pytest.raises(ValueError, match="sortable_123"):
            sortable_123(w)


def test_oracle_dispatch_and_fallback():
    s = spec((2, 3, 1))
    with pytest.raises(FallbackRequired):
        oracle_for(s)
    with pytest.raises(FallbackRequired):
        oracle_is_sortable((1, 2, 3), s)
    # machines with oracles answer directly
    assert oracle_is_sortable((2, 4, 1, 3), spec((1, 3, 2)))
    assert oracle_is_sortable((3, 5, 2, 4, 1), spec((2, 1)))
    assert not oracle_is_sortable((3, 2, 4, 1), spec((2, 1)))


def test_oracle_for_builds_each_predicate_once():
    for d, bodies, _ in ORACLE_CASES:
        s = MachineSpec(tuple(classical(b) for b in bodies), d)
        assert oracle_for(s) is oracle_for(MachineSpec(s.sigma, s.domain))
    # an open case raises on every call, not only on the first
    s = spec((2, 3, 1))
    for _ in range(3):
        with pytest.raises(FallbackRequired):
            oracle_for(MachineSpec(s.sigma, s.domain))
        with pytest.raises(FallbackRequired):
            oracle_is_sortable((1, 2, 3), s)


def test_oracle_rejects_words_outside_the_domain():
    with pytest.raises(ValueError, match="not a member of domain perm"):
        oracle_is_sortable((2, 3, 2, 1), spec((1, 3, 2)))
    with pytest.raises(ValueError, match="not a member of domain asc"):
        oracle_is_sortable((2, 1), spec((1, 2), Domain.ASC))
    # open machines check the word first as well
    with pytest.raises(ValueError, match="not a member"):
        oracle_is_sortable((1, 1), spec((2, 3, 1)))


@pytest.mark.parametrize(
    "case", ORACLE_CASES,
    ids=lambda c: c[0].value + "-" + ",".join("".join(map(str, b))
                                              for b in c[1]))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_oracle_matches_machine_on_long_words(case, data):
    d, bodies, _ = case
    s = MachineSpec(tuple(classical(b) for b in bodies), d)
    w = data.draw(domain_words(d))
    assert oracle_is_sortable(w, s) == is_sortable(w, s)


@pytest.mark.parametrize(
    "bodies", [b for d, b, _ in ORACLE_CASES if d is Domain.PERM],
    ids=lambda b: ",".join("".join(map(str, p)) for p in b))
def test_oracle_matches_machine_on_both_sides(bodies):
    # a seeded sample of long permutations that reaches both answers
    s = MachineSpec(tuple(classical(b) for b in bodies))
    rng = random.Random(2026)
    answers = []
    for _ in range(200):
        w = perm_word(rng, rng.randint(8, 16))
        answers.append(oracle_is_sortable(w, s))
        assert answers[-1] == is_sortable(w, s), w
    assert answers.count(True) >= 10 and answers.count(False) >= 10


# The permutation oracles that whole-domain counts run, each with the
# block-by-block reading of its characterization where it has one.
SCAN_ORACLES = [
    ([(1, 2, 3)], None), ([(1, 3, 2)], None),
    ([(1, 2, 3), (1, 3, 2)], naive_sortable_123_132),
    ([(1, 2, 3), (3, 1, 2)], naive_sortable_123_312),
    ([(1, 2, 3), (3, 2, 1)], None),
]


def sort123_word(rng, n):
    """A random member of Sort(123) of length n: the inverse of its
    Schröder encoding on H2^r, a random Dyck path and H2^s."""
    r, s = rng.randint(0, 3), rng.randint(0, 3)
    m = n - 1 - r - s           # the semilength of the Dyck path
    steps = []
    ups = 0
    while len(steps) < 2 * m:
        if ups < m and (2 * ups == len(steps) or rng.random() < 0.5):
            steps.append("U")
            ups += 1
        else:
            steps.append("D")
    return schroder_to_sort123(("H2",) * r + tuple(steps) + ("H2",) * s)


def scan_corpus():
    """Every permutation up to n = 8, then 3,000 seeded permutations of
    length 9-16 and 3,000 seeded members of Sort(123) of length 9-16.
    Sort(123, 132) and Sort(123, 312) lie inside Sort(123), so the members
    reach both sides of their borders; free permutations seldom do."""
    for n in range(9):
        yield from itertools.permutations(range(1, n + 1))
    rng = random.Random(22)
    for _ in range(3000):
        yield perm_word(rng, rng.randint(9, 16))
    for _ in range(3000):
        yield sort123_word(rng, rng.randint(9, 16))


@pytest.mark.parametrize(
    "bodies, reference", SCAN_ORACLES,
    ids=[",".join("".join(map(str, p)) for p in b) for b, _ in SCAN_ORACLES])
def test_scan_oracles_match_references_and_machine(bodies, reference):
    s = MachineSpec(tuple(classical(b) for b in bodies))
    pred = oracle_for(s)
    for w in scan_corpus():
        want = is_sortable(w, s)
        assert pred(w) == want, w
        if reference is not None:
            assert reference(w) == want, w


def test_classify_class_cases_perm():
    c = classify((1, 2))
    assert c.is_class and [format_pattern(p) for p in c.basis] == ["213"]
    # Sort(21) = Av(2341, barred(35241;pos={2})) is not closed under
    # patterns: 35241 is sortable, its pattern 3241 is not
    c = classify((2, 1))
    assert not c.is_class and verify_witness(c)
    c = classify((3, 2, 1))
    assert c.is_class
    assert sorted(format_pattern(p) for p in c.basis) == ["123", "132"]


def test_classify_basis_matches_brute_sortability():
    # every class basis for a sigma of length 2-4, on every domain word up
    # to length 6 (Cayley words: length 5)
    from pamsort.patterns import avoids
    for dom, top in ((Domain.PERM, 6), (Domain.CAYLEY, 5), (Domain.ASC, 6),
                     (Domain.MODASC, 6)):
        words = [w for n in range(1, top + 1) for w in iter_domain(dom, n)]
        for k in (2, 3, 4):
            for body in iter_domain(dom, k):
                c = classify(body, dom)
                if not c.is_class:
                    continue
                s = spec(body, dom)
                for w in words:
                    assert is_sortable(w, s) == avoids(w, *c.basis), \
                        (body, dom, w)


def test_every_class_verdict_is_closed_under_patterns():
    # each sortable word of a class verdict keeps every in-domain pattern
    # it contains sortable, up to length 6 (Cayley words: length 5)
    for dom, top in ((Domain.PERM, 6), (Domain.CAYLEY, 5), (Domain.ASC, 6),
                     (Domain.MODASC, 6)):
        for k in (2, 3, 4):
            for body in iter_domain(dom, k):
                if not classify(body, dom).is_class:
                    continue
                s = spec(body, dom)
                seen = set()
                for n in range(2, top + 1):
                    for w in sortable_words(s, n):
                        for r in range(1, n):
                            for idx in itertools.combinations(range(n), r):
                                p = standardize(tuple(w[i] for i in idx))
                                if p in seen or not is_member(p, dom):
                                    continue
                                seen.add(p)
                                assert is_sortable(p, s), (dom, body, w, p)


def test_classify_nonclass_cases_perm():
    # Sort(132) = Av(2314, mu) involves a mesh pattern, so it is a
    # non-class even though an avoidance oracle exists
    for body in [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]:
        c = classify(body)
        assert not c.is_class and c.witness is not None
        assert verify_witness(c), body
    c = classify((1, 2, 3))
    w, p = c.witness
    from pamsort.patterns import contains
    assert contains(w, p)
    assert is_sortable(w, spec((1, 2, 3)))
    assert not is_sortable(p.body, spec((1, 2, 3)))


def test_classify_cayley():
    # Sort^Cay(21) = Av(2341, zeta) uses a Cayley mesh pattern: non-class,
    # but the avoidance oracle still exists
    c = classify((2, 1), Domain.CAYLEY)
    assert not c.is_class and verify_witness(c)
    assert oracle_for(MachineSpec((classical((2, 1)),), Domain.CAYLEY))
    c = classify((1, 2), Domain.CAYLEY)
    assert c.is_class and [format_pattern(p) for p in c.basis] == ["213"]
    c = classify((2, 3, 1), Domain.CAYLEY)
    assert not c.is_class and verify_witness(c)


def test_classify_asc_modasc():
    for dom in (Domain.ASC, Domain.MODASC):
        c = classify((1, 1), dom)
        assert c.is_class
        assert sorted(format_pattern(p) for p in c.basis) == ["1213", "1223"]
        for body in [(1, 2), (1, 2, 1)]:
            c = classify(body, dom)
            assert c.is_class
            assert [format_pattern(p) for p in c.basis] == ["213"]
        c = classify((1, 2, 3), dom)
        assert c.is_class
        assert [format_pattern(p) for p in c.basis] == ["132"]
    c = classify((1, 2, 2), Domain.MODASC)
    assert c.is_class
    assert sorted(format_pattern(p) for p in c.basis) == ["132", "2213"]
    c = classify((1, 2, 2), Domain.ASC)
    assert not c.is_class and verify_witness(c)


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify((1,))
    with pytest.raises(ValueError):
        classify((1, 3), Domain.CAYLEY)   # not a Cayley word


def test_is_effective():
    assert not is_effective((2, 1))
    assert not is_effective((2, 1, 3))
    assert not is_effective((3, 1, 2))
    for body in [(1, 2), (1, 2, 3), (1, 3, 2), (2, 3, 1), (3, 2, 1)]:
        assert is_effective(body), body


def test_is_injective():
    assert is_injective((3, 2, 1)) is True     # hat contains 231
    assert is_injective((1, 2, 3)) is None     # open in general
    assert is_injective((1, 3, 2)) is None


def test_is_fully_bijective_cayley():
    assert is_fully_bijective_cayley((1, 1))
    assert is_fully_bijective_cayley((2, 2, 1))
    assert not is_fully_bijective_cayley((1, 2))
    assert not is_fully_bijective_cayley((2, 1, 2))


def test_sorted_set_123_matches_brute():
    s = spec((1, 2, 3))
    for n in range(1, 8):
        assert sorted_set_123(n) == image_set(s, n, sorted_only=True), n
    assert sorted_set_123(3) == {(3, 1, 2), (1, 3, 2), (2, 1, 3), (3, 2, 1)}


def test_fertility_123_matches_brute_on_family():
    s = spec((1, 2, 3))
    for n in range(1, 7):
        family = sorted_set_123(n)
        for gamma in family:
            assert fertility_123(gamma) == fertility(gamma, s)[0], gamma
        for gamma in iter_domain(Domain.PERM, n):
            if gamma not in family:
                assert fertility_123(gamma) == 0, gamma


def test_fertility_sums_to_sortable_count():
    s = spec((1, 2, 3))
    for n in range(1, 15):
        total = sum(fertility_123(g) for g in sorted_set_123(n))
        assert total == sort123_formula(n), n
        if n < 7:
            assert total == len(sortable_words(s, n)), n


def test_fertility_123_is_zero_next_to_the_family():
    # one adjacent transposition away from a member, and not a member
    for n in range(2, 15):
        family = sorted_set_123(n)
        for gamma in family:
            for i in range(n - 1):
                g = gamma[:i] + (gamma[i + 1], gamma[i]) + gamma[i + 2:]
                if g not in family:
                    assert fertility_123(g) == 0, g
    for g in ((2,), (1, 1), (0,)):
        assert fertility_123(g) == 0, g


def test_sorted_set_generic():
    got = sorted_set((2, 3, 1), 3)
    s = spec((2, 3, 1))
    assert got == image_set(s, 3, sorted_only=True)
