"""Unit tests for the pattern grammar and containment semantics."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamsort.enumeration import xi_count
from pamsort.machine import iter_domain
from pamsort.patterns import (NAMED, PatternKind, PatternParseError, avoids,
                              barred, bivincular, classical, contains,
                              contains_classical, format_pattern, mesh,
                              occurrences_of, parse_pattern, path_contains,
                              path_pattern)
from pamsort.words_core import Domain, standardize


def test_parse_bare_word():
    p = parse_pattern("231")
    assert p.kind is PatternKind.CLASSICAL and p.body == (2, 3, 1)


def test_parse_named_patterns():
    assert parse_pattern("@mu") == mesh((1, 3, 2), [(0, 2), (2, 0), (2, 1)])
    assert parse_pattern("@xi") == bivincular((1, 3, 2), [0, 2], [])
    assert parse_pattern("@f") == bivincular((2, 3, 1), [1], [1])
    for name in ("xi", "mu", "f", "zeta", "a", "b"):
        assert parse_pattern(f"@{name}") == NAMED[name]


def test_parse_forms_round_trip():
    texts = [
        "231",
        "mesh(132;(0,2),(2,0),(2,1))",
        "bv(132;S={0,2};T={})",
        "bv(231;S={1};T={1})",
        "barred(35241;pos={2})",
        "path(UDH2UD)",
    ]
    for text in texts:
        p = parse_pattern(text)
        assert parse_pattern(format_pattern(p)) == p


def test_parse_errors():
    for bad in ["", "2a1", "mesh(132;(0,9))", "bv(132;S={5};T={})",
                "barred(35241;pos={})", "barred(35241;pos={1,2,3,4,5})",
                "@nope", "mesh(132;(0,2)"]:
        with pytest.raises(PatternParseError):
            parse_pattern(bad)


def test_classical_containment_examples():
    assert not contains((1, 2, 3, 4, 5), classical((2, 1)))
    assert contains((2, 5, 3, 4, 1), classical((1, 3, 2)))
    assert contains((2, 1, 2), classical((1, 1)))
    assert not contains((1, 2, 3), classical((1, 1)))


def test_classical_matches_naive_scan():
    body = (1, 3, 2)
    for n in range(1, 7):
        for w in iter_domain(Domain.CAYLEY, n):
            naive = any(standardize([w[i] for i in occ]) == body
                        for occ in itertools.combinations(range(n), 3))
            assert contains(w, classical(body)) == naive, w


def test_av_length3_is_catalan():
    from pamsort.enumeration import catalan
    for body in itertools.permutations((1, 2, 3)):
        p = classical(body)
        for n in range(1, 8):
            cnt = sum(1 for w in iter_domain(Domain.PERM, n)
                      if not contains(w, p))
            assert cnt == catalan(n), (body, n)


def test_mesh_mu_occurrence():
    mu = parse_pattern("@mu")
    x = (2, 5, 3, 4, 1)
    occs = occurrences_of(x, mu)
    assert (0, 1, 2) in occs        # the values 2,5,3
    assert contains(x, mu)


def test_bivincular_occurrence_rejection():
    p = bivincular((1, 3, 2), [2], [2])
    x = (2, 5, 3, 4, 1)
    # 2,5,4 fails the adjacency constraints because of the letter 3
    assert (0, 1, 3) not in occurrences_of(x, p)


def test_barred_equals_mesh_3241():
    b = parse_pattern("barred(35241;pos={2})")
    m = mesh((3, 2, 4, 1), [(1, 4)])
    for n in range(1, 8):
        for w in iter_domain(Domain.PERM, n):
            assert contains(w, b) == contains(w, m), w
    assert contains((3, 2, 4, 1), b)
    assert not contains((3, 5, 2, 4, 1), b)


def test_xi_count_formula():
    xi = parse_pattern("@xi")
    for n in range(1, 8):
        cnt = sum(1 for w in iter_domain(Domain.PERM, n)
                  if not contains(w, xi))
        assert cnt == xi_count(n), n


def test_cayley_mesh_ab_characterize_modasc():
    a = parse_pattern("@a")
    b = parse_pattern("@b")
    for n in range(1, 7):
        modasc = set(iter_domain(Domain.MODASC, n))
        byav = {w for w in iter_domain(Domain.CAYLEY, n) if avoids(w, a, b)}
        assert modasc == byav, n


def test_path_pattern_factor_matching():
    p = path_pattern(("U", "H2", "D"))
    assert path_contains(("U", "U", "H2", "D", "D"), p)
    assert not path_contains(("U", "H2", "U", "D", "D"), p)
    with pytest.raises(ValueError, match="path_contains"):
        occurrences_of((1, 2), p)
    with pytest.raises(ValueError, match="path_contains"):
        contains((1, 2), p)


# Property tests: the boolean search against the occurrence generator, with
# and without the anchor.

CAYLEY_BODIES = st.integers(1, 5).flatmap(lambda k: st.lists(
    st.integers(1, k), min_size=k, max_size=k).map(standardize))


@settings(max_examples=300, deadline=None)
@given(w=st.lists(st.integers(1, 8), max_size=12).map(tuple),
       body=CAYLEY_BODIES)
def test_contains_classical_matches_occurrences(w, body):
    occs = occurrences_of(w, classical(body))
    assert contains_classical(w, body) == bool(occs)
    assert contains_classical(w, body, anchored=True) == \
        any(o[0] == 0 for o in occs)
