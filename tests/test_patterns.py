"""Unit tests for the pattern grammar and containment semantics."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pamsort
from helpers import MALFORMED_HEADED
from pamsort.enumeration import xi_count
import pamsort.machine as M
from pamsort.machine import MachineSpec, iter_domain
from pamsort.patterns import (AT, GAP, NAMED, PatternKind, PatternParseError,
                              avoids, barred, bivincular, cayley_mesh,
                              classical, contains, contains_classical,
                              format_pattern, full_column, mesh,
                              occurrences_of, parse_pattern, path_contains,
                              path_pattern)
from pamsort.patterns import _SCANS, _resolve, _search, _search_terms
from pamsort.paths_trees import parse_steps
from pamsort.words_core import Domain, parse_word, standardize


def test_parse_bare_word():
    p = parse_pattern("231")
    assert p.kind is PatternKind.CLASSICAL and p.body == (2, 3, 1)


def test_parse_named_patterns():
    assert parse_pattern("@mu") == mesh((1, 3, 2), [(0, 2), (2, 0), (2, 1)])
    assert parse_pattern("@xi") == bivincular((1, 3, 2), [0, 2], [])
    assert parse_pattern("@f") == bivincular((2, 3, 1), [1], [1])
    for name in ("xi", "mu", "f", "zeta", "a", "b"):
        assert parse_pattern(f"@{name}") == NAMED[name]


ROUND_TRIP_TEXTS = [
    "231",
    "mesh(132;(0,2),(2,0),(2,1))",
    "bv(132;S={0,2};T={})",
    "bv(231;S={1};T={1})",
    "barred(35241;pos={2})",
    "path(UDH2UD)",
]

BAD_TEXTS = ["", "2a1", "mesh(132;(0,9))", "bv(132;S={5};T={})",
             "barred(35241;pos={})", "barred(35241;pos={1,2,3,4,5})",
             "@nope", "mesh(132;(0,2)", *MALFORMED_HEADED]


def test_parse_forms_round_trip():
    for text in ROUND_TRIP_TEXTS:
        p = parse_pattern(text)
        assert parse_pattern(format_pattern(p)) == p


def test_parse_errors():
    for bad in BAD_TEXTS:
        with pytest.raises(PatternParseError):
            parse_pattern(bad)


def test_one_parse_error_for_words_steps_and_patterns():
    assert PatternParseError is pamsort.ParseError
    bad = [(parse_word, t) for t in ("1x2", "0", "1 a", "1,2,,3", "1,-2")]
    bad += [(parse_steps, t) for t in ("UX", "H3", "U?D")]
    bad += [(parse_pattern, t) for t in BAD_TEXTS]
    for parse, text in bad:
        with pytest.raises(pamsort.ParseError):
            parse(text)


def test_parse_memo_shares_equal_patterns():
    for text in ROUND_TRIP_TEXTS + ["@mu", " 231 "]:
        p = parse_pattern(text)
        assert parse_pattern(text) is p
        assert p == parse_pattern.__wrapped__(text)


def test_parse_memo_raises_on_every_repeat():
    for bad in BAD_TEXTS:
        with pytest.raises(PatternParseError) as first:
            parse_pattern.__wrapped__(bad)
        for _ in range(3):
            with pytest.raises(PatternParseError) as again:
                parse_pattern(bad)
            assert str(again.value) == str(first.value)


def test_whitespace_variants_share_one_automaton():
    a, b = (MachineSpec((parse_pattern(t),)) for t in ("231", " 231 "))
    assert a == b
    assert M._AUTOMATA.get(a.bodies) is M._AUTOMATA.get(b.bodies)


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


def naive_bivincular(w, p):
    """Every index subset of ``w`` order-isomorphic to the body whose
    positions (sentinels -1 and len(w)) are adjacent at each S gap and whose
    sorted values (sentinels 0 and max(w) + 1) are consecutive at each T
    gap."""
    n, top = len(w), max(w, default=0) + 1
    found = []
    for occ in itertools.combinations(range(n), len(p.body)):
        if standardize([w[i] for i in occ]) != p.body:
            continue
        pos = (-1,) + occ + (n,)
        vals = (0,) + tuple(sorted(w[i] for i in occ)) + (top,)
        if all(pos[s + 1] == pos[s] + 1 for s in p.S) and \
                all(vals[t + 1] == vals[t] + 1 for t in p.T):
            found.append(occ)
    return found


def test_bivincular_top_constraint_on_cayley_words():
    # T = {2} on the body 12: the "2" must be the word's largest value,
    # also when the word is not a permutation
    top = bivincular((1, 2), [], [2])
    assert occurrences_of((1, 2, 2), top) == [(0, 1), (0, 2)] == \
        naive_bivincular((1, 2, 2), top)
    pats = [top, bivincular((1, 2), [], [0]), bivincular((2, 1), [0], [2]),
            bivincular((1, 3, 2), [2], [2]), parse_pattern("@f"),
            parse_pattern("@xi")]
    for n in range(0, 6):
        for w in iter_domain(Domain.CAYLEY, n):
            for p in pats:
                assert occurrences_of(w, p) == naive_bivincular(w, p), (w, p)


# Containment reads only the order of the letters, so a word and its
# standardization contain the same patterns at the same positions: a
# bivincular T gap asks that no letter lie strictly between two values,
# not that they be consecutive integers.

INVARIANCE_PATTERNS = {
    "classical": ["231", "1212", "2413"],
    "bivincular": ["bv(12;S={};T={0})", "bv(132;S={1};T={1})",
                   "bv(231;S={};T={3})", "bv(21;S={0};T={2})",
                   "bv(2143;S={2};T={})"],
    "mesh": ["mesh(3241;(1,4))", "mesh(213;(0,0),(3,3))"],
    "cayley-mesh": ["cmesh(3241;(1,gap:4))",
                    "cmesh(121;(1,at:1),(2,gap:0))"],
    "barred": ["barred(35241;pos={2})", "barred(132;pos={1})"],
    "named": ["@xi", "@mu", "@f", "@zeta", "@a", "@b"],
}


def gapped_words(seed, count=300):
    """Seeded words of length 0-9 over the letters 1-12: most skip values
    and many repeat one."""
    rng = random.Random(seed)
    return [tuple(rng.randint(1, 12) for _ in range(rng.randint(0, 9)))
            for _ in range(count)]


@pytest.mark.parametrize("kind", sorted(INVARIANCE_PATTERNS))
def test_containment_is_invariant_under_standardization(kind):
    words = gapped_words(23)
    for text in INVARIANCE_PATTERNS[kind]:
        p = parse_pattern(text)
        for w in words:
            s = standardize(w)
            assert contains(w, p) == contains(s, p), (text, w)
            assert occurrences_of(w, p) == occurrences_of(s, p), (text, w)


def test_bivincular_values_need_no_letter_between():
    f = parse_pattern("@f")
    assert contains((3, 4, 1), f) and contains((2, 3, 1), f)
    # 45 then 2, or 78 then 2: the 3 or the 5 lies between the 1 and the 2
    assert not contains((3, 1, 4, 5, 2), f)
    assert not contains((5, 1, 7, 8, 2), f)
    bottom = bivincular((1, 2), [], [0])
    assert occurrences_of((2, 3), bottom) == [(0, 1)]
    assert occurrences_of((2, 3, 1), bottom) == []


XI_COLUMNS = cayley_mesh((1, 3, 2), full_column((1, 3, 2), 0)
                         + full_column((1, 3, 2), 2))

SPELLINGS = [
    ("mesh(3241;(1,4))", "cmesh(3241;(1,gap:4))"),
    ("@zeta", "cmesh(3241;(1,at:4),(1,gap:4))"),
    ("@mu", "cmesh(132;(2,gap:1),(0,gap:2),(2,gap:0))"),
    ("@xi", "bv(132;S={0,2};T={})", format_pattern(XI_COLUMNS)),
    ("231", "mesh(231;)", "bv(231;S={};T={})", "cmesh(231;)"),
]


@pytest.mark.parametrize("texts", SPELLINGS, ids=lambda t: t[0])
def test_every_spelling_of_a_scanned_shape_takes_its_scan(texts):
    scans = {_resolve(parse_pattern(t)) for t in texts}
    assert len(scans) == 1 and scans <= set(_SCANS.values())


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


# Property test: the search against a naive scan of every index subset.

CAYLEY_BODIES = st.integers(1, 5).flatmap(lambda k: st.lists(
    st.integers(1, k), min_size=k, max_size=k).map(standardize))


@settings(max_examples=300, deadline=None)
@given(w=st.lists(st.integers(1, 8), max_size=12).map(tuple),
       body=CAYLEY_BODIES)
def test_contains_classical_matches_occurrences(w, body):
    naive = [occ for occ in itertools.combinations(range(len(w)), len(body))
             if standardize([w[i] for i in occ]) == body]
    assert occurrences_of(w, classical(body)) == naive
    assert contains_classical(w, body) == bool(naive)


def test_letters_below_one_are_rejected():
    with pytest.raises(ValueError, match="positive"):
        contains_classical((0, 1), (1, 1))
    with pytest.raises(ValueError, match="positive"):
        contains((1, -2), classical((2, 1)))
    with pytest.raises(ValueError, match="positive"):
        occurrences_of((0, 2, 1), parse_pattern("@mu"))


# Property test: the one-pass length-3 scans against the naive scan, on
# free words with repeated letters.

LENGTH3_BODIES = list(itertools.permutations((1, 2, 3)))


@pytest.mark.parametrize("body", LENGTH3_BODIES,
                         ids=lambda b: "".join(map(str, b)))
@settings(max_examples=300, deadline=None)
@given(w=st.lists(st.integers(1, 9), max_size=16).map(tuple))
def test_length3_scans_match_naive(body, w):
    naive = any(standardize(sub) == body
                for sub in itertools.combinations(w, 3))
    assert contains_classical(w, body) == naive


@pytest.mark.parametrize("body", LENGTH3_BODIES,
                         ids=lambda b: "".join(map(str, b)))
def test_length3_scans_reject_letters_below_one(body):
    with pytest.raises(ValueError, match="positive"):
        contains_classical((3, 0, 2, 1), body)


# Property test: the direct scans of the oracle bases against naive
# checks written here, on free words with repeated letters.

def naive_classical(body):
    return lambda w: any(standardize(sub) == body
                         for sub in itertools.combinations(w, len(body)))


def naive_mu(w):
    """mu = mesh(132;(0,2),(2,0),(2,1)): a 132 at i < j < k with no letter
    before i strictly between the 2 and the 3 (box (0,2)), and no letter
    between j and k strictly below the 1 (box (2,0)) or strictly between
    the 1 and the 2 (box (2,1))."""
    for i, j, k in itertools.combinations(range(len(w)), 3):
        one, three, two = w[i], w[j], w[k]
        if (one < two < three
                and not any(two < v < three for v in w[:i])
                and not any(v < one or one < v < two for v in w[j + 1:k])):
            return True
    return False


def naive_mesh_3241(w):
    """mesh(3241;(1,4)): a 3241 at a < b < c < d with no letter between a
    and b above the 4 (box (1,4), which reaches the top)."""
    for a, b, c, d in itertools.combinations(range(len(w)), 4):
        if (w[d] < w[b] < w[a] < w[c]
                and not any(v > w[c] for v in w[a + 1:b])):
            return True
    return False


def searched(p):
    """Containment of ``p`` by the backtracking search, the way
    :func:`contains` answers the patterns without a direct scan."""
    def search(w):
        body, accept = _search_terms(w, p)
        return _search(w, body, accept)
    return search


searched_xi = searched(NAMED["xi"])
searched_zeta = searched(NAMED["zeta"])


DIRECT_SCANS = [
    (classical((1, 3, 2, 4)), naive_classical((1, 3, 2, 4))),
    (classical((2, 3, 1, 4)), naive_classical((2, 3, 1, 4))),
    (classical((2, 3, 4, 1)), naive_classical((2, 3, 4, 1))),
    (parse_pattern("@mu"), naive_mu),
    (parse_pattern("mesh(3241;(1,4))"), naive_mesh_3241),
    (parse_pattern("@xi"), searched_xi),
    (parse_pattern("@zeta"), searched_zeta),
]


@pytest.mark.parametrize("pattern, naive", DIRECT_SCANS,
                         ids=[format_pattern(p) for p, _ in DIRECT_SCANS])
@settings(max_examples=300, deadline=None)
@given(w=st.lists(st.integers(1, 9), max_size=16).map(tuple))
def test_direct_scans_match_naive(pattern, naive, w):
    want = naive(w)
    assert contains(w, pattern) == want
    if pattern.kind is PatternKind.CLASSICAL:
        assert contains_classical(w, pattern.body) == want


def test_xi_scan_matches_the_search_on_short_words():
    for n in range(7):
        for w in itertools.product(range(1, 5), repeat=n):
            assert contains(w, NAMED["xi"]) == searched_xi(w), w


def test_zeta_scan_matches_the_search_on_cayley_words():
    for n in range(7):
        for w in iter_domain(Domain.CAYLEY, n):
            assert contains(w, NAMED["zeta"]) == searched_zeta(w), w


@pytest.mark.parametrize("pattern", [p for p, _ in DIRECT_SCANS],
                         ids=format_pattern)
def test_direct_scans_reject_letters_below_one(pattern):
    with pytest.raises(ValueError, match="positive"):
        contains((3, 0, 2, 1, 4), pattern)
    if pattern.kind is PatternKind.CLASSICAL:
        with pytest.raises(ValueError, match="positive"):
            contains_classical((3, 0, 2, 1, 4), pattern.body)


# Property test: every pattern kind round-trips through the printer.

PERM_BODIES = st.integers(1, 5).flatmap(
    lambda k: st.permutations(range(1, k + 1)).map(tuple))


def _subset(k):
    return st.sets(st.integers(0, k))


PATTERNS = st.one_of(
    CAYLEY_BODIES.map(classical),
    PERM_BODIES.flatmap(lambda b: st.builds(
        bivincular, st.just(b), _subset(len(b)), _subset(len(b)))),
    PERM_BODIES.flatmap(lambda b: st.builds(
        mesh, st.just(b), st.lists(st.tuples(st.integers(0, len(b)),
                                             st.integers(0, len(b)))))),
    CAYLEY_BODIES.flatmap(lambda b: st.builds(
        cayley_mesh, st.just(b), st.lists(st.tuples(
            st.integers(0, len(b)),
            st.one_of(st.tuples(st.just(GAP), st.integers(0, max(b))),
                      st.tuples(st.just(AT), st.integers(1, max(b)))))))),
    PERM_BODIES.filter(lambda b: len(b) > 1).flatmap(lambda b: st.builds(
        barred, st.just(b), st.sets(st.integers(1, len(b)), min_size=1,
                                    max_size=len(b) - 1))),
    st.lists(st.sampled_from(("U", "D", "H", "H2"))).map(path_pattern),
)


@settings(max_examples=300, deadline=None)
@given(p=PATTERNS)
def test_every_pattern_kind_round_trips(p):
    assert parse_pattern(format_pattern(p)) == p
