"""Unit tests for words and domains."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import domain_words
from pamsort.words_core import (Domain, ParseError, Which, complement,
                                decreasing, direct_sum, format_word, identity,
                                inflate, inverse, is_member, ltr_decompose,
                                ltr_maxima, ltr_minima, modify, parse_word,
                                reverse, skew_sum, standardize, unmodify,
                                word)


def test_parse_and_format_round_trip():
    assert parse_word("2413") == (2, 4, 1, 3)
    assert parse_word("13 14 15 10 12 6 7 8 11 9 3 1 4 5 2") == \
        (13, 14, 15, 10, 12, 6, 7, 8, 11, 9, 3, 1, 4, 5, 2)
    assert format_word((2, 4, 1, 3)) == "2413"
    w = (13, 2, 1, 10)
    assert parse_word(format_word(w)) == w


@settings(max_examples=300, deadline=None)
@given(w=st.lists(st.integers(1, 30), max_size=12).map(tuple))
def test_parse_inverts_format(w):
    assert parse_word(format_word(w)) == w


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("2a13")
    with pytest.raises(ValueError):
        parse_word("0 1 2")
    for text in ("1,2,,3", ",1,2", "1,2,", ",", "1, ,2", "11,,", "1 2,"):
        with pytest.raises(ValueError, match="empty field"):
            parse_word(text)
    assert parse_word("1, 2,3") == (1, 2, 3)
    # int() reads these fields, but they are not ASCII decimal digits
    for text in ("1_0 2", "+3 1", "\u0663\u0661", "1 \u0663", "-1 2"):
        with pytest.raises(ParseError, match="cannot parse word"):
            parse_word(text)


def test_standardize():
    assert standardize((4, 7, 4, 1)) == (2, 3, 2, 1)
    assert standardize((5, 5, 5)) == (1, 1, 1)
    assert standardize(()) == ()
    assert standardize((2, 4, 1, 3)) == (2, 4, 1, 3)


def test_membership():
    assert is_member((2, 4, 1, 3), Domain.PERM)
    assert not is_member((1, 1, 2), Domain.PERM)
    assert is_member((2, 1, 2), Domain.CAYLEY)
    assert not is_member((1, 3, 3), Domain.CAYLEY)
    assert is_member((1, 2, 1, 3), Domain.RGF)
    assert not is_member((1, 3, 2), Domain.RGF)
    # ascent sequences: x_{i+1} <= 2 + asc(prefix)
    assert is_member((1, 2, 1, 3), Domain.ASC)
    assert not is_member((1, 3), Domain.ASC)
    assert is_member((1, 2, 2), Domain.ASC)
    # letters are positive in every domain
    assert not is_member((1, 0), Domain.RGF)
    assert not is_member((1, -3, 1), Domain.ASC)
    # modified ascent sequences are Cayley words fixed by modify
    assert is_member((1, 3, 1, 2), Domain.MODASC)


def test_modify_unmodify_round_trip():
    from pamsort.machine import iter_domain
    for n in range(1, 7):
        for x in iter_domain(Domain.ASC, n):
            assert unmodify(modify(x)) == x


def test_modify_is_bijection_onto_modasc():
    from pamsort.machine import iter_domain
    for n in range(1, 7):
        asc = list(iter_domain(Domain.ASC, n))
        mod = set(iter_domain(Domain.MODASC, n))
        assert {modify(x) for x in asc} == mod
        assert len(asc) == len(mod)


def test_ltr_minima_maxima():
    assert ltr_minima((3, 5, 2, 4, 1)) == (3, 2, 1)
    assert ltr_maxima((3, 5, 2, 4, 1)) == (3, 5)


def test_ltr_decompose():
    d = ltr_decompose((3, 5, 2, 4, 1), Which.MIN)
    assert d.pivots == (3, 2, 1)
    assert d.blocks == ((5,), (4,), ())


@settings(max_examples=200, deadline=None)
@given(w=st.one_of(domain_words(Domain.PERM, 1, 12),
                   domain_words(Domain.CAYLEY, 1, 12)),
       which=st.sampled_from(Which))
def test_ltr_decompose_reassembles(w, which):
    d = ltr_decompose(w, which)
    assert d.reassemble() == w
    assert d.pivots == (ltr_minima(w) if which is Which.MIN
                        else ltr_maxima(w))
    with pytest.raises(ValueError, match="empty word"):
        ltr_decompose((), which)


def test_sums_and_symmetries():
    assert direct_sum((1,), (2, 1)) == (1, 3, 2)
    assert skew_sum((1,), (2, 1)) == (3, 2, 1)
    assert reverse((1, 2, 3)) == (3, 2, 1)
    assert complement((2, 4, 1, 3)) == (3, 1, 4, 2)
    assert inverse((2, 4, 1, 3)) == (3, 1, 4, 2)
    assert identity(3) == (1, 2, 3)
    assert decreasing(3) == (3, 2, 1)


def test_inflate():
    assert inflate((2, 1), 1, 2) == (2, 3, 1)
    assert inflate((1,), 1, 3) == (1, 2, 3)
    assert inflate((4, 5, 1, 3, 2), 4, 3) == (6, 7, 1, 3, 4, 5, 2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=8))
def test_standardize_is_idempotent_and_order_preserving(vals):
    w = word(vals)
    s = standardize(w)
    assert standardize(s) == s
    for i in range(len(w)):
        for j in range(len(w)):
            assert (w[i] < w[j]) == (s[i] < s[j])
