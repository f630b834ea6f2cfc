"""Unit tests for the two-stack machine."""

import gc
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamsort.enumeration import bell, fishburn, fubini
from pamsort.machine import (DEFAULT_GUARDS, MachineSpec, encode_labeled_path,
                             fertility, image_set, is_sortable, iter_domain,
                             machine_outputs, machine_run, sigma_stack_output,
                             sortable_count, sortable_words, stack21_output)
from pamsort.patterns import classical, contains
from pamsort.words_core import (Domain, identity, is_member, modify, reverse,
                                standardize)


def spec(*bodies, domain=Domain.PERM):
    return MachineSpec(tuple(classical(b) for b in bodies), domain)


def test_sigma_stack_output_examples():
    assert sigma_stack_output((2, 4, 1, 3), spec((2, 3, 1))) == (1, 4, 3, 2)
    assert sigma_stack_output((4, 2, 1, 3, 2),
                              spec((1, 1), domain=Domain.CAYLEY)) == \
        (3, 1, 2, 2, 4)
    assert sigma_stack_output((1, 2, 1, 3, 2),
                              spec((1, 2), domain=Domain.CAYLEY)) == \
        (2, 3, 2, 1, 1)
    assert sigma_stack_output((1, 2, 1, 3, 2),
                              spec((1, 2, 1), domain=Domain.CAYLEY)) == \
        (2, 2, 3, 1, 1)


def test_stack21_lets_equal_letters_sit():
    assert stack21_output((2, 2, 1)) == (1, 2, 2)
    assert stack21_output((1, 4, 3, 2)) == (1, 2, 3, 4)


def test_machine_run_examples():
    out, _ = machine_run((2, 4, 1, 3), spec((2, 3, 1)))
    assert out == (1, 2, 3, 4)
    out, _ = machine_run((1, 3, 2), spec((1, 2, 3)))
    assert out != (1, 2, 3)
    assert sigma_stack_output((1, 3, 2), spec((1, 2, 3))) == (2, 3, 1)


def test_identity_sortability_small():
    # identity is sortable for every length-3 sigma except 321, whose
    # sortable set is contained in Av(123)
    for body in itertools.permutations((1, 2, 3)):
        for n in range(3, 7):
            expected = body != (3, 2, 1)
            assert is_sortable(identity(n), spec(body)) == expected, (body, n)


def test_is_sortable_table_examples():
    assert is_sortable((4, 1, 3, 2), spec((1, 2, 3)))
    assert not is_sortable((1, 3, 2), spec((1, 2, 3)))
    assert is_sortable((3, 6, 1, 4, 2, 5), spec((2, 3, 1)))
    assert not is_sortable((1, 3, 2, 4), spec((2, 3, 1)))
    assert is_sortable((3, 5, 2, 4, 1), spec((2, 1)))
    assert not is_sortable((3, 2, 4, 1), spec((2, 1)))


def test_sortable_iff_out_avoids_231():
    p231 = classical((2, 3, 1))
    s = spec((1, 3, 2))
    for n in range(1, 7):
        for w in iter_domain(Domain.PERM, n):
            assert is_sortable(w, s) == \
                (not contains(sigma_stack_output(w, s), p231))


def test_trace_json_and_counts():
    _, trace = machine_run((2, 4, 1, 3), spec((2, 3, 1)), with_trace=True)
    data = json.loads(trace.to_json())
    steps = data["steps"]
    for stack in (1, 2):
        events = [s["op"] for s in steps if s["stack"] == stack]
        assert events.count("push") == events.count("pop") == 4
        depth = 0
        for op in events:
            depth += 1 if op == "push" else -1
            assert depth >= 0
    assert data["input"] == [2, 4, 1, 3]
    assert data["first_output"] == [1, 4, 3, 2]
    assert data["final_output"] == [1, 2, 3, 4]
    assert data["sortable"] is True


def test_iter_domain_counts_and_order():
    assert list(iter_domain(Domain.PERM, 0)) == [()]
    c3 = list(iter_domain(Domain.CAYLEY, 3))
    assert len(c3) == 13
    assert c3 == sorted(c3)
    assert [f"{'' .join(map(str, w))}" for w in c3] == [
        "111", "112", "121", "122", "123", "132", "211", "212", "213",
        "221", "231", "312", "321"]
    for n in range(1, 7):
        assert sum(1 for _ in iter_domain(Domain.PERM, n)) == \
            __import__("math").factorial(n)
        assert sum(1 for _ in iter_domain(Domain.CAYLEY, n)) == fubini(n)
        assert sum(1 for _ in iter_domain(Domain.RGF, n)) == bell(n)
        assert sum(1 for _ in iter_domain(Domain.ASC, n)) == fishburn(n)
        assert sum(1 for _ in iter_domain(Domain.MODASC, n)) == fishburn(n)


def test_guard_enforced_and_overridable():
    n = DEFAULT_GUARDS[Domain.CAYLEY] + 1
    with pytest.raises(ValueError):
        next(iter_domain(Domain.CAYLEY, n))
    it = iter_domain(Domain.CAYLEY, n, max_n=n)
    assert len(next(it)) == n


def test_fertility_examples():
    s = spec((1, 2, 3))
    count, pre = fertility((1, 2), s)
    assert count == 1 and pre == [(2, 1)]
    count, pre = fertility((1, 3, 2), s)
    assert count == 1 and pre == [(2, 3, 1)]
    # a word outside the image of the first-stack map has fertility 0
    s12 = spec((1, 2))
    count, pre = fertility((1, 2), s12)
    assert count == 0 and pre == []
    count, pre = fertility((2, 1), s12)
    assert count == 2 and set(pre) == {(1, 2), (2, 1)}


def test_image_set_sorted_variant():
    s123 = spec((1, 2, 3))
    assert image_set(s123, 3, sorted_only=True) == \
        {(3, 1, 2), (1, 3, 2), (2, 1, 3), (3, 2, 1)}
    s231 = spec((2, 3, 1))
    av231 = {w for w in iter_domain(Domain.PERM, 3)
             if not contains(w, classical((2, 3, 1)))}
    assert image_set(s231, 3, sorted_only=True) == av231
    sizes = [len(image_set(s123, n, sorted_only=True)) for n in range(1, 7)]
    assert sizes == [1, 2, 4, 7, 11, 16]


def test_prefix_closure_of_sortability():
    for body in itertools.permutations((1, 2, 3)):
        s = spec(body)
        for n in range(2, 7):
            for w in sortable_words(s, n):
                assert is_sortable(standardize(w[:-1]), s), (body, w)


def test_encode_labeled_path_example():
    p = encode_labeled_path((4, 2, 1, 3, 2), spec((1, 1), domain=Domain.CAYLEY))
    assert "".join(p.steps) == "UUUUDDDUDD"
    ups = [lab for s, lab in zip(p.steps, p.labels) if s == "U"]
    downs = [lab for s, lab in zip(p.steps, p.labels) if s == "D"]
    assert ups == [4, 2, 1, 3, 2]
    assert downs == [3, 1, 2, 2, 4]


def test_encode_labeled_path_pyramid_when_reverse_avoided():
    s = spec((2, 1))
    p = encode_labeled_path((3, 2, 1), s)   # avoids R(21)=12
    assert "".join(p.steps) == "UUUDDD"


def test_reverse_path_law_sigma_11():
    s = spec((1, 1), domain=Domain.CAYLEY)
    for n in range(1, 6):
        for w in iter_domain(Domain.CAYLEY, n):
            gamma = reverse(sigma_stack_output(w, s))
            pw = encode_labeled_path(w, s)
            pg = encode_labeled_path(gamma, s)
            assert pw.steps == tuple(
                {"U": "D", "D": "U"}[x] for x in reversed(pg.steps))
            assert pw.labels == tuple(reversed(pg.labels))


# Naive references for the prefix-tree walker; they use nothing from
# pamsort.machine.

def naive_contains(seq, body):
    """Brute force: some subsequence of ``seq`` is order-isomorphic to
    ``body``."""
    return any(all((a < b) == (p < q) and (a == b) == (p == q)
                   for (a, p), (b, q) in itertools.combinations(
                       zip(sub, body), 2))
               for sub in itertools.combinations(seq, len(body)))


def naive_sigma_stack(w, bodies):
    """Right-greedy Sigma-stack: pop while the stack read top to bottom,
    with the incoming letter on top, would contain a forbidden pattern."""
    stack, out = [], []
    for x in w:
        while stack and any(naive_contains([x] + stack[::-1], b)
                            for b in bodies):
            out.append(stack.pop())
        stack.append(x)
    return tuple(out + stack[::-1])


def naive_domain(d, n):
    return [w for w in itertools.product(range(1, n + 1), repeat=n)
            if is_member(w, d)]


WALK_SIGMAS = [((1, 1),), ((1, 2),), ((2, 1),), ((1, 2, 3),),
               ((1, 3, 2, 4),), ((1, 3, 2), (3, 2, 1))]


def test_machine_outputs_matches_direct_map():
    for d in Domain:
        for n in range(0, 6):
            words = naive_domain(d, n)
            assert list(iter_domain(d, n)) == words, (d, n)
            for bodies in WALK_SIGMAS:
                if d is Domain.PERM and bodies == ((1, 1),):
                    continue
                s = spec(*bodies, domain=d)
                direct = [(w, naive_sigma_stack(w, bodies)) for w in words]
                assert list(machine_outputs(s, n)) == direct, (d, bodies, n)
                assert [(w, sigma_stack_output(w, s)) for w in words] == \
                    direct, (d, bodies, n)
                sortable = [w for w, out in direct
                            if not naive_contains(out, (2, 3, 1))]
                assert sortable_words(s, n) == sortable, (d, bodies, n)
                assert sortable_count(s, n) == len(sortable), (d, bodies, n)


# Property tests: random words of length 8-16 in every domain against the
# naive references above.

@st.composite
def domain_words(draw, d, min_len=8, max_len=16):
    """A random word of domain ``d``, built letter by letter."""
    n = draw(st.integers(min_len, max_len))
    if d is Domain.PERM:
        return tuple(draw(st.permutations(range(1, n + 1))))
    if d is Domain.CAYLEY:
        return standardize(draw(st.lists(st.integers(1, n), min_size=n,
                                         max_size=n)))
    w = []
    for _ in range(n):
        if d is Domain.RGF:
            hi = max(w, default=0) + 1
        else:
            hi = 1 if not w else 2 + sum(a < b for a, b in zip(w, w[1:]))
        w.append(draw(st.integers(1, hi)))
    return modify(tuple(w)) if d is Domain.MODASC else tuple(w)


# Cayley bodies of length 2-5; repeated-letter bodies are drawn often.
SIGMA_BODIES = st.one_of(
    st.sampled_from([(1, 1), (1, 2, 1), (1, 2, 2, 1)]),
    st.integers(2, 5).flatmap(lambda k: st.lists(
        st.integers(1, k), min_size=k, max_size=k).map(standardize)))


@pytest.mark.parametrize("d", list(Domain), ids=lambda d: d.value)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sigma_stack_matches_naive_on_long_words(d, data):
    w = data.draw(domain_words(d))
    assert is_member(w, d)
    bodies = tuple(data.draw(st.lists(SIGMA_BODIES, min_size=1, max_size=2)))
    s = spec(*bodies, domain=d)
    naive = naive_sigma_stack(w, bodies)
    sortable = not naive_contains(naive, (2, 3, 1))
    assert sigma_stack_output(w, s) == naive
    assert is_sortable(w, s) == sortable
    final, trace = machine_run(w, s, with_trace=True)
    first = [(op, v) for stk, op, v in trace.steps if stk == 1]
    assert [v for op, v in first if op == "push"] == list(w)
    assert [v for op, v in first if op == "pop"] == list(naive)
    assert trace.first_output == naive
    assert trace.sortable == sortable
    assert (final == tuple(sorted(w))) == sortable


def test_walks_leave_no_reference_cycles():
    # a walk's pop memo must be freed when the walk ends, not at the next
    # full garbage collection
    s = spec((1, 3, 2, 4), domain=Domain.CAYLEY)
    gc.collect()
    gc.disable()
    try:
        sortable_count(s, 5)
        list(machine_outputs(s, 5))
        sigma_stack_output((2, 4, 1, 3, 3), s)
        assert gc.collect() == 0
    finally:
        gc.enable()
