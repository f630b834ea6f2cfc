"""Unit tests for the two-stack machine."""

import gc
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import domain_words, naive_contains, naive_trace
from pamsort.bijections import av213_to_dyck
from pamsort.enumeration import bell, fishburn, fubini
import pamsort.machine as M
from pamsort.machine import (DEFAULT_GUARDS, MachineSpec, MachineTrace,
                             _Automaton, _AutomatonCache, _must_pop, _walk,
                             encode_labeled_path, fertility, image_set,
                             is_sortable, iter_domain, machine_outputs,
                             machine_run, sigma_stack_output, sortable_count,
                             sortable_words, stack21_output)
from pamsort.paths_trees import iter_dyck, iter_motzkin, iter_schroder
from pamsort.patterns import (barred, classical, contains, mesh,
                              occurrences_of)
from pamsort.words_core import (Domain, identity, is_member, reverse,
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
    # is_sortable and contains share the one-pass 231 scan, so the 231
    # check here is the naive one
    s = spec((1, 3, 2))
    for n in range(1, 7):
        for w in iter_domain(Domain.PERM, n):
            assert is_sortable(w, s) == \
                (not naive_contains(sigma_stack_output(w, s), (2, 3, 1)))


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


def dict_form_json(trace):
    """The trace as ``json.dumps`` writes its dict form, one dict per
    step."""
    return json.dumps({
        "input": list(trace.input),
        "sigma": list(trace.sigma),
        "steps": [{"stack": s, "op": op, "value": v}
                  for s, op, v in trace.steps],
        "first_output": list(trace.first_output),
        "final_output": list(trace.final_output),
        "sortable": trace.sortable,
    })


@settings(max_examples=150, deadline=None)
@given(w=st.lists(st.integers(1, 6), max_size=16),
       bodies=st.lists(st.sampled_from([(2, 3, 1), (1, 2), (1, 1), (1, 3, 2),
                                        (2, 1, 3, 1)]),
                       min_size=1, max_size=2))
def test_trace_json_is_the_dict_form(w, bodies):
    # runs of length 0-16 with repeated letters, on machines whose pushes
    # pop and whose outputs are sortable or not
    _, trace = machine_run(w, spec(*bodies), with_trace=True)
    assert trace.to_json() == dict_form_json(trace)
    assert MachineTrace().to_json() == dict_form_json(MachineTrace())


def test_trace_records_pop_counts():
    _, trace = machine_run((2, 4, 1, 3), spec((2, 3, 1)), with_trace=True)
    assert trace.sigma_pops == [0, 0, 0, 2]
    assert trace.stack21_pops == [0, 1, 0, 0]
    with pytest.raises(AttributeError):
        trace.steps = []


def test_stage_functions_fill_a_consistent_trace():
    s = spec((2, 3, 1))
    trace = MachineTrace()
    first = sigma_stack_output([2, 4, 1, 3], s, trace)
    assert (trace.input, trace.first_output) == ((2, 4, 1, 3), first)
    assert [op for _, op, _ in trace.steps] == \
        ["push"] * 3 + ["pop"] * 2 + ["push"] + ["pop"] * 2
    final = stack21_output(first, trace)
    assert trace.final_output == final
    _, whole = machine_run([2, 4, 1, 3], s, with_trace=True)
    assert trace.steps == whole.steps


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_trace_matches_naive_two_stack(data):
    # lengths 0-16 with letters up to 20, on permutations (distinct
    # letters) and Cayley words (ties), against a simulator that shares
    # nothing with pamsort.machine
    d = data.draw(st.sampled_from([Domain.PERM, Domain.CAYLEY]))
    w = data.draw(st.lists(st.integers(1, 20), max_size=16,
                           unique=d is Domain.PERM))
    bodies = tuple(data.draw(st.lists(SIGMA_BODIES, min_size=1, max_size=2)))
    steps, first, final = naive_trace(w, bodies)
    _, trace = machine_run(w, spec(*bodies, domain=d), with_trace=True)
    assert trace.steps == steps
    assert (trace.first_output, trace.final_output) == (first, final)
    assert json.loads(trace.to_json())["steps"] == [
        {"stack": s, "op": op, "value": v} for s, op, v in steps]
    assert trace.to_json() == json.dumps({
        "input": w, "sigma": list(trace.sigma),
        "steps": [{"stack": s, "op": op, "value": v} for s, op, v in steps],
        "first_output": list(first), "final_output": list(final),
        "sortable": list(final) == sorted(w)})


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


def test_perm_words_match_the_walk():
    for n in range(9):
        assert list(iter_domain(Domain.PERM, n)) == \
            [w for w, _ in _walk(Domain.PERM, n, None)], n
    for n in (-1, 12):
        with pytest.raises(ValueError, match="n="):
            iter_domain(Domain.PERM, n)


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

def naive_stack_run(w, bodies):
    """Right-greedy Sigma-stack: pop while the stack read top to bottom,
    with the incoming letter on top, would contain a forbidden pattern.
    Returns (letters popped, stack bottom first) after reading ``w``."""
    stack, out = [], []
    for x in w:
        while stack and any(naive_contains([x] + stack[::-1], b)
                            for b in bodies):
            out.append(stack.pop())
        stack.append(x)
    return out, stack


def naive_sigma_stack(w, bodies):
    out, stack = naive_stack_run(w, bodies)
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
                image = {out for _, out in direct}
                sorted_image = {out for out in image
                                if not naive_contains(out, (2, 3, 1))}
                assert image_set(s, n) == image, (d, bodies, n)
                assert image_set(s, n, sorted_only=True) == sorted_image, \
                    (d, bodies, n)
                for w in sorted(set(words) | image):
                    pre = [u for u, out in direct if out == w]
                    assert fertility(w, s) == (len(pre), pre), (d, bodies, w)


def test_level_walk_subtrees_match_direct_map(monkeypatch):
    # past _SUBTREE_LEVELS letters the image, the sorted set and the
    # sortable count grow one subtree per distinct state of the frontier,
    # the count with the tally of its key; with 1 and 3 levels that path
    # runs at these sizes, with every frontier depth from 0 to 5
    cases = []
    for d in Domain:
        for n in range(0, 7):
            words = naive_domain(d, n)
            for bodies in WALK_SIGMAS:
                if d is Domain.PERM and bodies == ((1, 1),):
                    continue
                outs = [naive_sigma_stack(w, bodies) for w in words]
                image = set(outs)
                sorted_image = {out for out in image
                                if not naive_contains(out, (2, 3, 1))}
                count = sum(out in sorted_image for out in outs)
                cases.append((spec(*bodies, domain=d), n, image,
                              sorted_image, count))
    for levels in (1, 3):
        monkeypatch.setattr(M, "_SUBTREE_LEVELS", levels)
        for s, n, image, sorted_image, count in cases:
            assert image_set(s, n) == image, (levels, s, n)
            assert image_set(s, n, sorted_only=True) == sorted_image, \
                (levels, s, n)
            assert sortable_count(s, n) == count, (levels, s, n)


# Property tests: random words of length 8-16 in every domain against the
# naive references above.

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


@pytest.mark.parametrize("d", list(Domain), ids=lambda d: d.value)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fertility_finds_preimages_of_long_words(d, data):
    u = data.draw(domain_words(d, 7, 9))
    bodies = tuple(data.draw(st.lists(SIGMA_BODIES, min_size=1, max_size=2)))
    s = spec(*bodies, domain=d)
    w = naive_sigma_stack(u, bodies)
    count, pre = fertility(w, s, max_n=len(w))
    assert u in pre
    assert count == len(pre)
    for v in pre:
        assert is_member(v, d)
        assert naive_sigma_stack(v, bodies) == w


def naive_pop_count(stack, x, bodies):
    """Pops before ``x`` goes on: pop the top while the stack read top to
    bottom holds letters that complete, after ``x``, an occurrence of a
    body."""
    stack = list(stack)
    pops = 0
    while stack and any(naive_contains((x,) + sub, b) for b in bodies
                        for sub in itertools.combinations(stack[::-1],
                                                          len(b) - 1)):
        stack.pop()
        pops += 1
    return pops


@pytest.mark.parametrize("d", list(Domain), ids=lambda d: d.value)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pop_depth_matches_naive(d, data):
    # the pop kernel on every stack that a run of the naive machine
    # reaches, against popping one letter at a time
    w = data.draw(domain_words(d, 6, 12))
    bodies = tuple(data.draw(st.lists(SIGMA_BODIES, min_size=1, max_size=2)))
    for i, x in enumerate(w):
        _, stack = naive_stack_run(w[:i], bodies)
        assert _must_pop(tuple(stack[::-1]), x, bodies) == \
            naive_pop_count(stack, x, bodies), (stack, x)


def naive_split(new):
    """Prune (c) of the sortable walk on the stack ``new`` (top-first,
    the pushed letter on top): under it, a larger letter sits above a
    smaller one."""
    x, rest = new[0], new[1:]
    return any(rest[i] > x > rest[j]
               for i, j in itertools.combinations(range(len(rest)), 2))


@pytest.mark.parametrize("d", list(Domain), ids=lambda d: d.value)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_automaton_matches_pop_rule(d, data):
    # every push of a run, taken through a fresh automaton, against the
    # pop kernel, the naive pop count and the naive drain prune on the
    # stack the naive machine holds at that point; the state each push is
    # taken from is read after the step, which builds it from a placeholder
    # on first use
    w = data.draw(domain_words(d, 6, 12))
    bodies = tuple(data.draw(st.lists(SIGMA_BODIES, min_size=1, max_size=2)))
    auto = _Automaton(bodies)
    sid = 0
    for i, x in enumerate(w):
        _, bottom_first = naive_stack_run(w[:i], bodies)
        stack = tuple(bottom_first[::-1])
        pops, nxt, split, low = auto.step(sid, stack, x)
        if sid < 0:
            sid = auto.moves[~sid][1]
        assert sid >= 0
        assert auto.patterns[sid] == tuple(2 * r for r in standardize(stack))
        sid = nxt
        assert pops == _must_pop(stack, x, bodies) == \
            naive_pop_count(bottom_first, x, bodies), (stack, x)
        new = (x,) + stack[pops:]
        assert split == naive_split(new), (new, bodies)
        assert new[low] == min(new), (new, low)


SPILL_SIGMAS = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2),
                (3, 2, 1), (1, 3, 2, 4), (2, 4, 1, 3)]


def test_automaton_cache_evicts_within_its_bound(monkeypatch):
    specs = [spec(b, domain=Domain.CAYLEY) for b in SPILL_SIGMAS]
    monkeypatch.setattr(M, "_AUTOMATA", _AutomatonCache(bound=10 ** 9))
    want = [sortable_count(s, 5) for s in specs]
    sizes = [len(a.moves) for a in M._AUTOMATA.automata.values()]
    bound = 2 * max(sizes)
    assert sum(sizes) > bound
    cache = _AutomatonCache(bound)
    monkeypatch.setattr(M, "_AUTOMATA", cache)
    for _ in range(2):
        assert [sortable_count(s, 5) for s in specs] == want
        assert cache.total <= bound
        assert cache.total == sum(len(a.moves)
                                  for a in cache.automata.values())
        assert len(cache.automata) < len(specs)
    # the machines used last are the ones kept
    assert list(cache.automata)[-1] == specs[-1].bodies
    # an automaton that alone outgrows the bound leaves the cache
    cache.bound = 1
    assert sortable_count(specs[0], 5) == want[0]
    assert cache.total == 0 and not cache.automata


def stepped_from(auto):
    """The states of ``auto`` that some built transition leaves."""
    return {key & (1 << 32) - 1 for key in auto.moves}


@pytest.mark.parametrize("walk", ["sortable", "outputs", "fertility"])
@pytest.mark.parametrize("d, bodies", [
    (Domain.PERM, ((1, 2, 3, 4, 5),)), (Domain.PERM, ((1, 3, 2, 4),)),
    (Domain.PERM, ((1, 3, 2), (3, 2, 1))), (Domain.CAYLEY, ((2, 1),)),
    (Domain.RGF, ((1, 2, 1),))], ids=["perm-12345", "perm-1324",
                                      "perm-132,321", "cay-21", "rgf-121"])
def test_cold_walks_build_only_states_they_step_from(monkeypatch, walk, d,
                                                     bodies):
    s = spec(*bodies, domain=d)
    n = 6
    cache = _AutomatonCache(bound=10 ** 9)
    monkeypatch.setattr(M, "_AUTOMATA", cache)
    if walk == "sortable":
        sortable_count(s, n)
    elif walk == "outputs":
        list(machine_outputs(s, n))
    else:
        w = naive_sigma_stack(tuple(iter_domain(d, n))[-1], bodies)
        assert fertility(w, s)[0] >= 1
    auto = cache.get(s.bodies)
    assert stepped_from(auto) == set(range(len(auto.patterns)))
    assert len(auto.patterns) < len(auto.moves)


def test_cold_walk_leaves_placeholders_that_later_runs_resolve(monkeypatch):
    # perm/12345 at n = 7: most pushes from a 6-letter stack are the last
    # letter of a word, so their targets are never built
    bodies = ((1, 2, 3, 4, 5),)
    s = spec(*bodies)
    cache = _AutomatonCache(bound=10 ** 9)
    monkeypatch.setattr(M, "_AUTOMATA", cache)
    assert sortable_count(s, 7) == 391
    auto = cache.get(s.bodies)
    assert (len(auto.patterns), len(auto.moves)) == (180, 1157)
    assert 4 * len(auto.patterns) < len(auto.moves)
    # warm after cold: the simulator steps from the placeholders the walk
    # left behind, on the same automaton
    for n in range(8):
        for w in itertools.permutations(range(1, n + 1)):
            assert sigma_stack_output(w, s) == naive_sigma_stack(w, bodies)
    assert cache.get(s.bodies) is auto
    assert stepped_from(auto) == set(range(len(auto.patterns)))
    # each placeholder names its own transition
    for key, (_, sid, _, _) in auto.moves.items():
        assert sid == ~key or 0 < sid < len(auto.patterns)


def test_patched_pop_rule_is_not_masked_by_the_automaton(monkeypatch):
    s = spec((2, 3, 1))
    w = (3, 1, 4, 2, 5)
    want = naive_sigma_stack(w, ((2, 3, 1),))
    assert sigma_stack_output(w, s) == want        # transitions are cached
    count = sortable_count(s, 5)
    assert count != 42
    # always popping: the first stack passes its input through, so the
    # sortable words are the 42 that avoid 231
    monkeypatch.setattr(M, "_must_pop", lambda stack, x, bodies: True)
    assert sigma_stack_output(w, s) == w
    assert sortable_count(s, 5) == 42
    monkeypatch.undo()
    # nothing the patched rule built is read again
    assert sigma_stack_output(w, s) == want
    assert sortable_count(s, 5) == count
    assert M._AUTOMATA.builder is _must_pop


def test_machine_entry_rejects_letters_below_one():
    s = spec((2, 3, 1))
    for call in (lambda: sigma_stack_output((0,), s),
                 lambda: is_sortable((0,), s),
                 lambda: sigma_stack_output((2, 0), s),
                 lambda: machine_run((1, 0), s, with_trace=True),
                 lambda: fertility((2, 0, 1), s)):
        with pytest.raises(ValueError, match="positive"):
            call()


def test_walks_leave_no_reference_cycles(monkeypatch):
    # the automata that a walk grows, and the ones the cache evicts or
    # drops, must be freed by reference counting, not at the next full
    # garbage collection; a run on one word (with the per-body occurrence
    # plans), a pattern search with a predicate, a path enumeration or a
    # bijection must leave nothing for the collector either
    s = spec((1, 3, 2, 4), domain=Domain.CAYLEY)
    shaded = mesh((1, 3, 2), ((1, 1),))
    bar = barred((3, 5, 2, 4, 1), (2,))
    monkeypatch.setattr(M, "_AUTOMATA", _AutomatonCache(bound=300))
    gc.collect()
    gc.disable()
    try:
        for b in SPILL_SIGMAS:                  # grows and evicts
            sortable_count(spec(b), 5)
        assert len(M._AUTOMATA.automata) < len(SPILL_SIGMAS)
        M._AUTOMATA.clear()
        sortable_count(s, 5)
        list(machine_outputs(s, 5))
        image_set(s, 5, sorted_only=True)
        fertility((2, 1, 3, 1, 2), s)
        sigma_stack_output((2, 4, 1, 3, 3), s)
        is_sortable((3, 1, 4, 2, 2), s)
        machine_run((1, 3, 2, 4, 1), s, with_trace=True)
        contains((2, 5, 3, 4, 1), shaded)
        occurrences_of((2, 5, 3, 4, 1), shaded)
        contains((3, 2, 4, 1, 5), bar)
        occurrences_of((3, 2, 4, 1, 5), bar)
        list(iter_dyck(3))
        list(iter_motzkin(4))
        list(iter_schroder(3))
        av213_to_dyck((2, 5, 3, 4, 1))
        assert gc.collect() == 0
    finally:
        gc.enable()
