"""Unit tests for the bijection catalogue."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (domain_words, naive_beta_motzkin, naive_contains,
                     naive_delta, naive_delta_inverse)
from pamsort.bijections import (StoreMode, alpha_strip, av213_to_dyck,
                                av321_to_rgfnr12321, beta_motzkin, delta,
                                delta_inverse, dyck_to_av213, dyck_to_rgf1221,
                                eta, eta_inverse, parse_labeled_motzkin,
                                phi_add_max, rgf1221_to_dyck,
                                rgfnr12321_to_av321, schroder_to_sort123,
                                sort123_to_schroder)
from pamsort.bijections import _first_repeat_231
from pamsort.machine import (MachineSpec, is_sortable, iter_domain,
                             sortable_words)
from pamsort.oracles import _sort123_parts
from pamsort.patterns import classical, contains, contains_classical
from pamsort.paths_trees import format_path, iter_dyck
from pamsort.words_core import Domain, inflate, is_member, parse_word


def test_dyck_to_av213_pinned_examples():
    assert dyck_to_av213("UUDUUDDDUD") == (2, 5, 3, 4, 1)
    assert dyck_to_av213("UDUD") == (2, 1)
    assert dyck_to_av213("UUDD") == (1, 2)


def test_dyck_av213_round_trip():
    p213 = classical((2, 1, 3))
    for n in range(1, 8):
        imgs = set()
        for p in iter_dyck(n):
            w = dyck_to_av213(p)
            assert not contains(w, p213)
            assert av213_to_dyck(w) == p
            imgs.add(w)
        av = {w for w in iter_domain(Domain.PERM, n)
              if not contains(w, p213)}
        assert imgs == av


def test_phi_add_max():
    assert phi_add_max((2, 1)) == (2, 1, 3)
    assert phi_add_max((2, 1, 3)) == (2, 1, 3, 4)
    assert phi_add_max((3, 1, 2)) == (3, 1, 2, 4)
    with pytest.raises(ValueError):
        phi_add_max((1,))


def test_sort123_schroder_pinned_example():
    p = sort123_to_schroder(parse_word("567489132"))
    assert format_path(p) == "H2H2UDUUDUDDH2H2"
    assert schroder_to_sort123(p) == parse_word("567489132")


def test_sort123_schroder_round_trip():
    from pamsort.enumeration import sort123_formula
    spec = MachineSpec((classical((1, 2, 3)),))
    for n in range(1, 7):
        imgs = set()
        for w in sortable_words(spec, n):
            p = sort123_to_schroder(w)
            assert p.semilength == n - 1
            # no UH2D factor, and H2 steps sit at height 0 only
            assert not any(p.steps[i:i + 3] == ("U", "H2", "D")
                           for i in range(len(p.steps) - 2))
            assert schroder_to_sort123(p) == w
            imgs.add(p.steps)
        assert len(imgs) == sort123_formula(n)


def test_sort123_to_schroder_rejects_both_ways():
    spec = MachineSpec((classical((1, 2, 3)),))
    rng = random.Random(16)
    unanchored = with_213 = 0
    while unanchored < 30:
        # r = 0 and a descent first: only an unanchored maximum can fail
        n = rng.randint(9, 16)
        w = tuple(rng.sample(range(1, n + 1), n))
        if w[0] < w[1] or _sort123_parts(w) is not None:
            continue
        unanchored += 1
        assert not is_sortable(w, spec), w
        with pytest.raises(ValueError, match="is not 123-sortable"):
            sort123_to_schroder(w)
    while with_213 < 30:
        # the parts (r, s, rho) put together by the inverse steps
        n = rng.randint(9, 16)
        r, s = rng.randint(0, 3), rng.randint(0, 3)
        rho = tuple(rng.sample(range(1, n - r - s), n - 1 - r - s))
        if not contains_classical(rho, (2, 1, 3)):
            continue
        with_213 += 1
        w = (len(rho) + 1,) + rho
        for _ in range(s):
            w = phi_add_max(w)
        w = inflate(w, 1, r + 1)
        assert _sort123_parts(w) == (r, s, rho), w
        assert not is_sortable(w, spec), w
        with pytest.raises(ValueError, match="is not 123-sortable"):
            sort123_to_schroder(w)


def test_eta_pinned_example():
    pi = parse_word("13 14 15 10 12 6 7 8 11 9 3 1 4 5 2")
    assert eta(pi) == parse_word("111223332345445")
    assert eta_inverse(eta(pi)) == pi


def test_eta_round_trip_and_counts():
    from pamsort.enumeration import binom_transform_catalan
    spec = MachineSpec((classical((1, 3, 2)),))
    bad = classical((1, 2, 2, 3, 1))
    for n in range(1, 7):
        words = sortable_words(spec, n)
        rs = set()
        for w in words:
            R = eta(w)
            assert is_member(R, Domain.RGF) and not contains(R, bad)
            assert eta_inverse(R) == w
            rs.add(R)
        assert len(rs) == len(words) == binom_transform_catalan(n)


def test_eta_rejects_non_sortable():
    with pytest.raises(ValueError):
        eta((2, 3, 1, 4))     # not 132-sortable
    with pytest.raises(ValueError):
        eta_inverse((1, 2, 2, 3, 1))
    with pytest.raises(ValueError, match="expected an RGF"):
        eta_inverse((1, 0))


def test_pattern_checks_reject_exactly_the_containing_inputs():
    # each map rejects an input, naming the pattern, exactly when the naive
    # check finds the pattern in it; rgfnr12321_to_av321 also rejects some
    # 12321-avoiding RGFs that lie outside its domain
    cases = [
        (Domain.PERM, av213_to_dyck, (2, 1, 3), "not a 213-avoiding"),
        (Domain.RGF, eta_inverse, (1, 2, 2, 3, 1), "RGF contains 12231"),
        (Domain.RGF, delta, (1, 2, 2, 3, 1), "RGF contains 12231"),
        (Domain.RGF, delta_inverse, (1, 2, 3, 2, 1), "RGF contains 12321"),
        (Domain.RGF, rgfnr12321_to_av321, (1, 2, 3, 2, 1),
         "RGF contains 12321"),
        (Domain.RGF, rgf1221_to_dyck, (1, 2, 2, 1), "RGF contains 1221"),
    ]
    for d, f, body, message in cases:
        for n in range(8):
            for w in iter_domain(d, n):
                if naive_contains(w, body):
                    with pytest.raises(ValueError, match=message):
                        f(w)
                    continue
                try:
                    f(w)
                except ValueError as e:
                    assert f is rgfnr12321_to_av321, (f, w)
                    assert "outside the bijection's domain" in str(e), w


def assert_rgf_checks_match(R, reference):
    """On an RGF, 12231 is a 231 whose 2 repeats an earlier letter, and
    12321 is a 321; ``reference(R, body)`` decides containment."""
    assert ((_first_repeat_231(R) is not None)
            == reference(R, (1, 2, 2, 3, 1))), R
    assert contains_classical(R, (3, 2, 1)) == reference(R, (1, 2, 3, 2, 1)), R


def test_rgf_scans_match_naive_on_short_rgfs():
    for n in range(9):
        for R in iter_domain(Domain.RGF, n):
            assert_rgf_checks_match(R, naive_contains)


def test_delta_maps_match_the_naive_reference():
    for n in range(9):
        for R in iter_domain(Domain.RGF, n):
            if not naive_contains(R, (1, 2, 2, 3, 1)):
                assert delta(R) == naive_delta(R), R
            if not naive_contains(R, (1, 2, 3, 2, 1)):
                assert delta_inverse(R) == naive_delta_inverse(R), R


def test_rgf_maps_do_not_call_the_generic_search(monkeypatch):
    import pamsort.patterns as P

    def search(*args, **kwargs):
        raise AssertionError("generic pattern search called")
    monkeypatch.setattr(P, "_search", search)
    for n in range(8):
        for R in iter_domain(Domain.RGF, n):
            for f in (eta_inverse, delta, delta_inverse, rgfnr12321_to_av321):
                try:
                    f(R)
                except ValueError:
                    pass


def test_rgf1221_dyck_round_trip():
    from pamsort.paths_trees import double_rises
    p1221 = classical((1, 2, 2, 1))
    for n in range(1, 8):
        for R in iter_domain(Domain.RGF, n):
            if contains(R, p1221):
                continue
            p = rgf1221_to_dyck(R)
            assert p.semilength == n
            assert double_rises(p) == max(R) - 1
            assert dyck_to_rgf1221(p) == R


def test_beta_pinned_example():
    lp = parse_labeled_motzkin("H0 H1 U U D H2 H0 D H0 H0")
    assert beta_motzkin(lp, StoreMode.STACK) == \
        (1, 2, 1, 3, 4, 4, 3, 5, 3, 6, 7)


def test_beta_queue_differs_and_h2_height_check():
    lp = parse_labeled_motzkin("UH2D")
    stack = beta_motzkin(lp, StoreMode.STACK)
    queue = beta_motzkin(lp, StoreMode.QUEUE)
    assert stack == queue == (1, 2, 2, 2)   # single open step: same peek
    with pytest.raises(ValueError):
        parse_labeled_motzkin("H2")          # H2 forbidden at height 0
    lp2 = parse_labeled_motzkin("UUH2DD")
    assert beta_motzkin(lp2, StoreMode.STACK) == (1, 2, 3, 3, 3, 2)
    assert beta_motzkin(lp2, StoreMode.QUEUE) == (1, 2, 3, 2, 2, 3)


def test_beta_images_are_pattern_avoiding_rgfs():
    p12323 = classical((1, 2, 3, 2, 3))
    p12332 = classical((1, 2, 3, 3, 2))
    lp = parse_labeled_motzkin("UH0DH1U UD D".replace(" ", ""))
    for mode, pat in ((StoreMode.STACK, p12323), (StoreMode.QUEUE, p12332)):
        w = beta_motzkin(lp, mode)
        assert is_member(w, Domain.RGF)
        assert not contains(w, pat)


def labeled_motzkin_steps(n, h=0):
    """Every labeled Motzkin path of length ``n`` that starts at height
    ``h``, as a tuple of steps."""
    if n == 0:
        if h == 0:
            yield ()
        return
    if h > n:
        return
    steps = ["U", "H0", "H1"] + (["D", "H2"] if h else [])
    for s in steps:
        for rest in labeled_motzkin_steps(n - 1, h + (s == "U") - (s == "D")):
            yield (s,) + rest


def random_labeled_motzkin(rng, n):
    """A random labeled Motzkin path of length ``n``: each step is drawn
    among those that still let the path return to height zero."""
    steps, h = [], 0
    for left in range(n, 0, -1):
        allowed = ["H0", "H1"] if h < left else []
        if h + 1 < left:
            allowed.append("U")
        if h:
            allowed += ["D", "H2"] if h < left else ["D"]
        s = rng.choice(allowed)
        steps.append(s)
        h += (s == "U") - (s == "D")
    assert h == 0
    return tuple(steps)


def test_beta_matches_naive_reference():
    # both store modes, every labeled Motzkin path of length <= 7, then
    # seeded random paths of length 50-400
    counts = []
    for n in range(8):
        paths = list(labeled_motzkin_steps(n))
        counts.append(len(paths))
        for steps in paths:
            for mode in StoreMode:
                assert beta_motzkin(steps, mode) == \
                    naive_beta_motzkin(steps, mode), (steps, mode)
    # as many paths as 12323-avoiding RGFs of length n + 1 (A007317)
    assert counts == [1, 2, 5, 15, 51, 188, 731, 2950]
    rng = random.Random(2026)
    for _ in range(60):
        steps = random_labeled_motzkin(rng, rng.randint(50, 400))
        lp = parse_labeled_motzkin("".join(steps))
        for mode in StoreMode:
            assert beta_motzkin(lp, mode) == naive_beta_motzkin(steps, mode)


def test_alpha_strip():
    # removes copies of the running maximum that are not strict maxima
    assert alpha_strip((1, 2, 2, 3, 1)) == (1, 2, 3, 1)
    assert alpha_strip((1, 2, 3)) == (1, 2, 3)
    with pytest.raises(ValueError, match="expected an RGF"):
        alpha_strip((1, 0, 2))


def test_rgfnr12321_round_trip():
    p321 = classical((3, 2, 1))
    from pamsort.enumeration import catalan
    for n in range(1, 8):
        perms = [w for w in iter_domain(Domain.PERM, n)
                 if not contains(w, p321)]
        for pi in perms:
            R = av321_to_rgfnr12321(pi)
            assert is_member(R, Domain.RGF)
            assert not contains(R, classical((1, 2, 3, 2, 1)))
            assert rgfnr12321_to_av321(R) == pi
        assert len({av321_to_rgfnr12321(pi) for pi in perms}) == catalan(n)


def test_delta_round_trip():
    p12231 = classical((1, 2, 2, 3, 1))
    p321 = classical((3, 2, 1))
    for n in range(1, 8):
        for R in iter_domain(Domain.RGF, n):
            if contains(R, p12231):
                continue
            S = delta(R)
            assert not contains(S, p321)
            assert max(S) == max(R)
            assert delta_inverse(S) == R


# Round trips on inputs of length 8-16, drawn from the side that is easy
# to draw.  The input checks scan RGFs for 12231, 1221 and 12321, and
# delta scans for 321 or 231 before every swap: repeated letters at
# lengths that the exhaustive tests above do not reach.

@st.composite
def dyck_steps(draw, min_n=8, max_n=16):
    """The steps of a random Dyck path of semilength min_n..max_n."""
    n = draw(st.integers(min_n, max_n))
    steps: list[str] = []
    ups = 0
    while len(steps) < 2 * n:
        height = 2 * ups - len(steps)
        if ups < n and (height == 0 or draw(st.booleans())):
            steps.append("U")
            ups += 1
        else:
            steps.append("D")
    return tuple(steps)


def av321_from_peaks(steps):
    """The 321-avoiding permutation whose left-to-right maxima sit at the
    peaks of a Dyck path: a peak after u up steps and d down steps puts
    the value u at position d + 1, and the other values fill the other
    positions in increasing order."""
    n = steps.count("U")
    pi = [0] * n
    ups = downs = 0
    for i, s in enumerate(steps):
        if s == "D":
            downs += 1
            continue
        ups += 1
        if i + 1 < len(steps) and steps[i + 1] == "D":
            pi[downs] = ups
    rest = iter(sorted(set(range(1, n + 1)) - set(pi)))
    return tuple(v or next(rest) for v in pi)


@st.composite
def rgf_avoiding_12231(draw, min_n=8, max_n=16):
    """A random RGF that avoids 12231.  In an RGF the first copy of a
    letter comes before every larger letter, so an RGF contains 12231
    iff some letter b occurs twice, then a larger letter, then a smaller
    one.  Each letter is drawn at or above the largest such b so far."""
    n = draw(st.integers(min_n, max_n))
    w: list[int] = []
    floor = 1
    for _ in range(n):
        v = draw(st.sampled_from(range(floor, max(w, default=0) + 2)))
        floor = max([floor] + [b for b in set(w) if b < v and w.count(b) > 1])
        w.append(v)
    return tuple(w)


@st.composite
def rgf_avoiding_12321(draw, min_n=8, max_n=32):
    """A random RGF that avoids 12321: once a letter b recurs below an
    earlier larger letter, no letter below b follows, so each letter is
    drawn at or above the largest such b so far."""
    n = draw(st.integers(min_n, max_n))
    w: list[int] = []
    floor, top = 1, 0
    for _ in range(n):
        v = draw(st.integers(floor, top + 1))
        if v < top:
            floor = max(floor, v)
        top = max(top, v)
        w.append(v)
    return tuple(w)


@settings(max_examples=200, deadline=None)
@given(R=st.one_of(domain_words(Domain.RGF, 8, 32), rgf_avoiding_12231(8, 32),
                   rgf_avoiding_12321()))
def test_rgf_scans_match_the_search_on_long_rgfs(R):
    # free RGFs of these lengths mostly contain both bodies; the two
    # avoiding strategies draw words that avoid one and may contain the
    # other
    assert_rgf_checks_match(R, contains_classical)


@settings(max_examples=40, deadline=None)
@given(steps=dyck_steps())
def test_dyck_av213_round_trip_on_long_paths(steps):
    w = dyck_to_av213(steps)
    assert is_member(w, Domain.PERM) and not naive_contains(w, (2, 1, 3))
    assert av213_to_dyck(w).steps == steps


@settings(max_examples=40, deadline=None)
@given(steps=dyck_steps(8, 32))
def test_rgf1221_dyck_round_trip_on_long_paths(steps):
    R = dyck_to_rgf1221(steps)
    assert is_member(R, Domain.RGF) and not naive_contains(R, (1, 2, 2, 1))
    assert rgf1221_to_dyck(R).steps == steps


@st.composite
def rgf_avoiding_1221(draw, min_n=8, max_n=32):
    """A random RGF that avoids 1221: once a letter b occurs twice, no
    smaller letter follows, so each letter is drawn at or above the largest
    repeated letter so far."""
    n = draw(st.integers(min_n, max_n))
    w = [1]
    floor = 1
    while len(w) < n:
        v = draw(st.integers(floor, max(w) + 1))
        if v in w:
            floor = v
        w.append(v)
    return tuple(w)


@settings(max_examples=40, deadline=None)
@given(R=rgf_avoiding_1221())
def test_rgf1221_dyck_round_trip_on_long_words(R):
    assert is_member(R, Domain.RGF) and not naive_contains(R, (1, 2, 2, 1))
    p = rgf1221_to_dyck(R)
    assert p.semilength == len(R)
    assert dyck_to_rgf1221(p) == R
    # a letter below the largest repeated one makes a 1221
    repeated = [v for v in set(R) if R.count(v) > 1]
    if repeated and max(repeated) > 1:
        bad = R + (max(repeated) - 1,)
        assert naive_contains(bad, (1, 2, 2, 1))
        with pytest.raises(ValueError, match="RGF contains 1221"):
            rgf1221_to_dyck(bad)


@settings(max_examples=30, deadline=None)
@given(steps=dyck_steps())
def test_rgfnr12321_round_trip_on_long_words(steps):
    pi = av321_from_peaks(steps)
    assert is_member(pi, Domain.PERM) and not naive_contains(pi, (3, 2, 1))
    R = av321_to_rgfnr12321(pi)
    assert is_member(R, Domain.RGF)
    assert not naive_contains(R, (1, 2, 3, 2, 1))
    assert rgfnr12321_to_av321(R) == pi


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sort123_schroder_round_trip_on_long_paths(data):
    n = data.draw(st.integers(8, 16))        # semilength n - 1
    a = data.draw(st.integers(0, 3))
    b = data.draw(st.integers(0, 3))
    middle = data.draw(dyck_steps(n - 1 - a - b, n - 1 - a - b))
    steps = ("H2",) * a + middle + ("H2",) * b
    w = schroder_to_sort123(steps)
    assert is_member(w, Domain.PERM) and len(w) == n
    assert is_sortable(w, MachineSpec((classical((1, 2, 3)),)))
    assert sort123_to_schroder(w).steps == steps


@settings(max_examples=30, deadline=None)
@given(R=rgf_avoiding_12231())
def test_eta_round_trip_on_long_words(R):
    assert not naive_contains(R, (1, 2, 2, 3, 1))
    pi = eta_inverse(R)
    assert is_member(pi, Domain.PERM)
    assert is_sortable(pi, MachineSpec((classical((1, 3, 2)),)))
    assert eta(pi) == R


@settings(max_examples=60, deadline=None)
@given(R=rgf_avoiding_12231())
def test_delta_round_trip_on_long_words(R):
    S = delta(R)
    assert is_member(S, Domain.RGF) and not naive_contains(S, (3, 2, 1))
    assert max(S) == max(R)
    assert S == naive_delta(R)
    assert delta_inverse(S) == R == naive_delta_inverse(S)
