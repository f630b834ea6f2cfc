"""Acceptance gate: twelve end-to-end criteria over the whole package.

Each test prints an explicit ``criterion NN PASS`` line on success (run
pytest with ``-s`` to see them); a pytest failure marks the criterion as
failed.
"""

import itertools
from collections import Counter
from math import comb, factorial

from helpers import ORACLE_CASES
from pamsort.bijections import (av213_to_dyck, av321_to_rgfnr12321,
                                beta_motzkin, delta, delta_inverse,
                                dyck_to_av213, dyck_to_rgf1221, eta,
                                eta_inverse, parse_labeled_motzkin,
                                phi_add_max, rgf1221_to_dyck,
                                rgfnr12321_to_av321, schroder_to_sort123,
                                sort123_to_schroder, StoreMode)
from pamsort.enumeration import (Method, ballot, binom_transform_catalan,
                                 catalan, count_sortable, fishburn,
                                 golden_table, narayana, odd_fibonacci,
                                 pair123_321, sort123_formula, verify_golden,
                                 xi_count)
from pamsort.machine import (MachineSpec, image_set, is_sortable, iter_domain,
                             sigma_stack_output, sortable_count,
                             sortable_words)
from pamsort.oracles import (classify, fertility_123, is_effective,
                             is_fully_bijective_cayley, oracle_is_sortable,
                             sorted_set_123, verify_witness)
from pamsort.paths_trees import (count_dyck_bounded, double_rises, height,
                                 iter_dyck, iter_motzkin, rule_catalog,
                                 rule_level_counts)
from pamsort.patterns import classical, contains, parse_pattern
from pamsort.words_core import Domain, is_member, ltr_maxima, reverse

LEN5_SAMPLE = ["12345", "14235", "21345", "24135", "31245",
               "34125", "41235", "43125", "51234", "53124"]


def _ok(num, text):
    print(f"criterion {num:02d} PASS - {text}")


def spec(*bodies, domain=Domain.PERM):
    return MachineSpec(tuple(classical(b) for b in bodies), domain)


def test_criterion_01_appendix_len3():
    report = verify_golden("appendix_len3", max_n=9)
    assert report["pass"], report
    assert len(report["rows"]) == 6
    start, counts = golden_table("appendix_len3").rows["231"]
    assert counts[:9] == (1, 2, 6, 23, 102, 496, 2569, 13934, 78295)
    _ok(1, "length-3 machine counts match for n <= 9")


def test_criterion_02_appendix_len4_len5():
    report = verify_golden("appendix_len4", max_n=8)
    assert report["pass"], report
    assert len(report["rows"]) == 24
    report5 = verify_golden("appendix_len5", max_n=8, rows=LEN5_SAMPLE)
    assert report5["pass"], report5
    assert len(report5["rows"]) == len(LEN5_SAMPLE)
    _ok(2, "length-4 rows and a 10-row length-5 sample match for n <= 8")


def test_criterion_03_oracle_brute_set_equality():
    for dom, bodies, nmax in ORACLE_CASES:
        s = MachineSpec(tuple(classical(b) for b in bodies), dom)
        for n in range(1, nmax + 1):
            for w in iter_domain(dom, n):
                assert oracle_is_sortable(w, s) == is_sortable(w, s), \
                    (dom, bodies, w)
    _ok(3, "oracle and brute-force sortable sets coincide per dispatch rule")


def test_criterion_04_pairs_table():
    report = verify_golden("pairs", max_n=8)
    assert report["pass"], report
    start, counts = golden_table("pairs").rows["123-321"]
    assert counts[:8] == (1, 2, 4, 7, 14, 28, 56, 112)
    for n in range(4, 9):
        assert pair123_321(n) == 7 * 2 ** (n - 4)
        assert pair123_321(n) == counts[n - start]
    _ok(4, "pair-machine counts match, incl. (123,321) = 7*2^(n-4)")


def test_criterion_05_decr_table():
    report = verify_golden("decr", max_n=9)
    assert report["pass"], report
    heights = {n: [height(p) for p in iter_dyck(n)] for n in range(1, 10)}
    for key, (start, counts) in golden_table("decr").rows.items():
        k = int(key)
        assert 3 <= k <= 7
        for n in range(1, 10):
            c = counts[n - start]
            assert count_dyck_bounded(n, k - 1) == c, (k, n)
            # the same count by filtering every Dyck path on its height
            assert sum(h <= k - 1 for h in heights[n]) == c, (k, n)
    _ok(5, "decreasing-pattern rows = height-bounded Dyck path counts")


def test_criterion_06_sorted_table_and_fertility():
    for key, (start, counts) in golden_table("sorted").rows.items():
        body = tuple(int(c) for c in key)
        s = spec(body)
        for n in range(1, 9):
            outs = Counter(sigma_stack_output(w, s)
                           for w in iter_domain(Domain.PERM, n))
            srt = image_set(s, n, sorted_only=True)
            assert len(srt) == counts[n - start], (key, n, len(srt))
            assert sum(outs[w] for w in srt) == sortable_count(s, n), (key, n)
    _ok(6, "sorted-set sizes match and fertilities sum to |Sort_n(sigma)|")


def test_criterion_07_effectiveness():
    noneff = []
    for length in (2, 3, 4):
        for body in itertools.permutations(range(1, length + 1)):
            s = spec(body)
            pat = classical(body)
            eff = all(not contains(w, pat)
                      for n in range(1, 8)
                      for w in image_set(s, n, sorted_only=True))
            assert eff == is_effective(body), body
            if not eff and length <= 3:
                noneff.append(body)
    assert sorted(noneff) == [(2, 1), (2, 1, 3), (3, 1, 2)]
    _ok(7, "effectiveness matches brute force; non-effective = {21,213,312}")


def test_criterion_08_cayley_bijectivity():
    for length in (2, 3):
        for body in iter_domain(Domain.CAYLEY, length):
            s = spec(body, domain=Domain.CAYLEY)
            bij = all(
                len({sigma_stack_output(w, s)
                     for w in iter_domain(Domain.CAYLEY, n)})
                == sum(1 for _ in iter_domain(Domain.CAYLEY, n))
                for n in range(1, 7))
            assert bij == (body[0] == body[1]) == \
                is_fully_bijective_cayley(body), body
    s11 = spec((1, 1), domain=Domain.CAYLEY)

    def rs11(x):
        return reverse(sigma_stack_output(x, s11))

    for n in range(1, 8):
        for w in iter_domain(Domain.CAYLEY, n):
            assert rs11(rs11(w)) == w, w
    s21 = spec((2, 1), domain=Domain.CAYLEY)
    start, counts = golden_table("cayley21").rows["21"]
    for n in range(1, 6):
        assert sortable_count(s21, n) == counts[n - start] \
            == [1, 3, 13, 73, 483][n - 1], n
    _ok(8, "s^sigma bijective on Cay_n iff s1=s2; (R.s^11)^2=id; 21-counts ok")


def test_criterion_09_bijection_suite():
    # Dyck <-> Av(213)
    p213 = classical((2, 1, 3))
    for n in range(1, 9):
        imgs = set()
        for p in iter_dyck(n):
            w = dyck_to_av213(p)
            assert not contains(w, p213)
            assert av213_to_dyck(w) == p
            imgs.add(w)
        assert len(imgs) == catalan(n)

    # Sort(123) <-> restricted Schroder paths
    s123 = spec((1, 2, 3))
    for n in range(1, 9):
        words = sortable_words(s123, n)
        imgs = set()
        for w in words:
            p = sort123_to_schroder(w)
            assert p.semilength == n - 1
            assert not any(p.steps[i:i + 3] == ("U", "H2", "D")
                           for i in range(len(p.steps) - 2))
            assert schroder_to_sort123(p) == w
            imgs.add(p.steps)
        assert len(imgs) == len(words) == sort123_formula(n)

    # phi adds a new maximum to descent-starting 123-sortable permutations
    def sort_down(n):
        return [w for w in sortable_words(s123, n) if w[0] > w[1]]

    for n in range(3, 9):
        dom = sort_down(n - 1)
        tgt = {w for w in sort_down(n) if len(ltr_maxima(w)) >= 2}
        assert {phi_add_max(w) for w in dom} == tgt, n
        for w in dom:
            assert len(ltr_maxima(phi_add_max(w))) == len(ltr_maxima(w)) + 1

    # eta : Sort(132) <-> RGF(12231), plus the three-way count equality
    s132 = spec((1, 3, 2))
    p12231 = classical((1, 2, 2, 3, 1))
    p12321 = classical((1, 2, 3, 2, 1))
    for n in range(1, 9):
        words = sortable_words(s132, n)
        rs = set()
        for w in words:
            R = eta(w)
            assert is_member(R, Domain.RGF) and not contains(R, p12231)
            assert eta_inverse(R) == w
            rs.add(R)
        assert len(rs) == len(words) == binom_transform_catalan(n)
    for n in range(1, 10):
        rgf12231 = sum(1 for R in iter_domain(Domain.RGF, n)
                       if not contains(R, p12231))
        rgf12321 = sum(1 for R in iter_domain(Domain.RGF, n)
                       if not contains(R, p12321))
        target = binom_transform_catalan(n)
        assert rgf12231 == rgf12321 == target, n
        assert count_sortable(s132, n, Method.BRUTE) == target, n

    # psi : RGF(1221) <-> Dyck, with max <-> double rises + 1
    p1221 = classical((1, 2, 2, 1))
    for n in range(1, 9):
        seen = set()
        for R in iter_domain(Domain.RGF, n):
            if contains(R, p1221):
                continue
            p = rgf1221_to_dyck(R)
            assert double_rises(p) == max(R) - 1
            assert dyck_to_rgf1221(p) == R
            seen.add(p.steps)
        assert len(seen) == catalan(n)

    # delta : RGF(12231) <-> 321-free RGFs, max preserved
    p321 = classical((3, 2, 1))
    for n in range(1, 9):
        for R in iter_domain(Domain.RGF, n):
            if contains(R, p12231):
                continue
            S = delta(R)
            assert not contains(S, p321) and max(S) == max(R)
            assert delta_inverse(S) == R

    # beta : labeled Motzkin paths <-> RGF(12323) / RGF(12332)
    def labeled_paths(n):
        for base in iter_motzkin(n):
            hs = [i for i, st in enumerate(base.steps) if st == "H"]
            h, hts = 0, []
            for st in base.steps:
                hts.append(h)
                h += 1 if st == "U" else -1 if st == "D" else 0
            opts = [["H0", "H1"] + (["H2"] if hts[i] > 0 else [])
                    for i in hs]
            for combo in itertools.product(*opts):
                steps = list(base.steps)
                for i, lab in zip(hs, combo):
                    steps[i] = lab
                yield parse_labeled_motzkin(" ".join(steps))

    p12323 = classical((1, 2, 3, 2, 3))
    p12332 = classical((1, 2, 3, 3, 2))
    for n in range(0, 8):
        paths = list(labeled_paths(n))
        for mode, pat in ((StoreMode.STACK, p12323),
                          (StoreMode.QUEUE, p12332)):
            imgs = {beta_motzkin(lp, mode) for lp in paths}
            target = [R for R in iter_domain(Domain.RGF, n + 1)
                      if not contains(R, pat)]
            assert len(imgs) == len(paths) == len(target), (n, mode)
            assert imgs == set(target)

    # pi(R) : non-redundant RGF(12321) <-> Av(321)
    for n in range(1, 9):
        perms = [w for w in iter_domain(Domain.PERM, n)
                 if not contains(w, p321)]
        imgs = set()
        for pi in perms:
            R = av321_to_rgfnr12321(pi)
            assert not contains(R, p12321)
            assert rgfnr12321_to_av321(R) == pi
            imgs.add(R)
        assert len(imgs) == catalan(n)
    _ok(9, "bijection suite round-trips with matching statistics")


def test_criterion_10_generating_trees():
    assert rule_level_counts(rule_catalog("DYCK_PEAK"), 8) == \
        [catalan(n) for n in range(1, 9)]
    assert rule_level_counts(rule_catalog("RGF1221_SITES"), 8) == \
        [catalan(n) for n in range(1, 9)]
    motzkin_counts = [sum(1 for _ in iter_motzkin(n)) for n in range(0, 7)]
    assert rule_level_counts(rule_catalog("MOTZKIN"), 7) == motzkin_counts
    expected = [1, 2, 4, 10, 26, 72, 206, 606]
    assert rule_level_counts(rule_catalog("OMEGA1_132_321"), 8) == expected
    assert rule_level_counts(rule_catalog("OMEGA2_DUDU"), 8) == expected
    direct = [count_sortable(spec((1, 3, 2), (3, 2, 1)), n)
              for n in range(1, 9)]
    assert direct == expected
    tree = rule_level_counts(rule_catalog("OMEGA_123_312"), 8)
    assert tree == [count_sortable(spec((1, 2, 3), (3, 1, 2)), n)
                    for n in range(1, 9)]
    _ok(10, "succession-rule level counts equal direct enumerations")


def test_criterion_11_formula_identities():
    xi = parse_pattern("@xi")
    for n in range(1, 9):
        cnt = sum(1 for w in iter_domain(Domain.PERM, n)
                  if not contains(w, xi))
        assert cnt == xi_count(n) == sum(
            factorial(t) * (t + 1) ** (n - t - 1) for t in range(n)), n

    p231 = classical((2, 3, 1))
    p321 = classical((3, 2, 1))
    for n in range(1, 10):
        cnt = sum(1 for w in iter_domain(Domain.PERM, n)
                  if not contains(w, p231)
                  and n >= 3 and w[0] > w[1] > w[2])
        expect = max(catalan(n) - 2 * catalan(n - 1), 0) if n >= 2 else 0
        from pamsort.enumeration import a002057
        assert cnt == expect == a002057(n), n

    for n in range(1, 10):
        assert count_sortable(spec((1, 2, 3)), n) == sort123_formula(n) == \
            1 + sum((n - h) * catalan(h) for h in range(1, n)), n

    # ballot identity and Catalan recollection
    for n in range(2, 13):
        for s in range(1, n):
            lhs = sum(ballot(s, s + 1 - i) * comb(n - 1 - s + i, i)
                      for i in range(1, s + 1))
            assert lhs == ballot(n, s + 1), (n, s)
        assert 1 + sum(ballot(n, s + 1) for s in range(1, n)) == catalan(n)

    # Narayana distribution of max over RGF(1221)
    p1221 = classical((1, 2, 2, 1))
    for n in range(1, 9):
        words = [R for R in iter_domain(Domain.RGF, n)
                 if not contains(R, p1221)]
        for k in range(1, n + 1):
            cnt = sum(1 for R in words if max(R) == k)
            assert cnt == narayana(n, k), (n, k)

    # Modasc(1213,1223) follows the odd-indexed Fibonacci numbers
    pats = (classical((1, 2, 1, 3)), classical((1, 2, 2, 3)))
    for n in range(1, 9):
        cnt = sum(1 for w in iter_domain(Domain.MODASC, n)
                  if not any(contains(w, p) for p in pats))
        assert cnt == odd_fibonacci(n), n

    # ascent sequences are counted by the Fishburn numbers
    assert [sum(1 for _ in iter_domain(Domain.ASC, n))
            for n in range(0, 6)] == [1, 1, 2, 5, 15, 53]
    assert [fishburn(n) for n in range(0, 6)] == [1, 1, 2, 5, 15, 53]
    _ok(11, "closed-form identities hold at the required sizes")


def test_criterion_12_classifier():
    domains = {
        Domain.PERM:
            lambda L: itertools.permutations(range(1, L + 1)),
        Domain.CAYLEY: lambda L: iter_domain(Domain.CAYLEY, L),
        Domain.ASC: lambda L: iter_domain(Domain.ASC, L),
        Domain.MODASC: lambda L: iter_domain(Domain.MODASC, L),
    }
    for dom, gen in domains.items():
        for length in (2, 3, 4):
            for body in gen(length):
                c = classify(tuple(body), dom)
                if not c.is_class:
                    assert c.witness is not None, (dom, body)
                    assert verify_witness(c), (dom, body)
    for n, expected in ((3, catalan(3)), (4, catalan(4))):
        nonclass = sum(
            1 for body in itertools.permutations(range(1, n + 1))
            if not classify(body).is_class)
        assert nonclass == expected, n
    _ok(12, "witnesses verify mechanically; non-class counts are Catalan")
