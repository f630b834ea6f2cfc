"""Unit tests for sequences, counting methods and golden tables."""

import pytest

from pamsort.enumeration import (GoldenTable, Method, SequenceId, a002057,
                                 ballot, bell, binom_transform_catalan,
                                 bounded_dyck_f, catalan, catalan_poly_g,
                                 count_sortable, fishburn, fubini, golden_ids,
                                 golden_table, narayana, odd_fibonacci,
                                 pair123_321, sequence_value, sort123_formula,
                                 verify_golden, xi_count)
from pamsort.machine import MachineSpec, iter_domain
from pamsort.oracles import FallbackRequired
from pamsort.patterns import classical, contains
from pamsort.words_core import Domain


def test_basic_sequences():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert [fubini(n) for n in range(1, 6)] == [1, 3, 13, 75, 541]
    assert [bell(n) for n in range(1, 6)] == [1, 2, 5, 15, 52]
    assert [fishburn(n) for n in range(0, 8)] == \
        [1, 1, 2, 5, 15, 53, 217, 1014]
    assert [odd_fibonacci(n) for n in range(1, 7)] == [1, 2, 5, 13, 34, 89]
    assert [sort123_formula(n) for n in range(1, 7)] == [1, 2, 5, 13, 35, 99]
    assert [pair123_321(n) for n in range(1, 9)] == \
        [1, 2, 4, 7, 14, 28, 56, 112]
    assert [a002057(n) for n in range(1, 8)] == [0, 0, 1, 4, 14, 48, 165]
    assert binom_transform_catalan(5) == 51
    assert [binom_transform_catalan(n) for n in range(1, 10)] == \
        [1, 2, 5, 15, 51, 188, 731, 2950, 12235]


def test_ballot_triangle():
    rows = [[ballot(n, s) for s in range(1, n + 1)] for n in range(1, 6)]
    assert rows == [[1], [1, 1], [1, 2, 2], [1, 3, 5, 5], [1, 4, 9, 14, 14]]


def test_narayana():
    assert [narayana(4, k) for k in range(1, 5)] == [1, 6, 6, 1]
    assert sum(narayana(6, k) for k in range(1, 7)) == catalan(6)


def series_quotient(a, b, terms):
    """The first ``terms`` coefficients of the power series a(t)/b(t),
    for polynomials with b(0) = 1."""
    q = []
    for n in range(terms):
        c = a[n] if n < len(a) else 0
        q.append(c - sum(b[i] * q[n - i]
                         for i in range(1, min(n, len(b) - 1) + 1)))
    return q


def test_catalan_poly_and_bounded_dyck():
    # G_{k+1}(t) = G_k(t) - t G_{k-1}(t)
    for k in range(1, 7):
        gk = list(catalan_poly_g(k)) + [0] * 3
        gk1 = list(catalan_poly_g(k - 1)) + [0] * 3
        gk2 = list(catalan_poly_g(k + 1)) + [0] * 3
        for i in range(len(gk2) - 1):
            assert gk2[i] == gk[i] - (gk1[i - 1] if i else 0)
    # the decr-table row for k=4 is the height <= 3 series F_3
    assert [bounded_dyck_f(3, n) for n in range(1, 10)] == \
        [1, 2, 5, 13, 34, 89, 233, 610, 1597]
    # F_k = G_k / G_{k+1} as a power series, from the polynomials alone
    for k in range(2, 7):
        f_k = series_quotient(catalan_poly_g(k), catalan_poly_g(k + 1), 9)
        for n in range(0, 9):
            assert bounded_dyck_f(k, n) == f_k[n], (k, n)


def test_xi_count_formula_values():
    # sum over t of t! (t+1)^(n-t-1)
    assert xi_count(1) == 1
    assert xi_count(3) == sum(
        __import__("math").factorial(t) * (t + 1) ** (3 - t - 1)
        for t in range(0, 3))


def test_a002057_is_catalan_power_series():
    # A(t) = t^2 C(t)^4 coefficientwise: a(n) = [t^(n-3)] C(t)^4 for n >= 3
    upto = 12
    c = [catalan(i) for i in range(upto + 1)]

    def mul(a, b):
        out = [0] * (upto + 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if i + j <= upto:
                    out[i + j] += x * y
        return out

    c4 = mul(mul(c, c), mul(c, c))
    for n in range(3, upto + 1):
        assert a002057(n) == c4[n - 3], n


def test_sequence_value_dispatch():
    assert sequence_value(SequenceId.CATALAN, 5) == 42
    assert sequence_value(SequenceId.NARAYANA, 4, 2) == 6
    assert sequence_value(SequenceId.BALLOT, 5, 4) == 14
    assert sequence_value(SequenceId.FISHBURN, 5) == 53
    with pytest.raises(ValueError):
        sequence_value(SequenceId.NARAYANA, 4)       # missing k
    with pytest.raises(ValueError):
        sequence_value(SequenceId.NARAYANA, 4, 9)    # k out of range
    with_k = {SequenceId.NARAYANA, SequenceId.BALLOT,
              SequenceId.CATALAN_POLY_G, SequenceId.BOUNDED_DYCK_F}
    for sid in set(SequenceId) - with_k:
        with pytest.raises(ValueError, match="takes no parameter k"):
            sequence_value(sid, 5, 3)                # stray k
    for sid in SequenceId:
        with pytest.raises(ValueError):
            sequence_value(sid, -1, 3)
    with pytest.raises(ValueError):
        fubini(-1)
    with pytest.raises(ValueError):
        bell(-1)


def test_enumerate_domain_counts():
    assert sum(1 for _ in iter_domain(Domain.CAYLEY, 3)) == 13
    assert [sum(1 for _ in iter_domain(Domain.ASC, n))
            for n in range(1, 7)] == [fishburn(n) for n in range(1, 7)]


def test_count_sortable_methods_agree():
    s123 = MachineSpec((classical((1, 2, 3)),))
    for n in range(1, 7):
        brute = count_sortable(s123, n, Method.BRUTE)
        oracle = count_sortable(s123, n, Method.ORACLE)
        assert brute == oracle == sort123_formula(n)
    pair = MachineSpec((classical((1, 3, 2)), classical((2, 3, 1))))
    assert [count_sortable(pair, n, Method.BRUTE) for n in range(1, 7)] == \
        [1, 2, 6, 22, 90, 394]
    cay21 = MachineSpec((classical((2, 1)),), Domain.CAYLEY)
    assert [count_sortable(cay21, n, Method.BRUTE) for n in range(1, 6)] == \
        [1, 3, 13, 73, 483]


def test_brute_counts_match_closed_forms_past_acceptance_sizes():
    # brute force only, no oracle: the drain-pruned walk against closed
    # forms at lengths the acceptance suite does not reach
    def brute(n, *bodies):
        spec = MachineSpec(tuple(classical(b) for b in bodies))
        return count_sortable(spec, n, Method.BRUTE)
    for body in ((1, 3, 4, 2), (2, 3, 4, 1), (2, 4, 3, 1), (3, 1, 4, 2),
                 (3, 2, 4, 1), (4, 2, 3, 1)):
        assert brute(9, body) == catalan(9), body
    for body in ((3, 2, 1, 4), (4, 2, 1, 3), (4, 3, 1, 2), (4, 3, 2, 1)):
        assert brute(9, body) == odd_fibonacci(9), body
    assert brute(10, (3, 2, 1)) == 2 ** 9
    assert brute(10, (1, 2, 3)) == sort123_formula(10)
    assert brute(10, (1, 2, 3), (3, 2, 1)) == pair123_321(10)


def test_count_sortable_tree_method():
    tree_spec = MachineSpec((classical((1, 3, 2)), classical((3, 2, 1))))
    for n in range(1, 8):
        assert count_sortable(tree_spec, n, Method.TREE) == \
            count_sortable(tree_spec, n, Method.BRUTE)
    with pytest.raises((ValueError, FallbackRequired)):
        count_sortable(MachineSpec((classical((2, 3, 1)),)), 4, Method.TREE)


def test_golden_tables_load():
    ids = golden_ids()
    for tid in ("appendix_len3", "appendix_len4", "appendix_len5", "pairs",
                "decr", "sorted", "cayley21"):
        assert tid in ids
        assert isinstance(golden_table(tid), GoldenTable)
    start, counts = golden_table("appendix_len3").rows["231"]
    assert counts[6 - start] == 496
    assert len(golden_table("appendix_len4").rows) == 24
    assert len(golden_table("appendix_len5").rows) == 120
    start, counts = golden_table("cayley21").rows["21"]
    assert counts[:5] == (1, 3, 13, 73, 483)
    with pytest.raises(ValueError):
        golden_table("nope")


def test_verify_golden_sorted_row_312():
    report = verify_golden("sorted", max_n=6, rows=["312"])
    assert report["pass"] and report["table"] == "sorted"
    [row] = report["rows"]
    assert row["key"] == "312" and row["pass"]
    assert row["first_divergence"] is None
    assert row["checked_upto"] == 6


def test_verify_golden_rejects_unknown_rows():
    with pytest.raises(ValueError, match="123-999"):
        verify_golden("pairs", rows=["123-999"])
    with pytest.raises(ValueError, match="'sorted': 999$"):
        verify_golden("sorted", max_n=4, rows=["312", "999"])


def test_verify_golden_report_is_jsonable():
    import json
    report = verify_golden("appendix_len3", max_n=5)
    json.dumps(report)
    assert all(r["pass"] for r in report["rows"])


@pytest.mark.parametrize("table_id", golden_ids())
def test_verify_golden_recomputes_every_table(monkeypatch, table_id):
    # a brute-force engine that miscounts by one must fail every table
    import pamsort.enumeration as E
    count, image = E.sortable_count, E.image_set
    monkeypatch.setattr(E, "sortable_count",
                        lambda *a, **kw: count(*a, **kw) + 1)
    monkeypatch.setattr(E, "image_set",
                        lambda *a, **kw: image(*a, **kw) | {()})
    assert not verify_golden(table_id, max_n=4)["pass"]


def test_rgf12332_max_distribution_identity():
    # g(n+1, k+1) = sum_j binom(n, j) * Narayana(j, k)
    from math import comb
    p12332 = classical((1, 2, 3, 3, 2))
    for n in range(0, 7):
        words = [R for R in iter_domain(Domain.RGF, n + 1)
                 if not contains(R, p12332)]
        def nar(j, k):
            return narayana(j, k) if 1 <= k <= j else 0
        for k in range(0, n + 1):
            got = sum(1 for R in words if max(R) == k + 1)
            want = 1 if k == 0 else \
                sum(comb(n, j) * nar(j, k) for j in range(n + 1))
            assert got == want, (n, k, got, want)


def test_asc11_machine_matches_pattern_class():
    spec = MachineSpec((classical((1, 1)),), Domain.ASC)
    pats = (classical((1, 2, 1, 3)), classical((1, 2, 2, 3)))
    for n in range(1, 8):
        machine = count_sortable(spec, n, Method.BRUTE)
        byav = sum(1 for w in iter_domain(Domain.ASC, n)
                   if not any(contains(w, p) for p in pats))
        assert machine == byav, n


def test_modasc_pair_is_odd_fibonacci():
    pats = (classical((1, 2, 1, 3)), classical((1, 2, 2, 3)))
    for n in range(1, 8):
        cnt = sum(1 for w in iter_domain(Domain.MODASC, n)
                  if not any(contains(w, p) for p in pats))
        assert cnt == odd_fibonacci(n), n
