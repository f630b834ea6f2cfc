"""Counting: sortable-set counting by brute force, oracle or generating
tree, the closed-form sequence catalogue and the golden-table verifier.

>>> sequence_value(SequenceId.CATALAN, 5)
42
>>> count_sortable(MachineSpec((classical((2, 3, 1)),)), 6)
496
"""

from __future__ import annotations

import enum
import importlib.resources
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Sequence

from .machine import MachineSpec, image_set, iter_domain, sortable_count
from .oracles import FallbackRequired, oracle_for
from .paths_trees import (catalan, count_dyck_bounded, rule_catalog,
                          rule_level_counts)
from .patterns import classical
from .words_core import Domain, Word


# ---------------------------------------------------------------------------
# Sequence catalogue

class SequenceId(enum.Enum):
    CATALAN = "CATALAN"
    NARAYANA = "NARAYANA"
    BALLOT = "BALLOT"
    BINOM_TRANSFORM_CATALAN = "BINOM_TRANSFORM_CATALAN"
    CATALAN_POLY_G = "CATALAN_POLY_G"
    BOUNDED_DYCK_F = "BOUNDED_DYCK_F"
    XI_COUNT = "XI_COUNT"
    A002057 = "A002057"
    SORT123_FORMULA = "SORT123_FORMULA"
    PAIR123_321 = "PAIR123_321"
    ODD_FIBONACCI = "ODD_FIBONACCI"
    FUBINI = "FUBINI"
    FISHBURN = "FISHBURN"


def narayana(n: int, k: int) -> int:
    if not 1 <= k <= n:
        raise ValueError("Narayana requires 1 <= k <= n")
    return comb(n, k) * comb(n, k - 1) // n


@lru_cache(maxsize=None)
def ballot(n: int, s: int) -> int:
    """Catalan-triangle entry b_{n,s} with b_{n,1} = 1 and
    b_{n,s} = b_{n,s-1} + b_{n-1,s}."""
    if not 1 <= s <= n:
        raise ValueError("ballot requires 1 <= s <= n")
    if s == 1:
        return 1
    return ballot(n, s - 1) + (ballot(n - 1, s) if s <= n - 1 else 0)


def binom_transform_catalan(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(comb(n - 1, k) * catalan(k) for k in range(n))


@lru_cache(maxsize=None)
def catalan_poly_g(k: int) -> tuple[int, ...]:
    """Coefficients of G_k(t): G_0 = G_1 = 1, G_{k+1} = G_k - t G_{k-1}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k <= 1:
        return (1,)
    a, b = catalan_poly_g(k - 1), catalan_poly_g(k - 2)
    out = list(a) + [0] * max(0, len(b) + 1 - len(a))
    for i, c in enumerate(b):
        out[i + 1] -= c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def bounded_dyck_f(k: int, n: int) -> int:
    """Coefficient of t^n in F_k(t) = G_k/G_{k+1}: the Dyck paths of
    semilength n and height at most k."""
    if k < 0 or n < 0:
        raise ValueError("k, n must be >= 0")
    return count_dyck_bounded(n, k)


def xi_count(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(factorial(t) * (t + 1) ** (n - t - 1) for t in range(n))


def a002057(n: int) -> int:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= 1:
        return 0
    return catalan(n) - 2 * catalan(n - 1)


def sort123_formula(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 + sum((n - h) * catalan(h) for h in range(1, n))


def pair123_321(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 3:
        return (1, 2, 4)[n - 1]
    return 7 * 2 ** (n - 4)


@lru_cache(maxsize=None)
def odd_fibonacci(n: int) -> int:
    """1, 2, 5, 13, 34, ...: f(n+1) = 3 f(n) - f(n-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 2:
        return n
    return 3 * odd_fibonacci(n - 1) - odd_fibonacci(n - 2)


@lru_cache(maxsize=None)
def fubini(n: int) -> int:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    return sum(comb(n, k) * fubini(n - k) for k in range(1, n + 1))


@lru_cache(maxsize=None)
def bell(n: int) -> int:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    return sum(comb(n - 1, k) * bell(k) for k in range(n))


def _poly_mul(a: list[int], b: list[int], upto: int) -> list[int]:
    out = [0] * (upto + 1)
    for i, x in enumerate(a[:upto + 1]):
        if x:
            for j, y in enumerate(b[:upto + 1 - i]):
                out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def fishburn(n: int) -> int:
    """Coefficient of t^n in sum_m prod_{i=1..m} (1 - (1-t)^i)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    total = [0] * (n + 1)
    total[0] = 1  # m = 0 contributes the empty product
    prod = [1] + [0] * n
    for i in range(1, n + 1):
        # factor 1 - (1-t)^i, truncated
        fac = [-(comb(i, j) * (-1) ** j) for j in range(n + 1)]
        fac[0] = 0
        prod = _poly_mul(prod, fac, n)
        for d in range(n + 1):
            total[d] += prod[d]
    return total[n]


def _catalan_poly_g_coefficient(n: int, k: int) -> int:
    g = catalan_poly_g(k)
    return g[n] if n < len(g) else 0


# Each sequence's function, and whether it takes the parameter k: such a
# function is called as f(n, k), the others as f(n).
_SEQUENCES: dict[SequenceId, tuple[Callable[..., int], bool]] = {
    SequenceId.CATALAN: (catalan, False),
    SequenceId.NARAYANA: (narayana, True),
    SequenceId.BALLOT: (ballot, True),
    SequenceId.BINOM_TRANSFORM_CATALAN: (binom_transform_catalan, False),
    SequenceId.CATALAN_POLY_G: (_catalan_poly_g_coefficient, True),
    SequenceId.BOUNDED_DYCK_F: (lambda n, k: bounded_dyck_f(k, n), True),
    SequenceId.XI_COUNT: (xi_count, False),
    SequenceId.A002057: (a002057, False),
    SequenceId.SORT123_FORMULA: (sort123_formula, False),
    SequenceId.PAIR123_321: (pair123_321, False),
    SequenceId.ODD_FIBONACCI: (odd_fibonacci, False),
    SequenceId.FUBINI: (fubini, False),
    SequenceId.FISHBURN: (fishburn, False),
}


def sequence_value(sid: SequenceId, n: int, k: int | None = None) -> int:
    """Value of the catalogued sequence at n >= 0; NARAYANA, BALLOT,
    CATALAN_POLY_G and BOUNDED_DYCK_F require the extra parameter k, and
    the other sequences reject it."""
    if sid not in _SEQUENCES:
        raise ValueError(f"unknown sequence id {sid}")
    fn, takes_k = _SEQUENCES[sid]
    if n < 0:
        raise ValueError(f"n must be >= 0, got n={n}")
    if not takes_k:
        if k is not None:
            raise ValueError(f"{sid.value} takes no parameter k")
        return fn(n)
    if k is None:
        raise ValueError(f"{sid.value} requires parameter k")
    return fn(n, k)


# ---------------------------------------------------------------------------
# Counting sortable words

class Method(enum.Enum):
    BRUTE = "brute"
    ORACLE = "oracle"
    TREE = "tree"


_TREE_RULES: dict[tuple[Domain, tuple[Word, ...]], str] = {
    (Domain.PERM, ((1, 3, 2), (3, 2, 1))): "OMEGA1_132_321",
    (Domain.PERM, ((1, 2, 3), (3, 1, 2))): "OMEGA_123_312",
}


def tree_rule_for(spec: MachineSpec) -> str | None:
    return _TREE_RULES.get((spec.domain, spec.bodies))


def count_sortable(spec: MachineSpec, n: int,
                   method: Method = Method.BRUTE,
                   max_n: int | None = None) -> int:
    """Number of sortable length-n words, by the requested method.

    ORACLE raises :class:`FallbackRequired` on open cases; TREE raises
    ``ValueError`` for machines without a catalogued succession rule.
    Every method raises ``ValueError`` for n < 0.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got n={n}")
    if method is Method.BRUTE:
        return sortable_count(spec, n, max_n=max_n)
    if method is Method.ORACLE:
        pred = oracle_for(spec)
        return sum(1 for w in iter_domain(spec.domain, n, max_n) if pred(w))
    rule_id = tree_rule_for(spec)
    if rule_id is None:
        raise ValueError(f"no catalogued generating tree for {spec}")
    return rule_level_counts(rule_catalog(rule_id), n)[n - 1] if n else 1


# ---------------------------------------------------------------------------
# Golden tables

@dataclass(frozen=True)
class GoldenTable:
    id: str
    rows: dict[str, tuple[int, tuple[int, ...]]]  # key -> (start, counts)


@lru_cache(maxsize=1)
def _load_tables() -> dict[str, GoldenTable]:
    text = (importlib.resources.files("pamsort") / "data" /
            "golden_tables.txt").read_text()
    tables: dict[str, dict[str, tuple[int, tuple[int, ...]]]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, body = line.partition(":")
        table_id, _, key = head.partition("/")
        values, _, start = body.partition("@")
        counts = tuple(int(v) for v in values.replace(" ", "").split(","))
        tables.setdefault(table_id.strip(), {})[key.strip()] = (
            int(start), counts)
    return {tid: GoldenTable(tid, rows) for tid, rows in tables.items()}


def golden_ids() -> tuple[str, ...]:
    return tuple(_load_tables())


def golden_table(table_id: str) -> GoldenTable:
    try:
        return _load_tables()[table_id]
    except KeyError:
        raise ValueError(f"unknown golden table {table_id!r}") from None


_DEFAULT_CAPS = {
    "appendix_len3": 9,
    "appendix_len4": 8,
    "appendix_len5": 8,
    "pairs": 8,
    "decr": 9,
    "sorted": 8,
    "cayley21": 5,
}
_ORACLE_CROSSCHECK_CAP = 7


def _row_spec(table_id: str, key: str) -> MachineSpec:
    """The machine of a golden row.  A key is one pattern body, or two
    joined by ``-``; a ``decr`` key k stands for the body k(k-1)...1; the
    ``cayley21`` rows run on Cayley words, all others on permutations."""
    if table_id == "decr":
        bodies = [tuple(range(int(key), 0, -1))]
    else:
        bodies = [tuple(int(c) for c in part) for part in key.split("-")]
    domain = Domain.CAYLEY if table_id == "cayley21" else Domain.PERM
    return MachineSpec(tuple(classical(b) for b in bodies), domain)


def verify_golden(table_id: str, max_n: int | None = None,
                  rows: Sequence[str] | None = None) -> dict:
    """Recompute a golden table up to its configured cap.  Every row is
    recomputed by brute force on its machine: the sortable count, or for
    the ``sorted`` table the size of the sorted set.  Where the machine
    has a closed-form oracle, sortable counts up to n = 7 are
    cross-checked with it too.  Returns a JSON-able report with the first
    divergence per row.  A key in ``rows`` that the table lacks raises
    ``ValueError``."""
    table = golden_table(table_id)
    unknown = sorted(set(rows or ()) - table.rows.keys())
    if unknown:
        raise ValueError(f"unknown rows of golden table {table_id!r}: "
                         f"{', '.join(unknown)}")
    cap = max_n if max_n is not None else _DEFAULT_CAPS.get(table_id, 8)
    sorted_rows = table_id == "sorted"
    report_rows = []
    ok_all = True
    for key, (start, counts) in table.rows.items():
        if rows is not None and key not in rows:
            continue
        spec = _row_spec(table_id, key)
        divergence = None
        checked = 0
        for i, expected in enumerate(counts):
            n = start + i
            if n > cap:
                break
            actual = (len(image_set(spec, n, sorted_only=True)) if sorted_rows
                      else count_sortable(spec, n, Method.BRUTE))
            checked = n
            if actual != expected:
                divergence = {"n": n, "expected": expected, "actual": actual}
                break
            if not sorted_rows and n <= _ORACLE_CROSSCHECK_CAP:
                try:
                    alt = count_sortable(spec, n, Method.ORACLE)
                except FallbackRequired:
                    alt = None
                if alt is not None and alt != expected:
                    divergence = {"n": n, "expected": expected,
                                  "actual": alt, "method": "oracle"}
                    break
        row_ok = divergence is None
        ok_all = ok_all and row_ok
        report_rows.append({"key": key, "checked_upto": checked,
                            "pass": row_ok, "first_divergence": divergence})
    return {"table": table_id, "pass": ok_all, "rows": report_rows}
