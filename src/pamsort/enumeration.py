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
from typing import Sequence

from .machine import MachineSpec, image_set, iter_domain, sortable_count
from .oracles import FallbackRequired, oracle_for
from .paths_trees import count_dyck_bounded, rule_catalog, rule_level_counts
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


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("n must be >= 0")
    return comb(2 * n, n) // (n + 1)


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


@lru_cache(maxsize=None)
def _bounded_dyck_f_series(k: int, upto: int) -> tuple[int, ...]:
    """Series coefficients of F_k(t) = G_k/G_{k+1} = 1 + t F_{k-1} F_k
    up to degree ``upto``; F_k counts Dyck paths of height at most k."""
    if k == 0:
        return (1,) + (0,) * upto
    prev = _bounded_dyck_f_series(k - 1, upto)
    f = [1] + [0] * upto
    for n in range(1, upto + 1):
        f[n] = sum(prev[n - 1 - j] * f[j] for j in range(n))
    return tuple(f)


def bounded_dyck_f(k: int, n: int) -> int:
    if k < 0 or n < 0:
        raise ValueError("k, n must be >= 0")
    return _bounded_dyck_f_series(k, n)[n]


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
    if n == 0:
        return 1
    return sum(comb(n, k) * fubini(n - k) for k in range(1, n + 1))


@lru_cache(maxsize=None)
def bell(n: int) -> int:
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


def sequence_value(sid: SequenceId, n: int, k: int | None = None) -> int:
    """Value of the catalogued sequence; NARAYANA, BALLOT,
    CATALAN_POLY_G and BOUNDED_DYCK_F require the extra parameter k."""
    needs_k = {SequenceId.NARAYANA, SequenceId.BALLOT,
               SequenceId.CATALAN_POLY_G, SequenceId.BOUNDED_DYCK_F}
    if sid in needs_k and k is None:
        raise ValueError(f"{sid.value} requires parameter k")
    if sid is SequenceId.CATALAN:
        return catalan(n)
    if sid is SequenceId.NARAYANA:
        return narayana(n, k)
    if sid is SequenceId.BALLOT:
        return ballot(n, k)
    if sid is SequenceId.BINOM_TRANSFORM_CATALAN:
        return binom_transform_catalan(n)
    if sid is SequenceId.CATALAN_POLY_G:
        g = catalan_poly_g(k)
        return g[n] if n < len(g) else 0
    if sid is SequenceId.BOUNDED_DYCK_F:
        return bounded_dyck_f(k, n)
    if sid is SequenceId.XI_COUNT:
        return xi_count(n)
    if sid is SequenceId.A002057:
        return a002057(n)
    if sid is SequenceId.SORT123_FORMULA:
        return sort123_formula(n)
    if sid is SequenceId.PAIR123_321:
        return pair123_321(n)
    if sid is SequenceId.ODD_FIBONACCI:
        return odd_fibonacci(n)
    if sid is SequenceId.FUBINI:
        return fubini(n)
    if sid is SequenceId.FISHBURN:
        return fishburn(n)
    raise ValueError(f"unknown sequence id {sid}")


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
    return _TREE_RULES.get((spec.domain, tuple(sorted(spec.bodies))))


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
    if n == 0:
        return 1
    if method is Method.BRUTE:
        return sortable_count(spec, n, max_n=max_n)
    if method is Method.ORACLE:
        pred = oracle_for(spec)
        return sum(1 for w in iter_domain(spec.domain, n, max_n) if pred(w))
    rule_id = tree_rule_for(spec)
    if rule_id is None:
        raise ValueError(f"no catalogued generating tree for {spec}")
    return rule_level_counts(rule_catalog(rule_id), n)[n - 1]


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
    "decr": 11,
    "sorted": 8,
    "cayley21": 5,
}
_ORACLE_CROSSCHECK_CAP = 7


def _spec_for_row(table_id: str, key: str) -> MachineSpec | None:
    if table_id.startswith("appendix_len"):
        return MachineSpec((classical(tuple(int(c) for c in key)),))
    if table_id == "pairs":
        parts = key.split("-")
        return MachineSpec(tuple(classical(tuple(int(c) for c in p))
                                 for p in parts))
    if table_id == "cayley21":
        return MachineSpec((classical(tuple(int(c) for c in key)),),
                           Domain.CAYLEY)
    return None


def _row_value(table_id: str, key: str, n: int) -> int:
    if table_id == "decr":
        return count_dyck_bounded(n, int(key) - 1)
    if table_id == "sorted":
        spec = MachineSpec((classical(tuple(int(c) for c in key)),))
        return len(image_set(spec, n, sorted_only=True))
    spec = _spec_for_row(table_id, key)
    assert spec is not None
    return count_sortable(spec, n, Method.BRUTE)


def verify_golden(table_id: str, max_n: int | None = None,
                  rows: Sequence[str] | None = None) -> dict:
    """Recompute a golden table up to its configured cap.  Rows are
    recomputed by brute force; where a closed-form oracle or formula
    exists it is cross-checked too.  Returns a JSON-able report with the
    first divergence per row."""
    table = golden_table(table_id)
    cap = max_n if max_n is not None else _DEFAULT_CAPS.get(table_id, 8)
    report_rows = []
    ok_all = True
    for key, (start, counts) in table.rows.items():
        if rows is not None and key not in rows:
            continue
        divergence = None
        checked = 0
        for i, expected in enumerate(counts):
            n = start + i
            if n > cap:
                break
            actual = _row_value(table_id, key, n)
            checked = n
            if actual != expected:
                divergence = {"n": n, "expected": expected, "actual": actual}
                break
            if table_id == "decr":
                # independent formula: series coefficient of F_{k-1}
                alt = bounded_dyck_f(int(key) - 1, n)
                if alt != expected:
                    divergence = {"n": n, "expected": expected,
                                  "actual": alt, "method": "formula"}
                    break
            else:
                spec = _spec_for_row(table_id, key)
                if (spec is not None and n <= _ORACLE_CROSSCHECK_CAP):
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
