"""Pattern kinds, a textual pattern grammar, and containment search.

Supported kinds: classical, bivincular, mesh, Cayley-mesh, barred and
consecutive path patterns.  The grammar (one wire format, used by the CLI
and fixtures)::

    231                                  classical (bare word)
    bv(132;S={0,2};T={})                 bivincular
    mesh(132;(0,2),(2,0),(2,1))          mesh
    cmesh(3241;(1,gap:4),(1,at:4))       Cayley mesh
    barred(35241;pos={2})                barred
    path(UHD)                            consecutive path pattern
    @xi @mu @f @zeta @a @b               named patterns

>>> contains((2, 5, 3, 4, 1), parse_pattern("@mu"))
True
>>> occurrences_of((1, 2, 3, 4, 5), parse_pattern("21"))
[]
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .words_core import (Domain, Word, format_word, is_member, parse_word,
                         standardize)


class PatternKind(enum.Enum):
    CLASSICAL = "classical"
    BIVINCULAR = "bivincular"
    MESH = "mesh"
    CAYLEYMESH = "cayleymesh"
    BARRED = "barred"
    PATHCONSEC = "pathconsec"


GAP = "gap"
AT = "at"

# A Cayley-mesh region is (column, (kind, level)) with kind in {GAP, AT}:
# GAP level j shades values strictly between the j-th and (j+1)-st distinct
# occurrence values (level 0 = below all, level max = above all); AT level j
# shades the value equal to the j-th distinct occurrence value.
Region = tuple[int, tuple[str, int]]


class PatternParseError(ValueError):
    """Raised on malformed pattern text; carries a position when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class Pattern:
    kind: PatternKind
    body: Word
    S: frozenset[int] = frozenset()
    T: frozenset[int] = frozenset()
    boxes: frozenset[tuple[int, int]] = frozenset()
    regions: frozenset[Region] = frozenset()
    bars: frozenset[int] = frozenset()
    steps: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        k = len(self.body)
        if self.kind is PatternKind.PATHCONSEC:
            bad = set(self.steps) - {"U", "D", "H", "H2"}
            if bad:
                raise PatternParseError(f"invalid path steps: {sorted(bad)}")
            return
        if not self.body or not is_member(self.body, Domain.CAYLEY):
            raise PatternParseError(
                f"pattern body must be a nonempty Cayley word: {self.body}"
            )
        if self.kind in (PatternKind.BIVINCULAR, PatternKind.MESH,
                         PatternKind.BARRED):
            if not is_member(self.body, Domain.PERM):
                raise PatternParseError(
                    f"{self.kind.value} body must be a permutation: {self.body}"
                )
        if self.kind is PatternKind.BIVINCULAR:
            if not (self.S <= set(range(k + 1)) and self.T <= set(range(k + 1))):
                raise PatternParseError(f"S,T must be subsets of 0..{k}")
        if self.kind is PatternKind.MESH:
            if not all(0 <= a <= k and 0 <= b <= k for a, b in self.boxes):
                raise PatternParseError(f"mesh boxes must lie in 0..{k} squared")
        if self.kind is PatternKind.CAYLEYMESH:
            m = max(self.body)
            for col, (rk, lvl) in self.regions:
                if not 0 <= col <= k:
                    raise PatternParseError(f"column {col} out of range 0..{k}")
                if rk == GAP and not 0 <= lvl <= m:
                    raise PatternParseError(f"gap level {lvl} out of range 0..{m}")
                if rk == AT and not 1 <= lvl <= m:
                    raise PatternParseError(f"at level {lvl} out of range 1..{m}")
                if rk not in (GAP, AT):
                    raise PatternParseError(f"unknown region kind {rk!r}")
        if self.kind is PatternKind.BARRED:
            if not self.bars or not self.bars <= set(range(1, k + 1)):
                raise PatternParseError(
                    "barred pattern needs a nonempty bar set within 1..k"
                )
            if self.bars == set(range(1, k + 1)):
                raise PatternParseError("barred pattern cannot bar every entry")

    def __len__(self) -> int:
        return len(self.steps) if self.kind is PatternKind.PATHCONSEC else len(self.body)


def classical(body: Sequence[int]) -> Pattern:
    return Pattern(PatternKind.CLASSICAL, tuple(body))


def bivincular(body: Sequence[int], S: Sequence[int], T: Sequence[int]) -> Pattern:
    return Pattern(PatternKind.BIVINCULAR, tuple(body),
                   S=frozenset(S), T=frozenset(T))


def mesh(body: Sequence[int], boxes: Sequence[tuple[int, int]]) -> Pattern:
    return Pattern(PatternKind.MESH, tuple(body),
                   boxes=frozenset((a, b) for a, b in boxes))


def cayley_mesh(body: Sequence[int], regions: Sequence[Region]) -> Pattern:
    return Pattern(PatternKind.CAYLEYMESH, tuple(body),
                   regions=frozenset((c, (rk, lvl)) for c, (rk, lvl) in regions))


def full_column(body: Sequence[int], col: int) -> tuple[Region, ...]:
    """All regions shading an entire column gap of a Cayley-mesh pattern."""
    m = max(body)
    gaps: list[Region] = [(col, (GAP, j)) for j in range(m + 1)]
    ats: list[Region] = [(col, (AT, j)) for j in range(1, m + 1)]
    return tuple(gaps + ats)


def barred(body: Sequence[int], bars: Sequence[int]) -> Pattern:
    return Pattern(PatternKind.BARRED, tuple(body), bars=frozenset(bars))


def path_pattern(steps: Sequence[str]) -> Pattern:
    return Pattern(PatternKind.PATHCONSEC, (), steps=tuple(steps))


# ---------------------------------------------------------------------------
# Named patterns

NAMED: dict[str, Pattern] = {
    "xi": bivincular((1, 3, 2), S=(0, 2), T=()),
    "mu": mesh((1, 3, 2), boxes=((0, 2), (2, 0), (2, 1))),
    "f": bivincular((2, 3, 1), S=(1,), T=(1,)),
    "zeta": cayley_mesh((3, 2, 4, 1), ((1, (GAP, 4)), (1, (AT, 4)))),
    "a": cayley_mesh((2, 1, 2), full_column((2, 1, 2), 2)),
    "b": cayley_mesh((2, 1), full_column((2, 1), 1) + ((0, (AT, 1)),)),
}


# ---------------------------------------------------------------------------
# Parser / printer

_SET_RE = re.compile(r"\{([^}]*)\}")


def _parse_intset(text: str) -> frozenset[int]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise PatternParseError(f"expected a set, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return frozenset()
    return frozenset(int(p) for p in inner.split(","))


def parse_steps(text: str) -> tuple[str, ...]:
    """Parse a step word such as ``"UUDH2D"`` or ``"U D H2"``."""
    steps: list[str] = []
    i = 0
    text = text.replace(" ", "")
    while i < len(text):
        c = text[i]
        if c in "UD":
            steps.append(c)
            i += 1
        elif c == "H":
            if i + 1 < len(text) and text[i + 1] == "2":
                steps.append("H2")
                i += 2
            else:
                steps.append("H")
                i += 1
        else:
            raise PatternParseError(f"invalid path step {c!r}", i)
    return tuple(steps)


def format_steps(steps: Sequence[str]) -> str:
    return "".join(steps)


def parse_pattern(text: str) -> Pattern:
    """Parse pattern text per the grammar; round-trips with
    :func:`format_pattern`."""
    text = text.strip()
    if not text:
        raise PatternParseError("empty pattern text")
    if text.startswith("@"):
        name = text[1:]
        if name not in NAMED:
            raise PatternParseError(f"unknown named pattern @{name}")
        return NAMED[name]
    m = re.fullmatch(r"(bv|mesh|cmesh|barred|path)\((.*)\)", text, re.DOTALL)
    if m is None:
        # bare word => classical
        try:
            return classical(parse_word(text))
        except ValueError as exc:
            raise PatternParseError(str(exc)) from None
    head, inner = m.group(1), m.group(2)
    if head == "path":
        return path_pattern(parse_steps(inner))
    parts = inner.split(";")
    body = parse_word(parts[0])
    rest = [p.strip() for p in parts[1:]]
    if head == "bv":
        S: frozenset[int] = frozenset()
        T: frozenset[int] = frozenset()
        for p in rest:
            if p.startswith("S="):
                S = _parse_intset(p[2:])
            elif p.startswith("T="):
                T = _parse_intset(p[2:])
            elif p:
                raise PatternParseError(f"unexpected clause {p!r} in bv(...)")
        return bivincular(body, S, T)
    if head == "barred":
        if len(rest) != 1 or not rest[0].startswith("pos="):
            raise PatternParseError("barred(...) needs a single pos={...} clause")
        return barred(body, _parse_intset(rest[0][4:]))
    # mesh/cmesh boxes may be separated by commas or semicolons
    clauses = [c for p in rest for c in re.findall(r"\([^()]*\)", p)]
    strip = lambda s: s.replace(" ", "").replace(",", "")
    joined = "".join(strip(p) for p in rest)
    if joined != "".join(strip(c) for c in clauses):
        raise PatternParseError(f"bad {head} clause list {';'.join(rest)!r}")
    if head == "mesh":
        boxes = []
        for p in clauses:
            mm = re.fullmatch(r"\((\d+),(\d+)\)", p.replace(" ", ""))
            if mm is None:
                raise PatternParseError(f"bad mesh box {p!r}")
            boxes.append((int(mm.group(1)), int(mm.group(2))))
        return mesh(body, boxes)
    if head == "cmesh":
        regions: list[Region] = []
        for p in clauses:
            mm = re.fullmatch(r"\((\d+),(gap|at):(\d+)\)", p.replace(" ", ""))
            if mm is None:
                raise PatternParseError(f"bad cmesh region {p!r}")
            regions.append((int(mm.group(1)), (mm.group(2), int(mm.group(3)))))
        return cayley_mesh(body, regions)
    raise PatternParseError(f"unknown pattern head {head!r}")


def format_pattern(p: Pattern) -> str:
    """Canonical printer; ``parse_pattern(format_pattern(p)) == p``."""
    fw = format_word(p.body)
    if p.kind is PatternKind.CLASSICAL:
        return fw
    if p.kind is PatternKind.BIVINCULAR:
        s = ",".join(str(v) for v in sorted(p.S))
        t = ",".join(str(v) for v in sorted(p.T))
        return f"bv({fw};S={{{s}}};T={{{t}}})"
    if p.kind is PatternKind.MESH:
        boxes = ",".join(f"({a},{b})" for a, b in sorted(p.boxes))
        return f"mesh({fw};{boxes})"
    if p.kind is PatternKind.CAYLEYMESH:
        key = lambda r: (r[0], 0 if r[1][0] == GAP else 1, r[1][1])
        regions = ",".join(f"({c},{rk}:{lvl})"
                           for c, (rk, lvl) in sorted(p.regions, key=key))
        return f"cmesh({fw};{regions})"
    if p.kind is PatternKind.BARRED:
        bars = ",".join(str(v) for v in sorted(p.bars))
        return f"barred({fw};pos={{{bars}}})"
    return f"path({format_steps(p.steps)})"


# ---------------------------------------------------------------------------
# Occurrence search

def _classical_occurrences(x: Sequence[int], body: Word) -> Iterator[Word]:
    """Yield 0-based index tuples of classical occurrences of ``body`` in
    ``x``, in lexicographic order."""
    k = len(body)
    n = len(x)
    if k == 0:
        yield ()
        return
    if k > n:
        return
    m = max(body)
    assign = [0] * (m + 1)  # value bound to each letter class, 0 = unassigned
    idx: list[int] = []

    def rec(start: int, t: int) -> Iterator[Word]:
        if t == k:
            yield tuple(idx)
            return
        c = body[t]
        for p in range(start, n - (k - t) + 1):
            v = x[p]
            if assign[c]:
                if v != assign[c]:
                    continue
                fresh = False
            else:
                ok = True
                for d in range(c - 1, 0, -1):
                    if assign[d]:
                        ok = v > assign[d]
                        break
                if ok:
                    for d in range(c + 1, m + 1):
                        if assign[d]:
                            ok = v < assign[d]
                            break
                if not ok:
                    continue
                assign[c] = v
                fresh = True
            idx.append(p)
            yield from rec(p + 1, t + 1)
            idx.pop()
            if fresh:
                assign[c] = 0

    yield from rec(0, 0)


def contains_classical(x: Sequence[int], body: Word,
                       anchored: bool = False) -> bool:
    """Does ``x`` contain the classical pattern ``body``?  With
    ``anchored``, only occurrences in which ``x[0]`` plays ``body[0]``
    count (the sigma-stack's pop check).  Letters are positive integers.

    The backtracking of :func:`_classical_occurrences`, but it stops at the
    first occurrence and bounds each fresh letter class once per level
    instead of once per position.

    >>> contains_classical((4, 2, 3, 1), (2, 3, 1))
    True
    >>> contains_classical((4, 2, 3, 1), (2, 3, 1), anchored=True)
    False
    """
    k = len(body)
    n = len(x)
    if k == 0:
        return not anchored
    if k > n:
        return False
    m = max(body)
    assign = [0] * (m + 1)  # value bound to each letter class, 0 = unassigned
    top = max(x) + 1

    # rec gets itself as an argument: a closure that names itself is a
    # reference cycle, left for the garbage collector on every call.
    def rec(rec: Callable[..., bool], start: int, t: int) -> bool:
        if t == k:
            return True
        c = body[t]
        stop = n - k + t + 1
        a = assign[c]
        if a:
            for p in range(start, stop):
                if x[p] == a and rec(rec, p + 1, t + 1):
                    return True
            return False
        lo = 0
        for d in range(c - 1, 0, -1):
            if assign[d]:
                lo = assign[d]
                break
        hi = top
        for d in range(c + 1, m + 1):
            if assign[d]:
                hi = assign[d]
                break
        for p in range(start, stop):
            v = x[p]
            if lo < v < hi:
                assign[c] = v
                if rec(rec, p + 1, t + 1):
                    return True
        assign[c] = 0
        return False

    first = body[0]
    if anchored:
        assign[first] = x[0]
        return rec(rec, 1, 1)
    for p in range(n - k + 1):
        assign[first] = x[p]
        if rec(rec, p + 1, 1):
            return True
    return False


def _bivincular_ok(x: Sequence[int], p: Pattern, occ: Word) -> bool:
    n = len(x)
    k = len(p.body)
    pos = [0] + [i + 1 for i in occ] + [n + 1]  # 1-based with sentinels
    vals = [0] + sorted(x[i] for i in occ) + [n + 1]
    for s in p.S:
        if pos[s + 1] != pos[s] + 1:
            return False
    for t in p.T:
        if vals[t + 1] != vals[t] + 1:
            return False
    return True


def _mesh_ok(x: Sequence[int], p: Pattern, occ: Word) -> bool:
    n = len(x)
    pos = [0] + [i + 1 for i in occ] + [n + 1]
    vals = [0] + sorted(x[i] for i in occ) + [max(x) + 1 if x else 1]
    for a, b in p.boxes:
        for q in range(pos[a] + 1, pos[a + 1]):
            if vals[b] < x[q - 1] < vals[b + 1]:
                return False
    return True


def _cayleymesh_ok(x: Sequence[int], p: Pattern, occ: Word) -> bool:
    n = len(x)
    pos = [0] + [i + 1 for i in occ] + [n + 1]
    levels = sorted(set(x[i] for i in occ))  # v_1 < ... < v_m
    m = len(levels)
    for col, (rk, lvl) in p.regions:
        lo_pos, hi_pos = pos[col], pos[col + 1]
        for q in range(lo_pos + 1, hi_pos):
            v = x[q - 1]
            if rk == AT:
                if v == levels[lvl - 1]:
                    return False
            else:
                lo = levels[lvl - 1] if lvl >= 1 else 0
                hi = levels[lvl] if lvl < m else None
                if v > lo and (hi is None or v < hi):
                    return False
    return True


_OCCURRENCE_CHECKS = {PatternKind.BIVINCULAR: _bivincular_ok,
                      PatternKind.MESH: _mesh_ok,
                      PatternKind.CAYLEYMESH: _cayleymesh_ok}


def _witnesses(w: Word, p: Pattern) -> Iterator[Word]:
    """Yield the occurrences of ``p`` in ``w`` that witness containment, as
    0-based index tuples in lexicographic order.

    For barred patterns these are the occurrences of the non-barred reduct
    that do NOT extend to the underlying pattern.
    """
    if p.kind is PatternKind.PATHCONSEC:
        raise ValueError("use path_contains for step words")
    if p.kind is PatternKind.BARRED:
        body = p.body
        free = [i for i in range(len(body)) if (i + 1) not in p.bars]
        reduct = standardize(tuple(body[i] for i in free))
        extendable = {tuple(occ[i] for i in free)
                      for occ in _classical_occurrences(w, body)}
        for occ in _classical_occurrences(w, reduct):
            if occ not in extendable:
                yield occ
        return
    check = _OCCURRENCE_CHECKS.get(p.kind)
    for occ in _classical_occurrences(w, p.body):
        if check is None or check(w, p, occ):
            yield occ


def occurrences_of(w: Sequence[int], p: Pattern) -> list[Word]:
    """All occurrences of ``p`` in ``w`` as 0-based index tuples, in
    lexicographic order.

    For barred patterns the returned occurrences are the occurrences of the
    non-barred reduct that do NOT extend to the underlying pattern (i.e. the
    witnesses of containment).
    """
    return list(_witnesses(tuple(w), p))


def contains(w: Sequence[int], p: Pattern) -> bool:
    """Does ``w`` contain the pattern ``p``?"""
    w = tuple(w)
    if p.kind is PatternKind.CLASSICAL:
        return contains_classical(w, p.body)
    for _ in _witnesses(w, p):
        return True
    return False


def avoids(w: Sequence[int], *ps: Pattern) -> bool:
    return not any(contains(w, p) for p in ps)


def path_contains(steps: Sequence[str], p: Pattern) -> bool:
    """Consecutive (factor) containment on step words."""
    if p.kind is not PatternKind.PATHCONSEC:
        raise ValueError("path_contains requires a path pattern")
    s = tuple(steps)
    q = p.steps
    return any(s[i:i + len(q)] == q for i in range(len(s) - len(q) + 1))
