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
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from operator import neg
from typing import Callable, Iterable, Sequence

from .paths_trees import format_steps, parse_steps
from .words_core import (Domain, ParseError, Word, _check_letters, format_word,
                         is_member, parse_word, standardize)


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


# Malformed pattern text raises the library's one parse error.
PatternParseError = ParseError


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

_INT_SET = re.compile(r"\s*\{\s*(\d+\s*(,\s*\d+\s*)*)?\}\s*")


def _parse_intset(text: str) -> frozenset[int]:
    m = _INT_SET.fullmatch(text)
    if m is None:
        raise PatternParseError(f"expected a set of integers, got {text!r}")
    return frozenset(map(int, m[1].split(","))) if m[1] else frozenset()


# far more texts than the sigma texts of the machines one process queries
@lru_cache(maxsize=256)
def parse_pattern(text: str) -> Pattern:
    """Parse pattern text per the grammar; round-trips with
    :func:`format_pattern`.  Each text is parsed once (a bounded memo):
    a :class:`Pattern` is frozen, so repeats share one object.  A text
    that fails raises anew on every call."""
    text = text.strip()
    if not text:
        raise PatternParseError("empty pattern text")
    if text.startswith("@"):
        name = text[1:]
        if name not in NAMED:
            raise PatternParseError(f"unknown named pattern @{name}")
        return NAMED[name]
    m = re.fullmatch(r"(bv|mesh|cmesh|barred|path)\((.*)\)", text, re.DOTALL)
    if m is None:   # a bare word is a classical pattern
        return classical(parse_word(text))
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

_NO_BOUND = float("inf")  # upper bound of a letter class with none above it

_Step = tuple[int, int, int]


@lru_cache(maxsize=None)
def _plan(body: Word) -> tuple[_Step, ...]:
    """How an occurrence of ``body`` is matched once its first letter is
    bound, worked out once per body: one step ``(eq, lo, hi)`` for each
    later letter ``body[t]``.

    The three are positions s < t in the body, read as the letters bound
    to ``body[s]`` (see :func:`_complete`): ``eq`` is a position of the
    same letter (-1 if ``body[t]`` is new), and otherwise the letter for
    ``body[t]`` lies strictly between the letters at ``lo`` and ``hi``,
    the nearest smaller and larger letters of ``body[:t]``.  Position
    ``len(body)`` stands for a bound below every letter and
    ``len(body) + 1`` for one above every letter.

    >>> _plan((2, 3, 1))  # 1 lies below 2 and has nothing below it
    ((-1, 0, 4), (-1, 3, 0))
    >>> _plan((1, 2, 2, 1))
    ((-1, 0, 5), (1, 0, 5), (0, 4, 1))
    """
    k = len(body)
    steps = []
    for t in range(1, k):
        c = body[t]
        below = [s for s in range(t) if body[s] < c]
        above = [s for s in range(t) if body[s] > c]
        steps.append((
            body.index(c) if c in body[:t] else -1,
            max(below, key=body.__getitem__, default=k),
            min(above, key=body.__getitem__, default=k + 1)))
    return tuple(steps)


def _complete(x: Sequence[int], start: int, plan: tuple[_Step, ...], t: int,
              bound: list[int | float], idx: list[int] | None,
              accept: Callable[[Word], object] | None) -> bool:
    """Can the letters of ``x[start:]`` play the body's letters from
    ``t + 1`` on, in an occurrence that ``accept`` takes (any one when
    ``accept`` is None)?

    ``bound[s]`` and ``idx[s]`` hold the letter and the position that play
    ``body[s]`` for s <= t; the last two entries of ``bound`` are the
    bounds below and above every letter (see :func:`_plan`).  Only
    ``accept`` reads the positions, so without it ``idx`` is None and no
    position is written."""
    if t == len(plan):
        return accept is None or bool(accept(tuple(idx)))
    eq, lo, hi = plan[t]
    if eq < 0:
        a = bound[lo]
        b = bound[hi]
    else:
        a = bound[eq] - 1
        b = a + 2
    t += 1
    for p in range(start, len(x) - len(plan) + t):
        y = x[p]
        if a < y < b:
            bound[t] = y
            if idx is not None:
                idx[t] = p
            if _complete(x, p + 1, plan, t, bound, idx, accept):
                return True
    return False


def _search(x: Sequence[int], body: Word,
            accept: Callable[[Word], object] | None = None) -> bool:
    """Walk the classical occurrences of ``body`` in ``x``, as 0-based index
    tuples in lexicographic order, and stop at the first one that ``accept``
    takes (any one when ``accept`` is None).  Returns whether it stopped.

    The backtracking search behind every pattern query but the direct
    scans (:func:`_resolve`): a loop over the positions of the first
    letter, each completed by :func:`_complete` along the body's plan.
    Letters are positive integers, since 0 is the bound below every letter.
    """
    _check_letters(x)
    k = len(body)
    if k == 0:
        return accept is None or bool(accept(()))
    plan = _plan(tuple(body))
    bound: list[int | float] = [0] * k + [0, _NO_BOUND]
    idx = None if accept is None else [0] * k
    for p in range(len(x) - k + 1):
        bound[0] = x[p]
        if idx is not None:
            idx[0] = p
        if _complete(x, p + 1, plan, 0, bound, idx, accept):
            return True
    return False


def _has_231(letters: Iterable[int]) -> bool:
    """Does the letter stream contain 231?  One pass with a stack: a
    letter popped by a larger later letter is a "third" value (the 2 of a
    23), and any later letter strictly below the largest third ends a 231.
    The stack holds the letters not yet popped, weakly decreasing."""
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    third = -_NO_BOUND
    for v in letters:
        if v < third:
            return True
        while stack and stack[-1] < v:
            third = pop()
        push(v)
    return False


def _has_123(letters: Iterable[int]) -> bool:
    """Does the letter stream contain 123?  One pass over the two
    minima: the least letter so far, and the least letter so far that
    has a smaller letter before it."""
    low = mid = _NO_BOUND
    for v in letters:
        if v > mid:
            return True
        if v > low:
            mid = v
        else:
            low = v
    return False


def _has_1324(x: Sequence[int]) -> bool:
    """Does ``x`` contain 1324?  For each position j of the 3: a 1 is any
    earlier letter below the 2, so the least letter before j stands for
    all of them; a 4 is any letter above the 3 after the 2, so the last
    such letter leaves the most room for the 2, which is then any letter
    in between strictly between the 1 and the 3.

    >>> _has_1324((2, 5, 3, 6)), _has_1324((2, 5, 1, 6))
    (True, False)
    """
    n = len(x)
    one = x[0] if x else 0      # the least letter before j
    for j in range(1, n - 2):
        three = x[j]
        if three < one:
            one = three
            continue
        for l in range(n - 1, j + 1, -1):
            if x[l] > three:
                for k in range(j + 1, l):
                    if one < x[k] < three:
                        return True
                break
    return False


def _has_2314(x: Sequence[int]) -> bool:
    """Does ``x`` contain 2314?  For each position j of the 3: the best 2
    is the largest earlier letter below it (found in the sorted letters
    before j), the best 4 is the last letter above the 3, and a 1 is any
    letter in between below the 2.

    >>> _has_2314((2, 3, 1, 4)), _has_2314((2, 3, 2, 4))
    (True, False)
    """
    n = len(x)
    seen = sorted(x[:1])        # the letters before j, sorted
    for j in range(1, n - 2):
        three = x[j]
        p = bisect_left(seen, three)
        seen.insert(p, three)
        if not p:
            continue
        two = seen[p - 1]
        for l in range(n - 1, j + 1, -1):
            if x[l] > three:
                for k in range(j + 1, l):
                    if x[k] < two:
                        return True
                break
    return False


def _has_2341(x: Sequence[int]) -> bool:
    """Does ``x`` contain 2341?  For each position j of the 3: the best 2
    is the largest earlier letter below it (found in the sorted letters
    before j), the best 4 is the first later letter above the 3, and a 1
    is any letter after the 4 below the 2.

    >>> _has_2341((2, 3, 4, 1)), _has_2341((2, 3, 4, 2))
    (True, False)
    """
    n = len(x)
    seen = sorted(x[:1])        # the letters before j, sorted
    for j in range(1, n - 2):
        three = x[j]
        p = bisect_left(seen, three)
        seen.insert(p, three)
        if not p:
            continue
        two = seen[p - 1]
        for k in range(j + 1, n - 1):
            if x[k] > three:
                for l in range(k + 1, n):
                    if x[l] < two:
                        return True
                break
    return False


def _has_mu(x: Sequence[int]) -> bool:
    """Does ``x`` contain mu = mesh(132;(0,2),(2,0),(2,1))?  An occurrence
    is a 132 at positions i < j < k with no letter before i strictly
    between its 2 and its 3, and no letter between j and k below its 2
    other than a copy of its 1.

    For each 2 (position k), let q be the nearest earlier letter below it.
    A 3 after q has only letters at least the 2 between it and k, so its
    best 1 is the first letter of ``x`` below the 2, and the least such 3
    is the best: it may be at most the least letter above the 2 before
    that 1.  A 3 before q has a copy of ``x[q]`` between it and the 2, so
    its 1 is the first copy of ``x[q]``, and a second value below the 2
    in between ends the search.

    >>> _has_mu((2, 5, 3, 4, 1)), _has_mu((2, 4, 1, 3)), _has_mu((1, 3, 1, 2))
    (True, False, True)
    """
    n = len(x)
    for k in range(2, n):
        two = x[k]
        three = _NO_BOUND
        q = k - 1
        while q >= 0 and x[q] >= two:
            if two < x[q] < three:
                three = x[q]
            q -= 1
        if q < 0:
            continue
        if three < _NO_BOUND:
            cap = _NO_BOUND     # the least letter above the 2 before the 1
            for u in x:
                if u < two:
                    break
                if two < u < cap:
                    cap = u
            if three <= cap:
                return True
        low = x[q]
        i = x.index(low)
        three = _NO_BOUND
        for j in range(q - 1, i, -1):
            v = x[j]
            if v > two:
                if v < three:
                    three = v
            elif v < two and v != low:
                break
        if three < _NO_BOUND and three <= min(
                [u for u in x[:i] if u > two], default=_NO_BOUND):
            return True
    return False


def _has_mesh_3241(x: Sequence[int], at_four: bool = False) -> bool:
    """Does ``x`` contain mesh(3241;(1,4)), a 3241 with no letter above
    its 4 between its 3 and its 2?  With ``at_four``, a letter equal to
    the 4 there is barred as well.

    For each 2 (position b): a 4 must come before some later letter below
    the 2, so the best 4 is the largest letter before the last such
    letter.  The 3 is then sought right to left before b, and a letter
    passed that is above that 4 (or at it) ends the search.

    >>> _has_mesh_3241((3, 2, 4, 1)), _has_mesh_3241((3, 5, 2, 4, 1))
    (True, False)
    """
    n = len(x)
    for b in range(1, n - 2):
        two = x[b]
        d = n - 1
        while d > b + 1 and x[d] >= two:
            d -= 1
        if d == b + 1:
            continue
        four = max(x[b + 1:d])
        stop = four - at_four   # letters are integers
        for a in range(b - 1, -1, -1):
            v = x[a]
            if two < v < four:
                return True
            if v > stop:
                break
    return False


def _has_zeta(x: Sequence[int]) -> bool:
    """Does ``x`` contain zeta = cmesh(3241;(1,gap:4),(1,at:4)), a 3241
    with no letter at or above its 4 between its 3 and its 2?

    >>> _has_zeta((3, 2, 4, 1)), _has_zeta((3, 4, 2, 4, 1))
    (True, False)
    >>> _has_zeta((3, 4, 2, 5, 1))   # 3 2 5 1 is an occurrence
    True
    """
    return _has_mesh_3241(x, at_four=True)


def _has_xi(x: Sequence[int]) -> bool:
    """Does ``x`` contain xi = bv(132;S={0,2};T={}), a 132 whose 1 is the
    first letter of ``x`` and whose 3 and 2 are adjacent?  That is, is
    ``x[0] < x[j + 1] < x[j]`` for some j >= 1?

    >>> _has_xi((2, 1, 4, 3)), _has_xi((2, 4, 1, 3)), _has_xi((2, 3, 2))
    (True, False, False)
    """
    if not x:
        return False
    one = x[0]
    return any(one < b < a for a, b in zip(x[1:], x[2:]))


def _regions(p: Pattern) -> frozenset[Region] | None:
    """The Cayley-mesh regions that shade the body of ``p``; None for the
    barred and path patterns, which are no shading.  A mesh box (a, b) is
    the gap region (a, (GAP, b)), as a mesh body is a permutation.  A
    bivincular S gap s is an empty column, and a T gap t is the gap level t
    shaded in every column: no letter lies strictly between the t-th and
    (t+1)-st values of an occurrence."""
    if p.kind is PatternKind.MESH:
        return frozenset((a, (GAP, b)) for a, b in p.boxes)
    if p.kind is PatternKind.BIVINCULAR:
        columns = range(len(p.body) + 1)
        return frozenset([r for s in p.S for r in full_column(p.body, s)]
                         + [(c, (GAP, t)) for t in p.T for c in columns])
    if p.kind in (PatternKind.BARRED, PatternKind.PATHCONSEC):
        return None
    return p.regions


# Sort(21) = Av(2341, barred 35241 with the 5 barred): a 3241 with no
# letter above its 4 between its 3 and its 2, the mesh pattern that shades
# the barred letter's box.
_MESH_3241 = mesh((3, 2, 4, 1), boxes=((1, 4),))

# The direct scans, keyed by the classical body alone and by (body,
# regions) for a shaded pattern, so that every spelling of a shape finds
# its scan: the one-pass length-3 scans, by reversal (right to left) and
# complement (negated letters) of 231 and 123, the pair scans of the hot
# oracle bases, and the shaded patterns that the oracles check.
_SCANS: dict[object, Callable[[Sequence[int]], bool]] = {
    (2, 3, 1): _has_231,
    (1, 3, 2): lambda x: _has_231(reversed(x)),
    (2, 1, 3): lambda x: _has_231(map(neg, x)),
    (3, 1, 2): lambda x: _has_231(map(neg, reversed(x))),
    (1, 2, 3): _has_123,
    (3, 2, 1): lambda x: _has_123(reversed(x)),
    (1, 3, 2, 4): _has_1324,
    (2, 3, 1, 4): _has_2314,
    (2, 3, 4, 1): _has_2341,
    **{(p.body, _regions(p)): scan for p, scan in (
        (NAMED["mu"], _has_mu), (_MESH_3241, _has_mesh_3241),
        (NAMED["xi"], _has_xi), (NAMED["zeta"], _has_zeta))},
}


def contains_classical(x: Sequence[int], body: Word) -> bool:
    """Does ``x`` contain the classical pattern ``body``?  Letters are
    positive integers; a word with a letter below 1 raises ``ValueError``.

    The six length-3 permutation bodies and 1324, 2314 and 2341 take a
    direct scan; every other body takes the backtracking search.

    >>> contains_classical((4, 2, 3, 1), (2, 3, 1))
    True
    >>> contains_classical((4, 2, 3, 1), (1, 2, 3))
    False
    """
    scan = _SCANS.get(tuple(body))
    if scan is None:
        return _search(x, body)
    _check_letters(x)
    return scan(x)


def _shading_ok(x: Sequence[int], regions: frozenset[Region],
                occ: Word) -> bool:
    """Does the occurrence ``occ`` leave every region empty?  A letter in
    column c (between the letters of ``occ`` at c - 1 and c) lies at the
    level (AT, j) when it equals the j-th least value of ``occ``, and
    otherwise in the level (GAP, j), where j values of ``occ`` lie below."""
    levels = sorted({x[i] for i in occ})
    ends = (-1,) + occ + (len(x),)
    for c in {c for c, _ in regions}:
        for v in x[ends[c] + 1:ends[c + 1]]:
            j = bisect_left(levels, v)
            at = j < len(levels) and levels[j] == v
            if (c, (AT, j + 1) if at else (GAP, j)) in regions:
                return False
    return True


def _search_terms(w: Word, p: Pattern
                  ) -> tuple[Word, Callable[[Word], bool] | None]:
    """The classical body to search ``w`` for and the predicate that makes
    an occurrence of it a witness of ``p`` (None when every occurrence is).

    For barred patterns the body is the non-barred reduct, and its
    occurrences that do NOT extend to the underlying pattern are witnesses.
    Every other kind is its body and its shading (:func:`_regions`).
    """
    if p.kind is PatternKind.PATHCONSEC:
        raise ValueError("use path_contains for step words")
    if p.kind is PatternKind.BARRED:
        free = [i for i in range(len(p.body)) if (i + 1) not in p.bars]
        extendable: set[Word] = set()
        _search(w, p.body,
                lambda occ: extendable.add(tuple(occ[i] for i in free)))
        reduct = standardize(tuple(p.body[i] for i in free))
        return reduct, lambda occ: occ not in extendable
    regions = _regions(p)
    if not regions:
        return p.body, None
    return p.body, lambda occ: _shading_ok(w, regions, occ)


@lru_cache(maxsize=256)
def _resolve(p: Pattern) -> Callable[[Word], bool]:
    """Containment of ``p`` on words whose letters are checked: the direct
    scan of its body and shading, else the backtracking search.  Built once
    per pattern; :func:`contains` and the oracles' predicates call it.  A
    classical body without a scan goes through :func:`contains_classical`,
    looked up when called."""
    regions = _regions(p)
    if regions is not None:
        scan = _SCANS.get((p.body, regions) if regions else p.body)
        if scan is not None:
            return scan
        if not regions:
            body = p.body
            return lambda w: contains_classical(w, body)
    return lambda w: _search(w, *_search_terms(w, p))


def occurrences_of(w: Sequence[int], p: Pattern) -> list[Word]:
    """All occurrences of ``p`` in ``w`` as 0-based index tuples, in
    lexicographic order.  Letters are positive integers; a word with a
    letter below 1 raises ``ValueError``.

    For barred patterns the returned occurrences are the occurrences of the
    non-barred reduct that do NOT extend to the underlying pattern (i.e. the
    witnesses of containment).
    """
    w = tuple(w)
    body, accept = _search_terms(w, p)
    found: list[Word] = []

    def collect(occ: Word) -> bool:
        if accept is None or accept(occ):
            found.append(occ)
        return False

    _search(w, body, collect)
    return found


def contains(w: Sequence[int], p: Pattern) -> bool:
    """Does ``w`` contain the pattern ``p``?  Letters are positive
    integers; a word with a letter below 1 raises ``ValueError``.

    Classical patterns go through :func:`contains_classical`.  Every
    spelling of the mesh patterns mu and mesh(3241;(1,4)), the bivincular
    xi and the Cayley mesh zeta takes a direct scan, and every other
    pattern takes the backtracking search.
    """
    w = tuple(w)
    if p.kind is PatternKind.CLASSICAL:
        # one call of the function that traced runs count as a pattern check
        return contains_classical(w, p.body)
    _check_letters(w)
    return _resolve(p)(w)


def avoids(w: Sequence[int], *ps: Pattern) -> bool:
    return not any(contains(w, p) for p in ps)


def path_contains(steps: Sequence[str], p: Pattern) -> bool:
    """Consecutive (factor) containment on step words."""
    if p.kind is not PatternKind.PATHCONSEC:
        raise ValueError("path_contains requires a path pattern")
    s = tuple(steps)
    q = p.steps
    return any(s[i:i + len(q)] == q for i in range(len(s) - len(q) + 1))
