"""Explicit bijections between sortable sets, restricted growth functions
and lattice paths.

Every map validates its stated domain and raises ``ValueError`` outside
it.  Inverses are provided wherever they exist in closed form; the
labeled-Motzkin encoding ``beta_motzkin`` is forward-only.

>>> dyck_to_av213(dyck_path("UUDUUDDDUD"))
(2, 5, 3, 4, 1)
>>> from .words_core import parse_word
>>> eta(parse_word("13 14 15 10 12 6 7 8 11 9 3 1 4 5 2"))
(1, 1, 1, 2, 2, 3, 3, 3, 2, 3, 4, 5, 4, 4, 5)
"""

from __future__ import annotations

import enum
from collections import deque
from itertools import accumulate
from typing import Callable, Sequence

from .machine import MachineSpec
from .oracles import _sort123_parts, oracle_for
from .paths_trees import (LatticePath, PathKind, as_path, dyck_path,
                          matching, parse_path, schroder_path)
from .patterns import _NO_BOUND, classical, contains_classical
from .words_core import (Domain, Word, format_word, inflate, is_member,
                         ltr_minima)

def _suffix_minima(w: Sequence[int]) -> list[int | float]:
    """``low[j]`` is the least letter of ``w[j:]``; ``low[len(w)]`` lies
    above every letter.  It never decreases with j, so a scan for a letter
    below some v stops at the first j where ``low[j] >= v``."""
    low: list[int | float] = list(accumulate(reversed(w), min))
    low.reverse()
    low.append(_NO_BOUND)
    return low


# In an RGF every letter below b first occurs before the first b.  So an
# RGF contains 12231 iff it has a 231 whose 2 repeats an earlier letter:
# the first copies of its 1 and its 2 give the 12 of 12231.  And it
# contains 12321 iff it contains 321: the first copies of its 1 and its 2
# come before its 3.
_RGF_CHECKS: dict[Word, Callable[[Word], bool]] = {
    (1, 2, 2, 3, 1): lambda R: _first_repeat_231(R) is not None,
    (1, 2, 3, 2, 1): lambda R: contains_classical(R, (3, 2, 1))}


def _rgf(R: Sequence[int], avoid: Word = ()) -> Word:
    """``R`` as a tuple, checked to be an RGF that avoids the classical
    pattern ``avoid`` (none if empty), a key of ``_RGF_CHECKS``."""
    R = tuple(R)
    if not is_member(R, Domain.RGF):
        raise ValueError(f"expected an RGF: {R}")
    if avoid and _RGF_CHECKS[avoid](R):
        raise ValueError(f"RGF contains {format_word(avoid)}: {R}")
    return R


# ---------------------------------------------------------------------------
# Dyck paths <-> 213-avoiding permutations

def dyck_to_av213(p: LatticePath | str | Sequence[str]) -> Word:
    """Label the down steps from right to left with 1..n; each up step
    inherits the label of its matching down step; read the up labels."""
    p = as_path(PathKind.DYCK, p)
    # down steps up to and including each index
    downs = list(accumulate(s == "D" for s in p.steps))
    return tuple(len(p) // 2 - downs[d] + 1 for _, d in matching(p))


def av213_to_dyck(pi: Sequence[int]) -> LatticePath:
    """Inverse of :func:`dyck_to_av213`: the one-stack run that pushes
    each letter (U) and then pops while the top is the largest letter not
    yet popped (D).  A letter left on the stack marks a 213."""
    pi = tuple(pi)
    if not is_member(pi, Domain.PERM):
        raise ValueError(f"not a 213-avoiding permutation: {pi}")
    steps: list[str] = []
    stack: list[int] = []
    top = len(pi)
    for v in pi:
        steps.append("U")
        stack.append(v)
        while stack and stack[-1] == top:
            stack.pop()
            steps.append("D")
            top -= 1
    if stack:
        raise ValueError(f"not a 213-avoiding permutation: {pi}")
    return dyck_path(steps)


# ---------------------------------------------------------------------------
# phi: append a new maximum to a descent-starting 123-sortable permutation

def phi_add_max(pi: Sequence[int]) -> Word:
    """Insert the new maximum m+1 immediately after m (if pi_1 != m) or
    after m-1 (if pi_1 = m)."""
    w = tuple(pi)
    if not is_member(w, Domain.PERM) or not w:
        raise ValueError(f"phi requires a nonempty permutation: {w}")
    m = len(w)
    anchor = m if w[0] != m else m - 1
    if anchor < 1:
        raise ValueError("phi is undefined on the singleton permutation")
    i = w.index(anchor) + 1
    return w[:i] + (m + 1,) + w[i:]


# ---------------------------------------------------------------------------
# 123-sortable permutations <-> Schroeder paths

def sort123_to_schroder(pi: Sequence[int]) -> LatticePath:
    """Encode a 123-sortable permutation of length n as a Schroeder path
    of semilength n-1: leading consecutive-ascent prefix -> leading H2
    run, stripped maxima -> trailing H2 run, core -> Dyck path."""
    w = tuple(pi)
    if not is_member(w, Domain.PERM) or not w:
        raise ValueError(f"expected a nonempty permutation: {w}")
    parts = _sort123_parts(w)
    if parts is None:
        raise ValueError(f"{w} is not 123-sortable")
    r, s, rho = parts
    try:
        middle = av213_to_dyck(rho).steps
    except ValueError:   # rho contains 213
        raise ValueError(f"{w} is not 123-sortable") from None
    return schroder_path(("H2",) * r + middle + ("H2",) * s)


def schroder_to_sort123(p: LatticePath | str | Sequence[str]) -> Word:
    """Inverse of :func:`sort123_to_schroder`."""
    steps = as_path(PathKind.SCHRODER, p).steps
    r = 0
    while r < len(steps) and steps[r] == "H2":
        r += 1
    s = 0
    while s < len(steps) - r and steps[len(steps) - 1 - s] == "H2":
        s += 1
    middle = steps[r:len(steps) - s]
    if "H2" in middle:
        raise ValueError(f"not in the image of the encoding: {steps}")
    rho = dyck_to_av213(middle)
    w = (len(rho) + 1,) + rho
    for _ in range(s):
        w = phi_add_max(w)
    return inflate(w, 1, r + 1)


# ---------------------------------------------------------------------------
# eta: 132-sortable permutations <-> RGFs avoiding 12231

_SPEC_132 = MachineSpec((classical((1, 3, 2)),))


def eta(pi: Sequence[int]) -> Word:
    """Record, for each element, the index of its horizontal strip (the
    value interval between consecutive ltr minima): 1 plus the number of
    ltr minima above it."""
    w = tuple(pi)
    if not is_member(w, Domain.PERM):
        raise ValueError(f"expected a permutation: {w}")
    if w and not oracle_for(_SPEC_132)(w):
        raise ValueError(f"{w} is not 132-sortable")
    mins = ltr_minima(w)
    return tuple(1 + sum(m > v for m in mins) for v in w)


def eta_inverse(R: Sequence[int]) -> Word:
    """Rebuild the 132-sortable permutation from its strip word by the
    left-to-right insertion rules."""
    R = _rgf(R, (1, 2, 2, 3, 1))
    pi: list[int] = []
    cur_max = 0

    def shift_append(v: int) -> None:
        for p, u in enumerate(pi):
            if u >= v:
                pi[p] = u + 1
        pi.append(v)

    for j in R:
        if j == cur_max + 1:
            cur_max += 1
            shift_append(1)
            continue
        # strip j is [m_j, m_{j-1}); the last block follows the letter 1
        mins = ltr_minima(pi)
        m_j = mins[j - 1]
        hi = mins[j - 2] if j > 1 else len(pi) + 1
        C = [v for v in pi[pi.index(1) + 1:] if m_j < v < hi]
        # the last letter lies in a strip below strip j when it is below m_j
        if not C or pi[-1] < m_j:
            shift_append(m_j + 1)
        else:
            shift_append(C[-1] + 1)
    return tuple(pi)


# ---------------------------------------------------------------------------
# RGFs avoiding 1221 <-> Dyck paths

def rgf1221_to_dyck(R: Sequence[int]) -> LatticePath:
    """Grow a Dyck path letter by letter: appending j inserts a peak into
    the last descending run at the slot determined by j.

    The run has one slot per letter from t to the maximum M, where t is the
    largest repeated letter so far (1 if none): a new maximum M + 1 takes
    slot 0 and a repeat j >= t slot j - t + 1.  Every letter up to M has
    occurred in an RGF, so a letter j <= M is a repeat and makes t = j.
    The first copy of t comes before every larger letter, so the RGF
    contains 1221 iff some letter j falls below the t read before it.
    """
    R = _rgf(R)
    if not R:
        return dyck_path(())
    steps = ["U", "D"]
    M = t = 1
    for j in R[1:]:
        if j < t:
            raise ValueError(f"RGF contains 1221: {R}")
        L = M - t + 1
        run_start = len(steps)
        while run_start > 0 and steps[run_start - 1] == "D":
            run_start -= 1
        if len(steps) - run_start != L:
            raise AssertionError("descending-run length out of sync")
        if j > M:
            i, M = 0, j
        else:
            i, t = j - t + 1, j
        steps[run_start + i:run_start + i] = ["U", "D"]
    return dyck_path(steps)


def dyck_to_rgf1221(p: LatticePath | str | Sequence[str]) -> Word:
    """Inverse of :func:`rgf1221_to_dyck`: peel the rightmost peak down
    to UD, then replay the insertions as letters.

    Only down steps follow the rightmost peak, so once it is peeled the
    next one lies to its left: one backward scan finds every peak.
    """
    steps = list(as_path(PathKind.DYCK, p).steps)
    if not steps:
        return ()
    tail_counts: list[int] = []
    q = len(steps) - 2
    while len(steps) > 2:
        while not (steps[q] == "U" and steps[q + 1] == "D"):
            q -= 1
        tail_counts.append(len(steps) - (q + 2))
        del steps[q:q + 2]
        q = max(q - 1, 0)
    R = [1]
    M = t = 1
    for c in reversed(tail_counts):
        i = M - t + 1 - c
        if i == 0:
            M += 1
            R.append(M)
        elif i > 0:
            t += i - 1
            R.append(t)
        else:
            raise ValueError("path is not in the image of the insertion map")
    return tuple(R)


# ---------------------------------------------------------------------------
# Labeled Motzkin paths -> RGFs (forward only)

class StoreMode(enum.Enum):
    STACK = "stack"
    QUEUE = "queue"


def parse_labeled_motzkin(text: str) -> LatticePath:
    """Parse steps U, D, H0, H1, H2, optionally whitespace-separated."""
    return parse_path(PathKind.LABELED_MOTZKIN, text)


def beta_motzkin(p: LatticePath | str | Sequence[str],
                 mode: StoreMode = StoreMode.STACK) -> Word:
    """Decode a labeled Motzkin path of length n into an RGF of length
    n+1; with a stack store the image avoids 12323, with a queue 12332.

    The store holds one letter per unit of height, so a D step, or an H2
    step (never at height zero), always finds it nonempty."""
    p = as_path(PathKind.LABELED_MOTZKIN, p)
    store: deque[int] = deque()
    if mode is StoreMode.STACK:
        end, take = -1, store.pop
    else:
        end, take = 0, store.popleft
    R = [1]
    top = 1     # max(R): D, H1 and H2 never write above it
    for s in p.steps:
        if s == "U":
            top += 1
            R.append(top)
            store.append(top)
        elif s == "D":
            R.append(take())
        elif s == "H0":
            top += 1
            R.append(top)
        elif s == "H1":
            R.append(1)
        else:  # H2
            R.append(store[end])
    return tuple(R)


# ---------------------------------------------------------------------------
# RGFs without repeated ltr-maxima <-> 321-avoiding permutations

def alpha_strip(R: Sequence[int]) -> Word:
    """Remove the repeated ltr-maxima: entries equal to the running
    maximum that are not strict new maxima."""
    R = _rgf(R)
    out: list[int] = []
    m = 0
    for v in R:
        if v > m:
            m = v
            out.append(v)
        elif v < m:
            out.append(v)
    return tuple(out)


def _split_strict_max_positions(R: Word) -> tuple[list[int], list[int]]:
    strict: list[int] = []
    other: list[int] = []
    m = 0
    for i, v in enumerate(R):
        if v > m:
            m = v
            strict.append(i)
        else:
            other.append(i)
    return strict, other


def rgfnr12321_to_av321(R: Sequence[int]) -> Word:
    """The j-th non-strict position i_j (from j = 0) receives the value
    r_{i_j} + j; strict ltr-max positions receive the remaining values in
    increasing order."""
    R = _rgf(R, (1, 2, 3, 2, 1))
    if not R:
        return ()
    strict, other = _split_strict_max_positions(R)
    n = len(R)
    pi = [0] * n
    svals = [R[i] + j for j, i in enumerate(other)]
    if len(set(svals)) != len(svals) or any(not 1 <= v <= n for v in svals):
        raise ValueError(f"RGF is outside the bijection's domain: {R}")
    for i, v in zip(other, svals):
        pi[i] = v
    rest = sorted(set(range(1, n + 1)) - set(svals))
    for i, v in zip(strict, rest):
        pi[i] = v
    return tuple(pi)


def av321_to_rgfnr12321(pi: Sequence[int]) -> Word:
    """Inverse of :func:`rgfnr12321_to_av321`."""
    w = tuple(pi)
    if not is_member(w, Domain.PERM) or contains_classical(w, (3, 2, 1)):
        raise ValueError(f"expected a 321-avoiding permutation: {w}")
    if not w:
        return ()
    R = [0] * len(w)
    m = j = 0   # the ltr maximum and the strict positions read
    for i, v in enumerate(w):
        if v > m:
            m = v
            j += 1
            R[i] = j
        else:   # the (i - j)-th non-strict position, from 0
            R[i] = v - (i - j)
    out = tuple(R)
    if not is_member(out, Domain.RGF):
        raise ValueError(f"permutation is outside the bijection's image: {w}")
    return out


# ---------------------------------------------------------------------------
# delta: RGFs avoiding 12231 <-> RGFs avoiding 12321

def _last_321(w: Sequence[int]) -> tuple[int, int] | None:
    """The first two positions of the lexicographically last occurrence
    of 321 in ``w``, or None if it avoids 321: the last i1 with a 21 of
    smaller letters after it, then the last such i2 (its third letter
    does not matter).

    >>> _last_321((3, 2, 1, 2, 1)), _last_321((1, 3, 2))
    ((0, 3), None)
    """
    low = _suffix_minima(w)
    least = _NO_BOUND   # the least letter after i1 with a smaller one after it
    for i1 in range(len(w) - 1, -1, -1):
        v = w[i1]
        if v > least:
            for i2 in range(len(w) - 2, i1, -1):
                y = w[i2]
                if y < v and low[i2 + 1] < y:
                    return i1, i2
        if low[i1 + 1] < v < least:
            least = v
    return None


def _first_repeat_231(w: Sequence[int]) -> tuple[int, int] | None:
    """The first two positions of the lexicographically first occurrence
    of 231 in ``w`` whose first letter repeats an earlier one, or None if
    there is none: the first repeated i1 with a larger letter after it
    that a letter below ``w[i1]`` follows, then the first such i2.  Only
    the first repeat of each letter is tried: a later copy has fewer
    letters after it, so it fails where the first one fails.

    >>> _first_repeat_231((1, 2, 3, 2, 4, 1)), _first_repeat_231((2, 3, 1))
    ((3, 4), None)
    """
    low = _suffix_minima(w)
    seen: set[int] = set()
    tried: set[int] = set()
    for i1, v in enumerate(w):
        if v in tried:
            continue
        if v not in seen:
            seen.add(v)
            continue
        tried.add(v)
        for i2 in range(i1 + 1, len(w) - 1):
            if low[i2 + 1] >= v:
                break
            if w[i2] > v:
                return i1, i2
    return None


def _swap_until_avoided(R: Sequence[int], avoid: Word,
                        find: Callable[[list[int]], tuple[int, int] | None],
                        name: str) -> Word:
    """Swap the two positions that ``find`` returns until it returns None.
    ``delta`` and ``delta_inverse`` mirror each other: each rejects the
    RGFs on which the other's search finds a swap (see ``_RGF_CHECKS``)."""
    R = _rgf(R, avoid)
    w = list(R)
    for _ in range(len(R) ** 3 + 1):
        swap = find(w)
        if swap is None:
            return tuple(w)
        i1, i2 = swap
        w[i1], w[i2] = w[i2], w[i1]
    raise AssertionError(f"{name} failed to terminate")


def delta(R: Sequence[int]) -> Word:
    """Repeatedly swap the first two letters of the lexicographically
    rightmost occurrence of 321 until the word avoids 321."""
    return _swap_until_avoided(R, (1, 2, 2, 3, 1), _last_321, "delta")


def delta_inverse(R: Sequence[int]) -> Word:
    """Repeatedly swap the first two letters of the leftmost occurrence
    of 231 whose first letter is a repeated value (not the leftmost
    occurrence of that value)."""
    return _swap_until_avoided(R, (1, 2, 3, 2, 1), _first_repeat_231,
                               "delta_inverse")
