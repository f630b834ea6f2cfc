"""Core word types and structural operations.

Words are finite sequences of positive integers, represented as tuples.
They serve as the common carrier for permutations, Cayley permutations,
restricted growth functions (RGFs) and (modified) ascent sequences.

>>> standardize((1, 3, 8, 1, 3, 6, 5))
(1, 2, 5, 1, 2, 4, 3)
>>> is_member((1, 2, 1, 2, 4), Domain.ASC)
True
>>> modify((1, 2, 1, 2, 4))
(1, 3, 1, 2, 4)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

Word = tuple[int, ...]


class Domain(enum.Enum):
    """Word domains: permutations, Cayley permutations, RGFs, (modified)
    ascent sequences."""

    PERM = "perm"
    CAYLEY = "cay"
    RGF = "rgf"
    ASC = "asc"
    MODASC = "modasc"


class Which(enum.Enum):
    MIN = "min"
    MAX = "max"


def _check_letters(w: Sequence[int]) -> None:
    """Raise ``ValueError`` unless every letter of ``w`` is at least 1."""
    if w and min(w) < 1:
        raise ValueError(f"letters must be positive integers: {tuple(w)}")


def word(letters: Iterable[int]) -> Word:
    """Build a word, validating that all letters are positive integers."""
    w = tuple(int(v) for v in letters)
    _check_letters(w)
    return w


class ParseError(ValueError):
    """Raised on malformed text: a word, step text or a pattern.  Carries
    a position when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


def parse_word(text: str) -> Word:
    """Parse a word from text.

    Accepts decimal integers separated by spaces or commas, or a compact
    all-digits form (e.g. ``"25341"``) in which every letter is a single
    digit.  A lone letter followed by one comma (``"11,"``) is a one-letter
    word, since ``"11"`` reads as (1, 1).  Any other empty comma field
    (leading, trailing or doubled commas), a field that is not all ASCII
    decimal digits (so no sign, underscore or other script's digit) and a
    letter below 1 raise :class:`ParseError`.

    >>> parse_word("13 14 15 10 12")
    (13, 14, 15, 10, 12)
    >>> parse_word("25341")
    (2, 5, 3, 4, 1)
    >>> parse_word("11,")
    (11,)
    >>> parse_word("1,2,,3")
    Traceback (most recent call last):
    ...
    pamsort.words_core.ParseError: empty field in word: '1,2,,3'
    """
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        fields = text.split(",")
        if (len(fields) == 2 and not fields[1].strip()
                and len(fields[0].split()) == 1):
            fields.pop()
        if not all(f.strip() for f in fields):
            raise ParseError(f"empty field in word: {text!r}")
        letters = " ".join(fields).split()
    elif " " in text:
        letters = text.split()
    else:
        letters = text   # one letter per digit
    # every field is non-empty, so this reads each of them
    digits = "".join(letters)
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"cannot parse word: {text!r}")
    try:
        return word(letters)
    except ValueError as exc:   # a letter below 1
        raise ParseError(str(exc)) from None


def format_word(w: Word) -> str:
    """Render a word compactly when all letters are single digits, else
    with spaces between the letters; ``parse_word(format_word(w)) == w``.

    >>> format_word((2, 5, 3, 4, 1))
    '25341'
    >>> format_word((13, 14, 1))
    '13 14 1'
    >>> format_word((13,))
    '13,'
    """
    if all(v <= 9 for v in w):
        return "".join(str(v) for v in w)
    if len(w) == 1:
        return f"{w[0]},"
    return " ".join(str(v) for v in w)


def standardize(w: Sequence[int]) -> Word:
    """The unique Cayley permutation order-isomorphic to ``w``.

    >>> standardize((7, 7, 7))
    (1, 1, 1)
    """
    values = sorted(set(w))
    rank = {v: i + 1 for i, v in enumerate(values)}
    return tuple(rank[v] for v in w)


def asc_set(w: Sequence[int]) -> tuple[int, ...]:
    """Ascent positions (1-based): indices i with w_i < w_{i+1}."""
    return tuple(i + 1 for i in range(len(w) - 1) if w[i] < w[i + 1])


def asc(w: Sequence[int]) -> int:
    return len(asc_set(w))


def ltr_minima(w: Sequence[int]) -> tuple[int, ...]:
    """Values of the left-to-right minima of ``w``, in order."""
    out: list[int] = []
    for v in w:
        if not out or v < out[-1]:
            out.append(v)
    return tuple(out)


def ltr_maxima(w: Sequence[int]) -> tuple[int, ...]:
    """Values of the left-to-right maxima of ``w``, in order."""
    out: list[int] = []
    for v in w:
        if not out or v > out[-1]:
            out.append(v)
    return tuple(out)


def is_member(w: Word, d: Domain) -> bool:
    """Membership test for each word domain.

    - PERM: rearrangement of 1..n.
    - CAYLEY: letters cover 1..max.
    - RGF: x1 = 1 and 1 <= x_{i+1} <= 1 + max(x_1..x_i).
    - ASC: x1 = 1 and 1 <= x_{i+1} <= 2 + asc(x_1..x_i).
    - MODASC: a Cayley permutation with x1 = 1 in which an entry greater
      than 1 is the leftmost occurrence of its value exactly when it is an
      ascent top.
    """
    n = len(w)
    if n == 0:
        return True
    if d is Domain.PERM:
        return sorted(w) == list(range(1, n + 1))
    if d is Domain.CAYLEY:
        return set(w) == set(range(1, max(w) + 1))
    if d is Domain.RGF:
        if w[0] != 1:
            return False
        running_max = 1
        for v in w[1:]:
            if not 1 <= v <= running_max + 1:
                return False
            running_max = max(running_max, v)
        return True
    if d is Domain.ASC:
        if w[0] != 1:
            return False
        ascents = 0
        for i in range(1, n):
            if not 1 <= w[i] <= 2 + ascents:
                return False
            if w[i] > w[i - 1]:
                ascents += 1
        return True
    if d is Domain.MODASC:
        if w[0] != 1 or not is_member(w, Domain.CAYLEY):
            return False
        seen: set[int] = set()
        for i, v in enumerate(w):
            leftmost = v not in seen
            seen.add(v)
            if v == 1:
                continue
            ascent_top = i > 0 and w[i - 1] < v
            if leftmost != ascent_top:
                return False
        return True
    raise ValueError(f"unknown domain {d}")


def modify(x: Word) -> Word:
    """Map an ascent sequence to its modified ascent sequence.

    For each ascent position i (left to right), every entry before
    position i that is >= the ascent top x_{i+1} is increased by one.

    >>> modify((1, 2, 1, 2, 4))
    (1, 3, 1, 2, 4)
    """
    if not is_member(x, Domain.ASC):
        raise ValueError(f"not an ascent sequence: {x}")
    y = list(x)
    for i in asc_set(x):
        top = y[i]  # position i+1 in 1-based terms, untouched so far
        for p in range(i - 1):
            if y[p] >= top:
                y[p] += 1
    return tuple(y)


def unmodify(y: Word) -> Word:
    """Inverse of :func:`modify`.

    >>> unmodify((1, 3, 1, 2, 4))
    (1, 2, 1, 2, 4)
    """
    if not is_member(y, Domain.MODASC):
        raise ValueError(f"not a modified ascent sequence: {y}")
    x = list(y)
    for i in reversed(asc_set(y)):
        top = x[i]
        for p in range(i - 1):
            if x[p] > top:
                x[p] -= 1
    return tuple(x)


@dataclass(frozen=True)
class LtrDecomposition:
    """Pivot/block factorization of a word by its ltr-minima (or maxima).

    Reassembling pivot_1 B_1 pivot_2 B_2 ... yields the original word.
    """

    which: Which
    pivots: tuple[int, ...]
    blocks: tuple[Word, ...]

    def reassemble(self) -> Word:
        out: list[int] = []
        for p, b in zip(self.pivots, self.blocks):
            out.append(p)
            out.extend(b)
        return tuple(out)


def ltr_decompose(w: Word, which: Which = Which.MIN) -> LtrDecomposition:
    """Decompose ``w`` as m_1 B_1 m_2 B_2 ... m_t B_t by ltr-minima
    (resp. M_i by ltr-maxima)."""
    if not w:
        raise ValueError("cannot decompose the empty word")
    pivots: list[int] = []
    blocks: list[list[int]] = []
    for v in w:
        is_pivot = not pivots or (
            v < pivots[-1] if which is Which.MIN else v > pivots[-1]
        )
        if is_pivot:
            pivots.append(v)
            blocks.append([])
        else:
            blocks[-1].append(v)
    return LtrDecomposition(which, tuple(pivots), tuple(tuple(b) for b in blocks))


def inflate(w: Word, i: int, k: int) -> Word:
    """The k-inflation of the permutation ``w`` at position ``i`` (1-based):
    w_i is replaced by the run w_i, w_i+1, ..., w_i+k-1 and larger values
    are shifted up.

    >>> inflate((4, 5, 1, 3, 2), 4, 3)
    (6, 7, 1, 3, 4, 5, 2)
    """
    if not is_member(w, Domain.PERM):
        raise ValueError(f"inflate requires a permutation: {w}")
    if not 1 <= i <= len(w):
        raise ValueError(f"position {i} out of range for length {len(w)}")
    if k < 1:
        raise ValueError("inflation count must be >= 1")
    v = w[i - 1]
    out: list[int] = []
    for p, u in enumerate(w, start=1):
        if p == i:
            out.extend(range(v, v + k))
        else:
            out.append(u if u < v else u + k - 1)
    return tuple(out)


def direct_sum(x: Word, y: Word) -> Word:
    """Direct sum x (+) y of two permutations: ``y`` shifted above ``x``.

    >>> direct_sum((2, 1), (1, 3, 2))
    (2, 1, 3, 5, 4)
    """
    if not (is_member(x, Domain.PERM) and is_member(y, Domain.PERM)):
        raise ValueError(f"direct_sum requires permutations: {x}, {y}")
    return x + tuple(v + len(x) for v in y)


def skew_sum(x: Word, y: Word) -> Word:
    """Skew sum x (-) y of two permutations: ``x`` shifted above ``y``.

    >>> skew_sum((2, 1), (1, 3, 2))
    (5, 4, 1, 3, 2)
    """
    if not (is_member(x, Domain.PERM) and is_member(y, Domain.PERM)):
        raise ValueError(f"skew_sum requires permutations: {x}, {y}")
    return tuple(v + len(y) for v in x) + y


def inverse(w: Word) -> Word:
    if not is_member(w, Domain.PERM):
        raise ValueError(f"inverse requires a permutation: {w}")
    out = [0] * len(w)
    for i, v in enumerate(w, start=1):
        out[v - 1] = i
    return tuple(out)


def reverse(w: Word) -> Word:
    return w[::-1]


def complement(w: Word) -> Word:
    """Complement v -> max(w)+1-v; on permutations this is n+1-v."""
    if not w:
        return w
    m = max(w) + 1
    return tuple(m - v for v in w)


def identity(n: int) -> Word:
    """The increasing permutation 1 2 ... n."""
    return tuple(range(1, n + 1))


def decreasing(n: int) -> Word:
    """The decreasing permutation n ... 2 1."""
    return tuple(range(n, 0, -1))
