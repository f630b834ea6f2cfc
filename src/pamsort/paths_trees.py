"""Lattice paths (Dyck, Motzkin, Schroeder, labeled Motzkin) and
succession-rule engines.

Paths are step words over {U, D, H, H0, H1, H2}: U = (1,1), D = (1,-1),
H = (1,0) (unit horizontal, Motzkin), H2 = (2,0) (double horizontal,
Schroeder).  A labeled Motzkin path writes its unit horizontal steps H0,
H1 and H2 by their label, and H2 never sits at height zero.
A succession rule is an axiom label plus a production function; iterating
it breadth-first yields the level sizes of the associated generating tree.

>>> p = dyck_path("UUDUUDDDUD")
>>> height(p)
3
>>> rule_level_counts(rule_catalog("DYCK_PEAK"), 5)
[1, 2, 5, 14, 42]
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable, Iterator, Sequence

from .words_core import ParseError

Steps = tuple[str, ...]

_DELTA = {"U": 1, "D": -1, "H": 0, "H0": 0, "H1": 0, "H2": 0}


def parse_steps(text: str) -> Steps:
    """Parse a step word such as ``"UUDH2D"`` or ``"U H0 D"`` over the
    steps U, D, H, H0, H1 and H2, skipping whitespace; any other character
    raises :class:`~pamsort.words_core.ParseError`.  Which steps a path
    may take is left to its kind (:class:`LatticePath`).

    >>> parse_steps("U H0 D"), format_steps(parse_steps("UH2D"))
    (('U', 'H0', 'D'), 'UH2D')
    """
    steps: list[str] = []
    for i, c in enumerate("".join(text.split())):
        if c in "UDH":
            steps.append(c)
        elif c in "012" and steps and steps[-1] == "H":
            steps[-1] = "H" + c   # a label right after an unlabeled H
        else:
            raise ParseError(f"invalid path step {c!r}", i)
    return tuple(steps)


def format_steps(steps: Sequence[str]) -> str:
    return "".join(steps)


class PathKind(enum.Enum):
    DYCK = "dyck"
    MOTZKIN = "motzkin"
    SCHRODER = "schroder"
    LABELED_MOTZKIN = "labeled motzkin"


_ALLOWED = {
    PathKind.DYCK: {"U", "D"},
    PathKind.MOTZKIN: {"U", "D", "H"},
    PathKind.SCHRODER: {"U", "D", "H2"},
    PathKind.LABELED_MOTZKIN: {"U", "D", "H0", "H1", "H2"},
}


@dataclass(frozen=True)
class LatticePath:
    """A nonnegative lattice path ending on the x-axis."""

    kind: PathKind
    steps: Steps

    def __post_init__(self) -> None:
        allowed = _ALLOWED[self.kind]
        # the step that may not lie on the x-axis, if the kind has one
        lifted = "H2" if self.kind is PathKind.LABELED_MOTZKIN else None
        h = 0
        for i, s in enumerate(self.steps):
            if s not in allowed:
                raise ValueError(
                    f"step {s!r} not allowed in a {self.kind.value} path"
                )
            h += _DELTA[s]
            if h <= 0:
                if h < 0:
                    raise ValueError(
                        f"path falls below the x-axis at step {i}")
                if s == lifted:
                    raise ValueError("label 2 is forbidden at height zero")
        if h != 0:
            raise ValueError("path does not end on the x-axis")

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def semilength(self) -> int:
        """U-steps plus H2-steps (the Schroeder semilength; for Dyck paths
        this is the usual semilength)."""
        return sum(1 for s in self.steps if s in ("U", "H2"))

    def __str__(self) -> str:
        return format_steps(self.steps)


def as_path(kind: PathKind, p: LatticePath | str | Sequence[str]
            ) -> LatticePath:
    """``p`` as a path of ``kind``: a path of that kind as it is, step text
    parsed (:func:`parse_steps`), a step sequence
    validated."""
    if isinstance(p, LatticePath):
        if p.kind is not kind:
            raise ValueError(
                f"expected a {kind.value} path, got a {p.kind.value} path")
        return p
    return LatticePath(kind, parse_steps(p) if isinstance(p, str)
                       else tuple(p))


def dyck_path(text: LatticePath | str | Sequence[str]) -> LatticePath:
    return as_path(PathKind.DYCK, text)


def motzkin_path(text: LatticePath | str | Sequence[str]) -> LatticePath:
    return as_path(PathKind.MOTZKIN, text)


def schroder_path(text: LatticePath | str | Sequence[str]) -> LatticePath:
    return as_path(PathKind.SCHRODER, text)


def parse_path(kind: PathKind, text: str) -> LatticePath:
    return as_path(kind, text)


def format_path(p: LatticePath) -> str:
    return format_steps(p.steps)


# ---------------------------------------------------------------------------
# Structural operations

def heights(steps: Sequence[str]) -> list[int]:
    """Height after each step."""
    out: list[int] = []
    h = 0
    for s in steps:
        h += _DELTA[s]
        out.append(h)
    return out


def height(p: LatticePath) -> int:
    hs = heights(p.steps)
    return max(hs, default=0)


def peaks(p: LatticePath) -> int:
    """Number of UD factors."""
    return sum(1 for i in range(len(p.steps) - 1)
               if p.steps[i] == "U" and p.steps[i + 1] == "D")


def double_rises(p: LatticePath) -> int:
    """Number of UU factors."""
    return sum(1 for i in range(len(p.steps) - 1)
               if p.steps[i] == "U" and p.steps[i + 1] == "U")


def matching(p: LatticePath) -> list[tuple[int, int]]:
    """(up index, matching down index) pairs, sorted by up index."""
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    for i, s in enumerate(p.steps):
        if s == "U":
            stack.append(i)
        elif s == "D":
            pairs.append((stack.pop(), i))
    return sorted(pairs)


def first_return_decomposition(p: LatticePath) -> tuple[LatticePath, LatticePath]:
    """Split a nonempty Dyck path as U Q1 D Q2 and return (Q1, Q2)."""
    if p.kind is not PathKind.DYCK:
        raise ValueError("first-return decomposition is defined on Dyck paths")
    if not p.steps:
        raise ValueError("cannot decompose the empty path")
    h = 0
    for i, s in enumerate(p.steps):
        h += _DELTA[s]
        if h == 0:
            return (LatticePath(p.kind, p.steps[1:i]),
                    LatticePath(p.kind, p.steps[i + 1:]))
    raise AssertionError("valid path must return to the axis")


# ---------------------------------------------------------------------------
# Direct enumeration

# Per path kind: the steps in the order the walk tries them, and the steps
# that count toward the size n.
_WALKS = {
    PathKind.DYCK: (("U", "D"), frozenset({"U"})),
    PathKind.MOTZKIN: (("U", "H", "D"), frozenset({"U", "H", "D"})),
    PathKind.SCHRODER: (("U", "H2", "D"), frozenset({"U", "H2"})),
}


def _grow(kind: PathKind, n: int, prefix: list[str], size: int,
          h: int) -> Iterator[LatticePath]:
    """The paths of ``kind`` and size ``n`` that extend ``prefix``, which
    has ``size`` counted steps and ends at height ``h``."""
    if size == n and h == 0:
        yield LatticePath(kind, tuple(prefix))
        return
    order, counted = _WALKS[kind]
    if "D" in counted and h > n - size:
        return  # the steps left cannot come back down
    for s in order:
        if (s in counted and size >= n) or (s == "D" and h == 0):
            continue
        prefix.append(s)
        yield from _grow(kind, n, prefix, size + (s in counted), h + _DELTA[s])
        prefix.pop()


def iter_dyck(n: int) -> Iterator[LatticePath]:
    """All Dyck paths of semilength n."""
    return _grow(PathKind.DYCK, n, [], 0, 0)


def iter_motzkin(n: int) -> Iterator[LatticePath]:
    """All Motzkin paths of length n."""
    return _grow(PathKind.MOTZKIN, n, [], 0, 0)


def iter_schroder(n: int) -> Iterator[LatticePath]:
    """All Schroeder paths of semilength n (U-steps plus H2-steps = n)."""
    return _grow(PathKind.SCHRODER, n, [], 0, 0)


def catalan(n: int) -> int:
    """Dyck paths of semilength n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def count_dyck_bounded(n: int, max_height: int) -> int:
    """Dyck paths of semilength n with height at most ``max_height``."""
    if n == 0:
        return 1
    if max_height <= 0:
        return 0
    # first-return decomposition: U Q1 D Q2
    return sum(count_dyck_bounded(a, max_height - 1)
               * count_dyck_bounded(n - 1 - a, max_height)
               for a in range(n))


# ---------------------------------------------------------------------------
# Succession rules

Label = tuple[int, ...]


@dataclass(frozen=True)
class SuccessionRule:
    """Axiom label plus a production function on labels."""

    name: str
    axiom: Label
    produce: Callable[[Label], tuple[Label, ...]]


def _catalan_children(k: int) -> tuple[Label, ...]:
    return tuple((i,) for i in range(2, k + 2))


def _motzkin_children(k: int) -> tuple[Label, ...]:
    return tuple((i,) for i in range(1, k)) + ((k + 1,),)


def _omega12_children(label: Label) -> tuple[Label, ...]:
    d, b = label
    if b == 0:
        return ((d + 1, 0),) + tuple((i, 1) for i in range(1, d + 1))
    return ((d + 1, 0),) + tuple((i, 1) for i in range(1, d))


def _omega_123_312_children(label: Label) -> tuple[Label, ...]:
    k, m = label
    if (k, m) == (1, 0):
        return ((1, 0), (2, 2))
    if k == 1:
        return ((1, m),) + tuple((2, j) for j in range(2, m + 2))
    return ((1, m),) + tuple((j, m + 1) for j in range(2, k + 2))


_CATALOG: dict[str, SuccessionRule] = {
    "DYCK_PEAK": SuccessionRule(
        "DYCK_PEAK", (2,), lambda lb: _catalan_children(lb[0])),
    "RGF1221_SITES": SuccessionRule(
        "RGF1221_SITES", (2,), lambda lb: _catalan_children(lb[0])),
    "MOTZKIN": SuccessionRule(
        "MOTZKIN", (1,), lambda lb: _motzkin_children(lb[0])),
    "OMEGA1_132_321": SuccessionRule(
        "OMEGA1_132_321", (1, 0), _omega12_children),
    "OMEGA2_DUDU": SuccessionRule(
        "OMEGA2_DUDU", (1, 0), _omega12_children),
    "OMEGA_123_312": SuccessionRule(
        "OMEGA_123_312", (1, 0), _omega_123_312_children),
}


def rule_catalog(rule_id: str) -> SuccessionRule:
    try:
        return _CATALOG[rule_id]
    except KeyError:
        raise ValueError(f"unknown succession rule {rule_id!r}") from None


def rule_ids() -> tuple[str, ...]:
    return tuple(_CATALOG)


def rule_level_counts(rule: SuccessionRule, depth: int) -> list[int]:
    """Sizes of the first ``depth`` levels of the generating tree, computed
    on a label -> multiplicity map (no explicit tree expansion)."""
    level: dict[Label, int] = {rule.axiom: 1}
    sizes: list[int] = []
    for _ in range(depth):
        sizes.append(sum(level.values()))
        nxt: dict[Label, int] = {}
        for label, mult in level.items():
            for child in rule.produce(label):
                nxt[child] = nxt.get(child, 0) + mult
        level = nxt
    return sizes
