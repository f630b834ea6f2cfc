"""Lattice paths (Dyck, Motzkin, Schroeder) and succession-rule engines.

Paths are step words over {U, D, H, H2}: U = (1,1), D = (1,-1), H = (1,0)
(unit horizontal, Motzkin), H2 = (2,0) (double horizontal, Schroeder).
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
from typing import Callable, Iterator, Sequence

from .patterns import format_steps, parse_steps

Steps = tuple[str, ...]

_DELTA = {"U": 1, "D": -1, "H": 0, "H2": 0}


class PathKind(enum.Enum):
    DYCK = "dyck"
    MOTZKIN = "motzkin"
    SCHRODER = "schroder"


_ALLOWED = {
    PathKind.DYCK: {"U", "D"},
    PathKind.MOTZKIN: {"U", "D", "H"},
    PathKind.SCHRODER: {"U", "D", "H2"},
}


@dataclass(frozen=True)
class LatticePath:
    """A nonnegative lattice path ending on the x-axis."""

    kind: PathKind
    steps: Steps

    def __post_init__(self) -> None:
        allowed = _ALLOWED[self.kind]
        h = 0
        for i, s in enumerate(self.steps):
            if s not in allowed:
                raise ValueError(
                    f"step {s!r} not allowed in a {self.kind.value} path"
                )
            h += _DELTA[s]
            if h < 0:
                raise ValueError(f"path falls below the x-axis at step {i}")
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


def dyck_path(text: str | Sequence[str]) -> LatticePath:
    return LatticePath(PathKind.DYCK, _as_steps(text))


def motzkin_path(text: str | Sequence[str]) -> LatticePath:
    return LatticePath(PathKind.MOTZKIN, _as_steps(text))


def schroder_path(text: str | Sequence[str]) -> LatticePath:
    return LatticePath(PathKind.SCHRODER, _as_steps(text))


def _as_steps(text: str | Sequence[str]) -> Steps:
    if isinstance(text, str):
        return parse_steps(text)
    return tuple(text)


def parse_path(kind: PathKind, text: str) -> LatticePath:
    return LatticePath(kind, parse_steps(text))


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

def iter_dyck(n: int) -> Iterator[LatticePath]:
    """All Dyck paths of semilength n."""
    def rec(prefix: list[str], ups: int, h: int) -> Iterator[Steps]:
        if len(prefix) == 2 * n:
            yield tuple(prefix)
            return
        if ups < n:
            prefix.append("U")
            yield from rec(prefix, ups + 1, h + 1)
            prefix.pop()
        if h > 0:
            prefix.append("D")
            yield from rec(prefix, ups, h - 1)
            prefix.pop()

    for steps in rec([], 0, 0):
        yield LatticePath(PathKind.DYCK, steps)


def iter_motzkin(n: int) -> Iterator[LatticePath]:
    """All Motzkin paths of length n."""
    def rec(prefix: list[str], h: int) -> Iterator[Steps]:
        k = len(prefix)
        if k == n:
            if h == 0:
                yield tuple(prefix)
            return
        if h > n - k:  # cannot come back down
            return
        for s in ("U", "H", "D"):
            if s == "D" and h == 0:
                continue
            prefix.append(s)
            yield from rec(prefix, h + _DELTA[s])
            prefix.pop()

    for steps in rec([], 0):
        yield LatticePath(PathKind.MOTZKIN, steps)


def iter_schroder(n: int) -> Iterator[LatticePath]:
    """All Schroeder paths of semilength n (U-steps plus H2-steps = n)."""
    def rec(prefix: list[str], weight: int, h: int) -> Iterator[Steps]:
        if weight == n and h == 0:
            yield tuple(prefix)
        if weight >= n and h == 0:
            return
        if weight < n:
            for s in ("U", "H2"):
                prefix.append(s)
                yield from rec(prefix, weight + 1, h + _DELTA[s])
                prefix.pop()
        if h > 0:
            prefix.append("D")
            yield from rec(prefix, weight, h - 1)
            prefix.pop()

    for steps in rec([], 0, 0):
        yield LatticePath(PathKind.SCHRODER, steps)


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
