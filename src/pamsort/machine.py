"""The right-greedy Sigma-avoiding stack and the two-stack sorting machine.

A machine is a Sigma-avoiding stack (which may never contain an occurrence
of a forbidden pattern, reading from top to bottom) followed by a classical
21-stack.  The first stack is operated right-greedily: before pushing the
next input letter, the top is popped for as long as pushing the letter
would create a forbidden occurrence; the stack is drained when the input is
exhausted.  An input is sortable when the final output is weakly
increasing, equivalently when the first stack's output avoids 231.

The first stack avoids Sigma before every push: it starts empty, popping
from the top keeps a stack Sigma-avoiding, and a letter is pushed only
once no occurrence would start at it.  So any occurrence that a push
could create starts at the incoming letter, and the pop check searches
only for those.

>>> from .patterns import classical
>>> spec = MachineSpec((classical((2, 3, 1)),))
>>> sigma_stack_output((2, 4, 1, 3), spec)
(1, 4, 3, 2)
>>> is_sortable((2, 4, 1, 3), spec)
True
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .paths_trees import LatticePath, PathKind, matching
from .patterns import Pattern, PatternKind, contains_classical, format_pattern
from .words_core import Domain, Word

DEFAULT_GUARDS = {
    Domain.PERM: 11,
    Domain.CAYLEY: 8,
    Domain.RGF: 11,
    Domain.ASC: 10,
    Domain.MODASC: 10,
}


@dataclass(frozen=True)
class MachineSpec:
    """Forbidden-pattern set for the first stack plus the input domain."""

    sigma: tuple[Pattern, ...]
    domain: Domain = Domain.PERM

    def __post_init__(self) -> None:
        if not self.sigma:
            raise ValueError("machine needs at least one forbidden pattern")
        for p in self.sigma:
            if p.kind is not PatternKind.CLASSICAL:
                raise ValueError(
                    f"stack patterns must be classical: {format_pattern(p)}"
                )
            if len(p.body) < 2:
                raise ValueError("stack patterns must have length >= 2")

    @property
    def bodies(self) -> tuple[Word, ...]:
        return tuple(p.body for p in self.sigma)

    def __str__(self) -> str:
        names = ",".join(format_pattern(p) for p in self.sigma)
        return f"sigma={names} on {self.domain.value}"


@dataclass
class MachineTrace:
    """Push/pop event log of a machine run."""

    input: Word = ()
    sigma: tuple[str, ...] = ()
    steps: list[tuple[int, str, int]] = field(default_factory=list)
    first_output: Word = ()
    final_output: Word = ()
    sortable: bool = False

    def to_json(self) -> str:
        return json.dumps({
            "input": list(self.input),
            "sigma": list(self.sigma),
            "steps": [{"stack": s, "op": op, "value": v}
                      for s, op, v in self.steps],
            "first_output": list(self.first_output),
            "final_output": list(self.final_output),
            "sortable": self.sortable,
        })


def _must_pop(stack: tuple[int, ...], x: int, bodies: tuple[Word, ...]) -> bool:
    """Would the stack, with ``x`` on top and read top to bottom, contain a
    forbidden pattern?

    The stack avoids Sigma before each push (see the module docstring), so
    only occurrences in which ``x`` plays the first letter are searched.
    """
    seq = (x,) + stack[::-1]
    for b in bodies:
        if contains_classical(seq, b, anchored=True):
            return True
    return False


def _push(stack: tuple[int, ...], x: int, bodies: tuple[Word, ...]
          ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Push ``x`` right-greedily: pop the top while ``_must_pop`` holds, then
    push.  Returns (new stack, popped letters in pop order)."""
    popped: list[int] = []
    while stack and _must_pop(stack, x, bodies):
        popped.append(stack[-1])
        stack = stack[:-1]
    return stack + (x,), tuple(popped)


def sigma_stack_output(w: Sequence[int], spec: MachineSpec,
                       trace: MachineTrace | None = None) -> Word:
    """Output of the Sigma-avoiding stack on ``w`` (the map s^Sigma)."""
    bodies = spec.bodies
    stack: tuple[int, ...] = ()
    out: list[int] = []
    for x in w:
        stack, popped = _push(stack, x, bodies)
        out.extend(popped)
        if trace is not None:
            trace.steps.extend((1, "pop", v) for v in popped)
            trace.steps.append((1, "push", x))
    drained = stack[::-1]
    out.extend(drained)
    if trace is not None:
        trace.steps.extend((1, "pop", v) for v in drained)
    return tuple(out)


def stack21_output(w: Sequence[int],
                   trace: MachineTrace | None = None) -> Word:
    """Classical 21-stack pass: equal letters may sit on each other."""
    stack: list[int] = []
    out: list[int] = []
    for x in w:
        while stack and stack[-1] < x:
            v = stack.pop()
            out.append(v)
            if trace is not None:
                trace.steps.append((2, "pop", v))
        stack.append(x)
        if trace is not None:
            trace.steps.append((2, "push", x))
    while stack:
        v = stack.pop()
        out.append(v)
        if trace is not None:
            trace.steps.append((2, "pop", v))
    return tuple(out)


def machine_run(w: Sequence[int], spec: MachineSpec,
                with_trace: bool = False) -> tuple[Word, MachineTrace | None]:
    """Run the full two-stack machine; returns (final output, trace)."""
    w = tuple(w)
    trace = MachineTrace(input=w,
                         sigma=tuple(format_pattern(p) for p in spec.sigma)) \
        if with_trace else None
    first = sigma_stack_output(w, spec, trace)
    final = stack21_output(first, trace)
    if trace is not None:
        trace.first_output = first
        trace.final_output = final
        trace.sortable = all(final[i] <= final[i + 1]
                             for i in range(len(final) - 1))
    return final, trace


_Detector = tuple[tuple[int, ...], int]


def _feed_231(detector: _Detector, letters: Iterable[int]) -> _Detector | None:
    """Feed ``letters`` to an incremental 231 detector; None once the word
    read so far contains 231.

    The detector is (letters read so far, sorted; threshold): a 231 ends at
    any later letter below the threshold, the largest letter ``b`` read
    before some larger letter ``c``.
    """
    seen, threshold = detector
    for y in letters:
        if y < threshold:
            return None
        i = bisect_left(seen, y)
        if i > 0 and seen[i - 1] > threshold:
            threshold = seen[i - 1]
        seen = seen[:i] + (y,) + seen[i:]
    return seen, threshold


def avoids_231(w: Sequence[int]) -> bool:
    """Incremental check that ``w`` avoids the classical pattern 231."""
    return _feed_231(((), 0), w) is not None


def is_sortable(w: Sequence[int], spec: MachineSpec) -> bool:
    """Sortable iff the first stack's output avoids 231."""
    return avoids_231(sigma_stack_output(w, spec))


# ---------------------------------------------------------------------------
# Domain prefix tree

def _check_guard(d: Domain, n: int, max_n: int | None) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got n={n}")
    limit = max_n if max_n is not None else DEFAULT_GUARDS[d]
    if n > limit:
        raise ValueError(
            f"n={n} exceeds the guard {limit} for domain {d.value}; "
            "pass max_n (CLI: --max-n) to override")


def _extensions(d: Domain, n: int, prefix: list[int],
                used: dict[int, int], state: tuple[int, int]) -> Iterator[int]:
    """Legal next letters for a length-n word of domain ``d``.

    ``used`` maps letters to multiplicities; ``state`` carries
    (current max, current ascent count).
    """
    k = len(prefix)
    cur_max, ascents = state
    if d is Domain.PERM:
        for v in range(1, n + 1):
            if v not in used:
                yield v
        return
    if d is Domain.RGF:
        hi = 1 if k == 0 else cur_max + 1
        yield from range(1, hi + 1)
        return
    if d is Domain.ASC:
        hi = 1 if k == 0 else 2 + ascents
        yield from range(1, hi + 1)
        return
    # CAYLEY / MODASC: letters must finally cover 1..max.  Every used
    # letter is at most cur_max <= new_max, so the letters of 1..new_max
    # still missing after v are counted without a scan.
    slots_left = n - k - 1
    n_used = len(used)
    for v in range(1, n + 1):
        new_max = max(cur_max, v)
        missing = new_max - n_used - (v not in used)
        if missing > slots_left:
            continue
        if d is Domain.MODASC:
            if k == 0:
                if v != 1:
                    continue
            elif v > 1:
                leftmost = v not in used
                ascent_top = prefix[-1] < v
                if leftmost != ascent_top:
                    continue
        yield v


_S = TypeVar("_S")


def _walk(d: Domain, n: int, state: _S,
          step: Callable[[_S, int], _S | None] | None = None
          ) -> Iterator[tuple[Word, _S]]:
    """Depth-first walk of the length-n words of domain ``d`` in
    lexicographic order, yielding (word, state) at each leaf.

    ``state`` is carried down each root-to-leaf path: ``step(state, v)`` is
    the state after appending ``v``, or None to prune that subtree.  Without
    ``step`` the state is passed down unchanged.
    """
    prefix: list[int] = []
    used: dict[int, int] = {}

    # rec gets itself as an argument: a closure that names itself is a
    # reference cycle, which would keep the walk's state (the memo of
    # ``_walk_push`` in ``step``) alive until a full garbage collection.
    def rec(rec: Callable[..., Iterator[tuple[Word, _S]]], state: _S,
            shape: tuple[int, int]) -> Iterator[tuple[Word, _S]]:
        if len(prefix) == n:
            yield tuple(prefix), state
            return
        for v in _extensions(d, n, prefix, used, shape):
            child = state
            if step is not None:
                child = step(state, v)
                if child is None:
                    continue
            new_shape = (max(shape[0], v),
                         shape[1] + (1 if prefix and prefix[-1] < v else 0))
            prefix.append(v)
            used[v] = used.get(v, 0) + 1
            yield from rec(rec, child, new_shape)
            prefix.pop()
            if used[v] == 1:
                del used[v]
            else:
                used[v] -= 1

    return rec(rec, state, (0, 0))


def iter_domain(d: Domain, n: int, max_n: int | None = None) -> Iterator[Word]:
    """All length-n words of the domain, in lexicographic order."""
    _check_guard(d, n, max_n)
    return (w for w, _ in _walk(d, n, None))


# ---------------------------------------------------------------------------
# Brute-force engines (shared-prefix walks over the domain)

def _walk_push(spec: MachineSpec) -> Callable[
        [tuple[int, ...], int], tuple[tuple[int, ...], tuple[int, ...]]]:
    """``_push`` for one walk, memoized: sibling subtrees repeat the same
    (stack, letter) pairs.  The memo dies with the walk."""
    return lru_cache(maxsize=None)(partial(_push, bodies=spec.bodies))


def _sortable_walk(spec: MachineSpec, n: int) -> Iterator[Word]:
    """The sortable length-n words, pruning every subtree whose partial
    first-stack output already contains 231."""
    push = _walk_push(spec)

    def step(state: tuple[Word, _Detector], v: int
             ) -> tuple[Word, _Detector] | None:
        stack, detector = state
        stack, popped = push(stack, v)
        detector = _feed_231(detector, popped)
        return None if detector is None else (stack, detector)

    for w, (stack, detector) in _walk(spec.domain, n, ((), ((), 0)), step):
        if _feed_231(detector, stack[::-1]) is not None:
            yield w


def sortable_count(spec: MachineSpec, n: int,
                   max_n: int | None = None) -> int:
    """Number of sortable length-n words of the machine's domain."""
    _check_guard(spec.domain, n, max_n)
    return sum(1 for _ in _sortable_walk(spec, n))


def sortable_words(spec: MachineSpec, n: int,
                   max_n: int | None = None) -> list[Word]:
    """The sortable length-n words, in lexicographic order."""
    _check_guard(spec.domain, n, max_n)
    return list(_sortable_walk(spec, n))


def machine_outputs(spec: MachineSpec, n: int,
                    max_n: int | None = None) -> Iterator[tuple[Word, Word]]:
    """Yield (input, first-stack output) over the whole domain at length n,
    sharing machine state across common prefixes."""
    _check_guard(spec.domain, n, max_n)
    push = _walk_push(spec)

    def step(state: tuple[Word, Word], v: int) -> tuple[Word, Word]:
        stack, out = state
        stack, popped = push(stack, v)
        return stack, out + popped

    return ((w, out + stack[::-1])
            for w, (stack, out) in _walk(spec.domain, n, ((), ()), step))


def fertility(w: Sequence[int], spec: MachineSpec,
              max_n: int | None = None) -> tuple[int, list[Word]]:
    """Number (and list) of preimages of ``w`` under the first-stack map,
    scanning the whole domain at the word's length."""
    w = tuple(w)
    preimages = [src for src, out in machine_outputs(spec, len(w), max_n)
                 if out == w]
    return len(preimages), preimages


def image_set(spec: MachineSpec, n: int, sorted_only: bool = False,
              max_n: int | None = None) -> set[Word]:
    """Image of the first-stack map on the length-n domain; with
    ``sorted_only`` intersect with the 231-avoiding words (the sorted set)."""
    out: set[Word] = set()
    for _, o in machine_outputs(spec, n, max_n):
        if not sorted_only or avoids_231(o):
            out.add(o)
    return out


# ---------------------------------------------------------------------------
# Labeled Dyck path encoding of a run

@dataclass(frozen=True)
class LabeledDyckPath:
    """Dyck path whose matched up/down steps carry equal labels."""

    steps: tuple[str, ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        path = LatticePath(PathKind.DYCK, self.steps)
        if len(self.labels) != len(self.steps):
            raise ValueError("one label per step required")
        for i, j in matching(path):
            if self.labels[i] != self.labels[j]:
                raise ValueError("matching steps must share labels")

    def step_word(self) -> str:
        return "".join(self.steps)


def encode_labeled_path(w: Sequence[int], spec: MachineSpec) -> LabeledDyckPath:
    """The labeled Dyck path of a Sigma-stack run: an up step labeled ``a``
    per push, a down step labeled ``a`` per pop.  Up labels read the input,
    down labels read the first-stack output."""
    _, trace = machine_run(w, spec, with_trace=True)
    assert trace is not None
    steps: list[str] = []
    labels: list[int] = []
    for stk, op, v in trace.steps:
        if stk != 1:
            continue
        steps.append("U" if op == "push" else "D")
        labels.append(v)
    return LabeledDyckPath(tuple(steps), tuple(labels))
