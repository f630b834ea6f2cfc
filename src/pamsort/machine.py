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
could create starts at the incoming letter, and such an anchored
occurrence survives k pops iff its second letter is deeper than k.  One
scan per push therefore finds how many letters to pop: down to the
deepest second letter of an anchored occurrence of some body of Sigma.

That scan compares letters only by their order, so it runs once per
transition of a lazily grown automaton over stack patterns, one per set
of bodies and kept across calls in a bounded cache (``_AUTOMATA``), whose
states are built only when a run steps from them; the per-word simulator
and every walk of the domain step through it.

>>> from .patterns import classical
>>> spec = MachineSpec((classical((2, 3, 1)),))
>>> sigma_stack_output((2, 4, 1, 3), spec)
(1, 4, 3, 2)
>>> is_sortable((2, 4, 1, 3), spec)
True
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from collections import OrderedDict
from itertools import islice, permutations
from operator import le, sub
from typing import (Callable, Collection, Iterable, Iterator, Sequence,
                    TypeVar)

from .paths_trees import LatticePath, PathKind, matching
from .patterns import (_NO_BOUND, Pattern, PatternKind, _complete, _has_231,
                       _plan, format_pattern)
from .words_core import Domain, Word, _check_letters

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
        # not a field: equality and hashing read sigma and the domain only
        object.__setattr__(self, "_bodies",
                           tuple(sorted(p.body for p in self.sigma)))

    @property
    def bodies(self) -> tuple[Word, ...]:
        """The bodies of Sigma, sorted, computed once per spec: machines
        that list Sigma in another order share one key for their oracle
        and their automaton."""
        return self._bodies

    def __str__(self) -> str:
        names = ",".join(format_pattern(p) for p in self.sigma)
        return f"sigma={names} on {self.domain.value}"


# The text of a trace step and the separator after it, with the value left
# as a ``%d`` field: per stack, for a push and for a pop.
_STEP_TEXT = tuple(
    tuple('{"stack": %d, "op": "%s", "value": %%d}, ' % (stack, op)
          for op in ("push", "pop"))
    for stack in (1, 2))


def _stack_ops(pushed: Sequence[int], popped: Sequence[int],
               pops: Iterable[int], push: str = "U", pop: str = "D"
               ) -> tuple[str, list[int]]:
    """The operations of one stack in the order of its run, ``push`` per
    push and ``pop`` per pop, joined, with their letters.  ``pops`` holds,
    per push, the number of letters popped just before it; pushes read
    ``pushed``, pops read ``popped``, and after the last push the stack
    drains.

    >>> _stack_ops((2, 4, 1, 3), (1, 4, 3, 2), (0, 0, 0, 2))
    ('UUUDDUDD', [2, 4, 1, 1, 4, 3, 3, 2])
    """
    ops: list[str] = []
    letters: list[int] = []
    j = 0
    for x, p in zip(pushed, pops):
        if p:
            ops.append(pop * p)
            letters += popped[j:j + p]
            j += p
        ops.append(push)
        letters.append(x)
    ops.append(pop * (len(popped) - j))
    letters += popped[j:]
    return "".join(ops), letters


@dataclass
class MachineTrace:
    """A machine run, recorded as the number of letters each stack pops
    just before each push: ``sigma_pops`` for the sigma-stack, which
    pushes ``input`` and emits ``first_output``, and ``stack21_pops`` for
    the 21-stack, which pushes ``first_output`` and emits
    ``final_output``.  Each stack drains after its last push.

    >>> from .patterns import classical
    >>> spec = MachineSpec((classical((2, 3, 1)),))
    >>> _, trace = machine_run((2, 4, 1, 3), spec, with_trace=True)
    >>> trace.sigma_pops, trace.stack21_pops
    ([0, 0, 0, 2], [0, 1, 0, 0])
    >>> trace.steps[:6]  # doctest: +NORMALIZE_WHITESPACE
    [(1, 'push', 2), (1, 'push', 4), (1, 'push', 1), (1, 'pop', 1),
     (1, 'pop', 4), (1, 'push', 3)]
    >>> print(trace.to_json())  # doctest: +NORMALIZE_WHITESPACE
    {"input": [2, 4, 1, 3], "sigma": ["231"], "steps":
    [{"stack": 1, "op": "push", "value": 2},
     {"stack": 1, "op": "push", "value": 4},
     {"stack": 1, "op": "push", "value": 1},
     {"stack": 1, "op": "pop", "value": 1},
     {"stack": 1, "op": "pop", "value": 4},
     {"stack": 1, "op": "push", "value": 3},
     {"stack": 1, "op": "pop", "value": 3},
     {"stack": 1, "op": "pop", "value": 2},
     {"stack": 2, "op": "push", "value": 1},
     {"stack": 2, "op": "pop", "value": 1},
     {"stack": 2, "op": "push", "value": 4},
     {"stack": 2, "op": "push", "value": 3},
     {"stack": 2, "op": "push", "value": 2},
     {"stack": 2, "op": "pop", "value": 2},
     {"stack": 2, "op": "pop", "value": 3},
     {"stack": 2, "op": "pop", "value": 4}],
    "first_output": [1, 4, 3, 2], "final_output": [1, 2, 3, 4],
    "sortable": true}
    """

    input: Word = ()
    sigma: tuple[str, ...] = ()
    first_output: Word = ()
    final_output: Word = ()
    sortable: bool = False
    sigma_pops: list[int] = field(default_factory=list)
    stack21_pops: list[int] = field(default_factory=list)

    def _stacks(self) -> tuple[tuple[Word, Word, list[int]], ...]:
        """(letters pushed, letters popped, pop counts) of each stack."""
        first = self.first_output
        return ((self.input, first, self.sigma_pops),
                (first, self.final_output, self.stack21_pops))

    @property
    def steps(self) -> list[tuple[int, str, int]]:
        """One (stack, op, value) per push and pop, stack 1 first, in the
        order of the run: derived from the pop counts, so read-only."""
        return [(stack, "push" if op == "U" else "pop", v)
                for stack, run in enumerate(self._stacks(), 1)
                for op, v in zip(*_stack_ops(*run))]

    def to_json(self) -> str:
        """The trace as one JSON object, in ``json.dumps``'s default
        format; each step is an object with the keys ``stack``, ``op`` and
        ``value``.  The whole text is one format string, filled once."""
        (steps1, letters1), (steps2, letters2) = (
            _stack_ops(*run, *text)
            for run, text in zip(self._stacks(), _STEP_TEXT))
        return ('{"input": %s, "sigma": %s, "steps": [' +
                (steps1 + steps2)[:-2] + '], "first_output": %s, '
                '"final_output": %s, "sortable": %s}') % (
            list(self.input), json.dumps(list(self.sigma)),
            *letters1, *letters2, list(self.first_output),
            list(self.final_output), "true" if self.sortable else "false")


def _must_pop(stack: tuple[int, ...], x: int, bodies: tuple[Word, ...]) -> int:
    """How many letters to pop from the top of ``stack`` (stored top-first)
    before ``x`` is pushed (0: push at once).

    The stack avoids Sigma before each push (see the module docstring), so
    only occurrences in which ``x`` plays the first letter matter, and one
    of them survives k pops exactly when its second letter lies deeper
    than k.  So the second positions of the stack are tried deepest first,
    and the first one that stands to ``x`` as ``body[1]`` to ``body[0]``
    and has letters below it that complete the body along its plan is
    the last letter to pop.
    """
    pops = 0
    for body in bodies:
        plan = _plan(body)
        k = len(body)
        bound: list[int | float] = [x] * k + [0, _NO_BOUND]
        eq, lo, hi = plan[0]
        a, b = (x - 1, x + 1) if eq == 0 else (bound[lo], bound[hi])
        for p in range(len(stack) - k + 1, pops - 1, -1):
            y = stack[p]
            if a < y < b:
                bound[1] = y
                if _complete(stack, p + 1, plan, 1, bound, None, None):
                    pops = p + 1
                    break
    return pops


def _push(stack: tuple[int, ...], x: int, bodies: tuple[Word, ...]
          ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Push ``x`` right-greedily: pop the top ``_must_pop`` letters, then
    push.  Returns (new stack, popped letters): stacks are stored top-first,
    so the popped letters are the front of the old stack, in pop order.

    >>> _push((4, 3, 1), 2, ((2, 3, 1),))
    ((2, 1), (4, 3))
    """
    cut = _must_pop(stack, x, bodies)
    return (x,) + stack[cut:], stack[:cut]


# ---------------------------------------------------------------------------
# The sigma-stack automaton
#
# ``_must_pop`` compares letters only by their order, so what a push does
# depends only on the order pattern of the stack and on where ``x`` falls
# among the stack's letters.  One automaton per set of bodies records it:
# a state is the pattern of a stack (top-first, ties kept), the input
# symbol of ``x`` is 2 i + e, where i stack letters are distinct and below
# ``x`` and e says whether ``x`` equals a stack letter, and a transition
# is (pop count, next state, split flag, position of the new stack's
# minimum).  The split flag is the walk's prune (c): under ``x``, a letter
# above ``x`` sits above a letter below it.  A transition is built once,
# by ``_push`` on the state's pattern, the first time it is taken.  The
# pattern writes rank r as 2 r, so that ``x`` can stand as 2 i + 1 between
# two ranks, or as 2 i + 2 on rank i + 1: either way ``x`` is 1 + the
# symbol.
#
# Target states are built on first use.  Most are never stepped from: the
# last letter of a word leads to one, and so does a push whose subtree the
# walk prunes.  So a new transition holds ~key, its own key in ``moves``,
# as its next state (below zero, unlike every state id).  The first step
# from there builds the state from the stack it is given, or finds it by
# its pattern, and writes its id into the transition; a run that holds
# ~key reads the id from there.

_Transition = tuple[int, int, bool, int]


class _Automaton:
    """The lazily grown sigma-stack automaton of one set of bodies.
    State 0 is the empty stack; a transition is built the first time it
    is taken, and the state it leads to the first time a run steps from
    there."""

    __slots__ = ("bodies", "patterns", "ids", "ranks", "moves")

    def __init__(self, bodies: tuple[Word, ...]) -> None:
        self.bodies = bodies
        # per state: its pattern, with the letters 2, 4, ..., 2m
        self.patterns: list[Word] = [()]
        self.ids: dict[Word, int] = {(): 0}
        # per state: the topmost position of each distinct letter, by rank
        self.ranks: list[tuple[int, ...]] = [()]
        # the transitions built so far, keyed by symbol << 32 | state: no
        # process holds 2**32 states
        self.moves: dict[int, _Transition] = {}

    def step(self, sid: int, stack: tuple[int, ...], x: int) -> _Transition:
        """The transition that pushing ``x`` onto ``stack`` (in state
        ``sid``, or in the one that the placeholder ``sid`` stands for)
        takes."""
        if sid < 0:
            sid = self._target(~sid, stack)
        ranks = self.ranks[sid]
        i = bisect_left(ranks, x, key=stack.__getitem__)
        sym = 2 * i + (i < len(ranks) and stack[ranks[i]] == x)
        t = self.moves.get(sym << 32 | sid)
        if t is None:
            t = self._build(sid, sym)
        return t

    def _build(self, sid: int, sym: int) -> _Transition:
        x = sym + 1
        key = sym << 32 | sid
        new, popped = _push(self.patterns[sid], x, self.bodies)
        # one pass over the letters kept under x
        split = above = False
        low = 0
        for p in range(1, len(new)):
            y = new[p]
            if y > x:
                above = True
            elif y < x:
                if above:
                    split = True
                if y < new[low]:
                    low = p
        t = self.moves[key] = (len(popped), ~key, split, low)
        _AUTOMATA.grew(self)
        return t

    def _target(self, key: int, stack: tuple[int, ...]) -> int:
        """The state that transition ``key`` leads to, in which ``stack``
        is: built, or found by its pattern, on first use."""
        pops, sid, split, low = self.moves[key]
        if sid >= 0:
            return sid
        # the topmost position of each distinct letter, and their ranks
        top = dict(zip(stack[::-1], range(len(stack) - 1, -1, -1)))
        letters = sorted(top)
        rank = dict(zip(letters, range(2, 2 * len(letters) + 1, 2)))
        pattern = tuple(map(rank.__getitem__, stack))
        sid = self.ids.get(pattern)
        if sid is None:
            sid = self.ids[pattern] = len(self.patterns)
            self.patterns.append(pattern)
            self.ranks.append(tuple(map(top.__getitem__, letters)))
        self.moves[key] = pops, sid, split, low
        return sid


class _AutomatonCache:
    """The automata of the recently used sets of bodies, least recently
    used first, holding at most ``bound`` transitions in all.

    The whole cache belongs to one pop rule: it is emptied when
    ``_must_pop`` is no longer the function that built it.  An automaton
    that alone outgrows the bound leaves the cache too; the runs that hold
    it finish on it.
    """

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self.automata: OrderedDict[tuple[Word, ...], _Automaton] = \
            OrderedDict()
        self.total = 0
        self.builder: Callable[..., int] | None = None

    def get(self, bodies: tuple[Word, ...]) -> _Automaton:
        if self.builder is not _must_pop:
            self.clear()
            self.builder = _must_pop
        auto = self.automata.get(bodies)
        if auto is None:
            auto = self.automata[bodies] = _Automaton(bodies)
        else:
            self.automata.move_to_end(bodies)
        return auto

    def grew(self, auto: _Automaton) -> None:
        if self.automata.get(auto.bodies) is not auto:
            return
        self.total += 1
        while self.total > self.bound:
            _, old = self.automata.popitem(last=False)
            self.total -= len(old.moves)

    def clear(self) -> None:
        self.automata.clear()
        self.total = 0


# Holds the 15 machines of a mixed query load at word lengths 8-16 (about
# 3,800 transitions), or the six length-3 machines that whole-domain scans
# of permutations at n = 7 go through (1,275 transitions each, 7,650 in
# all): at 5,120 only four of them fit, and a scan that cycles through all
# six rebuilt about 1,060 transitions per round of them.  Brute-force
# counts over a hundred and more machines still rebuild most of theirs.
# The bound counts transitions only: target states are built on first use,
# so a brute-force count of a length-5 body at n = 7 builds about 1,250
# transitions but only about 190 states.
_AUTOMATA = _AutomatonCache(bound=8192)


def sigma_stack_output(w: Sequence[int], spec: MachineSpec,
                       trace: MachineTrace | None = None) -> Word:
    """Output of the Sigma-avoiding stack on ``w`` (the map s^Sigma).
    Letters are positive integers; a word with a letter below 1 raises
    ``ValueError``.  A ``trace`` gets the pop count of every push, the
    input and this output."""
    _check_letters(w)
    step = _AUTOMATA.get(spec.bodies).step
    sid = 0
    stack: tuple[int, ...] = ()
    out: list[int] = []
    counts = None if trace is None else trace.sigma_pops
    for x in w:
        pops, sid, _, _ = step(sid, stack, x)
        if pops:
            out.extend(stack[:pops])
        stack = (x,) + stack[pops:]
        if counts is not None:
            counts.append(pops)
    out.extend(stack)
    first = tuple(out)
    if trace is not None:
        trace.input = tuple(w)
        trace.first_output = first
    return first


def stack21_output(w: Sequence[int],
                   trace: MachineTrace | None = None) -> Word:
    """Classical 21-stack pass: equal letters may sit on each other.  A
    ``trace`` gets the pop count of every push and this output."""
    stack: list[int] = []
    out: list[int] = []
    # with a trace: the output length at each push
    marks: list[int] | None = None if trace is None else []
    for x in w:
        while stack and stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
        if marks is not None:
            marks.append(len(out))
    out.extend(reversed(stack))
    final = tuple(out)
    if trace is not None:
        trace.stack21_pops.extend(map(sub, marks, [0, *marks]))
        trace.final_output = final
    return final


def machine_run(w: Sequence[int], spec: MachineSpec,
                with_trace: bool = False) -> tuple[Word, MachineTrace | None]:
    """Run the full two-stack machine; returns (final output, trace)."""
    w = tuple(w)
    trace = MachineTrace(sigma=tuple(format_pattern(p) for p in spec.sigma)) \
        if with_trace else None
    final = stack21_output(sigma_stack_output(w, spec, trace), trace)
    if trace is not None:
        trace.sortable = all(map(le, final, final[1:]))
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


def is_sortable(w: Sequence[int], spec: MachineSpec) -> bool:
    """Sortable iff the first stack's output avoids 231."""
    return not _has_231(sigma_stack_output(w, spec))


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


def _extensions(d: Domain, n: int, prefix: tuple[int, int],
                used: Collection[int], state: tuple[int, int]
                ) -> Iterator[int]:
    """Legal next letters for a length-n word of domain ``d``.

    ``prefix`` is (length of the prefix, its last letter); ``used`` holds
    the letters read (only membership and the number of distinct letters
    are asked); ``state`` carries (current max, current ascent count).
    """
    k, last = prefix
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
        new_max = v if v > cur_max else cur_max
        missing = new_max - n_used - (v not in used)
        if missing > slots_left:
            continue
        if d is Domain.MODASC:
            if k == 0:
                if v != 1:
                    continue
            elif v > 1:
                leftmost = v not in used
                ascent_top = last < v
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
    return _descend(d, n, step, [], {}, state, (0, 0))


def _descend(d: Domain, n: int, step: Callable[[_S, int], _S | None] | None,
             prefix: list[int], used: dict[int, int], state: _S,
             shape: tuple[int, int]) -> Iterator[tuple[Word, _S]]:
    """The leaves of :func:`_walk` below ``prefix``."""
    if len(prefix) == n:
        yield tuple(prefix), state
        return
    leaf = len(prefix) == n - 1
    top, ascents = shape
    for v in _extensions(d, n, (len(prefix), prefix[-1] if prefix else 0),
                         used, shape):
        child = state
        if step is not None:
            child = step(state, v)
            if child is None:
                continue
        if leaf:
            yield (*prefix, v), child
            continue
        new_shape = (v if v > top else top,
                     ascents + 1 if prefix and prefix[-1] < v else ascents)
        prefix.append(v)
        used[v] = used.get(v, 0) + 1
        yield from _descend(d, n, step, prefix, used, child, new_shape)
        prefix.pop()
        if used[v] == 1:
            del used[v]
        else:
            used[v] -= 1


def iter_domain(d: Domain, n: int, max_n: int | None = None) -> Iterator[Word]:
    """All length-n words of the domain, in lexicographic order.

    Permutations come from ``itertools.permutations``, which yields the
    permutations of a sorted input in lexicographic order; the other
    domains take the prefix-tree walk."""
    _check_guard(d, n, max_n)
    if d is Domain.PERM:
        return permutations(range(1, n + 1))
    return (w for w, _ in _walk(d, n, None))


# ---------------------------------------------------------------------------
# Brute-force engines
#
# The first stack pops from the top, so the letters on it leave in top-down
# order after everything already emitted: "output so far + stack read
# top-down" (the drain, ``out + stack`` for a top-first stack) is a
# subsequence of the final output.  The walks that want a constrained
# output prune on the drain, not only on the emitted letters.
#
# A walk step is made per run by a factory from the automaton's ``step``:
# ``_output_step`` follows the first-stack map, ``_sortable_step`` also
# prunes the prefixes whose drain contains 231.  Both states are tuples
# with the stack first and the emitted letters last.  Two engines take
# them: ``_walk``, the prefix tree, for what lists inputs (sortable words,
# input and output pairs, preimages, and ``iter_domain`` off the perm
# domain), and ``_level_walk``, over distinct states, for the image, the
# sorted set and sortable counts, which counts the prefixes that merge
# into each state rather than visiting them one by one.

_OutputState = tuple[tuple[int, ...], int, Word]
_SortState = tuple[tuple[int, ...], int, _Detector, Word]
_AutomatonStep = Callable[[int, tuple[int, ...], int], _Transition]


def _output_step(push: _AutomatonStep
                 ) -> Callable[[_OutputState, int], _OutputState]:
    """The walk step of the first-stack map, on the state (stack,
    automaton state, emitted letters)."""

    def step(state: _OutputState, v: int) -> _OutputState:
        stack, sid, out = state
        pops, sid, _, _ = push(sid, stack, v)
        return (v,) + stack[pops:], sid, out + stack[:pops]

    return step


def _sortable_step(push: _AutomatonStep
                   ) -> Callable[[_SortState, int], _SortState | None]:
    """The walk step that keeps the prefixes whose drain avoids 231, on the
    state (stack, automaton state, 231 detector of the emitted letters,
    emitted letters).

    Pushing ``x`` pops the letters P and leaves the rest R of the stack
    under it, so the drain E.P.R of the parent (E the letters emitted
    before) becomes E.P.x.R.  The parent's drain avoids 231, so a new
    occurrence uses ``x``, as
    (a) the 1: ``x`` is below the detector's threshold once P is fed;
    (b) the 3: some letter of E.P lies strictly between min(R) and ``x``;
    (c) the 2: in R a letter above ``x`` sits above a letter below ``x``.
    Every full-length word it keeps is then sortable: its drain is its
    first-stack output.
    """

    def step(state: _SortState, v: int) -> _SortState | None:
        stack, sid, detector, out = state
        pops, sid, split, low = push(sid, stack, v)
        if split:                                           # (c)
            return None
        if pops:
            # E.P is a prefix of the parent's drain, so it avoids 231
            popped = stack[:pops]
            detector = _feed_231(detector, popped)
            assert detector is not None
            out += popped
        seen, threshold = detector
        if v < threshold:                                   # (a)
            return None
        stack = (v,) + stack[pops:]
        # stack[low] is min(R) when that lies below v, else v: an empty
        # interval
        i = bisect_right(seen, stack[low])
        if i < len(seen) and seen[i] < v:                   # (b)
            return None
        return stack, sid, detector, out

    return step


# the state of the empty prefix: empty stack, automaton state 0, a 231
# detector that has read nothing, and no emitted letters
_SORT_ROOT: _SortState = ((), 0, ((), 0), ())


def sortable_words(spec: MachineSpec, n: int,
                   max_n: int | None = None) -> list[Word]:
    """The sortable length-n words, in lexicographic order."""
    _check_guard(spec.domain, n, max_n)
    step = _sortable_step(_AUTOMATA.get(spec.bodies).step)
    return [w for w, _ in _walk(spec.domain, n, _SORT_ROOT, step)]


def machine_outputs(spec: MachineSpec, n: int,
                    max_n: int | None = None) -> Iterator[tuple[Word, Word]]:
    """Yield (input, first-stack output) over the whole domain at length n,
    sharing machine state across common prefixes."""
    _check_guard(spec.domain, n, max_n)
    step = _output_step(_AUTOMATA.get(spec.bodies).step)
    return ((w, out + stack)
            for w, (stack, _, out) in _walk(spec.domain, n, ((), 0, ()),
                                            step))


def fertility(w: Sequence[int], spec: MachineSpec,
              max_n: int | None = None) -> tuple[int, list[Word]]:
    """Number (and list, in lexicographic order) of preimages of ``w``
    under the first-stack map.

    The walk over the domain at the word's length carries the number k of
    letters of ``w`` emitted so far.  It prunes a subtree once the popped
    letters differ from the next letters of ``w``, or once the stack read
    top-down is no longer a subsequence of ``w[k:]``: the stack's letters
    leave in that order, after the letters already emitted.
    """
    w = tuple(w)
    _check_letters(w)
    _check_guard(spec.domain, len(w), max_n)
    push = _AUTOMATA.get(spec.bodies).step

    def step(state: tuple[tuple[int, ...], int, int], v: int
             ) -> tuple[tuple[int, ...], int, int] | None:
        stack, sid, k = state
        pops, sid, _, _ = push(sid, stack, v)
        end = k + pops
        if w[k:end] != stack[:pops]:
            return None
        stack = (v,) + stack[pops:]
        rest = islice(w, end, None)
        if not all(y in rest for y in stack):
            return None
        return stack, sid, end

    preimages = [src for src, _ in _walk(spec.domain, len(w), ((), 0, 0),
                                         step)]
    return len(preimages), preimages


# Sets and counts by distinct state
#
# What a prefix can still emit depends only on its letters emitted, its
# stack and what the domain rule reads of it: the letters read (the
# emitted ones and the stack's), their number and maximum, the last letter
# read (always the top of the stack) and, on ascent sequences, the ascent
# count.  The automaton state is a function of the stack.  So the prefixes
# that share (emitted letters, stack, ascent count) share their futures,
# and a walk that wants only the set of drains advances one dict of
# distinct states a letter at a time, one step call and one dict store per
# child.  The ascent count stays 0 off the ascent domains, where the rule
# does not read it.
#
# A count needs less, and walks fewer keys.  The future of a sortable
# prefix (which letters may follow, which children the sortable step
# keeps, and their states) depends only on its stack, from which the
# automaton state follows; its 231 detector, that is its emitted letters
# as a multiset (``seen``, which gives the domain rule the letters read and
# their number with the stack's) and the threshold; and, on ascent
# sequences, its ascent count.  The step reads the emitted letters only
# through the detector, and their order only to extend the drain, which a
# count never forms.  So the sortable prefixes that share (231 detector,
# stack, ascent count) have the same number of sortable completions, and
# a count walks those keys with a tally, the number of prefixes that
# reach each key: a child's tally is the sum of its parents'.  This is
# exact, not a bound.  The tally is a dict beside the level, made and
# written only for a count, so a set walk does not pay for it.  Unlike a
# memo on the depth-first walk, which lost to the plain walk at n = 7,
# the level walk makes no key objects of its own (the detector and the
# stack are tuples the step builds anyway) and has no recursion, no leaf
# tuples and no generator chain that every leaf resumes through.

# The levels grown below one frontier state.  Past n = 8 the first n - 8
# levels are merged in one dict, and each distinct state there then grows
# its own subtree, so memory holds the result, the frontier and the levels
# of one subtree, not the widest level of the whole walk.
_SUBTREE_LEVELS = 8

# a level's key: (emitted letters, or the 231 detector of a count; stack;
# ascent count)
_Key = tuple[object, tuple[int, ...], int]


def _next_letters(d: Domain, n: int, out: Word, stack: tuple[int, ...],
                  ascents: int) -> Iterable[tuple[int, Iterable[int]]]:
    """The letters that may follow a prefix that emitted ``out``, holds
    ``stack`` and has ``ascents`` ascents, in runs (ascent count after the
    letter, letters)."""
    used = set(out)
    used.update(stack)
    # the letter read last is the top of the stack
    last = stack[0] if stack else 0
    letters = _extensions(d, n, (len(out) + len(stack), last),
                          used, (max(used, default=0), ascents))
    if d not in (Domain.ASC, Domain.MODASC) or not stack:
        return (ascents, letters),
    letters = list(letters)
    return ((ascents, [v for v in letters if v <= last]),
            (ascents + 1, [v for v in letters if v > last]))


def _grow(d: Domain, n: int, step: Callable[[_S, int], _S | None],
          level: dict[_Key, _S], tally: dict[_Key, int] | None,
          start: int, stop: int
          ) -> tuple[dict[_Key, _S], dict[_Key, int] | None]:
    """Advance ``level``, the distinct states of the prefixes of length
    ``start``, to those of length ``stop``, with ``tally``, the number of
    prefixes per key, if it is not None.  A state is keyed by its emitted
    letters, or by its 231 detector when tallied (see above), with its
    stack and its ascent count.  Each level is emptied while the next one
    grows, so that a state is freed once its children are stored."""
    # on perm the letters left are the ones not read, in one set difference
    letters = frozenset(range(1, n + 1)) if d is Domain.PERM else None
    for _ in range(start, stop):
        grown: dict[_Key, _S] = {}
        counts: dict[_Key, int] | None = None if tally is None else {}
        while level:
            key, state = level.popitem()
            if counts is not None:
                m = tally.pop(key)
            # the emitted letters of one prefix of the key: a tallied key
            # fixes them up to order, which the domain rule does not read
            stack, out = state[0], state[-1]
            runs = (((0, letters.difference(out, stack)),)
                    if letters is not None
                    else _next_letters(d, n, out, stack, key[2]))
            if counts is None:
                for after, run in runs:
                    for v in run:
                        child = step(state, v)
                        if child is not None:
                            grown[child[-1], child[0], after] = child
                continue
            # the tallied loop apart, so that a set walk pays nothing for
            # it; child[2] is the 231 detector of a ``_SortState``
            for after, run in runs:
                for v in run:
                    child = step(state, v)
                    if child is not None:
                        key = child[2], child[0], after
                        grown[key] = child
                        counts[key] = counts.get(key, 0) + m
        level, tally = grown, counts
    return level, tally


def _level_walk(spec: MachineSpec, n: int, root: _S,
                make_step: Callable[[_AutomatonStep],
                                    Callable[[_S, int], _S | None]],
                counted: bool = False
                ) -> Iterator[tuple[dict[_Key, _S], dict[_Key, int] | None]]:
    """The states of the length-n words of the machine's domain that the
    step built by ``make_step`` keeps, one per distinct key, in one dict
    per subtree; ``counted`` keys them by 231 detector and yields each
    dict with its tally, else with None."""
    d, step = spec.domain, make_step(_AUTOMATA.get(spec.bodies).step)
    cut = max(n - _SUBTREE_LEVELS, 0)
    # the root shares its key with no other state, so any key serves
    key = ((), (), 0)
    frontier, tally = _grow(d, n, step, {key: root},
                            {key: 1} if counted else None, 0, cut)
    for key, state in frontier.items():
        yield _grow(d, n, step, {key: state},
                    None if tally is None else {key: tally[key]}, cut, n)


def sortable_count(spec: MachineSpec, n: int,
                   max_n: int | None = None) -> int:
    """Number of sortable length-n words of the machine's domain, counted
    over the distinct states of their prefixes."""
    _check_guard(spec.domain, n, max_n)
    walk = _level_walk(spec, n, _SORT_ROOT, _sortable_step, counted=True)
    return sum(sum(tally.values()) for _, tally in walk)


def image_set(spec: MachineSpec, n: int, sorted_only: bool = False,
              max_n: int | None = None) -> set[Word]:
    """Image of the first-stack map on the length-n domain; with
    ``sorted_only`` intersect with the 231-avoiding words (the sorted set).

    Both walk the distinct states of the domain's prefixes; the sorted set
    takes the sortable step, which prunes on the drain.
    """
    _check_guard(spec.domain, n, max_n)
    walk = (_level_walk(spec, n, _SORT_ROOT, _sortable_step) if sorted_only
            else _level_walk(spec, n, ((), 0, ()), _output_step))
    return {state[-1] + state[0]
            for states, _ in walk for state in states.values()}


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


def encode_labeled_path(w: Sequence[int], spec: MachineSpec) -> LabeledDyckPath:
    """The labeled Dyck path of a Sigma-stack run: an up step labeled ``a``
    per push, a down step labeled ``a`` per pop.  Up labels read the input,
    down labels read the first-stack output."""
    trace = MachineTrace()
    out = sigma_stack_output(w, spec, trace)
    steps, labels = _stack_ops(trace.input, out, trace.sigma_pops)
    return LabeledDyckPath(tuple(steps), tuple(labels))
