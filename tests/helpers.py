"""Test helpers shared by several test modules: random domain words, a
naive containment check, a naive two-stack run that logs every push and
pop, naive references for delta, its inverse, beta and the two structural
pair oracles, the machines whose closed-form oracle is checked against
brute force, malformed words and pattern texts, and an in-process CLI
runner."""

import inspect
import itertools
import random

from click.testing import CliRunner
from hypothesis import strategies as st

from pamsort.bijections import StoreMode
from pamsort.cli import main
from pamsort.patterns import (NAMED, classical, contains, contains_classical,
                              occurrences_of)
from pamsort.words_core import (Domain, Which, ltr_decompose, modify,
                                standardize)


# Malformed words: empty comma fields, a letter that is no digit, and
# fields that int() would read but that are not ASCII decimal digits.
MALFORMED_WORDS = ("1,2,,3", ",1,2", "1,2,", "1x23", "1_0 2", "+3 1",
                   "\u0663\u0661")

# Malformed text inside a headed pattern, in its body or its integer sets:
# each is a parse error, as a bare malformed word is.
MALFORMED_HEADED = ("bv(132;S={a};T={})", "barred(132;pos={x})",
                    "mesh(1x2;(0,1))", "cmesh(1x;(0,gap:1))", "mesh(0;(0,1))")


def run_cli(*args):
    """Run ``pamsort`` in process; the result keeps stdout and stderr
    apart."""
    if "mix_stderr" in inspect.signature(CliRunner.__init__).parameters:
        return CliRunner(mix_stderr=False).invoke(main, args)
    return CliRunner().invoke(main, args)


def perm_word(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random permutation of 1..n, in one of three shapes with equal
    shares: free, decreasing with up to three adjacent swaps, or a skew
    sum of increasing runs.  Free long permutations are seldom sortable
    by the machines whose sortable sets lie near the decreasing word."""
    if n <= 1:
        return tuple(range(1, n + 1))   # the one permutation: no swap, no cut
    shape = rng.randrange(3)
    if shape == 0:
        return tuple(rng.sample(range(1, n + 1), n))
    if shape == 1:
        w = list(range(n, 0, -1))
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(n - 1)
            w[i], w[i + 1] = w[i + 1], w[i]
        return tuple(w)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    w = []
    top = n
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        top -= hi - lo
        w.extend(range(top + 1, top + hi - lo + 1))
    return tuple(w)


def naive_contains(seq, body):
    """Brute force: some subsequence of ``seq`` is order-isomorphic to
    ``body``."""
    return any(all((a < b) == (p < q) and (a == b) == (p == q)
                   for (a, p), (b, q) in itertools.combinations(
                       zip(sub, body), 2))
               for sub in itertools.combinations(seq, len(body)))


def naive_trace(w, bodies):
    """Every push and pop of the two-stack machine on ``w``, logged as
    (stack, op, value) in the order they happen, stack 1 first, with the
    first and the final output.  The first stack pops while the stack read
    top to bottom, with the incoming letter on top, would contain a body;
    the second pops while its top is below the incoming letter; each
    drains when its input is read."""
    steps = []

    def run(number, word, must_pop):
        stack, out = [], []
        for x in word:
            while stack and must_pop(stack, x):
                out.append(stack.pop())
                steps.append((number, "pop", out[-1]))
            stack.append(x)
            steps.append((number, "push", x))
        while stack:
            out.append(stack.pop())
            steps.append((number, "pop", out[-1]))
        return tuple(out)

    first = run(1, w, lambda stack, x: any(
        naive_contains([x] + stack[::-1], b) for b in bodies))
    final = run(2, first, lambda stack, x: stack[-1] < x)
    return steps, first, final


def naive_delta(R):
    """delta on a 12231-avoiding RGF by its definition: swap the first two
    letters of the lexicographically last occurrence of 321 until none is
    left, listing the occurrences anew after every swap."""
    w = list(R)
    while True:
        occs = occurrences_of(w, classical((3, 2, 1)))
        if not occs:
            return tuple(w)
        i1, i2, _ = max(occs)
        w[i1], w[i2] = w[i2], w[i1]


def naive_delta_inverse(R):
    """The inverse of delta on a 12321-avoiding RGF by its definition: swap
    the first two letters of the first occurrence of 231 whose first letter
    repeats an earlier one, until none is left."""
    w = list(R)
    while True:
        occs = [occ for occ in occurrences_of(w, classical((2, 3, 1)))
                if w.index(w[occ[0]]) < occ[0]]
        if not occs:
            return tuple(w)
        i1, i2, _ = occs[0]
        w[i1], w[i2] = w[i2], w[i1]


def naive_beta_motzkin(steps, mode):
    """beta by its definition, with a list as the store and the maximum of
    the RGF so far taken anew at every U and H0 step: decode the labeled
    Motzkin path ``steps`` into an RGF, reading the store as a stack for
    ``StoreMode.STACK`` and as a queue otherwise."""
    end = -1 if mode is StoreMode.STACK else 0
    R = [1]
    store = []
    for s in steps:
        if s == "U":
            v = max(R) + 1
            R.append(v)
            store.append(v)
        elif s == "D":
            R.append(store.pop(end))
        elif s == "H0":
            R.append(max(R) + 1)
        elif s == "H1":
            R.append(1)
        else:  # H2
            R.append(store[end])
    return tuple(R)


def _blocks_above_next(blocks):
    """Every element of B_i greater than every element of B_{i+1}."""
    for a, b in zip(blocks, blocks[1:]):
        if a and b and min(a) <= max(b):
            return False
    return True


def naive_sortable_123_132(w):
    """Sort(123, 132) on a permutation, read from its decomposition
    m_1 B_1 m_2 B_2 ... by ltr minima block by block, as the
    characterization states it."""
    if not w:
        return True
    dec = ltr_decompose(w, Which.MIN)
    m, B = dec.pivots, dec.blocks
    if not _blocks_above_next(B):
        return False
    # blocks from the third on sit strictly below the previous minimum
    for i in range(2, len(B)):
        if B[i] and max(B[i]) >= m[i - 1]:
            return False
    B1 = B[0]
    if any(B1[i] > B1[i + 1] for i in range(len(B1) - 1)):
        return False
    if len(m) >= 2:
        head = (m[0], m[1]) + B[1]
        if contains(head, NAMED["xi"]):
            return False
        if contains_classical(head[1:], (2, 1, 3)):
            return False
    if len(m) >= 3:
        tail = []
        for i in range(2, len(m)):
            tail.append(m[i])
            tail.extend(B[i])
        if contains_classical(tail, (2, 1, 3)):
            return False
    return True


def naive_sortable_123_312(w):
    """Sort(123, 312) on a permutation, read from its decomposition
    M_1 B_1 M_2 B_2 ... by ltr maxima block by block, as the
    characterization states it."""
    if not w:
        return True
    n = len(w)
    dec = ltr_decompose(w, Which.MAX)
    M, B = dec.pivots, dec.blocks
    t = len(M)
    if any(M[j] != n - t + j + 1 for j in range(t)):
        return False
    if any(contains_classical(b, (2, 1, 3)) for b in B):
        return False
    # no 2-31 in the output and no 2-3-1 across three blocks: no letter of
    # B_i lies strictly between min(B_k) and max(B_j), for i < j <= k
    for i in range(t):
        hi = 0  # the largest letter of B_{i+1} .. B_k
        for k in range(i + 1, t):
            if not B[k]:
                continue
            hi = max(hi, max(B[k]))
            lo = min(B[k])
            if any(lo < x < hi for x in B[i]):
                return False
    return True


@st.composite
def domain_words(draw, d, min_len=8, max_len=16):
    """A random word of domain ``d``: a permutation from
    :func:`perm_word`, or a word built letter by letter."""
    n = draw(st.integers(min_len, max_len))
    if d is Domain.PERM:
        return perm_word(draw(st.randoms(use_true_random=False)), n)
    if d is Domain.CAYLEY:
        return standardize(draw(st.lists(st.integers(1, n), min_size=n,
                                         max_size=n)))
    w = []
    for _ in range(n):
        if d is Domain.RGF:
            hi = max(w, default=0) + 1
        else:
            hi = 1 if not w else 2 + sum(a < b for a, b in zip(w, w[1:]))
        w.append(draw(st.integers(1, hi)))
    return modify(tuple(w)) if d is Domain.MODASC else tuple(w)


# (domain, sigma bodies, largest n checked over the whole domain): one
# machine per dispatch rule of the oracles.
ORACLE_CASES = [
    (Domain.PERM, [(1, 2)], 8), (Domain.PERM, [(2, 1)], 8),
    (Domain.PERM, [(1, 2, 3)], 8), (Domain.PERM, [(1, 3, 2)], 8),
    (Domain.PERM, [(3, 2, 1)], 8),           # generic basis {132, R}
    (Domain.PERM, [(3, 1, 4, 2)], 8),        # generic basis {132}
    (Domain.PERM, [(1, 2, 3), (1, 3, 2)], 8),
    (Domain.PERM, [(1, 2, 3), (3, 1, 2)], 8),
    (Domain.PERM, [(1, 3, 2), (2, 3, 1)], 8),
    (Domain.PERM, [(1, 3, 2), (3, 2, 1)], 8),
    (Domain.PERM, [(1, 2, 3), (3, 2, 1)], 8),
    (Domain.CAYLEY, [(1, 2)], 7), (Domain.CAYLEY, [(2, 1)], 7),
    (Domain.CAYLEY, [(3, 2, 1)], 7),
    (Domain.ASC, [(1, 1)], 8), (Domain.ASC, [(1, 2)], 8),
    (Domain.ASC, [(1, 2, 1)], 8), (Domain.ASC, [(1, 2, 3)], 8),
    (Domain.ASC, [(1, 2, 3, 4)], 8),
    (Domain.MODASC, [(1, 1)], 8), (Domain.MODASC, [(1, 2)], 8),
    (Domain.MODASC, [(1, 2, 1)], 8), (Domain.MODASC, [(1, 2, 3)], 8),
    (Domain.MODASC, [(1, 2, 2)], 8),
    (Domain.MODASC, [(1, 2, 2, 1)], 8),
]
