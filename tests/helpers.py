"""Test helpers shared by several test modules: random domain words and
the machines whose closed-form oracle is checked against brute force."""

from hypothesis import strategies as st

from pamsort.words_core import Domain, modify, standardize


@st.composite
def domain_words(draw, d, min_len=8, max_len=16):
    """A random word of domain ``d``, built letter by letter."""
    n = draw(st.integers(min_len, max_len))
    if d is Domain.PERM:
        return tuple(draw(st.permutations(range(1, n + 1))))
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
