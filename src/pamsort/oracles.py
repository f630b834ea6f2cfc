"""Closed-form sortability oracles, class/non-class classification and
machine dynamics predicates.

Each machine with a known characterization gets a constant- or
polynomial-time membership test for its sortable set; everything the
theory leaves open signals :class:`FallbackRequired` so callers can drop
to the brute-force engine.

>>> from .machine import MachineSpec
>>> from .patterns import classical
>>> spec = MachineSpec((classical((1, 3, 2)),))
>>> oracle_is_sortable((2, 4, 1, 3), spec)
True
>>> classify((3, 2, 1), Domain.PERM).is_class
True
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from .machine import MachineSpec, image_set, is_sortable, iter_domain
from .patterns import (NAMED, Pattern, barred, classical, contains,
                       contains_classical, format_pattern)
from .words_core import (Domain, Which, Word, combine,
                         decreasing, is_member, ltr_decompose, reverse,
                         standardize, SumMode)


class FallbackRequired(Exception):
    """No closed-form oracle is known for this machine (open case)."""


class UnsupportedError(ValueError):
    """Unsupported domain/pattern combination for classification."""


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# hat

def hat(sigma: Sequence[int]) -> Word:
    """sigma with its first two letters interchanged."""
    s = tuple(sigma)
    if len(s) < 2:
        raise ValueError("hat requires length >= 2")
    return (s[1], s[0]) + s[2:]


def _hat_ge_231(sigma: Word) -> bool:
    return contains_classical(hat(sigma), (2, 3, 1))


def _cayley_direct_sum(x: Word, y: Word) -> Word:
    """Direct sum on Cayley words: y is shifted above max(x)."""
    shift = max(x) if x else 0
    return x + tuple(v + shift for v in y)


# ---------------------------------------------------------------------------
# The 123-machine oracle

def sortable_123(w: Sequence[int]) -> bool:
    """Membership test for the 123-sortable permutations."""
    w = standardize(w)
    # deflate the leading run of consecutive ascents
    while len(w) >= 2 and w[1] == w[0] + 1:
        w = standardize(w[1:])
    if len(w) <= 1:
        return True
    if w[0] < w[1]:
        return False
    # peel maxima: each maximum must sit immediately after its anchor
    while True:
        n = len(w)
        if w[0] == n:
            return not contains_classical(w, (2, 1, 3))
        pos = w.index(n)
        anchor = n - 1 if w[0] != n - 1 else n - 2
        if w[pos - 1] != anchor:
            return False
        w = w[:pos] + w[pos + 1:]


# ---------------------------------------------------------------------------
# Pair oracles

def _blocks_above_next(blocks: Sequence[Word]) -> bool:
    """Every element of B_i greater than every element of B_{i+1}."""
    for a, b in zip(blocks, blocks[1:]):
        if a and b and min(a) <= max(b):
            return False
    return True


def _sortable_123_132(w: Word) -> bool:
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
        tail: list[int] = []
        for i in range(2, len(m)):
            tail.append(m[i])
            tail.extend(B[i])
        if contains_classical(tail, (2, 1, 3)):
            return False
    return True


def _sortable_123_312(w: Word) -> bool:
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
    # no 2-31 in the output: every later block is bounded between two
    # earlier elements (no earlier element splits its values)
    for i in range(t):
        for j in range(i + 1, t):
            if not B[j]:
                continue
            lo, hi = min(B[j]), max(B[j])
            if any(lo < x < hi for x in B[i]):
                return False
    # no 2-3-1 across three distinct blocks
    for i in range(t):
        for j in range(i + 1, t):
            if not B[j]:
                continue
            hi = max(B[j])
            for k2 in range(j + 1, t):
                if not B[k2]:
                    continue
                lo = min(B[k2])
                if any(lo < x < hi for x in B[i]):
                    return False
    return True


# ---------------------------------------------------------------------------
# Oracle dispatch

_BARRED_21 = barred((3, 5, 2, 4, 1), bars=(2,))


def _avoider(*ps: Pattern) -> Callable[[Word], bool]:
    return lambda w: not any(contains(w, p) for p in ps)


def _basis_132_R(sigma: Word) -> tuple[Pattern, ...]:
    """Basis {132, R(sigma)}, collapsed to {132} when R(sigma) >= 132."""
    r = reverse(sigma)
    if contains_classical(r, (1, 3, 2)):
        return (classical((1, 3, 2)),)
    return (classical((1, 3, 2)), classical(r))


def oracle_for(spec: MachineSpec) -> Callable[[Word], bool]:
    """Closed-form sortability predicate for the machine, if one is known.

    Raises :class:`FallbackRequired` for the open cases.
    """
    d = spec.domain
    bodies = tuple(sorted(spec.bodies))
    single = spec.bodies[0] if len(spec.bodies) == 1 else None

    if d is Domain.PERM:
        if single is not None:
            if single == (1, 2):
                return _avoider(classical((2, 1, 3)))
            if single == (2, 1):
                return _avoider(classical((2, 3, 4, 1)), _BARRED_21)
            if single == (1, 2, 3):
                return sortable_123
            if single == (1, 3, 2):
                return _avoider(classical((2, 3, 1, 4)), NAMED["mu"])
            if _hat_ge_231(single):
                return _avoider(*_basis_132_R(single))
            raise FallbackRequired(f"open case: sigma={single} on perms")
        if len(bodies) == 2:
            pair_table = {
                ((1, 2, 3), (1, 3, 2)): _sortable_123_132,
                ((1, 2, 3), (3, 1, 2)): _sortable_123_312,
                ((1, 3, 2), (2, 3, 1)):
                    _avoider(classical((1, 3, 2, 4)), classical((2, 3, 1, 4))),
                ((1, 3, 2), (3, 2, 1)):
                    _avoider(NAMED["mu"], classical((1, 2, 3))),
            }
            if bodies in pair_table:
                return pair_table[bodies]
            if bodies == ((1, 2, 3), (3, 2, 1)):
                return lambda w: (sortable_123(w)
                                  and not contains_classical(w, (1, 2, 3)))
            raise FallbackRequired(f"open case: pair {bodies} on perms")
        raise FallbackRequired(f"no oracle for pattern set {bodies}")

    if single is None:
        raise FallbackRequired(f"no oracle for pattern set {bodies} on {d.value}")

    if d is Domain.CAYLEY:
        if single == (1, 2):
            return _avoider(classical((2, 1, 3)))
        if single == (2, 1):
            return _avoider(classical((2, 3, 4, 1)), NAMED["zeta"])
        if len(single) >= 3 and _hat_ge_231(single):
            return _avoider(*_basis_132_R(single))
        raise FallbackRequired(f"open case: sigma={single} on Cayley words")

    if d in (Domain.ASC, Domain.MODASC):
        if single == (1, 1):
            return _avoider(classical((1, 2, 1, 3)), classical((1, 2, 2, 3)))
        if single in ((1, 2), (1, 2, 1)):
            return _avoider(classical((2, 1, 3)))
        if contains_classical(single, (1, 2, 3)):
            return _avoider(classical((1, 3, 2)))
        if (d is Domain.MODASC and len(single) >= 3
                and standardize(single[:3]) == (1, 2, 2)):
            extra = _cayley_direct_sum(reverse(single), (1,))
            return _avoider(classical((1, 3, 2)), classical(extra))
        raise FallbackRequired(f"open case: sigma={single} on {d.value}")

    raise FallbackRequired(f"no oracle for domain {d.value}")


def oracle_is_sortable(w: Sequence[int], spec: MachineSpec) -> bool:
    """Closed-form sortability; raises FallbackRequired on open cases."""
    return oracle_for(spec)(tuple(w))


# ---------------------------------------------------------------------------
# Classification

@dataclass(frozen=True)
class Classification:
    sigma: Word
    domain: Domain
    is_class: bool
    basis: tuple[Pattern, ...] | None = None
    witness: tuple[Word, Pattern] | None = None

    def describe(self) -> str:
        if self.is_class:
            assert self.basis is not None
            names = ", ".join(format_pattern(p) for p in self.basis)
            return f"class with basis {{{names}}}"
        assert self.witness is not None
        w, p = self.witness
        from .words_core import format_word
        return (f"not a class: sortable {format_word(w)} contains "
                f"non-sortable {format_pattern(p)}")


def verify_witness(c: Classification) -> bool:
    """Mechanical check of a non-class witness: the word is sortable, it
    contains the pattern, and the pattern itself is not sortable."""
    if c.is_class or c.witness is None:
        return False
    w, p = c.witness
    spec = MachineSpec((classical(c.sigma),), c.domain)
    return (is_sortable(w, spec) and contains(w, p)
            and not is_sortable(p.body, spec))


_PERM_WITNESS_3 = {
    (1, 2, 3): ((4, 1, 3, 2), (1, 3, 2)),
    (1, 3, 2): ((2, 4, 1, 3), (1, 3, 2)),
    (2, 1, 3): ((4, 1, 3, 2), (1, 3, 2)),
    (2, 3, 1): ((3, 6, 1, 4, 2, 5), (1, 3, 2, 4)),
    (3, 1, 2): ((3, 1, 4, 2), (1, 3, 2)),
}


def _perm_nonclass_witness(sigma: Word) -> tuple[Word, Word]:
    """Sortable word containing the non-sortable pattern 132, for a
    permutation sigma of length >= 4 whose hat avoids 231."""
    k = len(sigma)
    if sigma[0] < sigma[1]:
        z = sigma[0]
        sp = tuple(v if v < sigma[0] else v + 1 for v in sigma)
        alpha = tuple(reversed(sp[2:])) + (z, sp[1], sp[0])
    else:
        z = sigma[1] + 1
        sp = tuple(v if v <= sigma[1] else v + 1 for v in sigma)
        alpha = tuple(reversed(sp[1:])) + (sp[0], z)
    return alpha, (1, 3, 2)


def _cayley_nonclass_witness(sigma: Word) -> tuple[Word, Word]:
    if sigma == (2, 1):
        return (3, 4, 2, 4, 1), (3, 2, 4, 1)
    if sigma[0] < min(sigma[1:], default=sigma[0] + 1):
        sp = tuple(v + 1 for v in sigma)
        beta = tuple(reversed(sp[2:])) + (1, sp[1], sp[0])
    else:
        sp = tuple(v + 2 for v in sigma)
        beta = tuple(reversed(sp[1:])) + (1, sp[0], 2)
    return beta, (1, 3, 2)


def _asc_nonclass_witness(sigma: Word) -> tuple[Word, Word]:
    k = len(sigma)
    if max(sigma) == 1:
        alpha = (1,) * (k - 1) + (2, 3, 1, 2)
    elif sigma[-1] == 1:
        alpha = tuple(reversed(sigma[1:])) + (3, sigma[0], 2)
    else:
        alpha = (1,) + tuple(reversed(sigma[1:])) + (3, sigma[0], 2)
    return alpha, (1, 2, 3, 2)


def _modasc_nonclass_witness(sigma: Word) -> tuple[Word, Word]:
    m = max(sigma)
    if sigma[1] == 1:
        alpha = tuple(reversed(sigma[1:])) + (m + 2, sigma[0], m + 1)
    else:
        alpha = tuple(reversed(sigma[2:])) + (m + 1, sigma[0], sigma[1])
    if sigma[-1] > 1:
        alpha = (1,) + alpha
    return alpha, (1, 3, 1, 2)


def _search_witness(sigma: Word, domain: Domain,
                    max_len: int = 7) -> tuple[Word, Pattern] | None:
    """Brute-force search for a non-class witness: a sortable word that
    contains a non-sortable in-domain pattern."""
    spec = MachineSpec((classical(sigma),), domain)
    bad: dict[Word, bool] = {}  # standardized pattern -> is sortable

    def pattern_ok(p: Word) -> bool:
        if p not in bad:
            bad[p] = is_sortable(p, spec)
        return bad[p]

    for n in range(len(sigma) + 1, max_len + 1):
        for w in iter_domain(domain, n):
            if not is_sortable(w, spec):
                continue
            seen: set[Word] = set()
            for r in range(2, n):
                for idx in itertools.combinations(range(n), r):
                    p = standardize(tuple(w[i] for i in idx))
                    if p in seen:
                        continue
                    seen.add(p)
                    if is_member(p, domain) and not pattern_ok(p):
                        return w, classical(p)
    return None


def _finish_nonclass(sigma: Word, domain: Domain,
                     word: Word, pat: Word) -> Classification:
    c = Classification(sigma, domain, False,
                       witness=(word, classical(pat)))
    if verify_witness(c):
        return c
    found = _search_witness(sigma, domain)
    if found is None:
        raise UnsupportedError(
            f"no verifiable non-class witness found for {sigma} on "
            f"{domain.value}")
    return Classification(sigma, domain, False, witness=found)


def classify(sigma: Sequence[int], domain: Domain = Domain.PERM) -> Classification:
    """Is Sort(sigma) a pattern class in the given domain?  Returns the
    basis for classes and a mechanical witness for non-classes."""
    s = tuple(sigma)
    if len(s) < 2:
        raise ValueError("classify requires a pattern of length >= 2")
    if not is_member(s, {Domain.PERM: Domain.PERM,
                         Domain.CAYLEY: Domain.CAYLEY,
                         Domain.RGF: Domain.RGF,
                         Domain.ASC: Domain.ASC,
                         Domain.MODASC: Domain.MODASC}[domain]):
        raise ValueError(f"{s} is not a valid {domain.value} pattern")

    if domain is Domain.PERM:
        if s == (1, 2):
            return Classification(s, domain, True, (classical((2, 1, 3)),))
        if s == (2, 1):
            return Classification(
                s, domain, True, (classical((2, 3, 4, 1)), _BARRED_21))
        if _hat_ge_231(s):
            return Classification(s, domain, True, _basis_132_R(s))
        if s in _PERM_WITNESS_3:
            w, p = _PERM_WITNESS_3[s]
            return _finish_nonclass(s, domain, w, p)
        w, p = _perm_nonclass_witness(s)
        return _finish_nonclass(s, domain, w, p)

    if domain is Domain.CAYLEY:
        if s == (1, 2):
            return Classification(s, domain, True, (classical((2, 1, 3)),))
        if len(s) >= 3 and _hat_ge_231(s):
            return Classification(s, domain, True, _basis_132_R(s))
        w, p = _cayley_nonclass_witness(s)
        return _finish_nonclass(s, domain, w, p)

    if domain is Domain.ASC:
        if s == (1, 1):
            return Classification(s, domain, True,
                                  (classical((1, 2, 1, 3)),
                                   classical((1, 2, 2, 3))))
        if s in ((1, 2), (1, 2, 1)):
            return Classification(s, domain, True, (classical((2, 1, 3)),))
        if contains_classical(s, (1, 2, 3)):
            return Classification(s, domain, True, (classical((1, 3, 2)),))
        w, p = _asc_nonclass_witness(s)
        return _finish_nonclass(s, domain, w, p)

    if domain is Domain.MODASC:
        if s == (1, 1):
            return Classification(s, domain, True,
                                  (classical((1, 2, 1, 3)),
                                   classical((1, 2, 2, 3))))
        if s in ((1, 2), (1, 2, 1)):
            return Classification(s, domain, True, (classical((2, 1, 3)),))
        if contains_classical(s, (1, 2, 3)):
            return Classification(s, domain, True, (classical((1, 3, 2)),))
        if len(s) >= 3 and standardize(s[:3]) == (1, 2, 2):
            extra = _cayley_direct_sum(reverse(s), (1,))
            return Classification(s, domain, True,
                                  (classical((1, 3, 2)), classical(extra)))
        if len(s) >= 4:
            w, p = _modasc_nonclass_witness(s)
            return _finish_nonclass(s, domain, w, p)
        found = _search_witness(s, domain)
        if found is None:
            raise UnsupportedError(f"no witness found for {s} on modasc")
        return Classification(s, domain, False, witness=found)

    raise UnsupportedError(f"classification is not defined on {domain.value}")


# ---------------------------------------------------------------------------
# Dynamics predicates

def is_effective(sigma: Sequence[int]) -> bool:
    """sigma is effective iff hat(sigma) is NOT of the form 1 (+) alpha
    with alpha avoiding 231 (then sorted(sigma) = Av(231, sigma))."""
    h = hat(sigma)
    return not (h[0] == 1 and not contains_classical(h[1:], (2, 3, 1)))


def is_injective(sigma: Sequence[int]) -> bool | None:
    """True when guaranteed injective on its sortable set (hat >= 231);
    None when unknown."""
    return True if _hat_ge_231(tuple(sigma)) else None


def is_fully_bijective_cayley(sigma: Sequence[int]) -> bool:
    """The sigma-stack map is a bijection on all Cayley words iff the
    first two letters of sigma are equal."""
    s = tuple(sigma)
    if len(s) < 2:
        raise ValueError("requires length >= 2")
    return s[0] == s[1]


# ---------------------------------------------------------------------------
# Sorted permutations and fertility of the 123-machine

def _family_member_123(h: int, k: int, t: int) -> Word:
    """The word D_h (-) (D_{k-1} (+) D_{t+1}) of length h + k + t."""
    inner = combine(decreasing(k - 1), decreasing(t + 1), SumMode.DIRECT) \
        if k - 1 > 0 else decreasing(t + 1)
    if h == 0:
        return inner
    return combine(decreasing(h), inner, SumMode.SKEW)


def sorted_set_123(n: int) -> set[Word]:
    """The image of the 123-stack map intersected with Av(231)."""
    if n < 1:
        return {()} if n == 0 else set()
    out: set[Word] = {decreasing(n)}
    for k in range(2, n + 1):
        for h in range(n - k + 1):
            t = n - k - h
            out.add(_family_member_123(h, k, t))
    return out


def fertility_123(gamma: Sequence[int]) -> int:
    """Number of preimages of gamma under the 123-stack map."""
    g = tuple(gamma)
    n = len(g)
    if n == 0:
        return 1
    if g == decreasing(n):
        return 1
    for k in range(2, n + 1):
        for h in range(n - k + 1):
            t = n - k - h
            if _family_member_123(h, k, t) == g:
                return _catalan(k - 1)
    return 0


# ---------------------------------------------------------------------------
# sorted sets in general (brute, for the open rows)

def sorted_set(sigma: Sequence[int], n: int, domain: Domain = Domain.PERM,
               max_n: int | None = None) -> set[Word]:
    """sorted(sigma) at length n: image of the sigma-stack map intersected
    with the 231-avoiding words (brute force)."""
    spec = MachineSpec((classical(tuple(sigma)),), domain)
    return image_set(spec, n, sorted_only=True, max_n=max_n)
