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

from dataclasses import dataclass
from functools import lru_cache
from operator import neg
from typing import Callable, Sequence

from .machine import MachineSpec, image_set, is_sortable
from .paths_trees import catalan
from .patterns import (_MESH_3241, _NO_BOUND, NAMED, Pattern, PatternKind,
                       _has_123, _has_231, _has_xi, _resolve, classical,
                       contains, contains_classical, format_pattern)
from .words_core import (Domain, Word, decreasing, direct_sum, format_word,
                         is_member, reverse, skew_sum, standardize)


class FallbackRequired(Exception):
    """No closed-form oracle is known for this machine (open case)."""


class UnsupportedError(ValueError):
    """Unsupported domain/pattern combination for classification."""


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


# ---------------------------------------------------------------------------
# The 123-machine oracle

def sortable_123(w: Sequence[int]) -> bool:
    """Membership test for the 123-sortable permutations, on words of
    distinct letters (``ValueError`` on a repeated letter)."""
    w = tuple(w)
    if len(set(w)) != len(w):
        raise ValueError(f"sortable_123 takes distinct letters: {w}")
    if max(w, default=0) != len(w) or min(w, default=1) < 1:
        w = standardize(w)
    return _sortable_123_perm(w)


def _sortable_123_perm(w: Word) -> bool:
    """Sort(123) on a permutation, unchecked: every maximum peeled by
    :func:`_sort123_parts` is anchored and the rest avoids 213."""
    parts = _sort123_parts(w)
    return parts is not None and not _has_231(map(neg, parts[2]))


def _sort123_parts(w: Word) -> tuple[int, int, Word] | None:
    """The parts of the permutation ``w`` that Sort(123) is read from:
    the length r of its leading run of consecutive ascents, the number s
    of anchored maxima peeled off the rest, and rho, the letters after the
    leading maximum that is left; None when a maximum is not anchored."""
    r = 0
    while r + 1 < len(w) and w[r + 1] == w[r] + 1:
        r += 1
    if r + 1 >= len(w):
        return r, 0, ()
    beta = standardize(w[r:]) if r else w
    if beta[0] < beta[1]:   # beta[1] can never be peeled, so n never leads
        return None
    # peel the maximum n while it sits right after its anchor, n-1 or (when
    # beta starts with n-1) n-2: the inverse step of bijections.phi_add_max
    n = len(beta)
    while beta[0] != n:
        pos = beta.index(n)
        if beta[pos - 1] != (n - 1 if beta[0] != n - 1 else n - 2):
            return None
        beta = beta[:pos] + beta[pos + 1:]
        n -= 1
    return r, len(w) - r - n, beta[1:]


# ---------------------------------------------------------------------------
# Pair oracles, one pass each over a permutation, unchecked
#
# Write w = m_1 B_1 m_2 B_2 ... m_t B_t, where m_1, ..., m_t are the ltr
# minima (or the ltr maxima) of w and the block B_i is the letters
# between m_i and m_{i+1}.

def _sortable_123_132(w: Word) -> bool:
    """Sort(123, 132), by the ltr minima: B_1 increases and lies above
    B_2; B_2 has no descent above m_1 and avoids 213; and the letters from
    m_3 on lie below m_2 and avoid 213."""
    n = len(w)
    p = 1
    while p < n and w[p] > w[p - 1]:
        p += 1
    if p >= n:
        return True
    m2 = w[p]
    if m2 > w[0]:           # B_1 stops increasing before m_2
        return False
    q = p + 1
    while q < n and w[q] > m2:
        q += 1
    block = w[p + 1:q]      # B_2
    if block and (p > 1 and max(block) > w[1]
                  or _has_xi((w[0],) + w[p:q])
                  or _has_231(map(neg, block))):
        return False
    tail = w[q:]
    return not tail or max(tail) < m2 and not _has_231(map(neg, tail))


def _sortable_123_312(w: Word) -> bool:
    """Sort(123, 312), by the ltr maxima: each is the one before it plus
    1, no block contains 213, and no letters z < x < y lie in blocks B_k,
    B_i and B_j with i < j <= k.

    The scan keeps ``dom``, the largest x so far below a letter y of a
    later block; a letter of the open block below it ends the scan.  A
    letter becomes a candidate x only when its block closes, since a
    larger letter of its own block is no y."""
    top = 0                 # the last ltr maximum
    seen: list[int] = []    # closed-block letters above dom, decreasing
    dom = 0
    block: list[int] = []   # the open block
    low = third = _NO_BOUND  # its least letter, and its 213 scan
    stack: list[int] = []
    for v in w:
        if v > top:
            if top and v != top + 1:
                return False
            top = v
            if block:
                seen.extend(x for x in block if x > dom)
                seen.sort(reverse=True)
                block = []
                stack = []
                low = third = _NO_BOUND
            continue
        while seen and seen[-1] < v:
            dom = seen.pop()
        low = min(low, v)
        if low < dom or v > third:
            return False
        while stack and stack[-1] > v:
            third = stack.pop()
        stack.append(v)
        block.append(v)
    return True


# ---------------------------------------------------------------------------
# Known sortable sets and oracle dispatch

def _sortable_basis(sigma: Word, domain: Domain) -> tuple[Pattern, ...] | None:
    """Avoidance basis of the sigma-machine's sortable set on the domain,
    or None where no basis is known."""
    if domain in (Domain.PERM, Domain.CAYLEY):
        if sigma == (1, 2):
            return (classical((2, 1, 3)),)
        if sigma == (2, 1):
            return (classical((2, 3, 4, 1)),
                    _MESH_3241 if domain is Domain.PERM else NAMED["zeta"])
        if domain is Domain.PERM and sigma == (1, 3, 2):
            return (classical((2, 3, 1, 4)), NAMED["mu"])
        if len(sigma) >= 3 and _hat_ge_231(sigma):
            # {132, R(sigma)}, collapsed to {132} when R(sigma) >= 132
            r = reverse(sigma)
            if contains_classical(r, (1, 3, 2)):
                return (classical((1, 3, 2)),)
            return (classical((1, 3, 2)), classical(r))
    elif domain in (Domain.ASC, Domain.MODASC):
        if sigma == (1, 1):
            return (classical((1, 2, 1, 3)), classical((1, 2, 2, 3)))
        if sigma in ((1, 2), (1, 2, 1)):
            return (classical((2, 1, 3)),)
        if contains_classical(sigma, (1, 2, 3)):
            return (classical((1, 3, 2)),)
        if (domain is Domain.MODASC and len(sigma) >= 3
                and standardize(sigma[:3]) == (1, 2, 2)):
            # {132, R(sigma) (+) 1}
            return (classical((1, 3, 2)),
                    classical(reverse(sigma) + (max(sigma) + 1,)))
    return None


def _avoider(first: Pattern, second: Pattern | None = None
             ) -> Callable[[Word], bool]:
    """Avoidance predicate of a basis of one or two patterns, on domain
    words.  Each pattern is resolved once (:func:`patterns._resolve`), to
    its direct scan or else to its search; the predicate checks no
    letters."""
    a = _resolve(first)
    if second is None:
        return lambda w: not a(w)
    b = _resolve(second)
    return lambda w: not (a(w) or b(w))


# Permutation machines with a predicate of their own: the structural
# characterizations, and a basis scanned in another order than
# _sortable_basis lists it.  No predicate checks letters.
_PERM_ORACLES: dict[tuple[Word, ...], Callable[[Word], bool]] = {
    ((1, 2, 3),): _sortable_123_perm,
    # Sort(132) = Av(2314, mu), mu first: it ends sooner on most words
    ((1, 3, 2),): _avoider(NAMED["mu"], classical((2, 3, 1, 4))),
    ((1, 2, 3), (1, 3, 2)): _sortable_123_132,
    ((1, 2, 3), (3, 1, 2)): _sortable_123_312,
    ((1, 3, 2), (2, 3, 1)):
        _avoider(classical((1, 3, 2, 4)), classical((2, 3, 1, 4))),
    # the one-pass 123 check first: most long words fail it
    ((1, 2, 3), (3, 2, 1)):
        lambda w: not _has_123(w) and _sortable_123_perm(w),
    ((1, 3, 2), (3, 2, 1)): _avoider(classical((1, 2, 3)), NAMED["mu"]),
}


def oracle_for(spec: MachineSpec) -> Callable[[Word], bool]:
    """Closed-form sortability predicate for the machine, if one is known.
    The predicate takes words of the machine's domain and does not check
    them (:func:`oracle_is_sortable` does); it is built once per domain
    and set of bodies.

    Raises :class:`FallbackRequired` for the open cases, on every call.
    """
    pred = _compiled_oracle(spec.domain, spec.bodies)
    if pred is None:
        raise FallbackRequired(f"open case: {spec}")
    return pred


@lru_cache(maxsize=256)
def _compiled_oracle(d: Domain, bodies: tuple[Word, ...]
                     ) -> Callable[[Word], bool] | None:
    if d is Domain.PERM and bodies in _PERM_ORACLES:
        return _PERM_ORACLES[bodies]
    if len(bodies) == 1:
        basis = _sortable_basis(bodies[0], d)
        if basis is not None:
            return _avoider(*basis)
    return None


def oracle_is_sortable(w: Sequence[int], spec: MachineSpec) -> bool:
    """Closed-form sortability; raises FallbackRequired on open cases and
    ``ValueError`` for a word outside the machine's domain."""
    w = tuple(w)
    if not is_member(w, spec.domain):
        raise ValueError(
            f"{format_word(w)} is not a member of domain {spec.domain.value}")
    return oracle_for(spec)(w)


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


# Witnesses for the sigma that the constructions below do not cover.
_WITNESSES: dict[tuple[Domain, Word], tuple[Word, Word]] = {
    (Domain.PERM, (2, 1)): ((3, 5, 2, 4, 1), (3, 2, 4, 1)),
    (Domain.PERM, (1, 2, 3)): ((4, 1, 3, 2), (1, 3, 2)),
    (Domain.PERM, (1, 3, 2)): ((2, 4, 1, 3), (1, 3, 2)),
    (Domain.PERM, (2, 1, 3)): ((4, 1, 3, 2), (1, 3, 2)),
    (Domain.PERM, (2, 3, 1)): ((3, 6, 1, 4, 2, 5), (1, 3, 2, 4)),
    (Domain.PERM, (3, 1, 2)): ((3, 1, 4, 2), (1, 3, 2)),
    (Domain.CAYLEY, (2, 1)): ((3, 4, 2, 4, 1), (3, 2, 4, 1)),
    (Domain.CAYLEY, (2, 3, 1)): ((1, 2, 4, 2, 3, 1), (2, 4, 2, 3, 1)),
}


def _perm_nonclass_witness(sigma: Word) -> tuple[Word, Word]:
    """Sortable word and a non-sortable pattern it contains, for a
    permutation sigma whose hat avoids 231, with the pattern 132."""
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


_NONCLASS_WITNESS: dict[Domain, Callable[[Word], tuple[Word, Word]]] = {
    Domain.PERM: _perm_nonclass_witness,
    Domain.CAYLEY: _cayley_nonclass_witness,
    Domain.ASC: _asc_nonclass_witness,
    Domain.MODASC: _modasc_nonclass_witness,
}


def classify(sigma: Sequence[int], domain: Domain = Domain.PERM) -> Classification:
    """Is Sort(sigma) a pattern class in the given domain?  Returns the
    basis for classes and a mechanical witness for non-classes.

    The sortable set is a class exactly when its known basis consists of
    classical patterns.  Otherwise the witness comes from a table or a
    closed-form construction and is checked with :func:`verify_witness`;
    a case without a verified witness raises :class:`UnsupportedError`.
    """
    s = tuple(sigma)
    if len(s) < 2:
        raise ValueError("classify requires a pattern of length >= 2")
    if not is_member(s, domain):
        raise ValueError(f"{s} is not a valid {domain.value} pattern")
    if domain not in _NONCLASS_WITNESS:
        raise UnsupportedError(
            f"classification is not defined on {domain.value}")

    basis = _sortable_basis(s, domain)
    if basis is not None and all(p.kind is PatternKind.CLASSICAL
                                 for p in basis):
        return Classification(s, domain, True, basis)
    w, p = _WITNESSES.get((domain, s)) or _NONCLASS_WITNESS[domain](s)
    c = Classification(s, domain, False, witness=(w, classical(p)))
    if not verify_witness(c):
        raise UnsupportedError(
            f"no verifiable non-class witness for {s} on {domain.value}")
    return c


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
    """The word D_h (-) (D_{k-1} (+) D_{t+1}) of length h + k + t, for
    k >= 2."""
    return skew_sum(decreasing(h),
                    direct_sum(decreasing(k - 1), decreasing(t + 1)))


def sorted_set_123(n: int) -> set[Word]:
    """The image of the 123-stack map intersected with Av(231)."""
    if n < 0:
        return set()
    return {decreasing(n)} | {_family_member_123(h, k, n - k - h)
                              for k in range(2, n + 1)
                              for h in range(n - k + 1)}


def fertility_123(gamma: Sequence[int]) -> int:
    """Number of preimages of gamma under the 123-stack map.  A family
    member's last letter is k and its 1 sits at position h + k - 2."""
    g = tuple(gamma)
    n = len(g)
    if g == decreasing(n):
        return 1
    k = g[-1]
    if not 2 <= k <= n or 1 not in g:
        return 0
    h = g.index(1) - k + 2
    if 0 <= h <= n - k and _family_member_123(h, k, n - k - h) == g:
        return catalan(k - 1)
    return 0


# ---------------------------------------------------------------------------
# sorted sets in general (brute, for the open rows)

def sorted_set(sigma: Sequence[int], n: int, domain: Domain = Domain.PERM,
               max_n: int | None = None) -> set[Word]:
    """sorted(sigma) at length n: image of the sigma-stack map intersected
    with the 231-avoiding words (brute force)."""
    spec = MachineSpec((classical(tuple(sigma)),), domain)
    return image_set(spec, n, sorted_only=True, max_n=max_n)
