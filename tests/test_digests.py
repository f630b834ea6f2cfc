"""Digests of the image and sorted sets and of the oracle verdicts over
a fixed corpus of machines.

The naive references of ``test_machine.py`` pin correctness at small n;
these digests pin the sets themselves at the sizes the engines serve, so
that a change to how the sets are computed shows at once if any set
moved.  The set corpus is every permutation body of length 2-4 and a few
pairs on permutations up to n = 7, and the walk test's bodies on every
other domain (Cayley words up to n = 5, the rest up to n = 7).  The
oracle corpus is 300 seeded permutations of length 9-24 for each
permutation machine of ``ORACLE_CASES``, and every Cayley word up to
n = 6 for the Cayley 12- and 21-machines.

A change that alters a set on purpose regenerates the digests with

    PYTHONPATH=src python tests/test_digests.py

pastes the printed lines into ``DIGESTS``, and names each digest that
moved, and why, in its change notes.
"""

import hashlib
import itertools
import random

from helpers import ORACLE_CASES, perm_word
from pamsort.machine import MachineSpec, image_set, iter_domain
from pamsort.oracles import oracle_for
from pamsort.patterns import classical
from pamsort.words_core import Domain

PERM_PAIRS = [((1, 2, 3), (1, 3, 2)), ((1, 2, 3), (3, 1, 2)),
              ((1, 2, 3), (3, 2, 1)), ((1, 3, 2), (2, 3, 1)),
              ((1, 3, 2), (3, 2, 1))]
WORD_SIGMAS = [((1, 1),), ((1, 2),), ((2, 1),), ((1, 2, 1),), ((1, 2, 3),),
               ((1, 3, 2, 4),), ((1, 3, 2), (3, 2, 1))]
WORD_SIZES = {Domain.CAYLEY: 5, Domain.RGF: 7, Domain.ASC: 7,
              Domain.MODASC: 7}

DIGESTS = {
    "image": "c47072c106e37f0dc0dcc06f60c322c598b20cf1ff8ec20ba6a28b4bc90e0f25",
    "sorted": "a93581a56dd1bda83d3999fef44304e0087b9fca0e669f8dbe3c370e834dec40",
    "oracle": "211ee1a8f138218274d653d6c7465d6db3d181cc7b1fd9df1e50ee1fd0ef6666",
}


def corpus():
    """(domain, bodies, n) of every set in the digests, in a fixed order."""
    perm_sigmas = [(body,) for k in (2, 3, 4)
                   for body in itertools.permutations(range(1, k + 1))]
    for bodies in perm_sigmas + PERM_PAIRS:
        for n in range(1, 8):
            yield Domain.PERM, bodies, n
    for d, top in WORD_SIZES.items():
        for bodies in WORD_SIGMAS:
            for n in range(1, top + 1):
                yield d, bodies, n


def set_digests():
    """One SHA-256 per set kind, over one line per corpus entry that names
    the machine and lists its set in sorted order."""
    hashes = {"image": hashlib.sha256(), "sorted": hashlib.sha256()}
    for d, bodies, n in corpus():
        spec = MachineSpec(tuple(classical(b) for b in bodies), d)
        for kind, h in hashes.items():
            words = sorted(image_set(spec, n, sorted_only=kind == "sorted"))
            h.update(f"{d.value} {bodies} {n}: {words}\n".encode())
    return {kind: h.hexdigest() for kind, h in hashes.items()}


def oracle_corpus():
    """(domain, bodies, words) of every oracle in the digest, in a fixed
    order."""
    rng = random.Random(2022)
    for d, bodies, _ in ORACLE_CASES:
        if d is Domain.PERM:
            yield d, bodies, [perm_word(rng, rng.randint(9, 24))
                              for _ in range(300)]
    for bodies in ([(1, 2)], [(2, 1)]):
        yield Domain.CAYLEY, bodies, [w for n in range(7)
                                      for w in iter_domain(Domain.CAYLEY, n)]


def oracle_digest():
    """SHA-256 over one line per word of the oracle corpus: the machine,
    the word and the ``oracle_for`` verdict."""
    h = hashlib.sha256()
    for d, bodies, words in oracle_corpus():
        pred = oracle_for(MachineSpec(tuple(classical(b) for b in bodies), d))
        for w in words:
            h.update(f"{d.value} {bodies} {w}: {pred(w):d}\n".encode())
    return h.hexdigest()


def digests():
    return {**set_digests(), "oracle": oracle_digest()}


def test_image_set_digests():
    assert set_digests() == {k: DIGESTS[k] for k in ("image", "sorted")}


def test_oracle_digest():
    assert oracle_digest() == DIGESTS["oracle"]


if __name__ == "__main__":
    for kind, digest in digests().items():
        print(f'    "{kind}": "{digest}",')
