"""Digests of the image and sorted sets, of the sortable counts and of
the oracle verdicts over a fixed corpus of machines, of pattern containment over a fixed corpus
of patterns, and of the CLI's outputs over a fixed command list.

The naive references of ``test_machine.py`` pin correctness at small n;
these digests pin the sets themselves at the sizes the engines serve, so
that a change to how the sets are computed shows at once if any set
moved.  The set corpus is every permutation body of length 2-4 and a few
pairs on permutations up to n = 7, and the walk test's bodies on every
other domain (Cayley words up to n = 5, the rest up to n = 7).  The
count corpus is the set corpus and ``COUNT_ROWS``, permutation machines
at n = 9, past the levels that one subtree of the level walk grows.  The
oracle corpus is 300 seeded permutations of length 9-24 for each
permutation machine of ``ORACLE_CASES``, and every Cayley word up to
n = 6 for the Cayley 12- and 21-machines.  The pattern corpus is every
pattern of ``PATTERN_TEXTS``, one or more of each kind but path patterns,
on every Cayley word up to n = 4 and 300 seeded Cayley words of length
5-10.  The CLI corpus is the fixed command list of ``cli_commands``,
which runs every subcommand, ends in every exit status 0-3, and holds
every malformed word and path of ``test_cli.py``.

A change that alters a set or an output on purpose regenerates the
digests with

    PYTHONPATH=src python tests/test_digests.py

pastes the printed lines into ``DIGESTS``, and names each digest that
moved, and why, in its change notes.
"""

import contextlib
import hashlib
import itertools
import random
from unittest import mock

import pamsort.enumeration as E
from helpers import MALFORMED_WORDS, ORACLE_CASES, perm_word, run_cli
from pamsort.machine import (MachineSpec, image_set, iter_domain,
                             sortable_count)
from pamsort.oracles import oracle_for
from pamsort.patterns import (classical, contains, occurrences_of,
                              parse_pattern)
from pamsort.words_core import Domain, standardize

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
    "count": "9a4f1a4dde269e587aa9d84226164e6518be2327f6731a0d35986996808dc578",
    "oracle": "211ee1a8f138218274d653d6c7465d6db3d181cc7b1fd9df1e50ee1fd0ef6666",
    "patterns": "a1a1b32d3a2d43fe42068b8c2fd03caf69b5da6e183175b408f23877b0933f58",
    "cli": "07899e58e1007722bea0e5e9cb7f072c0895481809bdb07eb8046c48798c9cc1",
}
# permutation machines at n = 9, past ``machine._SUBTREE_LEVELS``
COUNT_ROWS = [((1, 2, 3),), ((3, 2, 1),), ((1, 3, 2), (3, 2, 1))]

# Every pattern kind but path patterns: bivincular T gaps at the bottom
# level, an interior level and the top level, mesh and Cayley-mesh
# regions, barred letters, and the named patterns.
PATTERN_TEXTS = [
    "231", "1324", "2413", "1212", "11",
    "bv(12;S={};T={0})", "bv(132;S={1};T={1})", "bv(231;S={};T={3})",
    "bv(2143;S={2};T={0,2,4})", "bv(21;S={0,2};T={})",
    "mesh(12;(1,1))", "mesh(213;(0,0),(3,3))", "mesh(3241;(1,4))",
    "cmesh(3241;(1,gap:4))", "cmesh(121;(1,at:1),(2,gap:0))",
    "cmesh(2132;(2,gap:1),(0,at:3))",
    "barred(35241;pos={2})", "barred(132;pos={1})",
    "@xi", "@mu", "@f", "@zeta", "@a", "@b",
]


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


def count_digest():
    """SHA-256 over one line per entry of the count corpus: the machine,
    n and ``sortable_count``."""
    h = hashlib.sha256()
    rows = [(Domain.PERM, bodies, 9) for bodies in COUNT_ROWS]
    for d, bodies, n in itertools.chain(corpus(), rows):
        spec = MachineSpec(tuple(classical(b) for b in bodies), d)
        h.update(f"{d.value} {bodies} {n}: {sortable_count(spec, n)}\n"
                 .encode())
    return h.hexdigest()


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


def pattern_words():
    """Every Cayley word up to n = 4, then 300 seeded Cayley words of
    length 5-10."""
    words = [w for n in range(5) for w in iter_domain(Domain.CAYLEY, n)]
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(5, 10)
        words.append(standardize([rng.randint(1, n) for _ in range(n)]))
    return words


def pattern_digest():
    """SHA-256 over one line per (pattern, word) of the pattern corpus:
    the pattern, the word, the ``contains`` verdict and the
    ``occurrences_of`` list."""
    h = hashlib.sha256()
    words = pattern_words()
    for text in PATTERN_TEXTS:
        p = parse_pattern(text)
        for w in words:
            h.update(f"{text} {w}: {contains(w, p):d} "
                     f"{occurrences_of(w, p)}\n".encode())
    return h.hexdigest()


# the path-reading bijections, and a valid input of every bijection
PATH_BIJECTIONS = ("dyck-to-av213", "dyck-to-rgf1221", "schroder-to-sort123",
                   "beta-stack", "beta-queue")
BIJECTION_INPUTS = {
    "eta": "13 14 15 10 12 6 7 8 11 9 3 1 4 5 2",
    "eta-inverse": "111223332345445", "dyck-to-av213": "UUDUUDDDUD",
    "av213-to-dyck": "25341", "sort123-to-schroder": "4132",
    "schroder-to-sort123": "UUDUDD", "rgf1221-to-dyck": "12131",
    "dyck-to-rgf1221": "UUDDUD", "beta-stack": "UH0H1DH0",
    "beta-queue": "UUH2DD", "rgfnr12321-to-av321": "121312",
    "av321-to-rgfnr12321": "214365", "alpha-strip": "1223121",
    "delta": "121323", "delta-inverse": "122312", "phi": "2413",
}


def cli_commands():
    """(arguments, miscount) of every command of the CLI digest, in a
    fixed order.  A miscounting command runs with a brute-force engine
    that is off by one, so that ``verify`` fails (exit 3)."""
    for args in (
            ("sortable", "--sigma", "132", "2413"),
            ("sortable", "--sigma", "123", "132"),
            ("sortable", "--sigma", "123", "--method", "brute", "4132"),
            ("sortable", "--sigma", "231", "123"),
            ("sortable", "--sigma", "231", "--strict", "123"),
            ("sortable", "--sigma", "21", "--domain", "cay", "1213"),
            ("sortable", "--sigma", "132", "--domain", "rgf", "132"),
            ("sort", "--sigma", "231", "2413"),
            ("sort", "--sigma", "132,321", "--domain", "rgf", "12132"),
            ("sort", "--sigma", "path(UD)", "12"),
            ("trace", "--sigma", "231", "2413"),
            ("trace", "--sigma", "132,321", "--domain", "asc", "12132"),
            ("classify", "--sigma", "12"),
            ("classify", "--sigma", "123", "--json"),
            ("classify", "--sigma", "21", "--domain", "cay", "--json"),
            ("classify", "--sigma", "132,321"),
            ("enumerate", "--sigma", "231", "--n", "6"),
            ("enumerate", "--sigma", "123", "--n", "6", "--method", "oracle"),
            ("enumerate", "--sigma", "132,321", "--n", "8", "--method",
             "tree"),
            ("enumerate", "--sigma", "12", "--domain", "asc", "--n", "5"),
            ("enumerate", "--sigma", "231", "--n", "0", "--method", "tree"),
            ("enumerate", "--sigma", "231", "--n", "0"),
            ("enumerate", "--sigma", "231", "--n", "0", "--strict"),
            ("enumerate", "--sigma", "231", "--n", "-1", "--method", "brute"),
            ("enumerate", "--sigma", "132,321", "--n", "12"),
            ("sequence", "CATALAN", "--n", "5"),
            ("sequence", "NARAYANA", "--n", "4", "--k", "2"),
            ("sequence", "CATALAN", "--n", "5", "--k", "3"),
            ("sequence", "FUBINI", "--n", "-1"),
            ("fertility", "--sigma", "123", "132"),
            ("fertility", "--sigma", "123", "--json", "2413"),
            ("fertility", "--sigma", "231", "--json", "2413"),
            ("fertility", "--sigma", "123", "1x2"),
            ("sorted-set", "--sigma", "123", "--n", "3"),
            ("sorted-set", "--sigma", "21", "--domain", "cay", "--n", "3"),
            ("sorted-set", "--sigma", "@mu", "--n", "3"),
            ("verify", "appendix_len3", "--max-n", "5"),
            ("verify", "cayley21", "--max-n", "5", "--json")):
        yield args, False
    for args in (("verify", "appendix_len3", "--max-n", "5"),
                 ("verify", "cayley21", "sorted", "--max-n", "4", "--json")):
        yield args, True
    for bid, text in BIJECTION_INPUTS.items():
        yield ("bijection", bid, text), False
    for text in ("213", "1,,2", "0"):
        yield ("bijection", "av213-to-dyck", text), False
    # the malformed words, patterns and paths of test_cli.py
    for cmd in ("sortable", "sort", "trace"):
        for word in (*MALFORMED_WORDS, "2,3,2,1", "1 2 4"):
            yield (cmd, "--sigma", "132", word), False
        for sigma in ("mesh(132;(0,9))", "132,,321", "132,", "",
                      "bv(132;S={5};T={})", "1x2"):
            yield (cmd, "--sigma", sigma, "2413"), False
    for bid in PATH_BIJECTIONS:
        for text in ("UX", "H3", "U?D", "UDD", "DU", "H2", "UH0D"):
            yield ("bijection", bid, text), False


def miscounting():
    """Brute-force counts and image sets that are off by one."""
    count, image = E.sortable_count, E.image_set
    return mock.patch.multiple(
        E, sortable_count=lambda *a, **kw: count(*a, **kw) + 1,
        image_set=lambda *a, **kw: image(*a, **kw) | {()})


def cli_digest():
    """SHA-256 over one record per command of the CLI corpus: its
    arguments, exit status, stdout and stderr."""
    h = hashlib.sha256()
    for args, miscount in cli_commands():
        with miscounting() if miscount else contextlib.nullcontext():
            r = run_cli(*args)
        h.update(f"{args!r} {r.exit_code}\n{r.stdout}\0{r.stderr}\0"
                 .encode())
    return h.hexdigest()


def digests():
    return {**set_digests(), "count": count_digest(),
            "oracle": oracle_digest(),
            "patterns": pattern_digest(), "cli": cli_digest()}


def test_image_set_digests():
    assert set_digests() == {k: DIGESTS[k] for k in ("image", "sorted")}


def test_count_digest():
    assert count_digest() == DIGESTS["count"]


def test_oracle_digest():
    assert oracle_digest() == DIGESTS["oracle"]


def test_pattern_digest():
    assert pattern_digest() == DIGESTS["patterns"]


def test_cli_digest():
    assert cli_digest() == DIGESTS["cli"]


if __name__ == "__main__":
    for kind, digest in digests().items():
        print(f'    "{kind}": "{digest}",')
