"""The benchmark's three workloads, built from a seed.

Every workload is an endless sequence of *passes*; a pass is a list of
jobs, and one job is one call into pamsort's public API together with the
reference its result must match.  The runner keeps starting passes until
the run's time is used up, so every run ends on a whole pass.

Each pass draws one item from every stratum of the workload.  A stratum
is a fixed list of inputs of similar cost; the seed shuffles each list
and the passes walk through it in that order, so a run covers the
strata evenly and different seeds give different inputs with the same
composition.

The library is reached only through module attributes looked up at call
time (``M.is_sortable``, not a name imported here), so that the traced
run's wrappers see every call.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

import pamsort.bijections as B
import pamsort.enumeration as E
import pamsort.machine as M
import pamsort.oracles as O
import pamsort.paths_trees as PT
import pamsort.patterns as P
import pamsort.words_core as W
from pamsort.words_core import Domain

Word = tuple[int, ...]


@dataclass
class Job:
    """One library call and the reference its result is checked against."""

    label: str
    call: Callable[[], Any]
    expected: Any
    check: Callable[[Any, Any], bool]
    words: int = 1           # domain words (or query words) the call handles
    props: dict = field(default_factory=dict)


@dataclass
class Sizes:
    """Input sizes; ``smoke`` shrinks every workload to a few seconds."""

    enum_n: int              # word length of enum-brute's permutations
    cayley_n: int            # word length of enum-brute's Cayley rows
    scan_n: int              # word length of scan-full's permutations
    pool: int                # distinct queries in the query-mix pool
    min_len: int             # query word lengths, inclusive range
    max_len: int


FULL = Sizes(enum_n=7, cayley_n=6, scan_n=7, pool=2400, min_len=8,
             max_len=16)
SMOKE = Sizes(enum_n=5, cayley_n=4, scan_n=5, pool=60, min_len=5, max_len=7)


# ---------------------------------------------------------------------------
# independent references (no pamsort code)

def fubini_count(n: int) -> int:
    """Number of Cayley permutations (ordered set partitions) of length n."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def avoids_231(w: Sequence[int]) -> bool:
    """No i < j < k with w[k] < w[i] < w[j] (suffix minima, O(n^2))."""
    n = len(w)
    suffix_min = list(w) + [math.inf]
    for k in range(n - 2, -1, -1):
        suffix_min[k] = min(w[k], suffix_min[k + 1])
    return not any(w[i] < w[j] and suffix_min[j + 1] < w[i]
                   for j in range(n) for i in range(j))


def contains(seq: Sequence[int], body: Sequence[int]) -> bool:
    """Does ``seq`` hold a subsequence order-isomorphic to ``body``?
    Backtracking over positions; each letter is compared with every
    letter chosen before it."""
    k = len(body)

    def rec(start: int, chosen: list[int]) -> bool:
        j = len(chosen)
        if j == k:
            return True
        for i in range(start, len(seq) - (k - j) + 1):
            v = seq[i]
            if all((v < seq[c]) == (body[j] < body[m])
                   and (v == seq[c]) == (body[j] == body[m])
                   for m, c in enumerate(chosen)):
                if rec(i + 1, chosen + [i]):
                    return True
        return False
    return rec(0, [])


def bodies_of(key: str) -> tuple[Word, ...]:
    """Patterns of a machine written ``123-312`` or ``123,312``."""
    return tuple(tuple(int(c) for c in part)
                 for part in key.replace(",", "-").split("-"))


def two_stack(w: Sequence[int],
              bodies: Sequence[Word]) -> tuple[Word, Word]:
    """(first-stack output, final output) of the machine: a right-greedy
    stack that pops while the next letter on top would make the stack,
    read top to bottom, contain a pattern of ``bodies``, then a stack that
    pops while its top is smaller than the next letter."""
    stack: list[int] = []
    first: list[int] = []
    for x in w:
        while stack and any(contains([x] + stack[::-1], b) for b in bodies):
            first.append(stack.pop())
        stack.append(x)
    first += stack[::-1]
    stack, final = [], []
    for x in first:
        while stack and stack[-1] < x:
            final.append(stack.pop())
        stack.append(x)
    final += stack[::-1]
    return tuple(first), tuple(final)


def sortable(w: Sequence[int], key: str) -> bool:
    return avoids_231(two_stack(w, bodies_of(key))[0])


def strip_word(pi: Sequence[int]) -> Word:
    """For each letter, the index of its horizontal strip: the strips are
    the value intervals between consecutive left-to-right minima.  On a
    132-sortable permutation this is the map eta, whose image is the
    RGFs avoiding 12231, the domain of delta."""
    mins = []
    for v in pi:
        if not mins or v < mins[-1]:
            mins.append(v)
    return tuple(next(j for j, m in enumerate(mins, 1) if v >= m)
                 for v in pi)


def parse_text(text: str) -> Word:
    return tuple(int(t) for t in text.split()) if " " in text \
        else tuple(int(c) for c in text)


def word_text(w: Sequence[int]) -> str:
    return "".join(map(str, w)) if max(w, default=0) <= 9 \
        else " ".join(map(str, w))


def spec_for(key: str, domain: Domain = Domain.PERM) -> M.MachineSpec:
    return M.MachineSpec(tuple(P.classical(tuple(int(c) for c in part))
                               for part in key.split("-")), domain)


def golden_value(table_id: str, key: str, n: int) -> int:
    start, counts = E.golden_table(table_id).rows[key]
    return counts[n - start]


def cycle_strata(rng: random.Random,
                 strata: Sequence[Sequence[Any]]) -> Iterator[list[Any]]:
    """Endless passes; pass i takes the i-th item of each shuffled stratum."""
    orders = []
    for items in strata:
        items = list(items)
        rng.shuffle(items)
        orders.append(items)
    for i in itertools.count():
        yield [items[i % len(items)] for items in orders]


# ---------------------------------------------------------------------------
# enum-brute: pruned DFS counts of golden-table rows

# Strata of golden rows.  They differ in how often the machine's pop
# decisions repeat within one DFS: measured with the pop memo at n=7, the
# hit rate is about 0.02 for length-5 patterns, 0.16 for length 4, 0.6 for
# length 3, 0.8 for pairs and 0.9 for the Cayley 21-machine.
ENUM_STRATA = (
    ("appendix_len5", Domain.PERM),
    ("appendix_len4", Domain.PERM),
    ("appendix_len3", Domain.PERM),
    ("pairs", Domain.PERM),
    ("cayley21", Domain.CAYLEY),
)


class EnumBrute:
    name = "enum-brute"
    trace_passes = 4

    def __init__(self, seed: int, sizes: Sizes):
        self.sizes = sizes
        self.rng = random.Random(seed)

    def _job(self, table_id: str, key: str, domain: Domain) -> Job:
        n = self.sizes.cayley_n if domain is Domain.CAYLEY \
            else self.sizes.enum_n
        spec = spec_for(key, domain)
        size = fubini_count(n) if domain is Domain.CAYLEY \
            else math.factorial(n)
        return Job(
            label=f"brute:{table_id}/{key}@{n}",
            call=lambda: E.count_sortable(spec, n, E.Method.BRUTE),
            expected=golden_value(table_id, key, n),
            check=lambda got, want: got == want,
            words=size,
            props={"row": f"{table_id}/{key}", "domain": domain.value,
                   "n": n, "domain_size": size})

    def passes(self) -> Iterator[list[Job]]:
        strata = [[(tid, key, dom) for key in E.golden_table(tid).rows]
                  for tid, dom in ENUM_STRATA]
        for picks in cycle_strata(self.rng, strata):
            yield [self._job(*p) for p in picks]

    def warmup(self) -> list[Job]:
        return [Job("warmup", lambda: E.count_sortable(spec_for("1324"), 5),
                    golden_value("appendix_len4", "1324", 5),
                    lambda got, want: got == want)]

    @staticmethod
    def properties(jobs: Iterable[Job],
                   counts: Sequence[tuple[Job, int]]) -> dict:
        """Rows drawn, and the share of sortable words in their domains."""
        total = sum(j.words for j, _ in counts)
        return {"jobs": [j.props for j in jobs],
                "sortable_share": (sum(c for _, c in counts) / total
                                   if total else 0.0),
                "fallback_share": 0.0}


# ---------------------------------------------------------------------------
# scan-full: whole-domain scans without 231 pruning

SORTED_KEYS = ("123", "132", "213", "231", "312", "321")
# ORACLE counts, in three strata of similar cost: the hat-rule avoiders,
# and the special closed forms split into cheaper and dearer predicates.
ORACLE_STRATA = (
    tuple(("appendix_len4", k) for k in (
        "1342", "2341", "2431", "3142", "3214", "3241", "4213", "4231",
        "4312", "4321")),
    (("appendix_len3", "123"), ("appendix_len3", "321"),
     ("pairs", "123-312"), ("pairs", "123-321")),
    (("appendix_len3", "132"), ("pairs", "123-132"), ("pairs", "132-231"),
     ("pairs", "132-321")),
)


class ScanFull:
    name = "scan-full"
    trace_passes = 4

    def __init__(self, seed: int, sizes: Sizes):
        self.sizes = sizes
        self.rng = random.Random(seed)
        n = sizes.scan_n
        # closed forms of the 123-machine, computed before timing starts
        self.sorted_123 = O.sorted_set_123(n)
        self.gammas = sorted(self.sorted_123)
        self.fert_123 = {g: O.fertility_123(g) for g in self.gammas}

    def _sorted_job(self, key: str) -> Job:
        n = self.sizes.scan_n
        sigma = tuple(int(c) for c in key)
        want = (golden_value("sorted", key, n),
                self.sorted_123 if key == "123" else None)

        def check(got: set, want: tuple) -> bool:
            size, exact = want
            return len(got) == size and (exact is None or got == exact)
        return Job(f"sorted_set:{key}@{n}", lambda: O.sorted_set(sigma, n),
                   want, check, math.factorial(n),
                   {"call": "sorted_set", "sigma": key, "n": n,
                    "domain": "perm", "domain_size": math.factorial(n)})

    def _image_job(self, key: str) -> Job:
        n = self.sizes.scan_n
        spec = spec_for(key)

        def check(got: set, want: int) -> bool:
            return sum(1 for w in got if avoids_231(w)) == want
        return Job(f"image_set:{key}@{n}", lambda: M.image_set(spec, n),
                   golden_value("sorted", key, n), check, math.factorial(n),
                   {"call": "image_set", "sigma": key, "n": n,
                    "domain": "perm", "domain_size": math.factorial(n)})

    def _fertility_job(self, gamma: Word) -> Job:
        n = self.sizes.scan_n
        spec = spec_for("123")

        def check(got: tuple, want: int) -> bool:
            count, preimages = got
            return count == want == len(preimages)
        return Job(f"fertility:123:{word_text(gamma)}",
                   lambda: M.fertility(gamma, spec),
                   self.fert_123[gamma], check, math.factorial(n),
                   {"call": "fertility", "sigma": "123",
                    "word": word_text(gamma), "n": n, "domain": "perm",
                    "domain_size": math.factorial(n)})

    def _oracle_job(self, table_id: str, key: str) -> Job:
        n = self.sizes.scan_n
        spec = spec_for(key)
        return Job(f"oracle:{table_id}/{key}@{n}",
                   lambda: E.count_sortable(spec, n, E.Method.ORACLE),
                   golden_value(table_id, key, n),
                   lambda got, want: got == want, math.factorial(n),
                   {"call": "count_sortable[oracle]",
                    "row": f"{table_id}/{key}", "n": n, "domain": "perm",
                    "domain_size": math.factorial(n)})

    def passes(self) -> Iterator[list[Job]]:
        strata = [SORTED_KEYS, SORTED_KEYS, self.gammas, *ORACLE_STRATA]
        for s_key, i_key, gamma, *rows in cycle_strata(self.rng, strata):
            yield [self._sorted_job(s_key), self._image_job(i_key),
                   self._fertility_job(gamma),
                   *(self._oracle_job(*row) for row in rows)]

    def warmup(self) -> list[Job]:
        return [Job("warmup", lambda: len(O.sorted_set((1, 2, 3), 5)),
                    golden_value("sorted", "123", 5),
                    lambda got, want: got == want)]

    @staticmethod
    def properties(jobs: Iterable[Job],
                   counts: Sequence[tuple[Job, int]]) -> dict:
        """Scans made, and the share of sortable words among the domains
        the oracle counted."""
        counted = [(j, c) for j, c in counts
                   if j.props.get("call") == "count_sortable[oracle]"]
        words = sum(j.words for j, _ in counted)
        return {"jobs": [j.props for j in jobs],
                "sortable_share": (sum(r for _, r in counted) / words
                                   if words else 0.0),
                "fallback_share": 0.0}


# ---------------------------------------------------------------------------
# query-mix: one closed-loop client sending single-word requests

ORACLE_SIGMAS = ("12", "21", "123", "132", "321", "123,132", "123,312",
                 "132,231", "132,321", "123,321")
OPEN_SIGMAS = ("231", "2413", "1324", "312", "213,231")
# The mix is synthetic: no query traffic is recorded anywhere, so every
# kind of query gets the same share of the pool, and the machine queries
# cycle through all the machines above, so a third of the "sortable"
# queries hit an open machine and fall back to brute force.  The latency
# tail rests only in part on those: on a 2-core x86 host, query_p99_us was
# about 12% lower with no open machine among the "sortable" queries and
# about 3% higher with open machines only.
QUERY_KINDS = ("sortable", "sort", "trace", "bijection")
QUERY_SIGMAS = ORACLE_SIGMAS + OPEN_SIGMAS
BIJECTIONS = ("dyck-av213", "sort123-schroder", "eta", "rgf1221-dyck",
              "av321-rgfnr12321", "delta")
DELTA_MAX_LEN = 9   # delta is cubic per swap; longer words would dominate


def _answer_sortable(sigma_text: str, text: str) -> str:
    """The ``pamsort sortable`` command's work: parse, oracle, fallback."""
    spec = M.MachineSpec(tuple(P.parse_pattern(s)
                               for s in sigma_text.split(",")))
    w = W.parse_word(text)
    if not W.is_member(w, spec.domain):
        raise ValueError(f"{text} is not a permutation")
    try:
        ans = O.oracle_is_sortable(w, spec)
    except O.FallbackRequired:
        ans = M.is_sortable(w, spec)
    return "true" if ans else "false"


def _answer_sort(sigma_text: str, text: str) -> str:
    spec = M.MachineSpec(tuple(P.parse_pattern(s)
                               for s in sigma_text.split(",")))
    final, _ = M.machine_run(W.parse_word(text), spec)
    return W.format_word(final)


def _answer_trace(sigma_text: str, text: str) -> str:
    spec = M.MachineSpec(tuple(P.parse_pattern(s)
                               for s in sigma_text.split(",")))
    _, trace = M.machine_run(W.parse_word(text), spec, with_trace=True)
    return trace.to_json()


def _round_trip(kind: str, text: str) -> str:
    """Apply a catalogued bijection and its inverse to ``text``."""
    if kind == "dyck-av213":
        return PT.format_path(B.av213_to_dyck(B.dyck_to_av213(text)))
    if kind == "rgf1221-dyck":
        return PT.format_path(B.rgf1221_to_dyck(B.dyck_to_rgf1221(text)))
    w = W.parse_word(text)
    if kind == "sort123-schroder":
        path = PT.format_path(B.sort123_to_schroder(w))
        back = B.schroder_to_sort123(path)
    elif kind == "eta":
        back = B.eta_inverse(B.eta(w))
    elif kind == "av321-rgfnr12321":
        back = B.rgfnr12321_to_av321(B.av321_to_rgfnr12321(w))
    else:
        back = B.delta_inverse(B.delta(w))
    return W.format_word(back)


def _check_trace(got: str, want: tuple[Word, Word, Word, bool]) -> bool:
    w, first, final, ok = want
    t = json.loads(got)
    return (tuple(t["input"]) == w and tuple(t["first_output"]) == first
            and tuple(t["final_output"]) == final and t["sortable"] == ok
            and len(t["steps"]) == 4 * len(w))


class QueryMix:
    name = "query-mix"
    trace_passes = 2

    def __init__(self, seed: int, sizes: Sizes):
        self.sizes = sizes
        self.rng = random.Random(seed)
        self.pool = self._make_pool()

    # -- input generation (not timed) ---------------------------------------
    #
    # The pool covers its strata evenly: query i of a kind takes machine
    # i mod |sigmas|, the wanted answer alternates with the next digit of
    # i and the word length cycles through the length range, so the seed
    # changes the words but not how many of each shape and size there are.

    def _candidate(self, n: int) -> list[int]:
        """A word from a mix of shapes; near-decreasing words are mostly
        sortable, near-increasing and uniform ones mostly not."""
        rng = self.rng
        shape = rng.randrange(4)
        if shape == 0:
            return rng.sample(range(1, n + 1), n)
        w = list(range(1, n + 1)) if shape == 1 else list(range(n, 0, -1))
        if shape == 3:   # skew sum of increasing runs
            cuts = sorted(rng.sample(range(1, n), rng.randint(1, n // 3)))
            runs = [w[a:b] for a, b in zip([0] + cuts, cuts + [n])]
            w = [v for r in runs for v in sorted(r)]
        for _ in range(rng.randint(1, max(1, n // 4))):
            i = rng.randrange(n - 1)
            w[i], w[i + 1] = w[i + 1], w[i]
        return w

    def _machine_word(self, key: str, n: int, want: bool,
                      tries: int = 400) -> Word:
        """A length-n word that the ``key`` machine sorts iff ``want``,
        where one is found within ``tries`` candidates.  The answers come
        from the benchmark's own simulation, not from pamsort."""
        for _ in range(tries):
            w = tuple(self._candidate(n))
            if sortable(w, key) == want:
                break
        return w

    def _dyck_text(self, n: int) -> str:
        while True:
            steps = ["U"] * n + ["D"] * n
            self.rng.shuffle(steps)
            h = 0
            for s in steps:
                h += 1 if s == "U" else -1
                if h < 0:
                    break
            else:
                return "".join(steps)

    def _av321(self, n: int) -> Word:
        """Identity with disjoint blocks rotated by one place."""
        w = list(range(1, n + 1))
        i = 0
        while i < n - 1:
            k = self.rng.randint(1, 4)
            if self.rng.random() < 0.5 and i + k < n:
                w[i:i + k + 1] = w[i + 1:i + k + 1] + [w[i]]
            i += k + 1
        return tuple(w)

    def _bijection_job(self, kind: str, n: int) -> Job:
        if kind in ("dyck-av213", "rgf1221-dyck"):
            text = self._dyck_text(n)
        elif kind == "sort123-schroder":
            text = word_text(self._machine_word("123", n, True))
        elif kind == "eta":
            text = word_text(self._machine_word("132", n, True))
        elif kind == "av321-rgfnr12321":
            text = word_text(self._av321(n))
        else:
            n = min(n, DELTA_MAX_LEN)
            pi = self._machine_word("132", n, True)
            text = word_text(strip_word(pi))
        return Job(f"bijection:{kind}", lambda: _round_trip(kind, text),
                   text, lambda got, want: got == want, 1,
                   {"kind": "bijection", "bijection": kind, "len": n})

    def _machine_job(self, kind: str, sigma_text: str, n: int,
                     want: bool) -> Job:
        w = self._machine_word(sigma_text, n, want)
        first, final = two_stack(w, bodies_of(sigma_text))
        ok = avoids_231(first)
        text = word_text(w)
        props = {"kind": kind, "sigma": sigma_text, "len": n,
                 "sortable": ok}
        if kind == "sortable":
            props["fallback"] = sigma_text in OPEN_SIGMAS
            return Job(f"sortable:{sigma_text}",
                       lambda: _answer_sortable(sigma_text, text),
                       "true" if ok else "false",
                       lambda got, want: got == want, 1, props)
        if kind == "sort":
            return Job(f"sort:{sigma_text}",
                       lambda: _answer_sort(sigma_text, text), final,
                       lambda got, want: parse_text(got) == want, 1, props)
        return Job(f"trace:{sigma_text}",
                   lambda: _answer_trace(sigma_text, text),
                   (w, first, final, ok), _check_trace, 1, props)

    def _make_pool(self) -> list[Job]:
        lengths = range(self.sizes.min_len, self.sizes.max_len + 1)
        pool: list[Job] = []
        for kind in QUERY_KINDS:
            choices = BIJECTIONS if kind == "bijection" else QUERY_SIGMAS
            for i in range(self.sizes.pool // len(QUERY_KINDS)):
                choice = choices[i % len(choices)]
                rest, want = divmod(i // len(choices), 2)
                n = lengths[rest % len(lengths)]
                pool.append(self._bijection_job(choice, n)
                            if kind == "bijection"
                            else self._machine_job(kind, choice, n, want == 0))
        return pool

    # -- passes ---------------------------------------------------------------

    def passes(self) -> Iterator[list[Job]]:
        """The pool in a new order each pass: one list, reshuffled in
        place, so that a run keeps no state per query."""
        order = list(self.pool)
        while True:
            self.rng.shuffle(order)
            yield order

    def warmup(self) -> list[Job]:
        return self.pool[::max(1, len(self.pool) // 100)]

    @staticmethod
    def properties(jobs: Iterable[Job],
                   counts: Sequence[tuple[Job, int]]) -> dict:
        """Counts over the queries sent; the pool itself is the set of
        distinct queries."""
        queries = machine = sortable = asked = fallback = 0
        kinds: dict[str, int] = {}
        distinct: set[int] = set()
        sigmas: set[str] = set()
        lengths: set[int] = set()
        for j in jobs:
            props = j.props
            queries += 1
            distinct.add(id(j))
            kinds[props["kind"]] = kinds.get(props["kind"], 0) + 1
            lengths.add(props["len"])
            if "sortable" in props:
                machine += 1
                sortable += props["sortable"]
                sigmas.add(props["sigma"])
            if "fallback" in props:
                asked += 1
                fallback += props["fallback"]
        return {
            "queries": queries,
            "distinct_queries": len(distinct),
            "repeat_share": 1 - len(distinct) / queries,
            "kinds": kinds,
            "sigmas": sorted(sigmas),
            "domain": "perm",
            "length_range": [min(lengths), max(lengths)],
            "sortable_share": sortable / machine if machine else 0.0,
            "fallback_share": fallback / asked if asked else 0.0,
        }


WORKLOADS = {w.name: w for w in (EnumBrute, ScanFull, QueryMix)}
