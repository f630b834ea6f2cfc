"""Unit tests for lattice paths and succession rules, and for the
package's layering under them."""

import ast
import itertools
from pathlib import Path

import pytest

import pamsort
from pamsort.paths_trees import (LatticePath, PathKind, count_dyck_bounded,
                                 double_rises, dyck_path, first_return_decomposition,
                                 format_path, height, heights, iter_dyck,
                                 iter_motzkin, iter_schroder, matching,
                                 motzkin_path, parse_path, parse_steps, peaks,
                                 rule_catalog, rule_ids, rule_level_counts,
                                 schroder_path)
from pamsort.enumeration import catalan

MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127]
SCHRODER = [1, 2, 6, 22, 90, 394]


def test_parse_and_format():
    p = dyck_path("UUDUDD")
    assert p.kind is PathKind.DYCK and p.semilength == 3
    assert format_path(p) == "UUDUDD"
    q = schroder_path("UH2DH2")
    assert q.semilength == 3
    assert parse_path(PathKind.SCHRODER, format_path(q)) == q
    m = motzkin_path("UHDH")
    assert format_path(m) == "UHDH"


def test_invalid_paths_rejected():
    for bad in ["UDD", "UUD", "DU"]:
        with pytest.raises(ValueError):
            dyck_path(bad)
    with pytest.raises(ValueError):
        motzkin_path("UH2D")   # H2 is not a Motzkin step
    with pytest.raises(ValueError):
        dyck_path("UXD")


def test_validator_and_tokenizer_match_naive_check():
    # every step word of length <= 6 over the six steps, for every kind
    allowed = {PathKind.DYCK: "U D", PathKind.MOTZKIN: "U D H",
               PathKind.SCHRODER: "U D H2",
               PathKind.LABELED_MOTZKIN: "U D H0 H1 H2"}
    rise = {"U": 1, "D": -1}

    def naive_ok(kind, word):
        h = 0
        for s in word:
            if s not in allowed[kind].split():
                return False
            h += rise.get(s, 0)
            if h < 0 or (kind is PathKind.LABELED_MOTZKIN and s == "H2"
                         and h == 0):
                return False
        return h == 0

    steps = ("U", "D", "H", "H0", "H1", "H2")
    for n in range(7):
        for word in itertools.product(steps, repeat=n):
            for sep in ("", " ", " \t\n"):
                assert parse_steps(sep.join(word)) == word, (sep, word)
            for kind in PathKind:
                try:
                    LatticePath(kind, word)
                    ok = True
                except ValueError:
                    ok = False
                assert ok == naive_ok(kind, word), (kind, word)


def test_path_statistics():
    p = dyck_path("UUDUDD")
    assert heights(p.steps) == [1, 2, 1, 2, 1, 0]
    assert height(p) == 2
    assert peaks(p) == 2
    assert double_rises(p) == 1
    assert matching(p) == sorted(matching(p))
    for a, b in matching(p):
        assert p.steps[a] == "U" and p.steps[b] == "D"


def test_first_return_decomposition():
    p = dyck_path("UUDDUD")
    a, b = first_return_decomposition(p)
    assert format_path(a) == "UD" and format_path(b) == "UD"


def test_iter_counts():
    for n in range(0, 8):
        assert sum(1 for _ in iter_dyck(n)) == catalan(n)
        assert sum(1 for _ in iter_motzkin(n)) == MOTZKIN[n]
    for n in range(0, 6):
        assert sum(1 for _ in iter_schroder(n)) == SCHRODER[n]


def test_count_dyck_bounded_matches_filter():
    for n in range(0, 9):
        for h in range(1, 6):
            brute = sum(1 for p in iter_dyck(n) if height(p) <= h)
            assert count_dyck_bounded(n, h) == brute, (n, h)


def test_rule_catalog_ids():
    ids = rule_ids()
    for rid in ("DYCK_PEAK", "RGF1221_SITES", "MOTZKIN", "OMEGA1_132_321",
                "OMEGA2_DUDU", "OMEGA_123_312"):
        assert rid in ids
        assert rule_catalog(rid).name == rid
    with pytest.raises(ValueError):
        rule_catalog("NOPE")


def test_dyck_peak_rule_levels_are_catalan():
    rule = rule_catalog("DYCK_PEAK")
    assert rule_level_counts(rule, 8) == [catalan(n) for n in range(1, 9)]
    rule2 = rule_catalog("RGF1221_SITES")
    assert rule_level_counts(rule2, 8) == [catalan(n) for n in range(1, 9)]


def test_motzkin_rule_levels():
    rule = rule_catalog("MOTZKIN")
    assert rule_level_counts(rule, 7) == MOTZKIN[:7]


def test_omega_rules_levels():
    expected = [1, 2, 4, 10, 26, 72, 206, 606]
    assert rule_level_counts(rule_catalog("OMEGA1_132_321"), 8) == expected
    assert rule_level_counts(rule_catalog("OMEGA2_DUDU"), 8) == expected


def test_omega2_counts_dud_free_dyck_paths():
    # level n of OMEGA2 counts Dyck paths of semilength n with no DUDU factor
    def has_dudu(p: LatticePath) -> bool:
        return "DUDU" in "".join(p.steps)
    for n in range(1, 9):
        brute = sum(1 for p in iter_dyck(n) if not has_dudu(p))
        assert rule_level_counts(rule_catalog("OMEGA2_DUDU"), n)[-1] == brute


def _package_imports() -> dict[str, set[str]]:
    """For each module of the package, the package modules it imports."""
    src = Path(pamsort.__file__).parent
    out: dict[str, set[str]] = {}
    for path in sorted(src.glob("*.py")):
        full: list[str] = []   # dotted names from the package root
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                full += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mod = "pamsort." * (node.level > 0) + (node.module or "")
                if mod.strip(".") == "pamsort":   # from pamsort import x
                    full += [f"pamsort.{a.name}" for a in node.names]
                else:
                    full.append(mod)
        out[path.stem] = {m.split(".")[1] for m in full
                          if m.startswith("pamsort.")}
    return out


def test_layering_keeps_the_step_grammar_low():
    # words_core is the bottom of the package, and paths_trees, which owns
    # the step grammar, sits directly on it
    imports = _package_imports()
    assert {"words_core", "paths_trees", "patterns", "cli"} <= set(imports)
    assert imports["words_core"] == set()
    assert imports["paths_trees"] == {"words_core"}
