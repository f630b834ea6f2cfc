"""End-to-end tests of the command-line interface."""

import json
import shlex
from pathlib import Path

from helpers import MALFORMED_HEADED, MALFORMED_WORDS, run_cli as run


def test_sortable_example():
    r = run("sortable", "--sigma", "132", "2413")
    assert r.exit_code == 0
    assert r.stdout.strip() == "true"


def test_sortable_false_and_brute_method():
    r = run("sortable", "--sigma", "123", "132")
    assert r.exit_code == 0 and r.stdout.strip() == "false"
    r = run("sortable", "--sigma", "123", "--method", "brute", "4132")
    assert r.exit_code == 0 and r.stdout.strip() == "true"
    # sortable has no tree method: a usage error, not a silent oracle run
    r = run("sortable", "--sigma", "123", "--method", "tree", "4132")
    assert r.exit_code == 2 and r.stdout == ""


def test_sortable_fallback_and_strict():
    r = run("sortable", "--sigma", "231", "123")
    assert r.exit_code == 0
    assert r.stdout.strip().splitlines()[-1] in ("true", "false")
    r = run("sortable", "--sigma", "231", "--strict", "123")
    assert r.exit_code == 1


def test_enumerate_example():
    r = run("enumerate", "--sigma", "231", "--n", "6")
    assert r.exit_code == 0
    assert r.stdout.strip() == "496"


def test_enumerate_tree_and_oracle():
    r = run("enumerate", "--sigma", "123", "--n", "6", "--method", "oracle")
    assert r.exit_code == 0 and r.stdout.strip() == "99"
    r = run("enumerate", "--sigma", "132,321", "--n", "8", "--method", "tree")
    assert r.exit_code == 0 and r.stdout.strip() == "606"
    r = run("enumerate", "--sigma", "132,321", "--n", "0", "--method", "tree")
    assert r.exit_code == 0 and r.stdout.strip() == "1"
    # n = 0 still needs a tree rule or an oracle
    for n in ("0", "1"):
        r = run("enumerate", "--sigma", "231", "--n", n, "--method", "tree")
        assert r.exit_code == 1 and r.stdout == ""
        assert ("no catalogued generating tree for sigma=231 on perm"
                in r.stderr)
    r = run("enumerate", "--sigma", "231", "--n", "0", "--method", "oracle",
            "--strict")
    assert r.exit_code == 1 and r.stdout == ""
    r = run("enumerate", "--sigma", "231", "--n", "0", "--method", "oracle")
    assert r.exit_code == 0 and r.stdout.strip() == "1"
    assert "falling back to brute force" in r.stderr
    r = run("enumerate", "--sigma", "132,321", "--n", "12")
    assert r.exit_code == 1 and "--max-n" in r.stderr


def test_enumerate_rejects_negative_n():
    for sigma, method in (("231", "brute"), ("231", "oracle"),
                          ("123", "oracle"), ("132,321", "tree")):
        r = run("enumerate", "--sigma", sigma, "--n", "-1", "--method",
                method)
        assert r.exit_code == 1, (sigma, method, r.output)
        assert "error: n must be >= 0" in r.stderr
        assert r.stdout == ""


def test_bijection_eta_example():
    r = run("bijection", "eta", "13 14 15 10 12 6 7 8 11 9 3 1 4 5 2")
    assert r.exit_code == 0
    assert r.stdout.strip() == "111223332345445"


def test_bijection_round_trip_via_cli():
    r = run("bijection", "av213-to-dyck", "25341")
    assert r.exit_code == 0
    path = r.stdout.strip()
    r2 = run("bijection", "dyck-to-av213", path)
    assert r2.stdout.strip() == "25341"
    assert run("bijection", "av213-to-dyck", "213").exit_code == 1


def test_sort_and_trace():
    r = run("sort", "--sigma", "231", "2413")
    assert r.exit_code == 0 and r.stdout.strip() == "1234"
    r = run("trace", "--sigma", "231", "2413")
    data = json.loads(r.stdout)
    assert data["sortable"] is True
    assert data["final_output"] == [1, 2, 3, 4]


def test_classify_text_and_json():
    r = run("classify", "--sigma", "12")
    assert r.exit_code == 0 and "213" in r.stdout
    r = run("classify", "--sigma", "123", "--json")
    data = json.loads(r.stdout)
    assert data["is_class"] is False
    assert data["witness"]["word"] == "4132"
    assert data["witness"]["pattern"] == "132"


def test_classify_and_sorted_set_take_one_classical_pattern():
    for command, extra in (("classify", ()), ("sorted-set", ("--n", "3"))):
        for sigma in ("132,321", "@mu"):
            r = run(command, "--sigma", sigma, *extra)
            assert r.exit_code == 1 and r.stdout == ""
            assert r.stderr.strip() == \
                f"error: {command} takes a single classical pattern"


def test_sequence_command():
    r = run("sequence", "CATALAN", "--n", "5")
    assert r.exit_code == 0 and r.stdout.strip() == "42"
    r = run("sequence", "NARAYANA", "--n", "4", "--k", "2")
    assert r.stdout.strip() == "6"
    for args in (("CATALAN_POLY_G", "--n", "-1", "--k", "3"),
                 ("FUBINI", "--n", "-1")):
        r = run("sequence", *args)
        assert r.exit_code == 1 and r.stdout == "", args
    # a one-parameter sequence rejects a stray k
    r = run("sequence", "CATALAN", "--n", "5", "--k", "3")
    assert r.exit_code == 1 and r.stdout == ""
    assert "CATALAN takes no parameter k" in r.stderr


def test_fertility_command():
    r = run("fertility", "--sigma", "123", "132")
    assert r.exit_code == 0 and r.stdout.strip() == "1"
    r = run("fertility", "--sigma", "123", "--json", "12")
    data = json.loads(r.stdout)
    assert data["count"] == 1
    # on sorted(123) the closed form gives the count alone; off it, and in
    # the image (2413), the walk lists the preimages
    r = run("fertility", "--sigma", "123", "--json", "132")
    assert json.loads(r.stdout) == {"word": "132", "count": 1}
    for word, pre in (("231", ["132"]), ("2413", ["3142", "3214"])):
        r = run("fertility", "--sigma", "123", "--json", word)
        assert json.loads(r.stdout) == {"word": word, "count": len(pre),
                                        "preimages": pre}


def test_sorted_set_command():
    r = run("sorted-set", "--sigma", "123", "--n", "3")
    assert r.exit_code == 0
    assert r.stdout.split() == ["132", "213", "312", "321"]


def test_parse_error_exit_code_2():
    r = run("sortable", "--sigma", "1x2", "123")
    assert r.exit_code == 2
    r = run("sortable", "--sigma", "132", "1x23")
    assert r.exit_code == 2


def test_domain_error_exit_code_1():
    r = run("sortable", "--sigma", "132", "--domain", "rgf", "132")
    assert r.exit_code == 1   # 132 is not an RGF


def test_malformed_input_exit_statuses():
    # a malformed word or pattern is a parse error (2), a well-formed word
    # outside the domain a domain error (1)
    for cmd in ("sortable", "sort", "trace"):
        for word in MALFORMED_WORDS:
            r = run(cmd, "--sigma", "132", word)
            assert r.exit_code == 2 and r.stdout == "", (cmd, word)
            assert "parse error:" in r.stderr, (cmd, word)
        for sigma in ("mesh(132;(0,9))", "132,,321", "132,", "",
                      "bv(132;S={5};T={})", *MALFORMED_HEADED):
            r = run(cmd, "--sigma", sigma, "2413")
            assert r.exit_code == 2 and r.stdout == "", (cmd, sigma)
            assert "parse error:" in r.stderr, (cmd, sigma)
        for word in ("2,3,2,1", "1 2 4"):
            r = run(cmd, "--sigma", "132", word)
            assert r.exit_code == 1 and r.stdout == "", (cmd, word)
            assert "not a member of domain perm" in r.stderr, (cmd, word)
    for command, extra in (("classify", ()), ("sorted-set", ("--n", "3"))):
        for sigma in MALFORMED_HEADED:
            r = run(command, "--sigma", sigma, *extra)
            assert r.exit_code == 2 and r.stdout == "", (command, sigma)
            assert "parse error:" in r.stderr, (command, sigma)


def test_path_input_exit_statuses():
    # path text that does not tokenize is a parse error (2); a well-formed
    # step word of the wrong shape or kind is a domain error (1)
    beta = ("beta-stack", "beta-queue")
    for bid in ("dyck-to-av213", "dyck-to-rgf1221", "schroder-to-sort123",
                *beta):
        for text in ("UX", "H3", "U?D"):
            r = run("bijection", bid, text)
            assert r.exit_code == 2 and r.stdout == "", (bid, text)
            assert "parse error:" in r.stderr, (bid, text)
        wrong = ["UDD", "DU"] + (["H2"] if bid in beta else ["UH0D"])
        for text in wrong:
            r = run("bijection", bid, text)
            assert r.exit_code == 1 and r.stdout == "", (bid, text)
            assert r.stderr.startswith("error:"), (bid, text)


def test_verify_command_small():
    r = run("verify", "appendix_len3", "--max-n", "5")
    assert r.exit_code == 0
    assert "PASS" in r.stdout
    r = run("verify", "cayley21", "--max-n", "5", "--json")
    data = json.loads(r.stdout)
    assert data["pass"] is True


def test_readme_quick_tour():
    # every Quick-tour line of README.md that states its result prints it:
    # "# -> value", or the sorted set as a list of words
    readme = Path(__file__).resolve().parents[1] / "README.md"
    tour = readme.read_text().split("## Quick tour (CLI)")[1]
    tour = tour.split("```sh\n")[1].split("```")[0]
    checked = 0
    for line in tour.splitlines():
        command, _, comment = line.partition("#")
        args = shlex.split(command)[1:]
        comment = comment.strip()
        if comment.startswith("->"):
            want = comment[2:].strip()
        elif args[0] == "sorted-set":
            want = comment
        else:
            continue
        r = run(*args)
        assert r.exit_code == 0, line
        assert " ".join(r.stdout.split()) == want, line
        checked += 1
    assert checked == 7
