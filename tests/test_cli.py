"""End-to-end tests of the command-line interface."""

import json

from click.testing import CliRunner

from pamsort.cli import main


def run(*args):
    return CliRunner(mix_stderr=False).invoke(main, args) \
        if _mix_supported() else CliRunner().invoke(main, args)


def _mix_supported():
    import inspect
    return "mix_stderr" in inspect.signature(CliRunner.__init__).parameters


def test_sortable_example():
    r = run("sortable", "--sigma", "132", "2413")
    assert r.exit_code == 0
    assert r.stdout.strip() == "true"


def test_sortable_false_and_brute_method():
    r = run("sortable", "--sigma", "123", "132")
    assert r.exit_code == 0 and r.stdout.strip() == "false"
    r = run("sortable", "--sigma", "123", "--method", "brute", "4132")
    assert r.exit_code == 0 and r.stdout.strip() == "true"


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


def test_sequence_command():
    r = run("sequence", "CATALAN", "--n", "5")
    assert r.exit_code == 0 and r.stdout.strip() == "42"
    r = run("sequence", "NARAYANA", "--n", "4", "--k", "2")
    assert r.stdout.strip() == "6"


def test_fertility_command():
    r = run("fertility", "--sigma", "123", "132")
    assert r.exit_code == 0 and r.stdout.strip() == "1"
    r = run("fertility", "--sigma", "123", "--json", "12")
    data = json.loads(r.stdout)
    assert data["count"] == 1


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


def test_verify_command_small():
    r = run("verify", "appendix_len3", "--max-n", "5")
    assert r.exit_code == 0
    assert "PASS" in r.stdout
    r = run("verify", "cayley21", "--max-n", "5", "--json")
    data = json.loads(r.stdout)
    assert data["pass"] is True
