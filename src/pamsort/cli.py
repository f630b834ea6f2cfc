"""Command-line interface.

Every library capability is exposed as a subcommand of ``pamsort`` with
stable text (or ``--json``) output.  Exit codes: 0 success, 1 domain or
precondition error, 2 parse error, 3 verification failure.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from .bijections import (StoreMode, alpha_strip, av213_to_dyck,
                         av321_to_rgfnr12321, beta_motzkin, delta,
                         delta_inverse, dyck_to_av213, dyck_to_rgf1221, eta,
                         eta_inverse, parse_labeled_motzkin, phi_add_max,
                         rgf1221_to_dyck, rgfnr12321_to_av321,
                         schroder_to_sort123, sort123_to_schroder)
from .enumeration import (Method, SequenceId, count_sortable, golden_ids,
                          sequence_value, verify_golden)
from .machine import MachineSpec, fertility, is_sortable, machine_run
from .oracles import (FallbackRequired, UnsupportedError, classify,
                      fertility_123, oracle_is_sortable, sorted_set,
                      sorted_set_123)
from .patterns import (Pattern, PatternKind, PatternParseError,
                       format_pattern, parse_pattern)
from .paths_trees import format_path
from .words_core import Domain, Word, format_word, is_member, parse_word

_DOMAINS = {d.value: d for d in Domain}


class _ParseFailure(Exception):
    pass


def _errors(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (PatternParseError, _ParseFailure) as exc:
            click.echo(f"parse error: {exc}", err=True)
            sys.exit(2)
        except FallbackRequired as exc:
            click.echo(f"error: no oracle available: {exc}", err=True)
            sys.exit(1)
        except (ValueError, UnsupportedError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
    return wrapper


def _word_arg(text: str) -> Word:
    try:
        return parse_word(text)
    except ValueError as exc:
        raise _ParseFailure(str(exc)) from None


def _domain_word(text: str, spec: MachineSpec) -> Word:
    w = _word_arg(text)
    if not is_member(w, spec.domain):
        raise ValueError(
            f"{format_word(w)} is not a member of domain {spec.domain.value}")
    return w


def _split_sigma(text: str) -> list[str]:
    """Split a --sigma value at top-level commas only."""
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for c in text:
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return [p for p in (s.strip() for s in parts) if p]


def _patterns(sigma: str) -> tuple[Pattern, ...]:
    specs = _split_sigma(sigma)
    if not specs:
        raise _ParseFailure("empty --sigma")
    return tuple(parse_pattern(s) for s in specs)


def _spec(sigma: str, domain: str) -> MachineSpec:
    return MachineSpec(_patterns(sigma), _DOMAINS[domain])


_sigma_opt = click.option("--sigma", required=True,
                          help="comma-separated forbidden pattern specs")
_domain_opt = click.option("--domain", default="perm",
                           type=click.Choice(sorted(_DOMAINS)),
                           help="word domain (default perm)")
_method_opt = click.option("--method", default="oracle",
                           type=click.Choice([m.value for m in Method]),
                           help="oracle falls back to brute force")
_strict_opt = click.option("--strict", is_flag=True,
                           help="fail instead of falling back to brute force")
_maxn_opt = click.option("--max-n", type=int, default=None,
                         help="override the per-domain size guard")
_json_opt = click.option("--json", "as_json", is_flag=True)


@click.group()
def main() -> None:
    """Pattern-avoiding sorting machines."""


@main.command("sort")
@_sigma_opt
@_domain_opt
@click.argument("word_text", metavar="WORD")
@_errors
def sort_cmd(sigma: str, domain: str, word_text: str) -> None:
    """Run the two-stack machine and print the final output."""
    spec = _spec(sigma, domain)
    out, _ = machine_run(_domain_word(word_text, spec), spec)
    click.echo(format_word(out))


@main.command("trace")
@_sigma_opt
@_domain_opt
@click.argument("word_text", metavar="WORD")
@_errors
def trace_cmd(sigma: str, domain: str, word_text: str) -> None:
    """Print the push/pop event log of a machine run as JSON."""
    spec = _spec(sigma, domain)
    _, trace = machine_run(_domain_word(word_text, spec), spec,
                           with_trace=True)
    assert trace is not None
    click.echo(trace.to_json())


@main.command("sortable")
@_sigma_opt
@_domain_opt
@_method_opt
@_strict_opt
@click.argument("word_text", metavar="WORD")
@_errors
def sortable_cmd(sigma: str, domain: str, method: str, strict: bool,
                 word_text: str) -> None:
    """Print true/false: is the word sortable by the machine?"""
    spec = _spec(sigma, domain)
    w = _domain_word(word_text, spec)
    if method == Method.BRUTE.value:
        ans = is_sortable(w, spec)
    else:
        try:
            ans = oracle_is_sortable(w, spec)
        except FallbackRequired:
            if strict:
                raise
            click.echo("notice: no oracle for this machine, "
                       "falling back to brute force", err=True)
            ans = is_sortable(w, spec)
    click.echo("true" if ans else "false")


@main.command("classify")
@_sigma_opt
@_domain_opt
@_json_opt
@_errors
def classify_cmd(sigma: str, domain: str, as_json: bool) -> None:
    """Class or non-class?  Prints the basis or a witness."""
    pats = _patterns(sigma)
    if len(pats) != 1 or pats[0].kind is not PatternKind.CLASSICAL:
        raise ValueError("classify takes a single classical pattern")
    c = classify(pats[0].body, _DOMAINS[domain])
    if as_json:
        payload = {
            "sigma": list(c.sigma),
            "domain": c.domain.value,
            "is_class": c.is_class,
            "basis": [format_pattern(p) for p in c.basis] if c.basis else None,
            "witness": ({"word": format_word(c.witness[0]),
                         "pattern": format_pattern(c.witness[1])}
                        if c.witness else None),
        }
        click.echo(json.dumps(payload))
    else:
        click.echo(c.describe())


@main.command("enumerate")
@_sigma_opt
@_domain_opt
@click.option("--n", type=int, required=True)
@_method_opt
@_strict_opt
@_maxn_opt
@_errors
def enumerate_cmd(sigma: str, domain: str, n: int, method: str, strict: bool,
                  max_n: int | None) -> None:
    """Print the number of sortable words of length n."""
    spec = _spec(sigma, domain)
    m = Method(method)
    if m is Method.ORACLE:
        try:
            count = count_sortable(spec, n, m, max_n=max_n)
        except FallbackRequired:
            if strict:
                raise
            click.echo("notice: no oracle for this machine, "
                       "falling back to brute force", err=True)
            count = count_sortable(spec, n, Method.BRUTE, max_n=max_n)
    else:
        count = count_sortable(spec, n, m, max_n=max_n)
    click.echo(str(count))


@main.command("sequence")
@click.argument("sid", metavar="ID",
                type=click.Choice([s.value for s in SequenceId]))
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=None)
@_errors
def sequence_cmd(sid: str, n: int, k: int | None) -> None:
    """Print a value of a catalogued sequence."""
    click.echo(str(sequence_value(SequenceId(sid), n, k)))


_BIJECTIONS = {
    "eta": (lambda t: format_word(eta(_word_arg(t)))),
    "eta-inverse": (lambda t: format_word(eta_inverse(_word_arg(t)))),
    "dyck-to-av213": (lambda t: format_word(dyck_to_av213(t))),
    "av213-to-dyck": (lambda t: format_path(av213_to_dyck(_word_arg(t)))),
    "sort123-to-schroder":
        (lambda t: format_path(sort123_to_schroder(_word_arg(t)))),
    "schroder-to-sort123":
        (lambda t: format_word(schroder_to_sort123(t))),
    "rgf1221-to-dyck": (lambda t: format_path(rgf1221_to_dyck(_word_arg(t)))),
    "dyck-to-rgf1221": (lambda t: format_word(dyck_to_rgf1221(t))),
    "beta-stack":
        (lambda t: format_word(beta_motzkin(parse_labeled_motzkin(t),
                                            StoreMode.STACK))),
    "beta-queue":
        (lambda t: format_word(beta_motzkin(parse_labeled_motzkin(t),
                                            StoreMode.QUEUE))),
    "rgfnr12321-to-av321":
        (lambda t: format_word(rgfnr12321_to_av321(_word_arg(t)))),
    "av321-to-rgfnr12321":
        (lambda t: format_word(av321_to_rgfnr12321(_word_arg(t)))),
    "alpha-strip": (lambda t: format_word(alpha_strip(_word_arg(t)))),
    "delta": (lambda t: format_word(delta(_word_arg(t)))),
    "delta-inverse": (lambda t: format_word(delta_inverse(_word_arg(t)))),
    "phi": (lambda t: format_word(phi_add_max(_word_arg(t)))),
}


@main.command("bijection")
@click.argument("bid", metavar="ID",
                type=click.Choice(sorted(_BIJECTIONS)))
@click.argument("input_text", metavar="INPUT")
@_errors
def bijection_cmd(bid: str, input_text: str) -> None:
    """Apply a catalogued bijection to a word or path."""
    click.echo(_BIJECTIONS[bid](input_text))


@main.command("fertility")
@_sigma_opt
@_domain_opt
@_maxn_opt
@_json_opt
@click.argument("word_text", metavar="WORD")
@_errors
def fertility_cmd(sigma: str, domain: str, max_n: int | None, as_json: bool,
                  word_text: str) -> None:
    """Number of preimages of WORD under the first-stack map."""
    spec = _spec(sigma, domain)
    w = _domain_word(word_text, spec)
    preimages: list[Word] | None = None
    if spec.domain is Domain.PERM and spec.bodies == ((1, 2, 3),) \
            and w in sorted_set_123(len(w)):
        count = fertility_123(w)
    else:
        count, preimages = fertility(w, spec, max_n=max_n)
    if as_json:
        payload = {"word": format_word(w), "count": count}
        if preimages is not None:
            payload["preimages"] = [format_word(p) for p in preimages]
        click.echo(json.dumps(payload))
    else:
        click.echo(str(count))


@main.command("sorted-set")
@_sigma_opt
@_domain_opt
@click.option("--n", type=int, required=True)
@_maxn_opt
@_errors
def sorted_set_cmd(sigma: str, domain: str, n: int,
                   max_n: int | None) -> None:
    """Print sorted_n(sigma), one word per line."""
    pats = _patterns(sigma)
    if len(pats) != 1 or pats[0].kind is not PatternKind.CLASSICAL:
        raise ValueError("sorted-set takes a single classical pattern")
    words = sorted_set(pats[0].body, n, _DOMAINS[domain], max_n=max_n)
    for w in sorted(words):
        click.echo(format_word(w))


@main.command("verify")
@click.argument("tables", metavar="[TABLE_ID...]", nargs=-1)
@_maxn_opt
@_json_opt
@_errors
def verify_cmd(tables: tuple[str, ...], max_n: int | None,
               as_json: bool) -> None:
    """Recompute golden count tables; exit 3 on any divergence."""
    ids = tables or golden_ids()
    reports = [verify_golden(t, max_n=max_n) for t in ids]
    ok = all(r["pass"] for r in reports)
    if as_json:
        click.echo(json.dumps({"pass": ok, "tables": reports}))
    else:
        for r in reports:
            for row in r["rows"]:
                if row["pass"]:
                    click.echo(f"{r['table']}/{row['key']}: PASS "
                               f"(n <= {row['checked_upto']})")
                else:
                    d = row["first_divergence"]
                    click.echo(f"{r['table']}/{row['key']}: FAIL at "
                               f"n={d['n']}, expected {d['expected']}, "
                               f"got {d['actual']}")
    if not ok:
        sys.exit(3)


if __name__ == "__main__":
    main()
