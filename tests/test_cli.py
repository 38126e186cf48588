import ast
import contextlib
import csv
import errno
import importlib
import io
import json
import os
import pkgutil
import re
import resource
import shlex
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import ForwardRef

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import nestcone as nc
from nestcone import cli
from nestcone.cli import main, parse_curve_expr, parse_divisor_expr
from nestcone.errors import ParseError
from nestcone.rationals import canonical_csv


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("NESTCONE_NO_COLOR", "1")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------

def test_parse_divisor_expressions():
    s, sp = nc.p2(), nc.nested(3)
    d = parse_divisor_expr("2*Hdiff + Bb/2", s, sp)
    assert d.coords == (Fraction(2), 0, 0, Fraction(1))
    d2 = parse_divisor_expr("3/2*(Hdiff - Hb) - Bdiff/2", s, sp)
    assert d2.coords == (Fraction(3, 2), Fraction(-3, 2), Fraction(-1), 0)
    d3 = parse_divisor_expr("-Hb", s, sp)
    assert d3.coords == (0, Fraction(-1), 0, 0)
    d4 = parse_divisor_expr("B^b/2", s, sp)
    assert d4.coords == (0, 0, 0, Fraction(1))
    hilb = nc.hilb(3)
    for zero in ("2 - 2", "0*H"):
        assert parse_divisor_expr(zero, s, hilb) == nc.zero_divisor(s, hilb)
    assert parse_curve_expr("2 - 2", s, hilb) == nc.zero_curve(s, hilb)
    assert parse_divisor_expr("-(H - 2*B/2)", s, hilb).coords == (-1, 2)
    assert parse_divisor_expr("H*2*3", s, hilb).coords == (6, 0)


def test_parser_tells_scalars_from_classes_by_type():
    """Scalars are ints or Fractions, never classes: half classes add up to
    int coordinates, a product of numbers is still a bare number, and zero
    times a class is the zero class."""
    s, sp = nc.p2(), nc.hilb(3)
    d = parse_divisor_expr("1/2*H + 1/2*H", s, sp)
    assert d.coords == (1, 0) and all(type(x) is int for x in d.coords)
    c = parse_curve_expr("1/2*A + 1/2*A", s, sp)
    assert c.coords == (0, 1) and all(type(x) is int for x in c.coords)
    with pytest.raises(ParseError) as e:
        parse_divisor_expr("2*3", s, sp)
    message = "expression is a bare number, not a divisor class"
    assert (e.value.offset, e.value.message) == (0, message)
    z = parse_divisor_expr("0*H", s, sp)
    assert z == nc.zero_divisor(s, sp) and all(type(x) is int for x in z.coords)


def test_parse_curve_expressions():
    s, sp = nc.p2(), nc.nested(3)
    c = parse_curve_expr("Ca1 - 2*Aa", s, sp)
    assert c.coords == (Fraction(1), 0, Fraction(-2), 0)
    c2 = parse_curve_expr("A^b", s, sp)
    assert c2.coords == (0, 0, 0, Fraction(1))


def test_parse_errors_cite_offsets():
    s, sp = nc.p2(), nc.hilb(3)
    with pytest.raises(ParseError) as e:
        parse_divisor_expr("H * B/2", s, sp)  # two classes in one product
    assert e.value.offset == 2
    with pytest.raises(ParseError):
        parse_divisor_expr("H + 3", s, sp)  # bare number added to a class
    with pytest.raises(ParseError):
        parse_divisor_expr("Nope", s, sp)  # unknown label
    with pytest.raises(ParseError):
        parse_divisor_expr("7", s, sp)  # a bare number is not a class


@pytest.mark.parametrize(
    "src, offset, message",
    [
        ("1/*H", 2, "expected digits after '/'"),
        ("1/00*H", 2, "zero denominator"),
        pytest.param("9" * 1001 + "*H", 0, "the numbers hold more than 1000 digits", id="1001 digits"),
        ("H + ?", 4, "unexpected character '?'"),
        ("B/2/2", 3, "unexpected character '/'"),
        ("H+", 2, "unexpected token 'end of input'"),
        ("H)", 1, "unexpected token ')'"),
        ("2 H", 2, "unexpected token 'H'"),
        ("(H", 2, "expected ')'"),
        pytest.param("(" * 101 + "H", 100, "expression nested more than 100 deep", id="101 ("),
        pytest.param("-" * 101 + "H", 100, "expression nested more than 100 deep", id="101 -"),
        ("1 + H", 2, "cannot add a bare number to a class"),
        ("H*H", 1, "at most one class per product"),
        ("2*3", 0, "expression is a bare number, not a divisor class"),
        ("H+é", 2, "no divisor basis label 'é' on p2/hilb(3); valid labels: H, B/2"),
    ],
)
def test_every_parse_error_cites_its_offset_and_message(src, offset, message):
    with pytest.raises(ParseError) as e:
        parse_divisor_expr(src, nc.p2(), nc.hilb(3))
    assert (e.value.offset, e.value.message) == (offset, message)


def test_expression_roundtrip_property():
    s, sp = nc.p1xp1(), nc.univ(3)
    d = (
        Fraction(5, 3) * nc.divisor(s, sp, "H1diff")
        - 2 * nc.divisor(s, sp, "B/2")
        + nc.divisor(s, sp, "H2b")
    )
    assert parse_divisor_expr(d.expression(), s, sp).coords == d.coords
    c = nc.curve(s, sp, "Ca1") - Fraction(7, 2) * nc.curve(s, sp, "Aa")
    assert parse_curve_expr(c.expression(), s, sp).coords == c.coords


# ---------------------------------------------------------------------------
# Commands and exit codes
# ---------------------------------------------------------------------------

def test_pair_command(capsys):
    code, out, _ = run(
        capsys, "pair", "--surface", "p2", "--space", "nested", "--n", "3",
        "A^b", "B^b/2",
    )
    assert code == 0
    assert out.strip() == "-1"


def test_pair_command_argument_order(capsys):
    code, out, _ = run(
        capsys, "pair", "--space", "nested", "--n", "3", "B^b/2", "A^b"
    )
    assert code == 0
    assert out.strip() == "-1"


def test_pair_parse_error_exit_2(capsys):
    code, _, err = run(
        capsys, "pair", "--space", "hilb", "--n", "3", "H + ?", "A"
    )
    assert code == 2
    assert "byte" in err


def test_pair_parse_error_states_its_offset_once(capsys):
    code, out, err = run(capsys, "pair", "--surface", "p2", "--space", "hilb", "--n", "2", "H", "B")
    assert code == 2 and out == ""
    assert err == (
        "parse error at byte 0: no curve basis label 'B' on p2/hilb(2); valid labels: C1, A\n"
    )


def test_pair_zero_denominator_is_parse_error(capsys):
    code, out, err = run(capsys, "pair", "--space", "hilb", "--n", "3", "1/0*H", "C1")
    assert code == 2 and out == ""
    assert err.startswith("parse error at byte 2:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "expr, offset",
    [
        ("1" * 5000 + "*H", 0),  # past the interpreter's int-string limit
        ("9" * 600 + "*" + "9" * 600 + "*H", 601),  # a product too long to print
        ("(" * 3000 + "H" + ")" * 3000, 100),  # past the recursion limit
        ("H+" + "-" * 3000 + "H", 102),
        ("\u00b2*H", 0),  # a digit that is not a decimal digit
        ("\u00e9+?", 3),  # offsets count bytes: e-acute is two in UTF-8
        ("H +\u00a0?", 5),  # and so is the no-break space
    ],
    ids=[
        "long-number", "long-product", "deep-parentheses", "deep-minus", "superscript-digit",
        "e-acute", "no-break-space",
    ],
)
def test_pair_oversized_input_is_parse_error(capsys, expr, offset):
    code, out, err = run(capsys, "pair", "--space", "hilb", "--n", "3", expr, "C1")
    assert code == 2 and out == ""
    assert err.startswith(f"parse error at byte {offset}:")
    assert "Traceback" not in err


def test_pair_oversized_genus_is_usage_error(capsys):
    # A genus of 1000 digits keeps the pairing printable; a longer one is refused.
    argv = ["pair", "--surface", "k3", "--space", "hilb", "--n", "3", "999*H", "999*C1"]
    code, out, err = run(capsys, *argv, "--genus", "9" * 4299)
    assert code == 2 and out == ""
    assert err.startswith("usage error: --genus holds more than 1000 digits")
    assert "Traceback" not in err
    code, out, _ = run(capsys, *argv, "--genus", "9" * 1000)
    assert code == 0
    assert int(out) == 999 * 999 * (2 * (10**1000 - 1) - 2)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    args=st.lists(
        st.text() | st.text(alphabet="0123456789/()*+-^ HCABabdif"), min_size=2, max_size=2
    )
)
def test_pair_fuzz_exit_codes(args):
    """Any text as the two pair arguments ends in exit code 0, 1 or 2,
    never in an exception."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["pair", "--space", "nested", "--n", "3", *args])
    assert code in (0, 1, 2)


def test_pair_reports_error_of_given_order(capsys):
    # Neither order parses: the incomplete divisor is the error to report,
    # not the swapped attempt's complaint about C1.
    code, _, err = run(capsys, "pair", "--space", "hilb", "--n", "3", "H+", "C1")
    assert code == 2
    assert err.startswith("parse error at byte 2:")
    assert "end of input" in err


def test_pair_f0_is_hirzebruch(capsys):
    code, out, _ = run(
        capsys, "pair", "--surface", "f0", "--space", "nested", "--n", "2", "Fb", "Cb1"
    )
    assert code == 0
    assert out.strip() == "1"
    code, _, err = run(capsys, "pair", "--surface", "f9x", "--space", "hilb", "--n", "3", "H", "A")
    assert code == 2
    assert "unknown surface" in err
    code, _, err = run(capsys, "pair", "--surface", "f", "--space", "hilb", "--n", "3", "H", "A")
    assert (code, err) == (2, "error: unknown surface kind 'f' (use p2, p1xp1, f<i>, k3)\n")


@pytest.mark.parametrize("name", ["f\u00b3", "f\u0663", "F\u0663", "f3\u00b3"])
def test_surface_index_takes_ascii_digits_only(capsys, name):
    # A superscript three and an Arabic-Indic three are digits to str.isdigit.
    code, out, err = run(capsys, "pair", "--surface", name, "--space", "hilb", "--n", "3", "H", "A")
    assert (code, out) == (2, "")
    assert err == f"error: unknown surface kind {name.lower()!r} (use p2, p1xp1, f<i>, k3)\n"


def test_pair_oversized_surface_index_is_usage_error(capsys):
    # An index of 1000 digits keeps the pairing printable; a longer one is
    # refused before it is read, also past the interpreter's limit on reading
    # an integer.
    argv = ["--space", "hilb", "--n", "3", "9" * 999 + "*H", "9" * 999 + "*C1"]
    for digits in (1001, 4000, 5000):
        code, out, err = run(capsys, "pair", "--surface", "f" + "9" * digits, *argv)
        assert (code, out, err) == (2, "", "usage error: --surface f<i> holds more than 1000 digits\n")
    code, out, err = run(capsys, "pair", "--surface", "f" + "9" * 1000, *argv)
    assert (code, err) == (0, "")
    assert len(out) < 4300
    # Only significant digits count: leading zeros are dropped before the
    # count and before the index is read.
    argv = ["--space", "hilb", "--n", "3", "H", "C1"]
    f1 = run(capsys, "pair", "--surface", "f1", *argv)
    assert f1[0] == 0 and f1[2] == ""
    for name in ("f" + "0" * 1500 + "1", "f" + "0" * 5000 + "1", "F" + "0" * 5000 + "1"):
        assert run(capsys, "pair", "--surface", name, *argv) == f1
    code, out, err = run(capsys, "pair", "--surface", "f0" + "9" * 1001, *argv)
    assert (code, out, err) == (2, "", "usage error: --surface f<i> holds more than 1000 digits\n")


@pytest.mark.parametrize("surface, genus", [("p2", "5"), ("f1", "-7")])
def test_pair_refuses_a_genus_for_a_surface_other_than_k3(capsys, surface, genus):
    code, out, err = run(capsys, "pair", "--surface", surface, "--genus", genus,
                         "--space", "hilb", "--n", "3", "H", "C1")
    assert (code, out, err) == (2, "", f"error: only k3 takes a genus, not {surface!r}\n")


def test_usage_error_exit_2(capsys):
    code, _, err = run(capsys, "pair", "--surface", "k3", "--space", "hilb",
                       "--n", "3", "H", "A")
    assert code == 2  # k3 without --genus
    code, _, _ = run(capsys, "verify")  # neither --table nor --all
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_no_arguments_is_one_line_usage_error(capsys):
    code, out, err = run(capsys)
    assert (code, out, err) == (2, "", "usage error: Missing command.\n")


PAIR = ("pair", "--space", "hilb", "--n", "3")
TESTS_DIR = str(Path(__file__).resolve().parent)


def _quoted(ids) -> str:
    return ", ".join(f"'{t}'" for t in ids)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("table", "--table", "foo"),
         f"Invalid value for '--table': 'foo' is not one of {_quoted(sorted(nc.CATALOG))}."),
        (("table", "--table", "it's"),
         f"Invalid value for '--table': \"it's\" is not one of {_quoted(sorted(nc.CATALOG))}."),
        (("table", "--table=foo"),
         f"Invalid value for '--table': 'foo' is not one of {_quoted(sorted(nc.CATALOG))}."),
        (("table", "--tabel", "x"),
         "No such option '--tabel'. (Did you mean one of: '--help', '--table'?)"),
        (("pair", "--bogus", "--help"), "No such option '--bogus'. Did you mean '--genus'?"),
        (("table", "--="), "No such option '--'. (Did you mean one of: '--g', '--i', '--n'?)"),
        (("--hlp",), "No such option '--hlp'. Did you mean '--help'?"),
        (("table", "--table", "k3_g1n", "--n", "x"),
         "Invalid value for '--n': 'x' is not a valid integer."),
        (("table", "--n="), "Invalid value for '--n': '' is not a valid integer."),
        (("table", "--table", "k3_g1n", "--genus", "x"),
         "Invalid value for '--g' / '--genus': 'x' is not a valid integer."),
        (("pair", "--n", "--help"), "Invalid value for '--n': '--help' is not a valid integer."),
        ((*PAIR, "H"), "Missing argument 'CURVE_EXPR'."),
        (("pair",), "Missing argument 'DIVISOR_EXPR'."),
        (("frob",), "No such command 'frob'."),
        (("pari",), "No such command 'pari'. Did you mean 'pair'?"),
        (("--", "frob"), "No such command 'frob'."),
        (("",), "No such command ''."),
        (("table", "--table", "k3_g1n", "--n"), "Option '--n' requires an argument."),
        ((*PAIR, "H", "A", "c"), "Got unexpected extra argument (c)"),
        ((*PAIR, "H", "A", "c", "d"), "Got unexpected extra arguments (c d)"),
        (("nef",), "Missing option '--table'. Choose from:\n\t"
         + ",\n\t".join(sorted(t for t in nc.CATALOG if "nef" in t))),
        (("eff",), "Missing option '--table'. Choose from:\n\teff_p2_2_1,\n\teff_p2_3_2"),
        (("verify", "--all=3"), "Option '--all' does not take a value."),
        (("verify", "--all="), "Option '--all' does not take a value."),
        (("pair", "--help=1"), "Option '--help' does not take a value."),
        (("table", "--table", "eff_summary", "--out", TESTS_DIR),
         f"Invalid value for '--out': File '{TESTS_DIR}' is a directory."),
        (("table", "-H"), "No such option '-H'."),
        (("table", "-Hx"), "No such option '-H'."),
        (("table", "-n=3"), "No such option '-n'."),
        (("-x",), "No such option '-x'."),
        (("--", "-x"), "No such option '-x'."),
        # The first option given is the first one checked, ahead of a
        # missing --table.
        (("table", "--n", "x", "--table", "foo"),
         "Invalid value for '--n': 'x' is not a valid integer."),
        (("table", "--format", "bogus"),
         "Invalid value for '--format': 'bogus' is not one of 'text', 'json', 'csv'."),
        (("butler", "--ordering", "x"), "Invalid value for '--ordering': 'x' is not one of 'b', 'res'."),
        (("pair", "--space", "hilb", "H", "A"), "--space hilb requires --n"),
        (("pair", "--space", "foo", "--n", "3", "H", "A"),
         "unknown space 'foo' (use hilb, nested, univ, surface)"),
        # The space kind is checked ahead of --n.
        (("pair", "--space", "foo", "H", "A"),
         "unknown space 'foo' (use hilb, nested, univ, surface)"),
        (("pair", "--space", "surface", "--n", "3", "H", "A"), "--space surface takes no --n"),
        (("asymptotic", "--k-max", "1"), "k_max must be >= 2, got 1"),
        # Each study takes at most 10,000 values of k, and says so at once.
        (("asymptotic", "--k-max", "10002"), "k_max must be <= 10001"),
        (("asymptotic", "--k-max", "9" * 1000), "k_max must be <= 10001"),
        (("butler", "--k-max", "10001"), "k_range may hold at most 10000 values of k"),
        (("butler", "--k-min", "7", "--k-max", "10007"), "k_range may hold at most 10000 values of k"),
        (("butler", "--k-max", "9" * 1000), "k_range may hold at most 10000 values of k"),
    ],
)
def test_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (("pair", "--space=hilb", "--n=3", "H", "C1"), "1\n"),
        (("pair", "H", "--space", "hilb", "C1", "--n", "3"), "1\n"),  # options after arguments
        ((*PAIR, "--", "-H", "C1"), "-1\n"),  # after --, -H is an expression
        (("pair", "--n", "x", "--space", "hilb", "--n", "3", "H", "C1"), "1\n"),  # the last --n counts
        (("pair", "--genus", " 7 ", "--surface", "k3", "--space", "hilb", "--n", "3", "H", "C1"),
         "12\n"),  # int() takes surrounding blanks
        (("asymptotic", "--k-max", "1_0", "--k-max", "3"), None),
        # A help request is answered before the values are checked.
        ((*PAIR, "--n", "x", "H", "A", "extra", "--help"), None),
        (("pair", "--space", "Surface", "H", "2*H"), "2\n"),  # the surface takes no --n
    ],
)
def test_option_parsing(capsys, argv, stdout):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert stdout is None or out == stdout


# Values that no option expects: empty, dashes, an option name, non-ASCII.
_JUNK = st.sampled_from(["", "-", "--", "-3", "--n", "--help", "-x", "é", "日本", "x"]) | st.text(max_size=4)
_WORDS = st.sampled_from(
    ["p2", "p1xp1", "f0", "f2", "k3", "hilb", "nested", "univ", "surface",
     "H", "A^b", "B^b/2", "Hb", "C1", "2*H - A", "Cb1"]
)


def _rarely(draw, strategy, fallback):
    """A draw from `strategy` about one time in four, else `fallback`."""
    return draw(strategy) if draw(st.integers(0, 3)) == 0 else fallback


# 1000 digits, the most an integer option holds, 1001, 5000 (past int()'s
# limit on a literal) and a small value after 5000 zeros.
_LONG = st.sampled_from(
    ["9" * 1000, "-" + "9" * 1000, "1" + "0" * 1000, "-" + "9" * 1001, "9" * 5000, "0" * 5000 + "3"]
)


def _value(draw, p):
    """A value for the _Param `p`, read off its kind, or now and then junk.
    An integer is small, or now and then one of _LONG.  In --k-min and
    --k-max, which bound the studies' loops, a long value is refused at once
    (the k range holds at most 10,000 values) or small: so no drawn command
    runs long."""
    if p.kind is int:
        good = st.just(_rarely(draw, _LONG, draw(st.integers(-2, 8).map(str))))
    elif isinstance(p.kind, tuple):
        good = st.sampled_from(p.kind)
    elif p.kind is cli._FILE:  # relative to the test's working directory
        good = st.sampled_from(["out.txt", "missing/out.txt", ".", ""])
    else:
        good = _WORDS
    return _rarely(draw, _JUNK, draw(good))


@st.composite
def _command_lines(draw):
    name = _rarely(draw, _JUNK, draw(st.sampled_from(sorted(cli.COMMANDS))))
    params = cli.COMMANDS[name][1] if name in cli.COMMANDS else (cli._HELP,)
    stray = st.sampled_from(["--nope", "-q", "--", "--k-max=", "ü"])
    groups = [[draw(stray)] for _ in range(_rarely(draw, st.integers(1, 2), 0))]
    for p in params:
        if not (_rarely(draw, st.just(True), False) if p is cli._HELP else draw(st.booleans())):
            continue
        if not p.names:
            groups.append([_value(draw, p)])
        elif p.kind is cli._FLAG:
            groups.append([p.names[0] + _rarely(draw, _JUNK.map("={}".format), "")])
        elif draw(st.booleans()):
            groups.append([draw(st.sampled_from(p.names)), _value(draw, p)])
        else:
            groups.append([f"{draw(st.sampled_from(p.names))}={_value(draw, p)}"])
    return [name, *(arg for group in draw(st.permutations(groups)) for arg in group)]


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=_command_lines())
def test_command_line_fuzz_keeps_the_exit_contract(argv, tmp_path, monkeypatch):
    """Whole command lines drawn from the option tables in cli.COMMANDS end
    in exit 0, 1 or 2 with no traceback, and an exit 2 prints nothing on
    stdout and one error on stderr."""
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("usage error: ", "parse error at byte ", "error: "))


def test_out_with_a_null_byte_is_a_usage_error(capsys):
    code, out, err = run(capsys, "cross-section", "--table=eff_p2_2_1", "--out=\0")
    assert (code, out) == (2, "")
    assert err == "usage error: Invalid value for '--out': File '\\x00' contains a null byte.\n"


def test_out_must_be_readable_if_it_exists(tmp_path, capsys, monkeypatch):
    path = tmp_path / "x.csv"
    path.write_text("old")
    monkeypatch.setattr(os, "access", lambda p, mode: os.fspath(p) != str(path))
    code, out, err = run(capsys, "table", "--table", "eff_summary", "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"usage error: Invalid value for '--out': File '{path}' is not readable.\n"
    assert path.read_text() == "old"


def test_option_value_may_start_with_a_dash(capsys):
    code, out, err = run(capsys, "pair", "--space", "hilb", "--n", "-3", "H", "C1")
    assert (code, out, err) == (2, "", "error: Hilb(n) requires n >= 2, got -3\n")


def test_colour_only_on_a_terminal(capsys, monkeypatch):
    monkeypatch.delenv("NESTCONE_NO_COLOR")
    assert run(capsys, "verify", "--table", "k3_g1n")[1] == "k3_g1n: OK (4 cells)\n"

    class Terminal(io.StringIO):
        def isatty(self):
            return True

    term = Terminal()
    monkeypatch.setattr(sys, "stdout", term)
    assert main(["verify", "--table", "k3_g1n"]) == 0
    assert term.getvalue() == "k3_g1n: \x1b[32mOK\x1b[0m (4 cells)\n"
    term.truncate(0)
    monkeypatch.setenv("NESTCONE_NO_COLOR", "1")
    assert main(["verify", "--table", "k3_g1n"]) == 0
    assert term.getvalue().endswith("k3_g1n: OK (4 cells)\n")


def test_module_help_names_the_module():
    src = str(Path(nc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    proc = subprocess.run(
        [sys.executable, "-m", "nestcone.cli", "--help"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == (
        "Usage: python -m nestcone.cli [OPTIONS] COMMAND [ARGS]..."
    )


def test_narrow_terminal_help_puts_the_usage_arguments_on_the_next_line():
    """At 60 columns the help is wrapped to 58, too narrow for the usage
    prefix and 20 columns of arguments: as click 8's `write_usage` does,
    the arguments go on the next line, indented len("Usage: ") + 4."""
    src = str(Path(nc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "60"}
    proc = subprocess.run(
        [sys.executable, "-m", "nestcone.cli", "cross-section", "--help"],
        env=env, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[:5] == [
        "Usage: python -m nestcone.cli cross-section ",
        "           [OPTIONS]",
        "",
        "  Emit the cross-section polytope of a catalog cone",
        "  (vertices labeled by the generator rays).",
    ]
    assert proc.stdout.endswith(
        "  --help                          Show this message and\n" + " " * 34 + "exit.\n"
    )


def test_cli_import_loads_no_dataclasses():
    # Records are NamedTuples or slotted classes, which cost next to nothing
    # to declare; declaring dataclasses took over half of `import nestcone`.
    # The option parser is the module's own: click loaded 27 modules,
    # `inspect` among them, that no command needs.  Only --help needs
    # `textwrap`, and only a misspelt option or command `difflib`.
    src = str(Path(nc.__file__).resolve().parents[1])
    names = ("dataclasses", "click", "inspect", "textwrap", "difflib")
    code = f"import sys, nestcone.cli; print([m for m in {names} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_record_annotations_are_objects():
    # typing.NamedTuple compiles each field annotation given as a string
    # into a ForwardRef when the class is declared: 88 compile calls at
    # import when the record modules postponed their annotations.
    def parts(t):
        yield t
        for arg in getattr(t, "__args__", ()):
            yield from parts(arg)

    modules = [importlib.import_module(f"nestcone.{m.name}") for m in pkgutil.iter_modules(nc.__path__)]
    records = [
        obj for mod in modules for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
        and obj.__module__ == mod.__name__
    ]
    assert len(records) >= 20
    for record in records:
        for field, t in record.__annotations__.items():
            bad = [p for p in parts(t) if isinstance(p, (str, ForwardRef))]
            assert not bad, (record.__name__, field, bad)


def test_out_into_missing_directory_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(
        capsys, "table", "--table", "eff_summary", "--format", "csv", "--out", str(path)
    )
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"
    assert not path.exists()


def test_verify_single_table(capsys):
    code, out, _ = run(capsys, "verify", "--table", "nef_p2_nested", "--n", "5")
    assert code == 0
    assert "nef_p2_nested: OK" in out


def _failing_report(table_id):
    """The report of `table_id` with the check of its one section failed."""
    report = nc.reproduce_table(table_id)
    (section,) = report.sections
    check = section.checks[0]._replace(status="fail", detail="failed: injected")
    return report._replace(sections=(section._replace(checks=(check,)),))


def test_verify_failure_is_one_line_and_exit_1(capsys, monkeypatch):
    failing = _failing_report("eff_p2_2_1")
    monkeypatch.setattr(cli, "reproduce_table", lambda table_id, **params: failing)
    code, out, err = run(capsys, "verify", "--table", "eff_p2_2_1")
    assert (code, out) == (1, "eff_p2_2_1: FAIL (16 cells)\n")
    assert err == failing.text() + "\n"
    assert err.startswith("table eff_p2_2_1 {}: FAIL\n  [eff_p2_2_1 (p2, univ(2))] FAIL\n")


class _Unwritable(io.StringIO):
    def write(self, text):
        raise OSError(errno.EIO, os.strerror(errno.EIO))


@pytest.mark.parametrize("stderr", [_Unwritable(), None], ids=["raises", "closed"])
def test_unwritable_stderr_keeps_the_exit_code(capsys, monkeypatch, stderr):
    failing = _failing_report("eff_p2_2_1")
    monkeypatch.setattr(cli, "reproduce_table", lambda table_id, **params: failing)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["verify", "--table", "eff_p2_2_1"]) == 1
    assert main(["table", "--table", "foo"]) == 2
    assert capsys.readouterr().out == "eff_p2_2_1: FAIL (16 cells)\n"


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--all")
    assert code == 0
    for tid in nc.CATALOG:
        assert f"{tid}: OK" in out
    assert "skipped" in out  # the summary chart reports its skipped cells


def test_verify_all_rejects_table_params(capsys):
    for flag in ("--n", "--g", "--i"):
        code, out, err = run(capsys, "verify", "--all", flag, "50")
        assert code == 2 and out == ""
        assert "--all" in err


@pytest.mark.parametrize("command", ["table", "verify", "nef", "cross-section"])
def test_table_flag_the_table_does_not_take_is_usage_error(capsys, command):
    code, out, err = run(capsys, command, "--table", "nef_p2_nested", "--g", "5")
    assert code == 2 and out == ""
    assert "takes no parameter 'g'" in err


def test_table_command_formats(capsys):
    code, out, _ = run(capsys, "table", "--table", "pairing_p2_hilb", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    code, out, _ = run(capsys, "table", "--table", "pairing_p2_hilb", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "section,row,col,expected,computed,status"


def test_nef_command(capsys):
    code, out, _ = run(capsys, "nef", "--table", "nef_p2_nested", "--n", "5")
    assert code == 0
    assert "certified" in out
    # identity matrix rows visible
    assert "[1 0 0 0]" in out
    code, out, _ = run(capsys, "nef", "--table", "nef_k3_univ", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "certified"


def test_eff_command(capsys):
    code, out, _ = run(capsys, "eff", "--table", "eff_p2_2_1")
    assert code == 0
    assert "certified" in out


def test_cross_section_tikz_labels(capsys):
    code, out, _ = run(
        capsys, "cross-section", "--table", "eff_p2_2_1", "--format", "tikz"
    )
    assert code == 0
    assert "\\begin{tikzpicture}" in out
    for lab in ("H_1", "H_2", "B", "D_{1,1}"):
        assert f"${lab}$" in out
    assert out.count("\\draw") == 4  # square: 4 edges, no diagonals


def test_cross_section_svg_and_out_file(tmp_path, capsys):
    path = tmp_path / "fig.svg"
    code, out, _ = run(
        capsys, "cross-section", "--table", "nef_p2_nested",
        "--format", "svg", "--out", str(path),
    )
    assert code == 0
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<circle") == 4


@pytest.mark.parametrize(
    "table_id", [*sorted(t for t in nc.CATALOG if "nef" in t), "eff_p2_2_1", "eff_p2_3_2"]
)
def test_cross_section_csv_rows_match_header(capsys, table_id):
    code, out, _ = run(capsys, "cross-section", "--table", table_id, "--format", "csv")
    assert code == 0
    header, *rows, edges = list(csv.reader(io.StringIO(out)))
    assert header[-1] == "label" and edges[0] == "edges"
    assert all(len(row) == len(header) for row in rows)
    assert canonical_csv([header, *rows, edges]) == out


def test_cross_section_json(capsys):
    code, out, _ = run(
        capsys, "cross-section", "--table", "eff_p2_2_1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 4
    assert sorted(payload["labels"]) == ["B", "D_{1,1}", "H_1", "H_2"]


def test_butler_command(capsys):
    code, out, _ = run(capsys, "butler", "--i", "1", "--n", "4")
    assert code == 0
    assert "all interior" in out
    code, _, err = run(capsys, "butler", "--n", "3")
    assert code == 2  # InvalidInput surfaces as a usage error


@pytest.mark.parametrize("option", ["--a", "--b", "--n", "--i", "--k-min", "--k-max"])
def test_butler_integer_past_1000_digits_is_usage_error(capsys, option):
    # 4299 digits parse, but a Butler coordinate built from them would not print.
    for value in ("9" * 4299, "-1" + "0" * 1000):
        code, out, err = run(capsys, "butler", "--n", "99", "--k-max", "3", option, value)
        assert (code, out) == (2, "")
        assert err == f"usage error: {option} holds more than 1000 digits\n"


def test_butler_at_1000_digits_prints_every_coordinate(capsys):
    big = "9" * 1000
    code, out, err = run(capsys, "butler", "--a", big, "--b", big, "--n", big, "--k-max", "3")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 4


def test_integer_option_counts_significant_digits(capsys):
    # Past int()'s limit of 4300 digits a literal is still read: 5000 nines
    # reach 10**1000, and a 5 after 5000 zeros is 5.
    code, out, err = run(capsys, "butler", "--n", "9" * 5000)
    assert (code, out, err) == (2, "", "usage error: --n holds more than 1000 digits\n")
    padded = run(capsys, "butler", "--n", "0" * 5000 + "5", "--k-max", "1")
    assert padded == run(capsys, "butler", "--n", "5", "--k-max", "1")
    assert padded[0] == 0 and padded[2] == ""


@pytest.mark.parametrize(
    "value, number",
    [(" +0000" + "9" * 10, 9_999_999_999), ("1_000", 1000), ("9" * 1000, 10**1000 - 1)],
)
def test_integer_option_keeps_every_spelling(value, number):
    got = cli._Param("--n", kind=int).convert(value)
    assert got == number and type(got) is int


def test_asymptotic_command(capsys):
    code, out, _ = run(capsys, "asymptotic", "--k-max", "6")
    assert code == 0
    assert "OK" in out
    code, out, _ = run(capsys, "asymptotic", "--k-max", "6", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


# ---------------------------------------------------------------------------
# Determinism of the emitters
# ---------------------------------------------------------------------------

def test_emitters_bit_stable(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "cross-section", "--table", "eff_p2_2_1", "--format", "svg"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_fixed_point_formatter():
    from nestcone.render import _fixed

    assert _fixed(Fraction(1, 3)) == "0.3333"
    assert _fixed(Fraction(-1, 3)) == "-0.3333"
    assert _fixed(Fraction(1, 2)) == "0.5"
    assert _fixed(Fraction(0)) == "0"
    assert _fixed(Fraction(1, 800)) == "0.0013"  # 0.00125: round half away from zero
    assert _fixed(Fraction(-1, 800)) == "-0.0013"
    assert _fixed(Fraction(7)) == "7"


# ---------------------------------------------------------------------------
# The process entry
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]
SRC = str(Path(nc.__file__).resolve().parents[1])


def _spawn(argv, unbuffered=False, color=False, code=None, **kwargs):
    """A real `python -m nestcone.cli` process, or with `code`, a
    `python -c code` process given the same arguments."""
    env = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80", "NESTCONE_NO_COLOR": "1"}
    env.pop("PYTHONUNBUFFERED", None)
    if color:  # verdicts are then coloured when stdout is a terminal
        del env["NESTCONE_NO_COLOR"]
    if unbuffered:  # stdout writes through, so the write raises, not the flush
        env["PYTHONUNBUFFERED"] = "1"
    prog = ["-m", "nestcone.cli"] if code is None else ["-c", code]
    return subprocess.Popen([sys.executable, *prog, *argv], env=env, stdin=subprocess.DEVNULL, **kwargs)


def _limit_child():
    """In a child before exec: at most 1 GiB of address space and 30 s of CPU time."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (30, 30))


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=_command_lines())
def test_command_line_fuzz_in_limited_processes(argv, tmp_path):
    """The fuzz above, each drawn line run by a real process under limits on
    its memory and CPU time: exit 0, 1 or 2, no traceback, and an exit 2
    prints nothing on stdout.  A NUL byte cannot reach a process's argv."""
    assume(not any("\0" in arg for arg in argv))
    proc = _spawn(argv, cwd=tmp_path, preexec_fn=_limit_child,
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode in (0, 1, 2), err
    assert b"Traceback" not in err
    if proc.returncode == 2:
        assert out == b""
        assert err.startswith((b"usage error: ", b"parse error at byte ", b"error: "))


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("verify", "--all"), (*PAIR, "H", "C1")], ids=["verify", "pair"])
def test_closed_pipe_exits_2_silently(argv, unbuffered):
    r, w = os.pipe()
    os.close(r)
    try:
        proc = _spawn(argv, unbuffered, stdout=w, stderr=subprocess.PIPE)
    finally:
        os.close(w)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (2, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("verify", "--all"), (*PAIR, "H", "C1")], ids=["verify", "pair"])
def test_full_stdout_exits_2_with_one_line(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        proc = _spawn(argv, unbuffered, stdout=full, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.decode() == "error: cannot write stdout: No space left on device\n"
    assert "Traceback" not in err.decode()


@pytest.mark.parametrize("argv", [("verify", "--all"), (*PAIR, "H", "C1")], ids=["verify", "pair"])
def test_closed_stdout_exits_2_with_one_line(argv):
    # With descriptor 1 closed at start-up, Python sets sys.stdout to None;
    # colour is left on, so `verify` asks that None whether it is a terminal.
    proc = _spawn(argv, color=True, preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.decode() == "error: cannot write stdout: Bad file descriptor\n"


def test_pair_with_the_zero_curve_prints_0():
    proc = _spawn([*PAIR, "H", "0"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.communicate(timeout=120) == (b"0\n", b"")
    assert proc.returncode == 0


def test_closed_stderr_keeps_the_exit_code():
    # The usage error cannot be written, but the exit code still says 2.
    proc = _spawn(["table", "--table", "foo"], preexec_fn=lambda: os.close(2), stdout=subprocess.PIPE)
    out, _ = proc.communicate(timeout=120)
    assert (proc.returncode, out) == (2, b"")


def test_closed_stdout_is_no_error_when_nothing_is_written(tmp_path):
    argv = ["cross-section", "--table", "eff_p2_2_1", "--out", "eff.svg"]
    proc = _spawn(argv, preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, cwd=tmp_path)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    assert (tmp_path / "eff.svg").read_text().endswith("</svg>\n")


def test_ctrl_c_exits_130():
    # The child restores SIGINT's default, so the test holds also when the
    # suite runs with SIGINT ignored (as a background job does).  Its
    # `asymptotic` study sleeps for 120 s, so the signal comes mid-command:
    # every accepted k range ends in about a second.
    sleeper = (
        "import time, nestcone.cli as c; "
        "c.asymptotic_report = lambda k_max: time.sleep(120); c.entry()"
    )
    proc = _spawn(
        ["asymptotic"],
        code=sleeper,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        time.sleep(1.5)  # well past the import: the study sleeps for 120 s
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert (proc.returncode, out) == (130, b"")
    assert err.decode() == "Aborted.\n"
    assert "Traceback" not in err.decode()


def _readme_examples():
    """The argument lists of the README's `nestcone ...` examples."""
    lines = (REPO / "README.md").read_text().splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("nestcone ")]


@pytest.mark.parametrize(
    "argv",
    [
        *_readme_examples(),
        ["--help"],
        ["cross-section", "--help"],
        ["table", "--table", "foo"],  # a usage error, exit 2
        ["asymptotic", "--k-max", "1000", "--format", "json"],  # more than a pipe buffer
    ],
    ids=" ".join,
)
def test_process_writes_what_main_writes(argv, tmp_path, monkeypatch):
    """A real process prints what `main` prints in process, byte for byte,
    with the same exit code, and writes the same --out file: ending the
    process with os._exit drops no buffered output."""
    proc = _spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path)
    stdout, stderr = proc.communicate(timeout=120)
    files = {}
    for path in tmp_path.iterdir():
        files[path.name] = path.read_bytes()
        path.unlink()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_prog_name", lambda: "python -m nestcone.cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert proc.returncode == code
    assert stdout == out.getvalue().encode()
    assert stderr == err.getvalue().encode()
    assert files == {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    if "--out" in argv:
        assert files[argv[argv.index("--out") + 1]].endswith(b"</svg>\n")
    if "1000" in argv:
        assert len(stdout) > 65536


def test_readme_examples_are_found():
    examples = _readme_examples()
    assert len(examples) >= 9
    assert ["verify", "--all"] in examples


def test_main_never_ends_the_process(capsys, monkeypatch):
    """`main` is the in-process API: it returns its code, and only `entry`
    calls os._exit."""
    def no_exit(code):
        raise AssertionError(f"os._exit({code}) called in process")

    monkeypatch.setattr(os, "_exit", no_exit)
    assert run(capsys, *PAIR, "H", "C1")[0] == 0
    failing = cli.asymptotic_report(3)._replace(limit_is_orthant=False)
    monkeypatch.setattr(cli, "asymptotic_report", lambda k_max: failing)
    assert run(capsys, "asymptotic", "--k-max", "3")[0] == 1
    assert run(capsys, "table", "--table", "foo")[0] == 2
    assert run(capsys, "--help")[0] == 0


def test_no_module_ends_the_process_by_exception():
    """Commands return their verdict and `main` its code: nothing in the
    package calls sys.exit or names SystemExit."""
    package = Path(cli.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("sys.exit", "exit", "quit")
        or isinstance(node, ast.Name) and node.id == "SystemExit"
    ]
    assert found == []


def test_installed_command_is_the_process_entry():
    # A regex, not tomllib, which Python 3.10 lacks.
    pyproject = (REPO / "pyproject.toml").read_text()
    module, name = re.search(
        r'^\[project\.scripts\]\nnestcone = "([\w.]+):(\w+)"$', pyproject, re.M
    ).groups()
    tree = ast.parse(Path(cli.__file__).read_text())
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in block.body] == [f"{name}()"]
    assert (module, getattr(cli, name)) == (cli.__name__, cli.entry)
