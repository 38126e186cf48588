"""Command-line front end (``nestcone``).

Exit codes: 0 success / everything certified, 1 verification failure or
table diff, 2 usage or expression-parse errors or a stdout that cannot be
written (silently when the reader closed the pipe), 130 when interrupted
with Ctrl-C.  Every command returns its verdict, False when a check
failed, and `main` maps it to 0 or 1.  A diagnostic that cannot be written
to stderr is dropped, so stderr never changes the exit code.  All output
is deterministic for fixed inputs.  Certificate verdicts and `verify`
statuses are coloured only when stdout is a terminal and NESTCONE_NO_COLOR
is unset (or empty).

Each command's options and arguments are one declarative table, from which
the parser, `--help` and the usage errors are all derived; the command line
needs nothing outside the standard library.  Every command but `verify`
(which prints per table, failing reports to stderr) writes one text through
`_emit`, the one output path.
"""

from __future__ import annotations

import errno
import os
import sys
from typing import NoReturn

from .errors import NestconeError, ParseError, UsageError
from .rationals import canonical_json, rat
from .render import cross_section_csv, cross_section_svg, cross_section_tikz
from .spaces import (
    CurClass,
    DivClass,
    SurfaceModel,
    SpaceId,
    curve,
    divisor,
    hilb,
    nested,
    surface_model,
    surface_space,
    univ,
    zero_curve,
    zero_divisor,
)
from .studies import ButlerInput, asymptotic_report, butler_check
from .verify import (
    CATALOG,
    EFF_MOVING,
    NEF_DUAL,
    SKIPPED,
    certified_tables,
    reproduce_table,
    standard_eff_certificate,
    standard_nef_certificate,
    table_cross_section,
    table_params,
)

# ---------------------------------------------------------------------------
# Class-expression grammar
# ---------------------------------------------------------------------------
#   expr    := term (('+' | '-') term)*
#   term    := factor ('*' factor)*
#   factor  := NUMBER | LABEL | '-' factor | '(' expr ')'
#   NUMBER  := digits ['/' digits]
#   LABEL   := letter (letter | digit | '^')* ['/' digits]
# A value is a rational scalar or a class, combined with the classes' own
# arithmetic; every label resolves on the one (surface, space).  At most one
# class label per product.  One function, _parse_class, tokenizes and parses,
# counting characters, and converts the offset of an error to a byte offset
# once, so parse errors cite byte offsets.  Digits are ASCII.  At
# most _MAX_DIGITS digits per expression, and at most _MAX_DIGITS significant
# digits in every integer option (checked in _Param.convert) and in the index
# of `pair --surface f<i>` (read without its leading zeros), keep every
# coefficient, the pairing of two expressions and every Butler coordinate
# under the interpreter's limit on printing an integer, and the index under
# its limit on reading one; parentheses and unary minus nested
# at most _MAX_DEPTH deep keep the recursive descent under its recursion
# limit.

_DIGITS = frozenset("0123456789")
_MAX_DIGITS = 1000
_MAX_DEPTH = 100


def _skip_digits(src: str, k: int) -> int:
    while k < len(src) and src[k] in _DIGITS:
        k += 1
    return k


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """The (kind, text, character offset) of each token, then ("end", "", len(src))."""
    toks = []
    i = 0
    n = len(src)
    digits = 0
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*()":
            toks.append((c, c, i))
            i += 1
            continue
        if c in _DIGITS:
            j = _skip_digits(src, i)
            if j < n and src[j] == "/":
                k = _skip_digits(src, j + 1)
                if k == j + 1:
                    raise ParseError("expected digits after '/'", j + 1)
                if not src[j + 1:k].strip("0"):
                    raise ParseError("zero denominator", j + 1)
                j = k
            digits += j - i
            if digits > _MAX_DIGITS:
                raise ParseError(f"the numbers hold more than {_MAX_DIGITS} digits", i)
            toks.append(("num", src[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "^"):
                j += 1
            if j < n and src[j] == "/":
                k = _skip_digits(src, j + 1)
                if k > j + 1:
                    j = k
            toks.append(("label", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("end", "", n))
    return toks


def _parse_class(src: str, surface: SurfaceModel, space: SpaceId, unit, zero, what: str):
    toks = []
    pos = depth = 0

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        v = term()
        while toks[pos][0] in ("+", "-"):
            kind, _, offset = take()
            w = term()
            if isinstance(v, (DivClass, CurClass)) != isinstance(w, (DivClass, CurClass)):
                raise ParseError("cannot add a bare number to a class", offset)
            v = v + w if kind == "+" else v - w
        return v

    def term():
        v = factor()
        while toks[pos][0] == "*":
            offset = take()[2]
            w = factor()
            if isinstance(v, (DivClass, CurClass)) and isinstance(w, (DivClass, CurClass)):
                raise ParseError("at most one class per product", offset)
            v = v * w
        return v

    def factor():
        nonlocal depth
        kind, text, offset = take()
        if kind == "num":
            return rat(text)
        if kind == "label":
            try:
                return unit(surface, space, text)
            except NestconeError as e:
                raise ParseError(str(e), offset) from e
        if kind not in ("-", "("):
            raise ParseError(f"unexpected token {text or 'end of input'!r}", offset)
        if depth == _MAX_DEPTH:
            raise ParseError(f"expression nested more than {_MAX_DEPTH} deep", offset)
        depth += 1
        if kind == "-":
            v = -factor()
        else:
            v = expr()
            kind, _, offset = take()
            if kind != ")":
                raise ParseError("expected ')'", offset)
        depth -= 1
        return v

    try:
        toks = _tokenize(src)
        v = expr()
        kind, text, offset = toks[pos]
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", offset)
    except ParseError as e:
        raise ParseError(e.message, len(src[:e.offset].encode("utf-8"))) from e.__cause__
    if not isinstance(v, (DivClass, CurClass)):
        if v == 0:
            return zero(surface, space)
        raise ParseError(f"expression is a bare number, not a {what} class", 0)
    return v


def parse_divisor_expr(src: str, surface: SurfaceModel, space: SpaceId) -> DivClass:
    return _parse_class(src, surface, space, divisor, zero_divisor, "divisor")


def parse_curve_expr(src: str, surface: SurfaceModel, space: SpaceId) -> CurClass:
    return _parse_class(src, surface, space, curve, zero_curve, "curve")


# ---------------------------------------------------------------------------
# Option tables, parsing and --help
# ---------------------------------------------------------------------------
# Each command declares its options and arguments once, as a tuple of
# _Param; the parser, the --help text and the usage errors all read that
# tuple.  The rules, messages and help layout are those of click 8, on which
# earlier releases of this command line were built, so scripts see the same
# behaviour: options and arguments interleave, `--opt value` and
# `--opt=value` both work, `--` ends the options, an option that takes a
# value takes the next token whatever it is, and a repeated option keeps its
# last value.  `--help` wins over every value check; the other values are
# checked in the order their options were first given, then the arguments,
# then the options left at their defaults, and the first failure is the one
# reported.

_FLAG = "flag"
_FILE = "file"
_METAVARS = {int: "INTEGER", str: "TEXT", _FILE: "FILE"}


class _Param:
    """An option, spelled `names`, or with no names a positional argument.
    `kind` converts its value: int, str, a tuple of choices, _FILE (a path
    that is not a directory, nor an existing file that cannot be read) or
    _FLAG (no value: True when given)."""

    __slots__ = ("names", "dest", "kind", "default", "required", "show_default", "help")

    def __init__(self, *names, dest=None, kind=str, default=None, required=False,
                 show_default=False, help=""):
        self.names = names
        self.dest = dest or names[0].lstrip("-").replace("-", "_")
        self.kind = kind
        self.default = default
        self.required = required
        self.show_default = show_default
        self.help = help

    def hint(self) -> str:
        """How a usage error names this parameter."""
        if not self.names:
            return f"'{self.dest.upper()}'"
        return " / ".join(f"'{name}'" for name in self.names)

    def convert(self, value):
        kind = self.kind
        if kind is int:
            # int()'s grammar (whitespace, a sign, digit groups joined by
            # single underscores), read here so that the significant digits
            # are counted before int() meets its limit on a literal's length.
            text = value.strip()
            sign = text[:1] if text[:1] in ("+", "-") else ""
            groups = text[len(sign):].split("_")
            digits = "".join(groups)
            if all(groups) and digits.isdecimal():
                # any script's decimal digits, spelled in ASCII as int() reads them
                digits = digits.translate({ord(d): str(int(d)) for d in set(digits)})
                digits = digits.lstrip("0") or "0"
                if len(digits) <= _MAX_DIGITS:
                    return int(sign + digits)
                raise UsageError(f"{self.names[-1]} holds more than {_MAX_DIGITS} digits")
            problem = f"{value!r} is not a valid integer."
        elif isinstance(kind, tuple):
            if value in kind:
                return value
            problem = f"{value!r} is not one of {', '.join(map(repr, kind))}."
        elif kind is _FILE:
            shown = value.encode("utf-8", "surrogateescape").decode("utf-8", "replace")
            if os.path.isdir(value):
                problem = f"File {shown!r} is a directory."
            elif os.path.exists(value) and not os.access(value, os.R_OK):
                problem = f"File {shown!r} is not readable."
            elif "\0" in value:
                problem = f"File {shown!r} contains a null byte."
            else:
                return value
        else:
            return value
        raise UsageError(f"Invalid value for {self.hint()}: {problem}")

    def missing(self) -> str:
        text = f"Missing {'option' if self.names else 'argument'} {self.hint()}."
        if isinstance(self.kind, tuple):
            text += " Choose from:\n\t" + ",\n\t".join(self.kind)
        return text

    def help_row(self) -> tuple[str, str]:
        term = ", ".join(self.names)
        if self.kind is not _FLAG:
            kind = self.kind
            term += " " + (f"[{'|'.join(kind)}]" if isinstance(kind, tuple) else _METAVARS[kind])
        extra = []
        if self.show_default and self.default is not None:
            extra.append(f"default: {self.default}")
        if self.required:
            extra.append("required")
        if not extra:
            return term, self.help
        tail = f"[{'; '.join(extra)}]"
        return term, f"{self.help}  {tail}" if self.help else tail


_HELP = _Param("--help", kind=_FLAG, help="Show this message and exit.")

# Declare a catalog table's parameters --n, --g/--genus and --i.
_TABLE_FLAGS = (_Param("--n", kind=int), _Param("--g", "--genus", kind=int), _Param("--i", kind=int))

_PROGRAM_HELP = """Exact intersection pairings and cone-duality certificates for
    Hilbert schemes of points, nested Hilbert schemes, and universal
    families over rational and K3 surfaces."""

# Command name -> (function, parameters); the function's docstring is the
# command's help text.
COMMANDS: dict = {}


def _command(name: str, *params: _Param):
    def register(fn):
        COMMANDS[name] = (fn, (*params, _HELP))
        return fn

    return register


def _did_you_mean(word: str, names) -> str:
    from difflib import get_close_matches  # only a misspelling needs it

    matches = sorted(get_close_matches(word, names))
    if len(matches) == 1:
        return f" Did you mean {matches[0]!r}?"
    if matches:
        return f" (Did you mean one of: {', '.join(map(repr, matches))}?)"
    return ""


def _parse(params, args: list[str], interspersed: bool = True):
    """Split `args` into (values, order, positional): the raw value of each
    option given, by dest (True for a flag), the options in the order first
    given, and the positional arguments.  With `interspersed` false the
    options end at the first positional argument, which starts the
    positionals."""
    by_name = {name: p for p in params for name in p.names}
    values, order, positional = {}, [], []
    rest = list(args)
    while rest:
        arg = rest.pop(0)
        if arg == "--":
            break
        if arg[:1] != "-" or arg == "-":
            if not interspersed:
                rest.insert(0, arg)
                break
            positional.append(arg)
            continue
        name, eq, value = arg.partition("=")
        p = by_name.get(name)
        if p is None:
            if arg[:2] != "--":  # one dash: its first letter is the option
                raise UsageError(f"No such option {'-' + arg[1]!r}.")
            raise UsageError(f"No such option {name!r}.{_did_you_mean(name, by_name)}")
        if p.kind is _FLAG:
            if eq:
                raise UsageError(f"Option {name!r} does not take a value.")
            value = True
        elif not eq:
            if not rest:
                raise UsageError(f"Option {name!r} requires an argument.")
            value = rest.pop(0)
        values[p.dest] = value
        if p not in order:
            order.append(p)
    return values, order, positional + rest


def _prog_name() -> str:
    """The program as the user ran it: the script's file name, or
    `python -m <module>` under -m."""
    package = getattr(sys.modules["__main__"], "__package__", None)
    if not package:
        return os.path.basename(sys.argv[0])
    name = os.path.splitext(os.path.basename(sys.argv[0]))[0]
    module = package if name == "__main__" else f"{package}.{name}"
    return f"python -m {module.lstrip('.')}"


def _short_help(text: str, limit: int) -> str:
    """`text` cut after its first sentence, or to `limit` characters with
    "..." at a word boundary."""
    words = text.split()
    total = 0
    for i, word in enumerate(words):
        total += len(word) + (i > 0)
        if total > limit:
            break
        if word[-1] == ".":
            return " ".join(words[: i + 1])
        if total == limit and i != len(words) - 1:
            break
    else:
        return " ".join(words)
    total += len("...")
    while i > 0:
        total -= len(words[i]) + (i > 0)
        if total <= limit:
            break
        i -= 1
    return " ".join(words[:i]) + "..."


def _help_text(path: str, doc: str, params, commands=None) -> str:
    """The --help text of the command `path`, or of the program when
    `commands` lists its commands.  It is wrapped to the terminal's width
    less 2, at most 78 and at least 50 columns; help texts are single
    paragraphs."""
    import shutil  # only --help reads the terminal's width and wraps text
    import textwrap

    width = max(min(shutil.get_terminal_size().columns, 80) - 2, 50)

    def fill(text, width, first="", later=""):
        text = " ".join(filter(None, (line.strip() for line in text.splitlines())))
        return textwrap.fill(
            text, width, initial_indent=first, subsequent_indent=later, replace_whitespace=False
        )

    def table(rows):
        col = min(max(len(term) for term, _ in rows), 30) + 2
        out = []
        for term, text in rows:
            out.append(f"  {term}")
            if text:
                out.append(" " * (col - len(term)) if len(term) <= col - 2 else "\n" + " " * (col + 2))
                lines = fill(text, max(width - col - 2, 10)).splitlines()
                out.append(("\n" + " " * (col + 2)).join(lines))
            out.append("\n")
        return "".join(out)

    pieces = " ".join(
        ["[OPTIONS]", *(p.dest.upper() for p in params if not p.names)]
        + (["COMMAND [ARGS]..."] if commands else [])
    )
    prefix = f"Usage: {path} "
    if width >= len(prefix) + 20:
        parts = [fill(pieces, width, prefix, " " * len(prefix))]
    else:
        parts = [prefix, "\n", fill(pieces, width, " " * 11, " " * 11)]
    parts.append("\n")
    if doc:  # docstrings are gone under python -OO
        parts += ["\n", fill(doc, width, "  ", "  "), "\n"]
    parts += ["\n", "Options:\n", table([p.help_row() for p in params if p.names])]
    if commands:
        limit = width - 6 - max(map(len, commands))
        rows = [(name, _short_help(fn.__doc__ or "", limit)) for name, (fn, _) in sorted(commands.items())]
        parts += ["\n", "Commands:\n", table(rows)]
    return "".join(parts)


def _run(args: list[str]) -> bool:
    """Run the command line `args` (without the program name) and return
    its verdict: False when a check failed."""
    asked, _, rest = _parse((_HELP,), args, interspersed=False)
    if not asked and rest and rest[0] not in COMMANDS and rest[0].startswith("-"):
        # A command name that looks like an option (it came after `--`) is
        # read as one, so that `-- --help` still asks for help.
        asked = _parse((_HELP,), rest, interspersed=False)[0]
    if asked:
        _echo(_help_text(_prog_name(), _PROGRAM_HELP, (_HELP,), COMMANDS))
        return True
    if not rest:
        raise UsageError("Missing command.")
    name = rest[0]
    if name not in COMMANDS:
        raise UsageError(f"No such command {name!r}.{_did_you_mean(name, COMMANDS)}")
    fn, params = COMMANDS[name]
    values, order, positional = _parse(params, rest[1:])
    if values.get("help"):
        _echo(_help_text(f"{_prog_name()} {name}", fn.__doc__, params))
        return True
    arguments = [p for p in params if not p.names]
    values.update(zip((p.dest for p in arguments), positional))
    kwargs = {}
    for p in (*order, *arguments, *(p for p in params if p.names and p not in order)):
        if p.dest in values:
            kwargs[p.dest] = p.convert(values[p.dest])
        elif p.required:
            raise UsageError(p.missing())
        elif p is not _HELP:
            kwargs[p.dest] = p.default
    extra = positional[len(arguments):]
    if extra:
        s = "s" if len(extra) > 1 else ""
        raise UsageError(f"Got unexpected extra argument{s} ({' '.join(extra)})")
    return fn(**kwargs)


# ---------------------------------------------------------------------------
# Flags and output
# ---------------------------------------------------------------------------

_SPACES = {"hilb": hilb, "nested": nested, "univ": univ}


def _space_from_flags(kind: str, n: int | None) -> SpaceId:
    kind = kind.lower()
    if kind == "surface":
        if n is not None:
            raise UsageError("--space surface takes no --n")
        return surface_space()
    if kind not in _SPACES:
        raise UsageError(f"unknown space {kind!r} (use hilb, nested, univ, surface)")
    if n is None:
        raise UsageError(f"--space {kind} requires --n")
    return _SPACES[kind](n)


def _echo(text: str, err: bool = False) -> None:
    """Write `text` to stdout, or to stderr if `err`, and flush.  A stderr
    that cannot be written is ignored, so a diagnostic never changes the
    exit code."""
    stream = sys.stderr if err else sys.stdout
    try:
        if stream is None:  # the descriptor was closed when the process started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        stream.write(text)
        stream.flush()
    except OSError:
        if not err:
            raise


def _style(text: str, ok: bool) -> str:
    """`text` in green if `ok`, else red, when stdout is a terminal and
    NESTCONE_NO_COLOR is unset."""
    if os.environ.get("NESTCONE_NO_COLOR") or sys.stdout is None or not sys.stdout.isatty():
        return text
    return f"\x1b[{32 if ok else 31}m{text}\x1b[0m"


def _emit(text: str, out: str | None = None) -> None:
    """Write `text`, ended in a newline, to the file `out` or to stdout.  A
    file that cannot be written is an error (exit 2)."""
    if not text.endswith("\n"):
        text += "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise NestconeError(f"cannot write {out}: {e.strerror}") from e
    else:
        _echo(text)


def _certificate_text(title: str, cert, fmt: str) -> str:
    if fmt == "json":
        return cert.json_str()
    rows = (
        f"  {lab}: [{' '.join(map(str, row))}]"
        for lab, row in zip(cert.witness_labels, cert.matrix)
    )
    return "\n".join([f"{title}: {_style(cert.verdict, cert.ok)}", *rows])


_CROSS_SECTION_FORMATS = {
    "svg": cross_section_svg,
    "tikz": cross_section_tikz,
    "csv": cross_section_csv,
    "json": lambda cs, labels: canonical_json({**cs.to_json(), "labels": labels}),
}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@_command(
    "pair",
    _Param("--surface", dest="surface_name", default="p2", show_default=True,
           help="p2, p1xp1 (basis H1, H2), f<i> (F_i, basis H, F; f0 is F_0) or k3"),
    _Param("--genus", kind=int, help="genus for --surface k3"),
    _Param("--space", dest="space_kind", default="hilb", show_default=True),
    _Param("--n", kind=int),
    _Param(dest="divisor_expr", required=True),
    _Param(dest="curve_expr", required=True),
)
def cmd_pair(surface_name, genus, space_kind, n, divisor_expr, curve_expr):
    """Exact intersection pairing of a divisor expression with a curve
    expression, e.g.  pair --space nested --n 3 "A^b" "B^b/2"
    (the two arguments may be given in either order)."""
    from .pairing import pair

    index = surface_name[1:]
    if len(index) > _MAX_DIGITS and index.isascii() and index.isdigit() and surface_name[0] in "fF":
        # count the significant digits, and read the index without its zeros
        surface_name = surface_name[0] + (index.lstrip("0") or "0")
        if len(surface_name) > _MAX_DIGITS + 1:
            raise UsageError(f"--surface f<i> holds more than {_MAX_DIGITS} digits")
    s = surface_model(surface_name, genus=genus)
    sp = _space_from_flags(space_kind, n)
    # Accept (divisor, curve) in either order for convenience; when neither
    # order parses, the error of the order as given is the one to report.
    try:
        d = parse_divisor_expr(divisor_expr, s, sp)
        c = parse_curve_expr(curve_expr, s, sp)
    except ParseError as first:
        try:
            d = parse_divisor_expr(curve_expr, s, sp)
            c = parse_curve_expr(divisor_expr, s, sp)
        except ParseError:
            raise first from None
    _emit(str(pair(d, c)))
    return True


@_command(
    "table",
    _Param("--table", dest="table_id", required=True, kind=tuple(sorted(CATALOG))),
    *_TABLE_FLAGS,
    _Param("--format", dest="fmt", default="text", kind=("text", "json", "csv")),
    _Param("--out", kind=_FILE),
)
def cmd_table(table_id, n, g, i, fmt, out):
    """Recompute a catalog table cell by cell and report matches/diffs."""
    report = reproduce_table(table_id, n=n, g=g, i=i)
    text = {"json": report.json_str, "csv": report.to_csv, "text": report.text}[fmt]()
    _emit(text, out)
    return report.ok


@_command(
    "nef",
    _Param("--table", dest="table_id", required=True, kind=tuple(certified_tables(NEF_DUAL))),
    *_TABLE_FLAGS,
    _Param("--format", dest="fmt", default="text", kind=("text", "json")),
)
def cmd_nef(table_id, n, g, i, fmt):
    """Produce and check the duality certificate for a catalog nef cone."""
    params = table_params(table_id, n=n, g=g, i=i)
    cert = standard_nef_certificate(table_id, **params)
    _emit(_certificate_text(f"{table_id} {params}", cert, fmt))
    return cert.ok


@_command(
    "eff",
    _Param("--table", dest="table_id", required=True, kind=tuple(certified_tables(EFF_MOVING))),
    _Param("--format", dest="fmt", default="text", kind=("text", "json")),
)
def cmd_eff(table_id, fmt):
    """Produce and check the moving-curve certificate for a catalog
    effective cone."""
    cert = standard_eff_certificate(table_id)
    _emit(_certificate_text(table_id, cert, fmt))
    return cert.ok


@_command(
    "verify",
    _Param("--table", dest="table_id", kind=tuple(sorted(CATALOG))),
    _Param("--all", dest="run_all", kind=_FLAG, default=False, help="verify the whole catalog"),
    *_TABLE_FLAGS,
)
def cmd_verify(table_id, run_all, n, g, i):
    """Verify one catalog table, or the entire catalog with --all (the
    repository's primary acceptance gate)."""
    if run_all == (table_id is not None):
        raise UsageError("give exactly one of --table or --all")
    if run_all and (n, g, i) != (None, None, None):
        raise UsageError("--all runs every table at its defaults; it takes no --n, --g or --i")
    ids = sorted(CATALOG) if run_all else [table_id]
    failed = 0
    for tid in ids:
        report = reproduce_table(tid, n=n, g=g, i=i)
        n_cells = sum(len(s.cells) for s in report.sections)
        n_skip = sum(1 for s in report.sections for c in s.cells if c.status == SKIPPED)
        status = "OK" if report.ok else "FAIL"
        extra = f" ({n_cells} cells, {n_skip} skipped)" if n_skip else f" ({n_cells} cells)"
        _echo(f"{tid}: {_style(status, report.ok)}{extra}\n")
        if not report.ok:
            failed += 1
            _echo(report.text() + "\n", err=True)
    return not failed


@_command(
    "cross-section",
    _Param("--table", dest="table_id", required=True,
           kind=tuple(certified_tables(NEF_DUAL, EFF_MOVING))),
    *_TABLE_FLAGS,
    _Param("--format", dest="fmt", default="svg", kind=tuple(_CROSS_SECTION_FORMATS)),
    _Param("--out", kind=_FILE),
)
def cmd_cross_section(table_id, n, g, i, fmt, out):
    """Emit the cross-section polytope of a catalog cone (vertices labeled
    by the generator rays)."""
    cs, labels = table_cross_section(table_id, n=n, g=g, i=i)
    _emit(_CROSS_SECTION_FORMATS[fmt](cs, labels), out)
    return True


@_command(
    "butler",
    _Param("--i", kind=int, default=1, show_default=True),
    _Param("--a", kind=int, default=1, show_default=True),
    _Param("--b", kind=int, default=1, show_default=True),
    _Param("--n", kind=int, default=4, show_default=True),
    _Param("--k-min", kind=int, default=1, show_default=True),
    _Param("--k-max", kind=int, default=5, show_default=True),
    _Param("--ordering", kind=("b", "res"), default="b", show_default=True),
    _Param("--format", dest="fmt", default="text", kind=("text", "json")),
)
def cmd_butler(i, a, b, n, k_min, k_max, ordering, fmt):
    """Projective-normality scan: position of the adjoint classes in the
    nef cone of the universal family over a Hirzebruch surface."""
    try:
        inp = ButlerInput(i=i, a=a, b=b, n=n, k_range=(k_min, k_max))
    except NestconeError as e:
        raise UsageError(str(e)) from e
    report = butler_check(inp, ordering)
    _emit(report.json_str() if fmt == "json" else report.text())
    return report.all_interior


@_command(
    "asymptotic",
    _Param("--k-max", kind=int, default=10, show_default=True),
    _Param("--format", dest="fmt", default="text", kind=("text", "json")),
)
def cmd_asymptotic(k_max, fmt):
    """Nesting and convergence of the asymptotic effective cones in the
    fixed 4-dimensional frame (H1, H2, B1, B2)."""
    try:
        report = asymptotic_report(k_max)
    except NestconeError as e:
        raise UsageError(str(e)) from e
    _emit(report.json_str() if fmt == "json" else report.text())
    return report.ok


def main(argv=None) -> int:
    """Run the command line `argv` (default: sys.argv[1:]) and return its
    exit code: 0, 1 or 2 as the module docstring says."""
    try:
        return 0 if _run(sys.argv[1:] if argv is None else list(argv)) else 1
    except ParseError as e:
        _echo(f"parse error at byte {e.offset}: {e.message}\n", err=True)
        return 2
    except UsageError as e:
        _echo(f"usage error: {e}\n", err=True)
        return 2
    except NestconeError as e:
        _echo(f"error: {e}\n", err=True)
        return 2


def entry() -> NoReturn:
    """The process entry of `nestcone` and `python -m nestcone.cli`: run
    `main`, flush stdout and stderr, and end the process with os._exit, so
    that no interpreter teardown runs and no implicit flush is left that
    could raise.  An OSError out of `main` comes from writing stdout
    (`_emit` reports an unwritable --out itself, `_echo` turns a stdout
    closed at start-up, which Python sets to None, into one, and drops any
    failed write to stderr): it is exit 2, with one line on stderr unless
    the reader closed the pipe.  Ctrl-C prints `Aborted.` and exits 130."""
    message = ""
    try:
        code = main()
        if sys.stdout is not None:
            sys.stdout.flush()
    except KeyboardInterrupt:
        code, message = 130, "Aborted.\n"
    except BrokenPipeError:
        code = 2
    except OSError as e:
        code, message = 2, f"error: cannot write stdout: {e.strerror}\n"
    _echo(message, err=True)
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    entry()
