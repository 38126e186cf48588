"""Command-line front end (``nestcone``).

Exit codes: 0 success / everything certified, 1 verification failure or
table diff, 2 usage or expression-parse errors.  All output is deterministic
for fixed inputs; set NESTCONE_NO_COLOR to suppress ANSI styling.

Every command but `verify` (which prints per table, failing reports to
stderr) writes one text through `_emit`, the one output path.
"""

from __future__ import annotations

import os
import sys

import click

from . import render
from .errors import NestconeError, ParseError
from .rationals import canonical_json, rat, rat_str
from .spaces import (
    CurClass,
    DivClass,
    SurfaceModel,
    SpaceId,
    _BaseClass,
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
# arithmetic; every class comes from one `resolve`, so all of them live on
# one (surface, space).  At most one class label per product.  Parse errors
# cite byte offsets: the tokenizer and the parser count characters, and
# _parse_class converts the offset of an error once.  Digits are ASCII.  At
# most _MAX_DIGITS digits per expression, and in `pair --genus`, keep every
# coefficient, and the pairing of two expressions, under the interpreter's
# limit on printing an integer; parentheses and unary minus nested at most
# _MAX_DEPTH deep keep the recursive descent under its recursion limit.

_DIGITS = frozenset("0123456789")
_MAX_DIGITS = 1000
_MAX_DEPTH = 100


class _Tok:
    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


def _skip_digits(src: str, k: int) -> int:
    while k < len(src) and src[k] in _DIGITS:
        k += 1
    return k


def _tokenize(src: str) -> list[_Tok]:
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
            toks.append(_Tok(c, c, i))
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
            toks.append(_Tok("num", src[i:j], i))
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
            toks.append(_Tok("label", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(_Tok("end", "", n))
    return toks


class _Parser:
    def __init__(self, src: str, resolve):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0
        self.depth = 0
        self.resolve = resolve  # label, offset -> class

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def parse(self):
        v = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected token {t.text!r}", t.offset)
        return v

    def expr(self):
        v = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            w = self.term()
            if isinstance(v, _BaseClass) != isinstance(w, _BaseClass):
                raise ParseError("cannot add a bare number to a class", op.offset)
            v = v + w if op.kind == "+" else v - w
        return v

    def term(self):
        v = self.factor()
        while self.peek().kind == "*":
            op = self.next()
            w = self.factor()
            if isinstance(v, _BaseClass) and isinstance(w, _BaseClass):
                raise ParseError("at most one class per product", op.offset)
            v = v * w
        return v

    def factor(self):
        t = self.next()
        if t.kind == "num":
            return rat(t.text)
        if t.kind == "label":
            return self.resolve(t.text, t.offset)
        if t.kind not in ("-", "("):
            raise ParseError(f"unexpected token {t.text or 'end of input'!r}", t.offset)
        if self.depth == _MAX_DEPTH:
            raise ParseError(f"expression nested more than {_MAX_DEPTH} deep", t.offset)
        self.depth += 1
        if t.kind == "-":
            v = -self.factor()
        else:
            v = self.expr()
            close = self.next()
            if close.kind != ")":
                raise ParseError("expected ')'", close.offset)
        self.depth -= 1
        return v


def _parse_class(src: str, surface: SurfaceModel, space: SpaceId, unit, zero, what: str):
    def resolve(label, offset):
        try:
            return unit(surface, space, label)
        except NestconeError as e:
            raise ParseError(str(e), offset) from e

    try:
        v = _Parser(src, resolve).parse()
    except ParseError as e:
        raise ParseError(e.message, len(src[:e.offset].encode("utf-8"))) from e.__cause__
    if not isinstance(v, _BaseClass):
        if v == 0:
            return zero(surface, space)
        raise ParseError(f"expression is a bare number, not a {what} class", 0)
    return v


def parse_divisor_expr(src: str, surface: SurfaceModel, space: SpaceId) -> DivClass:
    return _parse_class(src, surface, space, divisor, zero_divisor, "divisor")


def parse_curve_expr(src: str, surface: SurfaceModel, space: SpaceId) -> CurClass:
    return _parse_class(src, surface, space, curve, zero_curve, "curve")


# ---------------------------------------------------------------------------
# Flags and output
# ---------------------------------------------------------------------------

_SPACES = {"hilb": hilb, "nested": nested, "univ": univ}


def _space_from_flags(kind: str, n: int | None) -> SpaceId:
    kind = kind.lower()
    if kind == "surface":
        return surface_space()
    if n is None:
        raise click.UsageError(f"--space {kind} requires --n")
    if kind not in _SPACES:
        raise click.UsageError(f"unknown space {kind!r} (use hilb, nested, univ, surface)")
    return _SPACES[kind](n)


def _table_flags(fn):
    """Declare a catalog table's parameters --n, --g/--genus and --i (click
    lists options in the reverse order of application)."""
    fn = click.option("--i", type=int, default=None)(fn)
    fn = click.option("--g", "--genus", "g", type=int, default=None)(fn)
    return click.option("--n", type=int, default=None)(fn)


def _style(text: str, ok: bool) -> str:
    if os.environ.get("NESTCONE_NO_COLOR"):
        return text
    return click.style(text, fg="green" if ok else "red")


def _emit(text: str, out: str | None = None, ok: bool = True) -> None:
    """Write `text`, ended in a newline, to the file `out` or to stdout;
    exit 1 unless `ok`, and 2 with a one-line error if `out` cannot be
    written."""
    if not text.endswith("\n"):
        text += "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            click.echo(f"error: cannot write {out}: {e.strerror}", err=True)
            sys.exit(2)
    else:
        click.echo(text, nl=False)
    if not ok:
        sys.exit(1)


def _certificate_text(title: str, cert, fmt: str) -> str:
    if fmt == "json":
        return cert.json_str()
    rows = (
        f"  {lab}: [{' '.join(rat_str(x) for x in row)}]"
        for lab, row in zip(cert.witness_labels, cert.matrix)
    )
    return "\n".join([f"{title}: {_style(cert.verdict, cert.ok)}", *rows])


_CROSS_SECTION_FORMATS = {
    "svg": render.cross_section_svg,
    "tikz": render.cross_section_tikz,
    "csv": render.cross_section_csv,
    "json": lambda cs, labels: canonical_json({**cs.to_json(), "labels": labels}),
}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@click.group(no_args_is_help=False)
def cli():
    """Exact intersection pairings and cone-duality certificates for
    Hilbert schemes of points, nested Hilbert schemes, and universal
    families over rational and K3 surfaces."""


@cli.command("pair")
@click.option("--surface", "surface_name", default="p2", show_default=True,
              help="p2, p1xp1 (basis H1, H2), f<i> (F_i, basis H, F; f0 is F_0) or k3")
@click.option("--genus", type=int, default=None, help="genus for --surface k3")
@click.option("--space", "space_kind", default="hilb", show_default=True)
@click.option("--n", type=int, default=None)
@click.argument("divisor_expr")
@click.argument("curve_expr")
def cmd_pair(surface_name, genus, space_kind, n, divisor_expr, curve_expr):
    """Exact intersection pairing of a divisor expression with a curve
    expression, e.g.  pair --space nested --n 3 "A^b" "B^b/2"
    (the two arguments may be given in either order)."""
    from .pairing import pair

    if genus is not None and abs(genus) >= 10**_MAX_DIGITS:
        raise click.UsageError(f"--genus holds more than {_MAX_DIGITS} digits")
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
    _emit(rat_str(pair(d, c)))


@cli.command("table")
@click.option("--table", "table_id", required=True, type=click.Choice(sorted(CATALOG)))
@_table_flags
@click.option("--format", "fmt", default="text", type=click.Choice(["text", "json", "csv"]))
@click.option("--out", default=None, type=click.Path(dir_okay=False))
def cmd_table(table_id, n, g, i, fmt, out):
    """Recompute a catalog table cell by cell and report matches/diffs."""
    report = reproduce_table(table_id, n=n, g=g, i=i)
    text = {"json": report.json_str, "csv": report.to_csv, "text": report.text}[fmt]()
    _emit(text, out, report.ok)


@cli.command("nef")
@click.option("--table", "table_id", required=True,
              type=click.Choice(certified_tables(NEF_DUAL)))
@_table_flags
@click.option("--format", "fmt", default="text", type=click.Choice(["text", "json"]))
def cmd_nef(table_id, n, g, i, fmt):
    """Produce and check the duality certificate for a catalog nef cone."""
    params = table_params(table_id, n=n, g=g, i=i)
    cert = standard_nef_certificate(table_id, **params)
    _emit(_certificate_text(f"{table_id} {params}", cert, fmt), ok=cert.ok)


@cli.command("eff")
@click.option("--table", "table_id", required=True,
              type=click.Choice(certified_tables(EFF_MOVING)))
@click.option("--format", "fmt", default="text", type=click.Choice(["text", "json"]))
def cmd_eff(table_id, fmt):
    """Produce and check the moving-curve certificate for a catalog
    effective cone."""
    cert = standard_eff_certificate(table_id)
    _emit(_certificate_text(table_id, cert, fmt), ok=cert.ok)


@cli.command("verify")
@click.option("--table", "table_id", default=None, type=click.Choice(sorted(CATALOG)))
@click.option("--all", "run_all", is_flag=True, help="verify the whole catalog")
@_table_flags
def cmd_verify(table_id, run_all, n, g, i):
    """Verify one catalog table, or the entire catalog with --all (the
    repository's primary acceptance gate)."""
    if run_all == (table_id is not None):
        raise click.UsageError("give exactly one of --table or --all")
    if run_all and (n, g, i) != (None, None, None):
        raise click.UsageError("--all runs every table at its defaults; it takes no --n, --g or --i")
    ids = sorted(CATALOG) if run_all else [table_id]
    failed = 0
    for tid in ids:
        report = reproduce_table(tid, n=n, g=g, i=i)
        n_cells = sum(len(s.cells) for s in report.sections)
        n_skip = sum(
            1 for s in report.sections for c in s.cells if c.status == "skipped"
        )
        status = "OK" if report.ok else "FAIL"
        extra = f" ({n_cells} cells, {n_skip} skipped)" if n_skip else f" ({n_cells} cells)"
        click.echo(f"{tid}: {_style(status, report.ok)}{extra}")
        if not report.ok:
            failed += 1
            click.echo(report.text(), err=True)
    if failed:
        sys.exit(1)


@cli.command("cross-section")
@click.option("--table", "table_id", required=True,
              type=click.Choice(certified_tables(NEF_DUAL, EFF_MOVING)))
@_table_flags
@click.option("--format", "fmt", default="svg", type=click.Choice(list(_CROSS_SECTION_FORMATS)))
@click.option("--out", default=None, type=click.Path(dir_okay=False))
def cmd_cross_section(table_id, n, g, i, fmt, out):
    """Emit the cross-section polytope of a catalog cone (vertices labeled
    by the generator rays)."""
    cs, labels = table_cross_section(table_id, n=n, g=g, i=i)
    _emit(_CROSS_SECTION_FORMATS[fmt](cs, labels), out)


@cli.command("butler")
@click.option("--i", type=int, default=1, show_default=True)
@click.option("--a", type=int, default=1, show_default=True)
@click.option("--b", type=int, default=1, show_default=True)
@click.option("--n", type=int, default=4, show_default=True)
@click.option("--k-min", type=int, default=1, show_default=True)
@click.option("--k-max", type=int, default=5, show_default=True)
@click.option("--ordering", default="b", type=click.Choice(["b", "res"]), show_default=True)
@click.option("--format", "fmt", default="text", type=click.Choice(["text", "json"]))
def cmd_butler(i, a, b, n, k_min, k_max, ordering, fmt):
    """Projective-normality scan: position of the adjoint classes in the
    nef cone of the universal family over a Hirzebruch surface."""
    try:
        inp = ButlerInput(i=i, a=a, b=b, n=n, k_range=(k_min, k_max))
    except NestconeError as e:
        raise click.UsageError(str(e)) from e
    report = butler_check(inp, ordering)
    _emit(report.json_str() if fmt == "json" else report.text(), ok=report.all_interior)


@cli.command("asymptotic")
@click.option("--k-max", type=int, default=10, show_default=True)
@click.option("--format", "fmt", default="text", type=click.Choice(["text", "json"]))
def cmd_asymptotic(k_max, fmt):
    """Nesting and convergence of the asymptotic effective cones in the
    fixed 4-dimensional frame (H1, H2, B1, B2)."""
    try:
        report = asymptotic_report(k_max)
    except NestconeError as e:
        raise click.UsageError(str(e)) from e
    _emit(report.json_str() if fmt == "json" else report.text(), ok=report.ok)


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 0
        return code
    except ParseError as e:
        click.echo(f"parse error at byte {e.offset}: {e.message}", err=True)
        return 2
    except click.UsageError as e:
        click.echo(f"usage error: {e.format_message()}", err=True)
        return 2
    except click.ClickException as e:
        e.show()
        return 2
    except NestconeError as e:
        click.echo(f"error: {e}", err=True)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
