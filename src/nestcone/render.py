"""Deterministic SVG / TikZ / CSV emitters for cone cross-sections.

Rendering is the only place decimal strings appear; they are produced from
exact rationals by integer arithmetic (fixed-point rounding), so output is
bit-stable across runs and platforms.  SVG labels are escaped as XML text.
A TikZ label is TeX set in math mode: `$`, `%`, `#` and `&` are always
escaped, and `{` and `}` only in a label whose braces do not balance, so a
TeX group such as `D_{1,1}` prints as written.  The CSV goes through
`rationals.canonical_csv`.
"""

from __future__ import annotations

from typing import Sequence

from .cone import CrossSection
from .rationals import Rat, canonical_csv, ratio, vdot


_SIZE = 360  # the SVG's width and height
_MARGIN = 40
_PLACES = 4  # decimal places of every coordinate written


def _fixed(q: Rat) -> str:
    """Exact fixed-point decimal string of a rational with `_PLACES`
    decimals (round half away from zero), without floating point."""
    n, d = q.numerator, q.denominator
    scaled = (2 * abs(n) * 10**_PLACES + d) // (2 * d)
    whole, frac = divmod(scaled, 10**_PLACES)
    sign = "-" if n < 0 and scaled else ""
    return f"{sign}{whole}.{frac:0{_PLACES}d}".rstrip("0").rstrip(".")


def _projection_axes(vertices: Sequence[Sequence[Rat]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two fixed integer functionals projecting the vertices injectively to
    the plane.  Coordinate pairs are tried in lexicographic order, each read
    off the vertices directly; if none is injective, generic power
    functionals are used."""
    dim = len(vertices[0]) if vertices else 2
    unit = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            if len({(p[i], p[j]) for p in vertices}) == len(vertices):
                return unit[i], unit[j]
    for t in (2, 3, 5):
        u = tuple(t**k for k in range(dim))
        v = tuple((t + 1) ** k for k in range(dim))
        if len(set(_project(u, v, vertices))) == len(vertices):
            break
    return u, v


def _project(u, v, vertices) -> list[tuple[Rat, Rat]]:
    return [(vdot(u, vert), vdot(v, vert)) for vert in vertices]


def _layout(cs: CrossSection):
    pts = _project(*_projection_axes(cs.vertices), cs.vertices)
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    xmin, xmax = min(xs, default=0), max(xs, default=0)
    ymin, ymax = min(ys, default=0), max(ys, default=0)
    span = max(xmax - xmin, ymax - ymin, 1)
    scale = ratio(_SIZE - 2 * _MARGIN, span)

    def place(p):
        x = _MARGIN + (p[0] - xmin) * scale
        y = _SIZE - _MARGIN - (p[1] - ymin) * scale  # flip y for screen coords
        return x, y

    return [place(p) for p in pts]


def _escape(label: str) -> str:
    """A label as XML character data: `&`, `<` and `>` become entities
    (`&` first, so no entity is escaped twice)."""
    return label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _tex(label: str) -> str:
    """A label as the body of a TikZ node's `$...$`: a backslash before
    each `$`, `%`, `#` and `&`, and before each brace when the braces do
    not balance (a `}` closes no open `{`, or a `{` stays open)."""
    depth = 0
    for ch in label:
        depth += (ch == "{") - (ch == "}")
        if depth < 0:
            break
    special = "$%#&" if depth == 0 else "$%#&{}"
    return "".join("\\" + ch if ch in special else ch for ch in label)


def cross_section_svg(cs: CrossSection, labels: Sequence[str] | None = None) -> str:
    pts = _layout(cs)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
    ]
    for i, j in cs.edges:
        (x1, y1), (x2, y2) = pts[i], pts[j]
        lines.append(
            f'  <line x1="{_fixed(x1)}" y1="{_fixed(y1)}" '
            f'x2="{_fixed(x2)}" y2="{_fixed(y2)}" stroke="black" stroke-width="1.5"/>'
        )
    for k, (x, y) in enumerate(pts):
        lines.append(f'  <circle cx="{_fixed(x)}" cy="{_fixed(y)}" r="3" fill="black"/>')
        if labels:
            lines.append(
                f'  <text x="{_fixed(x + 6)}" y="{_fixed(y - 6)}" '
                f'font-size="12">{_escape(labels[k])}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cross_section_tikz(cs: CrossSection, labels: Sequence[str] | None = None) -> str:
    pts = _project(*_projection_axes(cs.vertices), cs.vertices)
    lines = ["\\begin{tikzpicture}[scale=2.5]"]
    for k, (x, y) in enumerate(pts):
        lines.append(f"  \\coordinate (v{k}) at ({_fixed(x)},{_fixed(y)});")
    for i, j in cs.edges:
        lines.append(f"  \\draw (v{i}) -- (v{j});")
    for k, (x, y) in enumerate(pts):
        lines.append(f"  \\fill (v{k}) circle (0.6pt);")
        if labels:
            lines.append(f"  \\node[above right] at (v{k}) {{${_tex(labels[k])}$}};")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def cross_section_csv(cs: CrossSection, labels: Sequence[str] | None = None) -> str:
    header = ["vertex"] + [f"x{k}" for k in range(cs.dim)] + (["label"] if labels else [])
    rows = [[k, *vert] + ([labels[k]] if labels else []) for k, vert in enumerate(cs.vertices)]
    edges = ["edges", ";".join(f"{i}-{j}" for i, j in cs.edges)]
    return canonical_csv([header, *rows, edges])
