"""`render._projection_axes` reads coordinate pairs off the vertices; the
arithmetic search it replaced, kept here as the reference, projects with
Fraction dot products against unit and power functionals.  `render._fixed`
rounds from a rational's numerator and denominator; the signed formula it
replaced is kept here as its reference.  SVG labels are read back by
parsing the SVG; TikZ labels are read off the node lines."""

import xml.etree.ElementTree as ET
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import nestcone as nc
from nestcone.render import _fixed, _projection_axes, cross_section_svg, cross_section_tikz


def _axes_by_projection(vertices):
    """Coordinate pairs in lexicographic order, then power functionals, each
    tested by projecting every vertex with dot products; the last power
    pair when none is injective."""
    dim = len(vertices[0]) if vertices else 2
    candidates = []
    for i in range(dim):
        for j in range(i + 1, dim):
            u = tuple(Fraction(1) if k == i else Fraction(0) for k in range(dim))
            v = tuple(Fraction(1) if k == j else Fraction(0) for k in range(dim))
            candidates.append((u, v))
    for t in (2, 3, 5):
        candidates.append((tuple(Fraction(t) ** k for k in range(dim)),
                           tuple(Fraction(t + 1) ** k for k in range(dim))))
    for u, v in candidates:
        pts = [(sum(a * x for a, x in zip(u, p)), sum(a * x for a, x in zip(v, p)))
               for p in vertices]
        if len(set(pts)) == len(pts):
            return u, v
    return candidates[-1]


# Few distinct coordinate values, so that coordinate pairs often collide.
_COORD = st.one_of(st.sampled_from([0, 1, Fraction(1, 2)]), st.fractions(-3, 3, max_denominator=4))


@st.composite
def _vertex_sets(draw):
    dim = draw(st.integers(1, 5))
    return draw(st.lists(st.tuples(*[_COORD] * dim), max_size=7))


@settings(max_examples=300, deadline=None)
@given(_vertex_sets())
@example([])
@example([(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)])  # no coordinate pair is injective
@example([(0, 0), (0, 0)])  # nothing is injective: the last power pair
def test_projection_axes_match_the_arithmetic_search(vertices):
    got = _projection_axes(vertices)
    assert got == _axes_by_projection(vertices)
    assert all(type(x) is int for axis in got for x in axis)


def _fixed_by_fraction(q):
    """Round q * 10**4 half away from zero, signed, from a Fraction copy."""
    q = Fraction(q)
    scale = 10**4
    num = q.numerator * scale * 2
    den = q.denominator * 2
    half = den // 2
    if num >= 0:
        scaled = (num + half) // den
    else:
        scaled = -((-num + half) // den)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, scale)
    text = f"{sign}{whole}.{frac:04d}".rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


_FIXED_INPUTS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.fractions(max_denominator=10**6),
    st.integers(-(10**6), 10**6).map(lambda k: Fraction(2 * k + 1, 2 * 10**4)),  # exact ties
    st.integers(2 * 10**4 + 1, 10**9).map(lambda d: Fraction(-1, d)),  # rounds to zero
)


@settings(max_examples=500, deadline=None)
@given(_FIXED_INPUTS)
@example(0)
@example(-7)
@example(Fraction(-1, 20001))
@example(Fraction(1, 20000))
@example(Fraction(-1, 20000))
def test_fixed_matches_the_signed_reference(q):
    assert _fixed(q) == _fixed_by_fraction(q)


def test_fixed_writes_ties_away_from_zero_and_no_negative_zero():
    assert [_fixed(q) for q in (Fraction(1, 20000), Fraction(-1, 20000), Fraction(-3, 20000))] == [
        "0.0001", "-0.0001", "-0.0002"]
    assert [_fixed(q) for q in (Fraction(-1, 20001), Fraction(-1, 10**9), -0)] == ["0"] * 3
    assert [_fixed(q) for q in (0, 7, -12, 10**30)] == ["0", "7", "-12", str(10**30)]


def test_svg_labels_read_back_as_given():
    cs, _ = nc.table_cross_section("eff_p2_2_1")
    labels = ["a<b", "R&D", "x>y", "&lt;"]
    root = ET.fromstring(cross_section_svg(cs, labels))
    assert [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")] == labels


def _tikz_labels(labels):
    """The body of each node's `{$...$}` in the TikZ of eff_p2_2_1's four
    vertices, labelled `labels`."""
    cs, _ = nc.table_cross_section("eff_p2_2_1")
    nodes = [line for line in cross_section_tikz(cs, labels).splitlines() if "\\node" in line]
    assert all(line.endswith("$};") for line in nodes)
    return [line[line.index("{$") + 2:-3] for line in nodes]


def test_tikz_labels_escape_what_breaks_the_node():
    assert _tikz_labels(["a$b", "x}y", "c%d", "p#q&r"]) == ["a\\$b", "x\\}y", "c\\%d", "p\\#q\\&r"]
    # Balanced braces are TeX groups and print as written.
    tex = ["D_{1,1}", "C^a_{l,1}", "{a}{b}", "H_1"]
    assert _tikz_labels(tex) == tex
    # A `}` before its `{`, or a `{` left open, does not balance.
    assert _tikz_labels(["}{", "{x", "a{b}}", "{}"]) == ["\\}\\{", "\\{x", "a\\{b\\}\\}", "{}"]
