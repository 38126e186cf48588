"""The cone engine against the brute-force oracle of `brute_cone`, which
shares no code with it: duals, lineality, extremal rays and cross-section
edges of pointed, lower-dimensional and non-pointed cones in dimension <= 5,
the non-pointed ones with lines given as +/-v pairs or a lineality space
given by k + 1 generators with no +/-v pair."""

from hypothesis import given, settings
from hypothesis import strategies as st

from brute_cone import BruteCone, dot, prim, project_off
from nestcone.cone import Cone, cone_equal, cross_section, dual, extremal_rays

_ENTRY = st.integers(-4, 4)


@st.composite
def cones(draw):
    """A cone in dimension 2..5 of one of four shapes: generators in an
    open half-space (pointed), generators mapped in from a lower dimension
    (not full-dimensional), or pointed generators plus one or two lines
    (lineality) or plus the span of u_1, ..., u_k and their negated sum,
    k = 2 or 3, with no +/-v pair (span; a plane spanned by u, v and -u-v
    for k = 2)."""
    d = draw(st.integers(2, 5))
    shape = draw(st.sampled_from(["pointed", "low", "lineality", "span"]))
    k = draw(st.integers(1, d - 1)) if shape == "low" else d
    rays = draw(st.lists(
        st.tuples(st.integers(1, 4), *[_ENTRY] * (k - 1)), min_size=1, max_size=7
    ))
    if shape == "low":
        embed = draw(st.lists(st.tuples(*[_ENTRY] * k), min_size=d, max_size=d))
        rays = [tuple(dot(row, r) for row in embed) for r in rays]
    if shape == "lineality":
        for line in draw(st.lists(st.tuples(*[_ENTRY] * d), min_size=1, max_size=2)):
            rays += [line, tuple(-x for x in line)]
    if shape == "span":
        span = draw(st.lists(st.tuples(*[_ENTRY] * d), min_size=2, max_size=3))
        rays += span + [tuple(-sum(col) for col in zip(*span))]
    return d, rays


def _split_lines(rays):
    """(directions v with v and -v both present, the remaining rays)."""
    present = set(rays)
    lines = [r for r in rays if tuple(-x for x in r) in present]
    return lines, [r for r in rays if r not in lines]


@settings(max_examples=150, deadline=None)
@given(cones())
def test_engine_matches_brute_force(case):
    d, rays = case
    if not any(any(r) for r in rays):
        return
    c, oracle = Cone(d, rays), BruteCone(d, rays)

    # dual: its lines span the complement of span(c); its other generators
    # are the facet normals, up to that complement.
    lines, normals = _split_lines(dual(c).rays)
    assert len(lines) == 2 * len(oracle.perp)
    assert all(dot(v, r) == 0 for v in lines for r in oracle.rays)
    assert sorted(project_off(n, oracle.perp) for n in normals) == oracle.facets

    assert c.lineality_dim == len(oracle.lineality)

    # extremal rays: +/- the canonical lineality basis and one ray per
    # extremal face, projected off the lineality space.
    ext = extremal_rays(c)
    lines, others = _split_lines(ext.rays)
    assert sorted(v for v in lines if v in oracle.lineality) == oracle.lineality
    assert len(lines) == 2 * len(oracle.lineality)
    assert sorted(others) == oracle.extremal()
    assert cone_equal(ext, c)
    assert extremal_rays(ext).rays == ext.rays

    if oracle.lineality:
        return
    # A pointed cone: the sum of the facet normals is positive on it.
    w = tuple(sum(col) for col in zip(*oracle.facets))
    cs = cross_section(c, w)
    verts = [prim(v) for v in cs.vertices]
    assert sorted(verts) == oracle.extremal()
    assert {frozenset((verts[i], verts[j])) for i, j in cs.edges} == oracle.edges()
