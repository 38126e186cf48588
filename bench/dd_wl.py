"""`dd_stress` workload: the double-description engine on cones over cyclic
polytopes C(m, d), in process.

The catalog's cones have at most 6 dimensions and are simplicial, so it
never stresses `cone._dd`.  Cones over cyclic polytopes are the classic DD
stress input (Fukuda & Prodon, 1996): by the upper bound theorem the facet
count grows like m^floor(d/2).  Each pass runs a fixed list of sizes for
each of three operations, on the moment curve at t = 1..m; the seed draws
the padding, the unimodular change of coordinates and the order.  Sizes and
t are fixed rather than drawn so every seed costs about the same.

`extremal_rays` stays at m <= 12 for d >= 7 and m <= 11 for d = 6: above that its second DD run
(over the facet normals) grows intermediate rays, taking 1-2 s for
C(14, 6), and that time depends strongly on the moment-curve parameters.
"""

from __future__ import annotations

import random

import oracle
from harness import Op

import nestcone.cone as K

# (d, m) per operation, 25 in all; C(16, 8) has 660 facets.  With 25
# operations the median and the 90th percentile fall in the middle of the
# 13th and 23rd cheapest operation, so each follows one operation's own
# times rather than the gap between two.
DUAL_SIZES = [(4, 16), (5, 13), (5, 15), (6, 14), (6, 16), (7, 13), (7, 15), (8, 13), (8, 14),
              (8, 16)]
EXT_SIZES = [(4, 12), (4, 14), (4, 16), (5, 12), (5, 13), (6, 11), (7, 11), (7, 12), (8, 11),
             (8, 12)]
LIN_SIZES = [(4, 16), (5, 13), (6, 12), (7, 13), (8, 12)]
PADDING = 4


def _unimodular(n: int, r: random.Random) -> list[list[int]]:
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = r.sample(range(n), 2)
        s = r.choice((-1, 1))
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]
    return u


def _check_facets(normals, rays, m: int, d: int) -> str | None:
    """Facet normals of the cone over C(m, d): count, sign and tight sets."""
    if len(normals) != oracle.ubt_facets(m, d):
        return f"{len(normals)} facets, upper bound theorem gives {oracle.ubt_facets(m, d)}"
    tight_sets = set()
    for f in normals:
        vals = [oracle.dot(f, v) for v in rays]
        if min(vals) < 0:
            return f"normal {f} is negative on a ray"
        tight_sets.add(tuple(i for i, x in enumerate(vals) if x == 0))
    if tight_sets != oracle.gale_facets(m, d):
        return "tight ray sets differ from Gale's evenness facets"
    return None


def _dual_op(d: int, m: int) -> Op:
    rays = oracle.moment_rays(range(1, m + 1), d)

    def check(out):
        return _check_facets(out, rays, m, d)

    return Op(f"dual C({m},{d})", lambda: K.dual(K.Cone(d + 1, rays)).rays, check)


def _ext_op(d: int, m: int, r: random.Random) -> Op:
    rays = oracle.moment_rays(range(1, m + 1), d)
    pad = []
    for _ in range(PADDING):
        w = [r.randint(1, 3) for _ in rays]
        pad.append(tuple(sum(wi * v[k] for wi, v in zip(w, rays)) for k in range(d + 1)))
    gens = rays + pad
    r.shuffle(gens)
    want = sorted(oracle.prim(v) for v in rays)

    def check(out):
        if sorted(out) != want:
            return "extremal rays differ from the m vertex rays"
        return None

    return Op(
        f"extremal_rays C({m},{d})+{PADDING}",
        lambda: K.extremal_rays(K.Cone(d + 1, gens)).rays,
        check,
    )


def _lin_op(d: int, m: int, r: random.Random) -> Op:
    """The cone over C(m, d) times a line, in seeded unimodular coordinates
    (generators U (v, 0) and U (0, +-1)): its dual and its lineality
    dimension."""
    rays = oracle.moment_rays(range(1, m + 1), d)
    dim = d + 2
    u = _unimodular(dim, r)
    ut = oracle.transpose(u)
    line = [0] * (d + 1) + [1]
    gens = [tuple(oracle.dot(row, v + (0,)) for row in u) for v in rays]
    gens += [tuple(oracle.dot(row, line) for row in u), tuple(-oracle.dot(row, line) for row in u)]

    def run():
        c = K.Cone(dim, gens)
        return K.dual(c).rays, c.lineality_dim

    def check(out):
        normals, lineality = out
        # U^T y recovers (facet normal, 0): y vanishes on the line.
        back = [tuple(oracle.dot(col, y) for col in ut) for y in normals]
        if any(z[-1] != 0 for z in back):
            return "dual generator not orthogonal to the lineality direction"
        if oracle.int_rank(normals) != dim - 1 or lineality != 1:
            return f"lineality dimension {lineality}, rank of the dual {oracle.int_rank(normals)}"
        return _check_facets([z[:-1] for z in back], rays, m, d)

    return Op(f"dual+lineality C({m},{d})xline", run, check)


class DDStress:
    name = "dd_stress"
    nominal_pass_s = 1.6

    def __init__(self, seed: int, ctx):
        r = random.Random(f"dd_stress-{seed}")
        ops = [_dual_op(d, m) for d, m in DUAL_SIZES]
        ops += [_ext_op(d, m, r) for d, m in EXT_SIZES]
        ops += [_lin_op(d, m, r) for d, m in LIN_SIZES]
        r.shuffle(ops)
        self.ops = ops
        warm = random.Random(seed)
        self._warm = [_dual_op(4, 6), _ext_op(4, 6, warm), _lin_op(4, 6, warm)]

    def warm_up(self):
        for op in self._warm:
            op.run()
