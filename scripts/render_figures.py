#!/usr/bin/env python3
"""Emit the reference cone figures (SVG and TikZ) into figures/.

Usage: render_figures.py [output_dir]
"""

import pathlib
import sys

import nestcone as nc
from nestcone.render import cross_section_svg, cross_section_tikz


FIGURES = [
    ("eff_p2_2_1", {}),
    ("eff_p2_3_2", {}),
    ("nef_p2_nested", {"n": 3}),
    ("nef_p2_univ", {"n": 3}),
]


def main() -> int:
    out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "figures")
    out.mkdir(parents=True, exist_ok=True)
    for table_id, params in FIGURES:
        cs, labels = nc.table_cross_section(table_id, **params)
        (out / f"{table_id}.svg").write_text(cross_section_svg(cs, labels))
        (out / f"{table_id}.tex").write_text(cross_section_tikz(cs, labels))
        print(f"wrote {out}/{table_id}.svg and .tex "
              f"({len(cs.vertices)} vertices, {len(cs.edges)} edges)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
