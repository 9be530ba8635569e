#!/usr/bin/env python3
"""Census of the near-optimal configurations.

For each generated family, print the exact triple-line (or tripartite)
count next to its asymptotic density and the exactly-3-rich advisory
bound, and optionally render SVGs of small instances.  The cubic column
answers the paper's question for the family's points: the kind of the
one cubic through them (three-lines, line-plus-conic or
no-candidate-factor, with the set's rich lines as candidate factors),
none when no cubic passes through them, not-unique when more than one
does, and - for the n-gon family, which is not a point set.
"""

import argparse
import sys
from fractions import Fraction as F

from orchard import (ProjLine, classify_with_candidates, fit_cubics,
                     gen_cubic_power, gen_ngon_directions, gen_parallel_aps,
                     gen_triangle_ratios, green_tao_bound, k_rich_count,
                     spanned_lines, triple_line_count, tripartite_count)
from orchard.svg import render_pointset


def cubic_kind(ps, table) -> str:
    """How the points of ps lie on a cubic: the classification of the
    one cubic through them, with the lines of table as candidate line
    factors, or none / not-unique."""
    basis = fit_cubics(ps.points)
    if len(basis) != 1:
        return "not-unique" if basis else "none"
    lines = [ProjLine(key) for key in table.entries]
    return classify_with_candidates(basis[0], lines).kind


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--svg-dir", help="also render small instances here")
    args = ap.parse_args()
    n = args.n

    print("configuration,N,count,density,exactly3,advisory_bound,cubic")
    ps = gen_parallel_aps(n)
    c = tripartite_count(ps, (1, 2, 3))
    t = spanned_lines(ps)
    print(f"three-progressions,{ps.n},{c},"
          f"{float(F(c) / F(ps.n ** 2)):.5f},"
          f"{k_rich_count(t, 3, exactly=True)},{green_tao_bound(ps.n)},"
          f"{cubic_kind(ps, t)}")

    ps = gen_triangle_ratios(max(2, n // 4))
    c = tripartite_count(ps, (1, 2, 3))
    t = spanned_lines(ps)
    print(f"triangle-ratios,{ps.n},{c},{float(F(c) / F(ps.n ** 2)):.5f},"
          f"{k_rich_count(t, 3, exactly=True)},{green_tao_bound(ps.n)},"
          f"{cubic_kind(ps, t)}")

    cfg = gen_ngon_directions(2 * n)
    big_n = 2 * cfg.n
    print(f"ngon-directions,{big_n},{cfg.chord_count},"
          f"{cfg.chord_count / big_n ** 2:.5f},{cfg.chord_count},"
          f"{green_tao_bound(big_n)},-")

    ps = gen_cubic_power(n)
    t = spanned_lines(ps)
    c = triple_line_count(t)
    print(f"cubic-power,{ps.n},{c},{float(F(c) / F(ps.n ** 2)):.5f},"
          f"{k_rich_count(t, 3, exactly=True)},{green_tao_bound(ps.n)},"
          f"{cubic_kind(ps, t)}")

    if args.svg_dir:
        import pathlib
        out = pathlib.Path(args.svg_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, ps in (("three_progressions", gen_parallel_aps(4)),
                         ("triangle_ratios", gen_triangle_ratios(2)),
                         ("cubic_power", gen_cubic_power(4))):
            (out / f"{name}.svg").write_text(
                render_pointset(ps, mark_triple_lines=True))
        print(f"# SVGs in {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
