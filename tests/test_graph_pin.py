"""Byte-level pins of the family graphs.

The first digest covers the 1822 graphs that the suites build, the
second 1552 rotated rectangles over wider domains: each line is
"<spec> <graph_hash>", the lines are sorted by spec and hashed together.
Any change to the lattice, the contours, the strips, the trims, the
rectangles' cuts or the cross weights moves them.
"""

import hashlib

from crossdimer.families import (
    Spec, assign_cross_weights, build_A, build_F, build_TA,
    build_TB, build_TR, build_augmented_aztec, build_aztec_rectangle, grids,
    weight_point,
)
from crossdimer.harness import trim_rect_domain, valid_triples
from crossdimer.lattice import FULL_GRID, GRID_B
from crossdimer.matchcount import Graph

PINNED_DIGEST = \
    "7af84db5b75a2d7a8b191418a5a1e37e42794dc2feedd28888ec0cb05f194dbc"
PINNED_GRAPHS = 1822
WIDE_DIGEST = \
    "9ab658f242cd160550faafb76a0ec2b2180faae53467d11b035ebf9e41efd0ef"
WIDE_GRAPHS = 1552


def family_graphs():
    for (a, b, c) in valid_triples(range(2, 8), 28):
        for i in (1, 2, 3):
            yield f"A{i}:{a},{b},{c}", build_A(i, a, b, c)
            yield f"F{i}:{a},{b},{c}", build_F(i, a, b, c)
    for a in range(1, 5):
        yield f"TR:{a},{2 * a}", build_TR(a, 2 * a)
    for (m, n, h1, h2) in trim_rect_domain():
        yield f"TA:{m},{n},{h1},{h2}", build_TA(m, n, h1, h2)
        yield f"TB:{m},{n},{h1},{h2}", build_TB(m, n, h1, h2)
    for m in range(1, 6):
        for n in range(1, 6):
            for lat, tag in ((FULL_GRID, "full"), (GRID_B, "b")):
                yield f"AR:{m},{n}@{tag}", build_aztec_rectangle(lat, m, n)
                yield f"AAR:{m},{n}@{tag}", build_augmented_aztec(lat, m, n)
    w = weight_point(3, 5, 7)
    for (a, b, c) in valid_triples(range(2, 7), 16):
        for i in (1, 2, 3):
            yield f"wA{i}:{a},{b},{c}", \
                assign_cross_weights(build_A(i, a, b, c), w)


def test_family_graphs_pinned():
    lines = sorted(f"{spec} {g.graph_hash()}\n" for spec, g in family_graphs())
    assert len(lines) == PINNED_GRAPHS
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == PINNED_DIGEST


def test_rectangle_graphs_pinned_wide():
    # TR(a, 2a + k) past b = 2a, TA and TB over the whole trim domain of
    # m <= 6 and n <= 8, and AR and AAR with m, n <= 7 on both lattices
    specs = [Spec("TR", (a, 2 * a + k)) for a in range(1, 5)
             for k in range(4)]
    specs += [Spec(head, t) for t in trim_rect_domain(6, 8)
              for head in ("TA", "TB")]
    specs += [Spec(head, (m, n), lat) for m in range(1, 8)
              for n in range(1, 8) for head in ("AR", "AAR")
              for lat in (FULL_GRID, GRID_B)]
    lines = sorted(f"{spec} {Graph(grid).graph_hash()}\n"
                   for spec, grid in zip(specs, grids(specs)))
    assert len(lines) == WIDE_GRAPHS
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == WIDE_DIGEST
