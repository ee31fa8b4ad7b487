"""
Every sampled embedding carries a knot or a three-component link
================================================================

Drawing the two exceptional hosts with random over/under assignments and
searching each diagram: a cycle with odd quadratic coefficient shows up,
or failing that a triple of disjoint cycles with pairwise odd linking
numbers.  No sampled embedding avoids both.
"""

from collections import Counter

from spatialgraphs.catalog import fixture
from spatialgraphs.cycles import format_cycle
from spatialgraphs.diagrams import assign_over_under, build_convex_diagram
from spatialgraphs.invariants import dichotomy_scope, dichotomy_witness

for name in ("N9", "N'10"):
    g = fixture(name)
    base = build_convex_diagram(g)
    scope = dichotomy_scope(g)
    kinds = Counter()
    sample = None
    for seed in range(60):
        w = dichotomy_witness(assign_over_under(base, seed=seed), scope)
        kinds[w.kind if w else "none"] += 1
        if w is not None and sample is None:
            sample = w
    cycles = " ".join(format_cycle(g, c) for c in sample.cycles)
    print(f"{name:5s} witnesses by kind: {dict(kinds)}")
    print(f"      first witness: {sample.kind} {cycles}")
