"""
Cycle inventories and disjoint cycle systems
============================================

Count cycles, disjoint pairs, and disjoint triples across the small
fixture graphs.  The pair counts drop as exchange moves walk away from
the complete seed, and triples only appear outside the triangle-to-star
cone.
"""

from spatialgraphs.catalog import family_member, fixture
from spatialgraphs.cycles import all_cycles, disjoint_cycle_tuples, format_cycle
from spatialgraphs.multigraph import complete_graph

print("graph      cycles  pairs  triples")
rows = [
    ("K4", complete_graph(4)),
    ("K6", complete_graph(6)),
    ("K7", complete_graph(7)),
    ("P7", family_member("P7")),
    ("P10", family_member("P10")),
    ("N9", fixture("N9")),
    ("N'10", fixture("N'10")),
]
for name, g in rows:
    cycles = all_cycles(g)
    pairs = disjoint_cycle_tuples(g, 2)
    triples = disjoint_cycle_tuples(g, 3)
    print(f"{name:9s} {len(cycles):6d} {len(pairs):6d} {len(triples):8d}")

# one concrete triple: the three vertex-classes of the nine-vertex fixture
n9 = fixture("N9")
triple = disjoint_cycle_tuples(n9, 3)[0]
print()
print("a disjoint triple in N9:", " ".join(sorted(format_cycle(n9, c) for c in triple)))
