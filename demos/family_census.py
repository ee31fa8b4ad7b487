"""
Exchange-closure census of the two bundled families
====================================================

Grow everything reachable from a seed under triangle-to-star and
star-to-triangle moves, then print the isomorphism classes with their
vertex counts and discovery paths.
"""

from spatialgraphs.catalog import heawood_family, petersen_family

# the closure of K6: seven classes, all with 15 edges
pet = petersen_family()
print(f"seed K6 -> {len(pet.records)} classes")
for rec in sorted(pet.records, key=lambda r: (r.graph.vertex_count, r.name)):
    path = " ".join(m.kind for m in rec.provenance) or "(seed)"
    star = "*" if rec.heuristic_name else " "
    print(f"  {rec.name:6s}{star} {rec.graph.vertex_count:2d} vertices  via {path}")

print()

# the closure of K7 is larger and splits into two regimes: classes reachable
# by triangle-to-star moves alone, and classes that need the reverse move too
hw = heawood_family()
dy_only = [r for r in hw.records if r.dy_only_reachable]
print(f"seed K7 -> {len(hw.records)} classes, {len(dy_only)} reachable without reversals")
for rec in sorted(hw.records, key=lambda r: (r.graph.vertex_count, r.name)):
    tag = "dy-only" if rec.dy_only_reachable else "needs yd"
    print(f"  {rec.name:5s} {rec.graph.vertex_count:2d} vertices  {tag}")

# names marked * are invented labels for classes the naming heuristics
# could not pin down individually
