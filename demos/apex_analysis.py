"""
How far from planar are the family members?
===========================================

A graph is k-apex when deleting some k vertices leaves it planar.  The
members of both families resist two deletions, while every proper minor
of the exceptional members gives in.
"""

from spatialgraphs.catalog import family_member, fixture
from spatialgraphs.multigraph import complete_graph
from spatialgraphs.planarity import all_proper_minors_2apex, apex_witness

for name, g in [
    ("K6", complete_graph(6)),
    ("K7", complete_graph(7)),
    ("P10", family_member("P10")),
    ("N9", fixture("N9")),
    ("N'10", fixture("N'10")),
]:
    # the search tries sets by size and stops at the first planar one, so
    # the witness's size is the smallest working k
    witness = apex_witness(g, 3)
    print(f"{name:5s} smallest working k = {len(witness)}  witness = {sorted(witness)}")

# the exceptional hosts are minor-minimal for this property: every proper
# minor is 2-apex even though the host itself is not
witness, failures = all_proper_minors_2apex(fixture("N9"))
print()
print("N9 is 2-apex:", witness is not None)
print("every proper minor of N9 is 2-apex:", not failures, f"(failures: {failures})")
