"""
Gauss codes, the Conway polynomial, and the quadratic coefficient
=================================================================

Invariants are computed straight from crossing sequences.  The
descending-diagram algorithm evaluates the Conway polynomial; a state
sum over interleaved crossing pairs recovers its quadratic coefficient
without any resolution tree.
"""

from spatialgraphs.catalog import fixture
from spatialgraphs.diagrams import extract_gauss, random_knot_diagram
from spatialgraphs.invariants import a2, conway_polynomial, format_gauss, linking_number, poly_str

for name in ("Trefoil", "Fig8"):
    k = fixture(name)
    print(f"{name:8s} {format_gauss(k)}")
    print(f"         conway = {poly_str(conway_polynomial(k))},  a2 = {a2(k)}")

hopf = fixture("Hopf")
print(f"Hopf     lk = {linking_number(hopf)},  conway = {poly_str(conway_polynomial(hopf))}")
print()

# the two computations agree on random knots as well
agree = 0
for seed in range(25):
    d, cycle = random_knot_diagram(seed=seed, max_crossings=12)
    k = extract_gauss(d, [cycle])
    if a2(k) == conway_polynomial(k).get(2, 0):
        agree += 1
print(f"state sum matches the polynomial on {agree}/25 sampled knots")
