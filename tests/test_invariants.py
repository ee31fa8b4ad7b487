"""Gauss-code invariants: linking number, Conway polynomial, a2, censuses."""

import pytest

from spatialgraphs.catalog import (
    d4_in_n9_model,
    d4_reference_diagram,
    fixture,
)
from spatialgraphs.cycles import (
    all_cycles,
    disjoint_cycle_tuples,
    format_cycle,
    lift_cycle,
    parse_cycle,
)
from spatialgraphs.diagrams import (
    assign_over_under,
    build_convex_diagram,
    extract_gauss,
    random_knot_diagram,
)
from spatialgraphs.invariants import (
    GaussLink,
    a2,
    a2_census,
    alpha,
    alpha_scope,
    conway_polynomial,
    cycle_a2,
    dichotomy_witness,
    format_gauss,
    interleave_class_sums,
    linking_number,
    lk_census,
    pair_lk,
    parse_gauss,
    poly_str,
)
from spatialgraphs.multigraph import GraphError, complete_graph, from_pairs

TREFOIL = "c1o+ c2u+ c3o+ c1u+ c2o+ c3u+"


def test_gauss_round_trip():
    for text in (TREFOIL, "c1o+ c2u+ / c1u+ c2o+", "-", "c1o+ c1u+ / -"):
        assert format_gauss(parse_gauss(text)) == text


def test_gauss_validation_rejects_malformed_codes():
    with pytest.raises(GraphError, match="appears 1 times"):
        parse_gauss("c1o+").validate()
    with pytest.raises(GraphError, match="lacks an over and an under"):
        parse_gauss("c1o+ c1o+").validate()
    with pytest.raises(GraphError, match="inconsistent signs"):
        parse_gauss("c1o+ c1u-").validate()


def test_linking_number_basics():
    assert linking_number(fixture("Hopf")) == 1
    assert linking_number(parse_gauss("c1o+ c1u+ / -")) == 0
    with pytest.raises(GraphError, match="two components"):
        linking_number(parse_gauss(TREFOIL))


def test_conway_polynomial_on_references():
    assert conway_polynomial(parse_gauss("-")) == {0: 1}
    assert conway_polynomial(fixture("Hopf")) == {1: 1}
    assert conway_polynomial(fixture("Trefoil")) == {0: 1, 2: 1}
    assert conway_polynomial(fixture("Fig8")) == {0: 1, 2: -1}


def test_conway_polynomial_skein_guard():
    # an unknot with one kink per crossing: 24 pass, 25 trip the guard
    def kinks(n):
        return parse_gauss(" ".join(f"c{i}o+ c{i}u+" for i in range(1, n + 1)))

    assert conway_polynomial(kinks(24)) == {0: 1}
    with pytest.raises(GraphError, match="skein guard"):
        conway_polynomial(kinks(25))


def test_poly_str():
    assert poly_str({0: 1, 2: 1}) == "1 + z^2"
    assert poly_str({}) == "0"
    assert poly_str({2: -1}) == "-z^2"


def test_a2_matches_conway_quadratic_coefficient_on_references():
    for name, val in (("Trefoil", 1), ("Fig8", -1)):
        k = fixture(name)
        assert a2(k) == val == conway_polynomial(k).get(2, 0)


def test_a2_matches_conway_on_sampled_knots():
    for seed in range(15):
        d, cycle = random_knot_diagram(seed=seed, max_crossings=10)
        k = extract_gauss(d, [cycle])
        assert a2(k) == conway_polynomial(k).get(2, 0), seed


def test_a2_is_basepoint_and_orientation_independent():
    k = parse_gauss("c1u- c2o- c3u+ c4o+ c2u- c1o- c4u+ c3o+")
    (comp,) = k.components
    want = a2(k)
    for shift in range(1, len(comp)):
        assert a2(GaussLink((comp[shift:] + comp[:shift],))) == want
    assert a2(GaussLink((tuple(reversed(comp)),))) == want


def test_interleave_class_sums_carry_a2():
    for name in ("Trefoil", "Fig8"):
        k = fixture(name)
        sums = interleave_class_sums(k)
        assert set(sums) == {(x, y) for x in (False, True) for y in (False, True)}
        assert sums[(False, True)] == a2(k)


def test_lk_census_on_complete_graph_six():
    g = complete_graph(6)
    base = build_convex_diagram(g)
    pairs = disjoint_cycle_tuples(g, 2)
    for s in range(8):
        census = lk_census(assign_over_under(base, seed=s), pairs)
        assert census.parity == 1
        assert len(census.values) == 10


def test_a2_census_on_hamiltonian_cycles_of_k7():
    g = complete_graph(7)
    base = build_convex_diagram(g)
    sevens = [c for c in all_cycles(g) if len(c) == 7]
    assert len(sevens) == 360
    for s in range(3):
        census = a2_census(assign_over_under(base, seed=s), sevens)
        assert census.parity == 1


def test_linking_parity_is_additive_over_cycle_sums(n9):
    # the far triangle links a four-cycle the same way, mod 2, as it links
    # the two four-cycles that sum to it over the shared doubled path
    base = build_convex_diagram(n9)
    mu = parse_cycle(n9, "[7 8 9]")
    whole = parse_cycle(n9, "[1 2 4 5]")
    part_a = parse_cycle(n9, "[1 2 6 5]")
    part_b = parse_cycle(n9, "[4 2 6 5]")
    for s in range(100):
        d = assign_over_under(base, seed=s)
        total = pair_lk(d, whole, mu) + pair_lk(d, part_a, mu) + pair_lk(d, part_b, mu)
        assert total % 2 == 0


def test_alpha_on_reference_diagram():
    ref = d4_reference_diagram()
    seen = {alpha(assign_over_under(ref, bits=b)) for b in range(64)}
    assert seen == {0, 1}


def test_alpha_through_a_minor_model(n9):
    model = d4_in_n9_model()
    base = build_convex_diagram(n9)
    quads = tuple(lift_cycle(model, c) for c in alpha_scope(model.pattern))
    vals = {alpha(assign_over_under(base, seed=s), quads) for s in range(12)}
    assert vals <= {0, 1}


def test_dichotomy_witness_deterministic_case(n9):
    d = assign_over_under(build_convex_diagram(n9), bits=0)
    w = dichotomy_witness(d)
    assert w is not None
    assert w.kind == "knot"
    assert format_cycle(n9, w.cycles[0]) == "[1 3 5 8 2 4 6]"
    assert w.values[0] % 2 == 1


def test_dichotomy_witness_finds_a_link():
    # three disjoint triangles, no knotted cycle: the witness is the triple
    g = from_pairs([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (7, 8), (8, 9), (7, 9)])
    base = build_convex_diagram(g, order=[1, 4, 7, 2, 5, 8, 3, 6, 9], seed=0)
    assert base.crossing_count == 18
    d = assign_over_under(base, seed=1)
    w = dichotomy_witness(d)
    assert w.kind == "link"
    assert w.values == (-1, 1, -1)
    a, b, c = w.cycles
    assert w.values == tuple(linking_number(extract_gauss(d, p)) for p in ((a, b), (a, c), (b, c)))


def test_cycle_a2_agrees_with_extraction(n9):
    d = assign_over_under(build_convex_diagram(n9), seed=4)
    cyc = parse_cycle(n9, "[1 3 5 8 2 4 6]")
    assert cycle_a2(d, cyc) == a2(extract_gauss(d, [cyc]))


def test_compiled_forms_raise_like_extract_gauss(n9):
    # a failed compile leaves no memo entry, so a second call raises again
    base = build_convex_diagram(n9)
    tri = parse_cycle(n9, "[1 2 3]")
    shares_an_edge = parse_cycle(n9, "[1 2 6]")
    shares_a_vertex = parse_cycle(n9, "[1 5 6]")
    not_a_cycle = tri | parse_cycle(n9, "[7 8 9]")
    for seed in (1, 2):
        d = assign_over_under(base, seed=seed)
        for other in (shares_an_edge, shares_a_vertex, tri):
            with pytest.raises(GraphError, match="components share a vertex"):
                pair_lk(d, tri, other)
            with pytest.raises(GraphError, match="components share a vertex"):
                extract_gauss(d, [tri, other])
        with pytest.raises(GraphError):
            cycle_a2(d, not_a_cycle)
        with pytest.raises(GraphError):
            pair_lk(d, not_a_cycle, parse_cycle(n9, "[4 5 6]"))
    # the cycles the failed calls walked still evaluate
    assert cycle_a2(d, tri) == a2(extract_gauss(d, [tri]))
