"""Planarity and k-apex testing."""

from spatialgraphs.catalog import family_member, fixture
from spatialgraphs.minors import has_minor
from spatialgraphs.multigraph import complete_graph, delete_edge, delete_vertex, from_pairs
from spatialgraphs.planarity import (
    all_proper_minors_2apex,
    apex_witness,
    is_k_apex,
    is_planar,
)


def test_planar_basics():
    assert is_planar(complete_graph(4))
    assert not is_planar(complete_graph(5))
    k33 = from_pairs([(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
    assert not is_planar(k33)
    assert not is_planar(fixture("PetersenRef"))


def test_planarity_matches_wagner():
    k5 = complete_graph(5)
    k33 = from_pairs([(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
    octahedron = from_pairs([(a, b) for a in range(1, 7) for b in range(a + 1, 7) if b != a + 3])
    cube = from_pairs([(a, a ^ 1 << k) for a in range(8) for k in range(3) if a < a ^ 1 << k])
    wagner = from_pairs([(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])
    graphs = [
        complete_graph(4), k5, k33, delete_edge(k5, k5.edge_ids()[0]),
        delete_edge(k33, k33.edge_ids()[0]), octahedron, cube, wagner,
    ]
    for g in graphs:
        assert is_planar(g) == (has_minor(g, k5) is None and has_minor(g, k33) is None)


def test_planar_handles_multigraphs():
    assert is_planar(fixture("D4"))
    doubled = from_pairs([(1, 2), (1, 2), (2, 3)])
    assert is_planar(doubled)


def test_apex_witness_of_k6():
    k6 = complete_graph(6)
    assert not is_k_apex(k6, 1)
    assert is_k_apex(k6, 2)
    w = apex_witness(k6, 2)
    assert len(w) == 2
    g = k6
    for v in w:
        g = delete_vertex(g, v)
    assert is_planar(g)


def test_k7_is_not_two_apex():
    assert not is_k_apex(complete_graph(7), 2)
    assert is_k_apex(complete_graph(7), 3)


def test_family_members_are_not_two_apex(n9):
    assert not is_k_apex(n9, 2)
    assert not is_k_apex(family_member("P10"), 1)


def test_all_proper_minors_two_apex_on_small_case():
    # one-edge-smaller children of K6 lose enough to be planar after
    # removing two vertices
    witness, failures = all_proper_minors_2apex(complete_graph(6))
    assert witness == apex_witness(complete_graph(6), 2)
    assert failures == []
