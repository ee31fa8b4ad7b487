"""Planarity and k-apex testing; the path-addition test against networkx,
kept here as an oracle only."""

import ast
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialgraphs import planarity
from spatialgraphs.catalog import family_member, fixture
from spatialgraphs.minors import has_minor
from spatialgraphs.multigraph import (
    GraphError,
    UnknownVertexError,
    complete_graph,
    delete_edge,
    delete_vertex,
    from_pairs,
)
from spatialgraphs.planarity import (
    all_proper_minors_2apex,
    apex_witness,
    is_planar,
)

K4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
K5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
K33 = [(a, b) for a in range(3) for b in range(3, 6)]
CUBE = [(a, a ^ 1 << k) for a in range(8) for k in range(3) if a < a ^ 1 << k]
OCTAHEDRON = [(a, b) for a in range(1, 7) for b in range(a + 1, 7) if b != a + 3]
PETERSEN = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] + [
    (5 + i, 5 + (i + 2) % 5) for i in range(5)]


def _subdivided(pairs, inner):
    """pairs with each edge made a path through inner new vertices."""
    n = 1 + max(map(max, pairs))
    out = []
    for u, v in pairs:
        path = [u, *range(n, n + inner), v]
        n += inner
        out += zip(path, path[1:])
    return out


def _shifted(pairs, by):
    return [(u + by, v + by) for u, v in pairs]


def test_planar_basics():
    assert is_planar(complete_graph(4))
    assert not is_planar(complete_graph(5))
    k33 = from_pairs([(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
    assert not is_planar(k33)
    assert not is_planar(fixture("PetersenRef"))


def test_planarity_matches_wagner():
    k5 = complete_graph(5)
    k33 = from_pairs([(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
    octahedron = from_pairs(OCTAHEDRON)
    cube = from_pairs(CUBE)
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


# one graph per rule of is_planar, then four more for the path-addition
# test's blocks and fragment order: the kernel's (vertices, edges), the
# verdict, and whether the path-addition test was asked
@pytest.mark.parametrize("pairs, kernel, planar, asked", [
    # K5 with every edge subdivided twice and a pendant tree (a claw) hung
    # on vertex 0: e = 10 > 3v - 6
    (_subdivided(K5, 2) + [(0, 100), (100, 101), (100, 102)], (5, 10), False, 0),
    # K3,3 subdivided once: triangle-free and e = 9 > 2v - 4
    (_subdivided(K33, 1), (6, 9), False, 0),
    # K5 - e with every edge subdivided: 5 vertices and 9 edges
    (_subdivided(K5[1:], 1), (5, 9), True, 0),
    # the cube is triangle-free with e = 2v - 4, so no bound decides it
    (CUBE, (8, 12), True, 1),
    # the octahedron has e = 3v - 6 > 2v - 4, but it has triangles
    (OCTAHEDRON, (6, 12), True, 1),
    # Petersen: triangle-free, e = 15 <= 2v - 4 = 16
    (PETERSEN, (10, 15), False, 1),
    (K4 + _shifted(K4, 4) + [(0, 4)], (8, 13), True, 1),
    (K33 + _shifted(K33, 5), (11, 18), False, 1),
    (K5 + _shifted(K4, 5), (9, 16), False, 1),
    # planar, but drawing the fragments in the order found, instead of one
    # with the fewest faces first, strands one with no face to go in
    ([(1, 4), (1, 6), (1, 7), (2, 3), (3, 4), (4, 6), (2, 6), (3, 6), (6, 7), (2, 7)],
     (6, 10), True, 1),
], ids=["subdivided-K5-with-trees", "subdivided-K33", "subdivided-K5-less-e", "cube",
        "octahedron", "Petersen", "two-K4-and-a-bridge", "two-K33-sharing-a-vertex",
        "K5-apart-from-K4", "fewest-faces-first"])
def test_each_kernel_rule(monkeypatch, pairs, kernel, planar, asked):
    g = from_pairs(pairs)
    adj = planarity._kernel(g, frozenset())
    assert (len(adj), sum(map(len, adj.values())) // 2) == kernel
    calls = []
    embed = planarity._embedding
    monkeypatch.setattr(planarity, "_embedding", lambda *args: calls.append(args) or embed(*args))
    assert is_planar(g) is planar
    assert len(calls) == asked


def test_kernel_of_a_tree_with_loops_and_parallels_is_empty():
    g = from_pairs([(1, 2), (1, 2), (2, 3), (3, 3), (2, 4), (4, 5)])
    assert planarity._kernel(g, frozenset()) == {}
    assert is_planar(g)


def _nx_planar(adj):
    ng = nx.Graph()
    ng.add_nodes_from(adj)
    ng.add_edges_from((a, b) for a, ns in adj.items() for b in ns)
    return nx.check_planarity(ng)[0]


@st.composite
def kernels(draw):
    """The kernel of one or two random graphs on 5 to 9 vertices, the
    second apart from the first, sharing a vertex with it or joined to it
    by an edge, so kernels come disconnected, with cut vertices and with
    bridges."""
    pairs = []
    for piece in range(draw(st.integers(1, 2))):
        size = draw(st.integers(5, 9))
        edges = list(combinations(range(10 * piece, 10 * piece + size), 2))
        pairs += sorted(draw(st.sets(st.sampled_from(edges), min_size=size + 3,
                                     max_size=3 * size - 6)))
        if piece:
            glue = draw(st.sampled_from(["apart", "vertex", "edge"]))
            if glue == "vertex":
                pairs = [tuple(0 if x == 10 else x for x in p) for p in pairs]
            elif glue == "edge":
                pairs.append((0, 10))
    return planarity._kernel(from_pairs(pairs), frozenset())


@settings(max_examples=60, deadline=None)
@given(kernels().filter(lambda adj: len(adj) > 5))  # past the size rule
def test_path_addition_matches_networkx(adj):
    rotation = planarity._embedding(adj)
    assert (rotation is not None) == _nx_planar(adj)
    if rotation is not None:
        assert planarity._euler_holds(adj, rotation)


def test_euler_check_rejects_a_twisted_rotation():
    # swapping two neighbours at a cube vertex reverses its rotation, which
    # puts the cube on a surface of higher genus
    adj = planarity._kernel(from_pairs(CUBE), frozenset())
    rotation = planarity._embedding(adj)
    assert planarity._euler_holds(adj, rotation)
    a, b, *rest = rotation[0]
    assert not planarity._euler_holds(adj, {**rotation, 0: [b, a, *rest]})


def test_is_planar_rejects_unknown_vertices():
    for removed in ({99}, {1, 99}):
        with pytest.raises(UnknownVertexError):
            is_planar(complete_graph(4), frozenset(removed))


def test_apex_search_rejects_negative_k():
    # and any k that is not an int: a bool would otherwise run as 0 or 1
    for k in (-1, 1.5, True, "2", None):
        with pytest.raises(GraphError):
            apex_witness(complete_graph(5), k)


def test_apex_witness_of_k6():
    k6 = complete_graph(6)
    assert apex_witness(k6, 1) is None
    w = apex_witness(k6, 2)
    assert len(w) == 2
    g = k6
    for v in w:
        g = delete_vertex(g, v)
    assert is_planar(g)


def test_k7_is_not_two_apex():
    assert apex_witness(complete_graph(7), 2) is None
    assert apex_witness(complete_graph(7), 3) is not None


def test_family_members_are_not_two_apex(n9):
    assert apex_witness(n9, 2) is None
    assert apex_witness(family_member("P10"), 1) is None


def test_all_proper_minors_two_apex_on_small_case():
    # one-edge-smaller children of K6 lose enough to be planar after
    # removing two vertices
    witness, failures = all_proper_minors_2apex(complete_graph(6))
    assert witness == apex_witness(complete_graph(6), 2)
    assert failures == []


def test_no_module_imports_networkx():
    # planarity is decided in-repo; networkx is a test oracle only, so a
    # runtime import of it is a deliberate change to this test and never
    # a side effect
    importers = set()
    for path in sorted(Path(planarity.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "networkx" for name in names):
                importers.add(path.stem)
    assert importers == set()
