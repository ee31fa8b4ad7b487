"""Planarity and k-apex testing."""

import ast
from pathlib import Path

import networkx as nx
import pytest

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
    is_k_apex,
    is_planar,
)

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


# one graph per rule of is_planar: the kernel's (vertices, edges), the
# verdict, and whether networkx was asked
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
], ids=["subdivided-K5-with-trees", "subdivided-K33", "subdivided-K5-less-e", "cube",
        "octahedron", "Petersen"])
def test_each_kernel_rule(monkeypatch, pairs, kernel, planar, asked):
    g = from_pairs(pairs)
    adj = planarity._kernel(g, frozenset())
    assert (len(adj), sum(map(len, adj.values())) // 2) == kernel
    calls = []
    check = nx.check_planarity
    monkeypatch.setattr(nx, "check_planarity", lambda *args: calls.append(args) or check(*args))
    assert is_planar(g) is planar
    assert len(calls) == asked


def test_kernel_of_a_tree_with_loops_and_parallels_is_empty():
    g = from_pairs([(1, 2), (1, 2), (2, 3), (3, 3), (2, 4), (4, 5)])
    assert planarity._kernel(g, frozenset()) == {}
    assert is_planar(g)


def test_is_planar_rejects_unknown_vertices():
    for removed in ({99}, {1, 99}):
        with pytest.raises(UnknownVertexError):
            is_planar(complete_graph(4), frozenset(removed))


def test_apex_search_rejects_negative_k():
    # and any k that is not an int: a bool would otherwise run as 0 or 1
    for search in (apex_witness, is_k_apex):
        for k in (-1, 1.5, True, "2", None):
            with pytest.raises(GraphError):
                search(complete_graph(5), k)


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


def test_only_planarity_imports_networkx():
    # networkx stays behind one module, so that moving that boundary is a
    # deliberate change to this test and never a side effect
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
    assert importers == {"planarity"}
