"""Planarity of G − S decided on its kernel, the triangle exchange and the
simplified reductions, built straight from G's edge list, against the
routes they replaced.

The oracles below are copies of those routes: planarity asked of
simplify(G) with the vertices of S deleted one by one, apex candidates
ordered by their degree in simplify(G), triangles by an index triple loop,
the triangle-to-star built from three edge deletions, the star-to-triangle
built and then simplified on the new triangle's edges alone, simplify
built and then simplified, and contractions as
simplify(contract_edge(G, e)).
"""

from itertools import combinations

import networkx as nx
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spatialgraphs.exchange import _triangle_edges, delta_y, triangles, y_delta
from spatialgraphs.minors import one_step_reductions
from spatialgraphs.multigraph import (
    MultiGraph,
    contract_edge,
    delete_edge,
    delete_vertex,
    from_pairs,
    simplify,
)
from spatialgraphs.planarity import apex_witness, is_planar

K5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
K33 = [(a, b) for a in range(3) for b in range(3, 6)]
K6_LESS_ONE = [(a, b) for a in range(6) for b in range(a + 1, 6)][1:]
K4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
CUBE = [(a, a ^ 1 << k) for a in range(8) for k in range(3) if a < a ^ 1 << k]
PETERSEN = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] + [
    (5 + i, 5 + (i + 2) % 5) for i in range(5)]


@st.composite
def small_multigraphs(draw):
    """Up to 8 vertices with loops, parallel edges and isolated vertices.

    Most draws grow from a non-planar core (K5, K3,3 or K6 less an edge), so
    that the apex search has candidates to order; the labels are shuffled
    so that label order and degree order disagree.
    """
    n = draw(st.integers(0, 8))
    core = draw(st.sampled_from([[], K5, K33, K6_LESS_ONE])) if n >= 6 else []
    ends = st.integers(0, n - 1) if n else st.nothing()
    extra = draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
    labels = draw(st.permutations(range(10, 10 + n)))
    pairs = [(labels[u], labels[v]) for u, v in core + extra]
    return from_pairs(pairs, vertices=labels)


@st.composite
def kernel_multigraphs(draw):
    """A core (K4, K5, K5 - e, K3,3, K6 less an edge, the cube or Petersen)
    with each edge replaced by a chain of up to two degree-2 vertices,
    pendant trees hung on it, and a few extra edges, loops and parallel
    edges added; the labels are shuffled.

    The kernel is the core with its extra edges, so every rule of
    ``is_planar`` is met: planar by size (K4, K5 - e), non-planar by
    3v - 6 (K5, K6 less an edge) and by the triangle-free bound (K3,3),
    and networkx both ways (the cube, Petersen, K3,3 with an edge added).
    """
    core = draw(st.sampled_from([K4, K5, K5[1:], K33, K6_LESS_ONE, CUBE, PETERSEN]))
    n = 1 + max(map(max, core))
    pairs = []
    for u, v in core:
        inner = draw(st.integers(0, 2))
        chain = [u, *range(n, n + inner), v]
        n += inner
        pairs += zip(chain, chain[1:])
    for _ in range(draw(st.integers(0, 4))):
        pairs.append((draw(st.integers(0, n - 1)), n))  # a leaf on any older vertex
        n += 1
    ends = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(ends, ends), max_size=2))
    pairs += [(v, v) for v in draw(st.lists(ends, max_size=2))]
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    labels = draw(st.permutations(range(10, 10 + n)))
    return from_pairs([(labels[u], labels[v]) for u, v in pairs], vertices=labels)


def _old_is_planar(g: MultiGraph, removed=frozenset()) -> bool:
    h = simplify(g)
    for v in sorted(removed):
        h = delete_vertex(h, v)
    ng = nx.Graph()
    ng.add_nodes_from(h.vertices)
    ng.add_edges_from((u, v) for _, u, v in h.edges)
    return nx.check_planarity(ng)[0]


def _old_apex_witness(g: MultiGraph, k: int):
    s = simplify(g)
    if _old_is_planar(s):
        return frozenset()
    order = sorted(s.vertices, key=lambda v: (-s.degree(v), v))
    for size in range(1, k + 1):
        for combo in combinations(order, size):
            if _old_is_planar(s, frozenset(combo)):
                return frozenset(combo)
    return None


def _old_triangles(g: MultiGraph):
    out = []
    vs = g.vertices
    for i, u in enumerate(vs):
        nu = set(g.neighbors(u))
        for j in range(i + 1, len(vs)):
            v = vs[j]
            if v not in nu:
                continue
            nv = set(g.neighbors(v))
            for k in range(j + 1, len(vs)):
                w = vs[k]
                if w in nu and w in nv:
                    out.append((u, v, w))
    return tuple(out)


def _old_delta_y(g: MultiGraph, t) -> MultiGraph:
    u, v, w = sorted(t)
    tri = _triangle_edges(g, t)
    x = g.next_vertex_label()
    base = g
    for eid in tri:
        base = delete_edge(base, eid)
    nid = g.next_edge_id()
    edges = list(base.edges) + [(nid, u, x), (nid + 1, v, x), (nid + 2, w, x)]
    return MultiGraph(list(base.vertices) + [x], edges)


def _old_simplify(g: MultiGraph) -> MultiGraph:
    kept = []
    for (u, v), ids in sorted(g.parallel_classes().items()):
        if u == v:
            continue
        kept.append((min(ids), u, v))
    return MultiGraph(g.vertices, kept)


def _old_y_delta(g: MultiGraph, x: int) -> MultiGraph:
    a, b, c = g.neighbors(x)
    kept = [(e, p, q) for e, p, q in g.edges if p != x and q != x]
    nid = g.next_edge_id()
    kept += [(nid, a, b), (nid + 1, a, c), (nid + 2, b, c)]
    h = MultiGraph((v for v in g.vertices if v != x), kept)
    # simplify the new triangle edges alone: each collapses onto the older
    # edges of its class, and every other loop and parallel stays
    return MultiGraph(h.vertices, [
        (e, p, q) for e, p, q in h.edges if e < nid or len(h.edges_between(p, q)) == 1
    ])


@settings(max_examples=150, deadline=None)
@given(small_multigraphs(), st.data())
def test_is_planar_less_a_vertex_set_matches_simplify_then_delete(g, data):
    removed = frozenset(data.draw(st.sets(st.sampled_from(g.vertices)))) if g.vertices else frozenset()
    assert is_planar(g, removed) == _old_is_planar(g, removed)


@settings(max_examples=60, deadline=None)
@given(kernel_multigraphs(), st.data())
def test_is_planar_on_the_kernel_matches_simplify_then_delete(g, data):
    removed = frozenset(data.draw(st.sets(st.sampled_from(g.vertices), max_size=2)))
    assert is_planar(g, removed) == _old_is_planar(g, removed)


@settings(max_examples=150, deadline=None)
@given(small_multigraphs())
def test_apex_witness_matches_simplified_degree_order(g):
    for k in range(3):
        assert apex_witness(g, k) == _old_apex_witness(g, k)


@settings(max_examples=150, deadline=None)
@given(small_multigraphs())
def test_triangles_match_index_loop_in_order(g):
    assert triangles(g) == _old_triangles(g)


@settings(max_examples=100, deadline=None)
@given(small_multigraphs())
def test_delta_y_matches_edge_deletions(g):
    for t in triangles(g):
        assert delta_y(g, t) == _old_delta_y(g, t)


@settings(max_examples=150, deadline=None)
@given(small_multigraphs())
def test_simplify_matches_simplified_rebuild(g):
    assert simplify(g) == _old_simplify(g)


@settings(max_examples=100, deadline=None)
@given(small_multigraphs())
def test_reduction_contractions_match_simplified_contract_edge(g):
    for kind, eid, _, graph in one_step_reductions(g):
        if kind == "contract edge":
            assert graph == simplify(contract_edge(g, eid))


@settings(max_examples=100, deadline=None)
@given(small_multigraphs(), st.data())
def test_y_delta_matches_build_then_simplify(g, data):
    # hang a star on three vertices, adjacent or not, so that the new
    # triangle sometimes forms a parallel class that must collapse
    assume(g.vertex_count >= 3)
    a, b, c = data.draw(st.lists(st.sampled_from(g.vertices), min_size=3, max_size=3, unique=True))
    x, nid = g.next_vertex_label(), g.next_edge_id()
    h = MultiGraph(g.vertices + (x,), list(g.edges) + [(nid, a, x), (nid + 1, b, x), (nid + 2, c, x)])
    assert y_delta(h, x) == _old_y_delta(h, x)
