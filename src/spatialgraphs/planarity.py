"""Planarity and small apex numbers.

``is_planar(g, removed)`` decides g - S on its kernel: loops and parallel
edges dropped, vertices of degree at most 1 deleted until none is left,
and each vertex of degree 2 suppressed (its two neighbours joined, a
parallel edge so made merged away).  Each step keeps planarity both ways,
so the kernel is planar exactly when g - S is.  Every kernel vertex has
degree at least 3, and the answer comes from the first of these that
applies:

- at most 4 vertices, or 5 vertices and fewer than 10 edges: planar, as
  a subgraph of K4 or of K5 - e;
- e > 3v - 6: non-planar, by Euler's formula (a simple planar graph on
  v >= 3 vertices has at most 3v - 6 edges);
- no triangle and e > 2v - 4: non-planar, by Euler's formula with every
  face of length at least 4;
- otherwise networkx's left-right test on the kernel.  A positive answer
  is certified in-process: the returned combinatorial embedding must
  satisfy V - E + F = 2C on the kernel, checked by walking all faces.  A
  negative answer is networkx's alone.

The test suite cross-validates the verdict against an independent
K5/K3,3 minor search, so the two routes keep each other honest.

A graph g that is not k-apex settles some planarity questions about its
one-step reductions h.  g - T is non-planar for every vertex set T with
|T| <= k, so for a set S of at most k vertices h - S is non-planar, with no
test, in two cases:

- |S| < k.  h contains g - x as a subgraph on the same labels, loops and
  parallel edges aside (planarity ignores them): x = u for h = g - uv,
  x = d for a contraction of uv that drops d, x = v for h = g - v.  So
  h - S contains g - T for T = S with x added, and |T| <= k.
- h = g - uv and S meets {u, v}.  Then h - S = g - S.

``all_proper_minors_2apex`` uses this with k = 2.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

import networkx as nx

from .canon import _set_orbit, automorphisms, edge_orbits
from .minors import one_step_reductions
from .multigraph import GraphError, MultiGraph, UnknownVertexError


def _face_count(embedding: "nx.PlanarEmbedding") -> int:
    half_edges = set()
    for u, v in embedding.edges():
        half_edges.add((u, v))
        half_edges.add((v, u))
    faces = 0
    seen = set()
    for he in sorted(half_edges):
        if he in seen:
            continue
        faces += 1
        embedding.traverse_face(*he, mark_half_edges=seen)
    return faces


def _kernel(g: MultiGraph, removed: frozenset[int]) -> dict[int, set[int]]:
    """Adjacency sets of the kernel of g less the vertices in removed
    (see the module docstring); every vertex left has degree >= 3."""
    adj = {v: set() for v in g.vertices if v not in removed}
    for _, u, v in g.edges:
        if u != v and u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    low = [v for v, ns in adj.items() if len(ns) <= 2]
    while low:
        v = low.pop()
        ns = adj.pop(v, None)
        if ns is None:
            continue  # queued twice; no step raises a degree
        for w in ns:
            adj[w].discard(v)
        if len(ns) == 2:
            a, b = ns
            adj[a].add(b)
            adj[b].add(a)
        low.extend(w for w in ns if len(adj[w]) <= 2)
    return adj


def is_planar(g: MultiGraph, removed: frozenset[int] = frozenset()) -> bool:
    """Planarity of g less the vertices in removed, decided on the kernel.

    Certified by theorem without networkx: planar when the kernel has at
    most 4 vertices, or 5 and fewer than 10 edges (a subgraph of K4 or of
    K5 - e); non-planar when e > 3v - 6 (Euler), or when the kernel has no
    triangle and e > 2v - 4 (Euler, girth 4).  What these leave goes to
    networkx, whose positive answers are certified by the Euler face
    count of the embedding on the kernel; its negatives are not
    certified.  Raises ``UnknownVertexError`` for a label of removed that
    is not a vertex of g.
    """
    for x in removed:
        if not g.has_vertex(x):
            raise UnknownVertexError(f"no vertex {x}")
    adj = _kernel(g, removed)
    v = len(adj)
    e = sum(map(len, adj.values())) // 2
    if v <= 4 or (v == 5 and e < 10):
        return True
    if e > 3 * v - 6:
        return False
    edges = [(a, b) for a, ns in adj.items() for b in ns if a < b]
    if e > 2 * v - 4 and all(adj[a].isdisjoint(adj[b]) for a, b in edges):
        return False
    ng = nx.Graph(edges)
    ok, embedding = nx.check_planarity(ng)
    # certify the embedding before trusting it: every component must
    # satisfy V - E + F = 2, with faces counted off the rotation system
    if ok and v - e + _face_count(embedding) != 2 * nx.number_connected_components(ng):
        raise AssertionError("planar embedding failed the Euler check")
    return ok


def apex_witness(g: MultiGraph, k: int) -> Optional[frozenset[int]]:
    """A vertex set of size <= k whose removal leaves a planar graph.

    Sets are tried by size, then in the order of their vertices' counts of
    distinct neighbours.  A set in the orbit of one already found non-planar
    under g's automorphisms is skipped, as an automorphism carries the one
    graph onto the other.  The first planar set is never skipped, so the
    witness is the one trying every set would give.  Raises ``GraphError``
    unless k is an int (not a bool) of at least 0.
    """
    if type(k) is not int or k < 0:
        raise GraphError(f"k must be an integer of at least 0, got {k!r}")
    return _apex_search(g, k)


def _apex_search(g: MultiGraph, k: int, below: int = 0,
                 ends: frozenset[int] = frozenset()) -> Optional[frozenset[int]]:
    """``apex_witness``'s search, told that g - S is non-planar for every
    set S of fewer than ``below`` vertices or meeting ``ends``.  Such a set
    is not tested, but its orbit joins the failed ones like a tested set's.
    """
    if below == 0 and is_planar(g):
        return frozenset()
    # high degree vertices are the likeliest apexes; try those first, by
    # their count of distinct neighbours (loops and parallels never matter)
    order = sorted(g.vertices, key=lambda v: (-len(g.neighbors(v)), v))
    failed: set[frozenset[int]] = set()
    generators = None  # fetched at the first failed set
    for size in range(1, k + 1):
        for combo in combinations(order, size):
            removed = frozenset(combo)
            if removed in failed:
                continue
            if size >= below and not removed & ends and is_planar(g, removed):
                return removed
            if generators is None:
                generators = automorphisms(g)
            failed |= _set_orbit(removed, generators)
    return None


def is_k_apex(g: MultiGraph, k: int) -> bool:
    """Whether deleting some <= k vertices makes g planar.  Exhaustive over
    vertex sets up to automorphism (see ``apex_witness``); sized for k <= 3."""
    return apex_witness(g, k) is not None


def all_proper_minors_2apex(g: MultiGraph) -> tuple[Optional[frozenset[int]], list[str]]:
    """Check g and every one-step reduction of g for 2-apexness.

    Deleting or contracting further only helps (2-apexness is closed under
    minors), so covering the one-step reductions covers all proper minors.
    The same closure skips a vertex deletion g - v once the deletion of an
    edge at v, or of the first edge of that edge's orbit, was found 2-apex:
    g - v is a minor of g - e.

    g itself is searched once.  When g is not k-apex (here k = 2), every
    reduction h has h - S non-planar for each set S with |S| < k, and
    h = g - uv also for each S of at most k vertices that meets {u, v}
    (see the module docstring).  The reduction's search tests none of
    those sets; as they are non-planar, its witness is still the one
    ``apex_witness`` gives.  When g is 2-apex, no set is settled.  Returns
    (g's ``apex_witness`` for k = 2, labels of the reductions not 2-apex).
    """
    witness = apex_witness(g, 2)
    below = 2 if witness is None else 0
    first = {e: ids[0] for ids in edge_orbits(g) for e in ids}
    two_apex_edges: set[int] = set()  # first edges of orbits whose deletion is 2-apex
    failures = []
    for kind, item, label, graph in one_step_reductions(g):
        ends: frozenset[int] = frozenset()
        if kind == "delete vertex":
            if any(first[e] in two_apex_edges for e, _ in g.incident(item)):
                continue
        elif kind == "delete edge" and witness is None:
            ends = frozenset(g.endpoints(item))
        if _apex_search(graph, 2, below, ends) is None:
            failures.append(label)
        elif kind == "delete edge":
            two_apex_edges.add(item)
    return witness, failures
