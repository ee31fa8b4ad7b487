"""Planarity and small apex numbers.

The planarity verdict comes from networkx's left-right test, but every
positive answer is certified in-process: the returned combinatorial
embedding must satisfy the Euler relation V - E + F = 1 + C, which is
checked by walking all faces.  The test suite cross-validates the verdict
against an independent K5/K3,3 minor search, so the two routes keep each
other honest.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

import networkx as nx

from .minors import one_step_reductions
from .multigraph import MultiGraph, delete_vertex, simplify


def _to_nx(g: MultiGraph) -> "nx.Graph":
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from((u, v) for _, u, v in g.edges)
    return out


def _component_count(g: "nx.Graph") -> int:
    return nx.number_connected_components(g) if g.number_of_nodes() else 0


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


def is_planar(g: MultiGraph) -> bool:
    """Planarity of the simplification (loops and parallels never matter)."""
    s = simplify(g)
    ng = _to_nx(s)
    ok, embedding = nx.check_planarity(ng)
    if not ok:
        return False
    if ng.number_of_edges() == 0:
        return True
    # certify the embedding before trusting it: every edge-bearing component
    # must satisfy V - E + F = 2, with faces counted off the rotation system
    isolated = sum(1 for n in ng.nodes if ng.degree(n) == 0)
    v = ng.number_of_nodes() - isolated
    e = ng.number_of_edges()
    comps = _component_count(ng) - isolated
    faces = _face_count(embedding)
    if v - e + faces != 2 * comps:
        raise AssertionError("planar embedding failed the Euler check")
    return True


def apex_witness(g: MultiGraph, k: int) -> Optional[frozenset[int]]:
    """A vertex set of size <= k whose removal leaves a planar graph."""
    s = simplify(g)
    if is_planar(s):
        return frozenset()
    # high degree vertices are the likeliest apexes; try those first
    order = sorted(s.vertices, key=lambda v: (-s.degree(v), v))
    for size in range(1, k + 1):
        for combo in combinations(order, size):
            h = s
            for v in combo:
                h = delete_vertex(h, v)
            if is_planar(h):
                return frozenset(combo)
    return None


def is_k_apex(g: MultiGraph, k: int) -> bool:
    """Whether deleting some <= k vertices makes g planar.  Exhaustive over
    vertex subsets; sized for k <= 3."""
    return apex_witness(g, k) is not None


def all_proper_minors_2apex(g: MultiGraph) -> tuple[bool, list[str]]:
    """Check every one-step reduction of g for 2-apexness.

    Deleting or contracting further only helps (2-apexness is closed under
    minors), so covering the one-step reductions covers all proper minors.
    Returns (ok, failing reduction labels).
    """
    failures = []
    for label, graph in one_step_reductions(g):
        if not is_k_apex(graph, 2):
            failures.append(label)
    return (not failures, failures)
