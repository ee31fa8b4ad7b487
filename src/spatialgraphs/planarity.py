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
- otherwise the path-addition test of Demoucron, Malgrange & Pertuiset
  (1964), run on each block of the kernel.  A positive answer is
  certified in-process: the blocks' embeddings, spliced at their cut
  vertices into one rotation system of the kernel, must satisfy
  V - E + F = 2C, checked by walking all faces.  A negative answer (a
  fragment with no face to go in) is not certified; a Kuratowski
  subgraph would certify it.

The test suite cross-validates the verdict against an independent
K5/K3,3 minor search and against networkx, so the routes keep each
other honest.

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

from .canon import _set_orbit, automorphisms, edge_orbits
from .minors import one_step_reductions
from .multigraph import GraphError, MultiGraph, UnknownVertexError


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


def _blocks(adj: dict[int, set[int]]) -> list[list[tuple[int, int]]]:
    """Edge lists of the blocks (maximal biconnected pieces) of a simple
    graph, by depth-first search with low points (Hopcroft & Tarjan)."""
    order: dict[int, int] = {}
    low: dict[int, int] = {}
    blocks = []
    for root in adj:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack = [(root, None, iter(adj[root]))]
        edges: list[tuple[int, int]] = []
        while stack:
            v, parent, rest = stack[-1]
            for w in rest:
                if w not in order:
                    order[w] = low[w] = len(order)
                    edges.append((v, w))
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent and order[w] < order[v]:
                    edges.append((v, w))
                    low[v] = min(low[v], order[w])
            else:
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= order[parent]:  # parent cuts v's subtree off
                        i = edges.index((parent, v))
                        blocks.append(edges[i:])
                        del edges[i:]
    return blocks


def _block_faces(adj: dict[int, set[int]]) -> Optional[list[list[int]]]:
    """Faces of a plane embedding of a biconnected simple graph, each a
    cyclic vertex list, darts in a consistent direction; None when the
    graph is not planar.  Path addition (Demoucron, Malgrange &
    Pertuiset 1964): embed a cycle, then, while a fragment is left (an
    edge outside the embedded graph H joining two of its vertices, or a
    component of the graph less H with its edges to H), take one with the
    fewest admissible faces (faces holding all its vertices in H) and draw
    a path of it across the first.  A fragment with none means the graph
    is not planar."""
    path: list[int] = []
    at: dict[int, int] = {}
    v, prev = next(iter(adj)), None
    while v not in at:  # walk without stepping back until a vertex repeats
        at[v] = len(path)
        path.append(v)
        v, prev = next(w for w in adj[v] if w != prev), v
    cycle = path[at[v]:]
    faces = [cycle, cycle[::-1]]
    placed = set(cycle)
    left = {x: set(ns) for x, ns in adj.items()}  # edges not yet embedded
    for i, x in enumerate(cycle):
        left[x].discard(cycle[i - 1])
        left[cycle[i - 1]].discard(x)
    while True:
        fragments = [({u, w}, None) for u in placed for w in left[u] if w in placed and u < w]
        seen: set[int] = set()
        for s in adj:
            if s in placed or s in seen:
                continue
            piece, todo, feet = {s}, [s], set()
            while todo:
                for w in adj[todo.pop()]:
                    if w in placed:
                        feet.add(w)
                    elif w not in piece:
                        piece.add(w)
                        todo.append(w)
            seen |= piece
            fragments.append((feet, piece))
        if not fragments:
            return faces
        best = None
        for feet, piece in fragments:
            fits = [i for i, f in enumerate(faces) if feet.issubset(f)]
            if not fits:
                return None
            if best is None or len(fits) < len(best[0]):
                best = fits, feet, piece
                if len(fits) == 1:
                    break
        fits, feet, piece = best
        if piece is None:
            route = sorted(feet)
        else:  # from its smallest foot a, through the piece, to another foot
            a = min(feet)
            start = next(x for x in piece if a in adj[x])
            parent = {start: None}
            todo = [start]
            for x in todo:
                b = next((w for w in adj[x] if w in placed and w != a), None)
                if b is not None:
                    break
                for w in adj[x]:
                    if w in piece and w not in parent:
                        parent[w] = x
                        todo.append(w)
            route = [b]
            while x is not None:
                route.append(x)
                x = parent[x]
            route.append(a)
            route.reverse()
        for x, y in zip(route, route[1:]):
            left[x].discard(y)
            left[y].discard(x)
        placed.update(route)
        # split the face: a ... b along it and back along the route, then
        # b ... a along it and on along the route
        f = faces[fits[0]]
        i = f.index(route[0])
        f = f[i:] + f[:i]
        k = f.index(route[-1])
        faces[fits[0]] = f[:k + 1] + route[-2:0:-1]
        faces.append(f[k:] + route[:-1])


def _embedding(adj: dict[int, set[int]]) -> Optional[dict[int, list[int]]]:
    """A rotation system of a plane embedding of the simple graph adj
    (each vertex's neighbours in cyclic order), or None when adj is not
    planar.  Each block is embedded by ``_block_faces`` (a bridge has one
    face), a vertex's rotation in a block is read off the faces, and its
    rotations in its blocks are listed one after another, which splices
    the blocks at their cut vertices without a crossing."""
    rotation: dict[int, list[int]] = {v: [] for v in adj}
    for block in _blocks(adj):
        if len(block) == 1:
            faces = [list(block[0])]
        else:
            sub: dict[int, set[int]] = {}
            for u, w in block:
                sub.setdefault(u, set()).add(w)
                sub.setdefault(w, set()).add(u)
            faces = _block_faces(sub)
            if faces is None:
                return None
        after: dict[int, dict[int, int]] = {}  # the face walk's u -> v -> w
        for f in faces:
            for i, v in enumerate(f):
                after.setdefault(v, {})[f[i - 1]] = f[(i + 1) % len(f)]
        for v, turn in after.items():
            x = min(turn)
            for _ in turn:
                rotation[v].append(x)
                x = turn[x]
    return rotation


def _euler_holds(adj: dict[int, set[int]], rotation: dict[int, list[int]]) -> bool:
    """Whether rotation is a rotation system of the simple graph adj whose
    faces give V - E + F = 2C, C the number of components and an isolated
    vertex a face of its own.  A face walk leaves dart (u, v) by (v, w),
    w the neighbour after u in v's rotation.  Every component of a
    rotation system has V - E + F = 2 - 2g for its genus g, so equality
    holds only for an embedding in the plane."""
    if rotation.keys() != adj.keys() or any(
            len(r) != len(adj[v]) or set(r) != adj[v] for v, r in rotation.items()):
        return False
    turn = {v: {r[i - 1]: r[i] for i in range(len(r))} for v, r in rotation.items()}
    darts = {(u, w) for u, ns in adj.items() for w in ns}
    edges = len(darts) // 2
    faces = sum(1 for ns in adj.values() if not ns)
    while darts:
        start = u, w = darts.pop()
        faces += 1
        u, w = w, turn[w][u]
        while (u, w) != start:
            darts.remove((u, w))
            u, w = w, turn[w][u]
    components = 0
    seen: set[int] = set()
    for s in adj:
        if s in seen:
            continue
        components += 1
        seen.add(s)
        todo = [s]
        while todo:
            for w in adj[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
    return len(adj) - edges + faces == 2 * components


def is_planar(g: MultiGraph, removed: frozenset[int] = frozenset()) -> bool:
    """Planarity of g less the vertices in removed, decided on the kernel.

    Certified by theorem: planar when the kernel has at most 4 vertices,
    or 5 and fewer than 10 edges (a subgraph of K4 or of K5 - e);
    non-planar when e > 3v - 6 (Euler), or when the kernel has no
    triangle and e > 2v - 4 (Euler, girth 4).  What these leave goes to
    the path-addition test ``_embedding``, whose positive answers are
    certified by the Euler face count of its rotation system on the
    kernel (``_euler_holds``); its negatives are not certified.  Raises
    ``UnknownVertexError`` for a label of removed that is not a vertex of
    g.
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
    rotation = _embedding(adj)
    # certify the embedding before trusting it: every component must
    # satisfy V - E + F = 2, with faces counted off the rotation system
    if rotation is not None and not _euler_holds(adj, rotation):
        raise AssertionError("planar embedding failed the Euler check")
    return rotation is not None


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
