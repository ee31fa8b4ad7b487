"""Canonical forms and isomorphism for small multigraphs.

Iterative partition refinement on (degree, multiset of neighbor colors with
edge multiplicities), then backtracking over the first non-singleton cell;
the lexicographically smallest relabeled encoding is the certificate.  Loop
and parallel multiplicities enter the encoding exactly, so two graphs get
equal certificates iff they are isomorphic as multigraphs.  Exponential in
the worst case, which is fine at the sizes this library works at (<= 16
vertices or so).

Each search first compiles g into a vertex-index form: vertex i is
``g.vertices[i]``, its neighbours are one (index, loop flag, multiplicity)
entry per parallel class, and the encoding reads the classes as (i, j,
multiplicity).  Colors are a list, always dense (0..k-1; an individualized
vertex gets k), so a round that leaves k distinct keys split nothing and
refinement stops there.  A vertex's key is its color and its sorted
(2·color + loop, count) pairs; (color, loop) -> 2·color + loop keeps the
order of the pairs, so the ranks are those of keying on (color, loop)
itself.  A discrete partition cannot split, so a leaf is refined no
further, and its colors are its vertices' positions.

The search is pruned by automorphisms (McKay & Piperno, "Practical graph
isomorphism, II", J. Symbolic Comput. 60, 2014).  Two leaves with equal
encodings differ by an automorphism, which the search records.  At each
node it skips a vertex of the target cell when the recorded automorphisms
that fix the node's individualized vertices map an already explored sibling
onto it: that subtree is the image of the explored one and holds the same
encodings.  A skipped leaf therefore always has an equal leaf earlier in
depth-first order, so the first smallest leaf, which supplies both the
certificate and the labeling witness, is the one the unpruned search picks.
K7 takes 22 leaves instead of 5,040.  Leaves compare as ASCII bytes, as
before: reading them as integers would order "1,10" after "1,2" and pick a
different leaf on graphs with ten or more vertices.

The automorphisms the search records generate the whole automorphism group.
The group maps the leaves with the smallest encoding onto each other, and
only the identity fixes a leaf.  Each such leaf is either reached, and then
compared with the first of them, or skipped as the image of an earlier one
under a product of recorded automorphisms.  So products of recorded ones
take the first such leaf to every other, which takes in every automorphism.
``automorphisms`` hands the recorded ones out, and ``vertex_orbits``,
``edge_orbits`` and ``_set_orbit`` read the group's orbits off them without
ever listing the group.  Edge orbits are orbits of endpoint pairs, so
parallel edges share one.  Reductions, apex searches, the triangle-exchange
cycle map and the exchange closure use them to do one member's work for
each orbit: of edges and vertices in ``minors.one_step_reductions``, of
vertex sets in ``planarity.apex_witness``, of triangles in
``exchange.phi_maps``, and of triangles and degree-3 vertices in
``exchange.closure``.

Certificate, labeling and automorphism generators are cached together on
the graph as immutable values, so ``is_isomorphic`` searches each graph
once and the orbits cost no second search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .multigraph import MultiGraph


@dataclass(frozen=True)
class Certificate:
    blob: bytes

    @property
    def hex(self) -> str:
        return self.blob.hex()

    def __lt__(self, other: "Certificate") -> bool:
        return self.blob < other.blob

    def __repr__(self) -> str:
        h = self.hex
        return f"Certificate({h[:16]}{'...' if len(h) > 16 else ''})"


def degree_sequence(g: MultiGraph) -> tuple[int, ...]:
    """Descending degrees; a loop contributes 2 to its vertex."""
    return tuple(sorted((g.degree(v) for v in g.vertices), reverse=True))


def _compile(g: MultiGraph):
    """g in vertex-index form, indices in ``g.vertices`` order: per index a
    tuple of (neighbour index, loop flag, multiplicity), each parallel class
    merged into one entry; the encoding's header; and the endpoint-pair
    classes as (i, j, multiplicity) with i <= j."""
    index = {v: i for i, v in enumerate(g.vertices)}
    classes = tuple((index[u], index[v], len(ids)) for (u, v), ids in g.parallel_classes().items())
    adj: list[list[tuple[int, int, int]]] = [[] for _ in g.vertices]
    for i, j, m in classes:
        if i == j:
            adj[i].append((i, 1, m))
        else:
            adj[i].append((j, 0, m))
            adj[j].append((i, 0, m))
    return tuple(map(tuple, adj)), f"{g.vertex_count}|{g.edge_count}|", classes


def _refine(adj, colors: list[int], n_colors: int) -> tuple[list[int], int]:
    """Refine the dense colors 0..n_colors-1 until stable.  Color values are
    dense ints ordered by an isomorphism-invariant structural key, so they
    compare the same way in any relabeling of g."""
    n = len(colors)
    while n_colors < n:  # a discrete partition cannot split
        keys = []
        for c, nbrs in zip(colors, adj):
            prof: dict[int, int] = {}
            for j, loop, m in nbrs:
                k = 2 * colors[j] + loop
                prof[k] = prof.get(k, 0) + m
            keys.append((c, tuple(sorted(prof.items()))))
        order = sorted(set(keys))
        if len(order) == n_colors:  # no cell split
            break
        rank = {k: r for r, k in enumerate(order)}
        colors = [rank[k] for k in keys]
        n_colors = len(order)
    return colors, n_colors


def _encode(head: str, classes, position: list[int]) -> bytes:
    body = []
    for i, j, m in classes:
        a, b = position[i], position[j]
        body.append((a, b, m) if a <= b else (b, a, m))
    body.sort()
    return (head + ";".join(f"{a},{b},{m}" for a, b, m in body)).encode("ascii")


def _search(form, colors: list[int], n_colors: int, prefix: tuple[int, ...],
            best: list, autos: list) -> None:
    adj, head, classes = form
    colors, n_colors = _refine(adj, colors, n_colors)
    if n_colors == len(colors):  # a leaf: each color is its vertex's position
        blob = _encode(head, classes, colors)
        if best[0] is None or blob < best[0]:
            best[0] = blob
            best[1] = colors
        elif blob == best[0]:
            # two leaves encode alike: their labelings differ by an automorphism
            at = [0] * len(colors)
            for i, p in enumerate(best[1]):
                at[p] = i
            autos.append([at[p] for p in colors])
        return
    sizes = [0] * n_colors
    for c in colors:
        sizes[c] += 1
    cell = next(c for c, size in enumerate(sizes) if size > 1)
    target = [i for i, c in enumerate(colors) if c == cell]
    explored: list[int] = []
    root, known = None, -1
    for v in target:
        if explored:
            # skip v when an automorphism found so far that fixes the
            # individualized prefix (and so keeps the cell) takes an
            # explored sibling to it; the roots change only with autos
            if known != len(autos):
                known = len(autos)
                fixing = [gamma for gamma in autos if all(gamma[p] == p for p in prefix)]
                root = _orbit_roots(target, fixing)
            if any(root[w] == root[v] for w in explored):
                continue
        branched = list(colors)
        branched[v] = n_colors  # individualize, then refine again
        _search(form, branched, n_colors + 1, prefix + (v,), best, autos)
        explored.append(v)


def _orbit_roots(items, maps) -> dict:
    """Item -> one representative of its orbit under the maps, each a dict
    or list taking every item to an item."""
    root = {x: x for x in items}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for gamma in maps:
        for x in items:
            a, b = find(x), find(gamma[x])
            if a != b:
                root[a] = b
    return {x: find(x) for x in items}


def _canonical(g: MultiGraph) -> tuple[bytes, dict[int, int]]:
    """Search g once: cache its certificate, labeling and automorphism
    generators, and return the certificate bytes and the position map."""
    autos: list = []
    if g.vertex_count == 0:
        blob, labeling = b"0|0|", ()
    else:
        best: list = [None, None]
        _search(_compile(g), [0] * g.vertex_count, 1, (), best, autos)
        blob, labeling = best[0], tuple(best[1])
    vs = g.vertices
    g._labeling_cache = labeling
    g._automorphism_cache = tuple(tuple(vs[i] for i in gamma) for gamma in autos)
    g._cert_cache = Certificate(blob)
    return blob, dict(zip(vs, labeling))


def _cached(g: MultiGraph) -> Certificate:
    """Run the search once per graph."""
    if g._cert_cache is None:
        _canonical(g)
    return g._cert_cache


def canonical_form(g: MultiGraph) -> Certificate:
    return _cached(g)


def canonical_labeling(g: MultiGraph) -> dict[int, int]:
    """Vertex -> position in the canonical ordering (one witness of it)."""
    _cached(g)
    return dict(zip(g.vertices, g._labeling_cache))


def automorphisms(g: MultiGraph) -> list[dict[int, int]]:
    """Generators of g's automorphism group, as fresh vertex maps; none for
    a graph whose only automorphism is the identity."""
    _cached(g)
    return [dict(zip(g.vertices, images)) for images in g._automorphism_cache]


def _orbits(items, maps, members) -> tuple[tuple[int, ...], ...]:
    """The members of the items of each orbit, sorted, ordered by their
    smallest member."""
    by: dict = {}
    for x, r in _orbit_roots(items, maps).items():
        by.setdefault(r, []).extend(members(x))
    return tuple(sorted(tuple(sorted(c)) for c in by.values()))


def vertex_orbits(g: MultiGraph) -> tuple[tuple[int, ...], ...]:
    """g's vertex orbits under its automorphisms, each sorted, ordered by
    their smallest vertex."""
    return _orbits(g.vertices, automorphisms(g), lambda v: (v,))


def edge_orbits(g: MultiGraph) -> tuple[tuple[int, ...], ...]:
    """g's edge ids grouped by the orbit of their endpoint pair under its
    automorphisms (parallel edges share an orbit), each sorted, ordered by
    their smallest id."""
    pairs = g.parallel_classes()
    maps = [{(u, v): tuple(sorted((gamma[u], gamma[v]))) for u, v in pairs}
            for gamma in automorphisms(g)]
    return _orbits(pairs, maps, pairs.__getitem__)


def _set_orbit(s: frozenset[int], generators: list[dict[int, int]]) -> set[frozenset[int]]:
    """The images of a vertex set under the group the generators generate,
    by breadth-first search over the generators."""
    orbit = {s}
    todo = [s]
    while todo:
        t = todo.pop()
        for gamma in generators:
            image = frozenset(gamma[v] for v in t)
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def is_isomorphic(g: MultiGraph, h: MultiGraph) -> Optional[dict[int, int]]:
    """A vertex bijection g -> h when the graphs are isomorphic, else None."""
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return None
    if degree_sequence(g) != degree_sequence(h):
        return None
    if canonical_form(g) != canonical_form(h):
        return None
    pg = canonical_labeling(g)
    ph = canonical_labeling(h)
    inv_h = {pos: v for v, pos in ph.items()}
    witness = {v: inv_h[pos] for v, pos in pg.items()}
    _check_witness(g, h, witness)
    return witness


def _check_witness(g: MultiGraph, h: MultiGraph, witness: dict[int, int]) -> None:
    classes_g: dict[tuple[int, int], int] = {}
    for _, u, v in g.edges:
        a, b = witness[u], witness[v]
        if a > b:
            a, b = b, a
        classes_g[(a, b)] = classes_g.get((a, b), 0) + 1
    classes_h: dict[tuple[int, int], int] = {}
    for _, u, v in h.edges:
        key = (u, v) if u <= v else (v, u)
        classes_h[key] = classes_h.get(key, 0) + 1
    if classes_g != classes_h:
        raise AssertionError("internal error: certificate collision")
