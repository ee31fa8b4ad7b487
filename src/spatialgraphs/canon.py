"""Canonical forms and isomorphism for small multigraphs.

Iterative partition refinement on (degree, multiset of neighbor colors with
edge multiplicities), then backtracking over the first non-singleton cell;
the lexicographically smallest relabeled encoding is the certificate.  Loop
and parallel multiplicities enter the encoding exactly, so two graphs get
equal certificates iff they are isomorphic as multigraphs.  Exponential in
the worst case, which is fine at the sizes this library works at (<= 16
vertices or so).

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

Certificate and labeling are cached together on the graph, so
``is_isomorphic`` searches each graph once.
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


def _neighbor_profile(g: MultiGraph, colors: dict[int, int], v: int):
    prof: dict[tuple[int, bool], int] = {}
    for eid, w in g.incident(v):
        key = (colors[w], w == v)
        prof[key] = prof.get(key, 0) + 1
    return tuple(sorted(prof.items()))


def _refine(g: MultiGraph, colors: dict[int, int]) -> dict[int, int]:
    """Refine colors until stable.  Color values are dense ints ordered by
    an isomorphism-invariant structural key, so they compare the same way in
    any relabeling of g."""
    while True:
        keys = {v: (colors[v], _neighbor_profile(g, colors, v)) for v in g.vertices}
        order = sorted(set(keys.values()))
        rank = {k: i for i, k in enumerate(order)}
        new = {v: rank[keys[v]] for v in g.vertices}
        if new == colors:
            return colors
        colors = new


def _cells(g: MultiGraph, colors: dict[int, int]) -> list[list[int]]:
    by: dict[int, list[int]] = {}
    for v in g.vertices:
        by.setdefault(colors[v], []).append(v)
    return [sorted(by[c]) for c in sorted(by)]


def _encode(g: MultiGraph, position: dict[int, int]) -> bytes:
    classes: dict[tuple[int, int], int] = {}
    for _, u, v in g.edges:
        a, b = position[u], position[v]
        if a > b:
            a, b = b, a
        classes[(a, b)] = classes.get((a, b), 0) + 1
    body = ";".join(f"{a},{b},{m}" for (a, b), m in sorted(classes.items()))
    return f"{g.vertex_count}|{g.edge_count}|{body}".encode("ascii")


def _search(g: MultiGraph, colors: dict[int, int], prefix: tuple[int, ...],
            best: list, autos: list) -> None:
    colors = _refine(g, colors)
    cells = _cells(g, colors)
    target = next((c for c in cells if len(c) > 1), None)
    if target is None:
        position: dict[int, int] = {}
        for i, cell in enumerate(cells):
            position[cell[0]] = i
        blob = _encode(g, position)
        if best[0] is None or blob < best[0]:
            best[0] = blob
            best[1] = position
        elif blob == best[0]:
            # two leaves encode alike: their labelings differ by an automorphism
            at = {i: v for v, i in best[1].items()}
            autos.append({v: at[i] for v, i in position.items()})
        return
    n_colors = max(colors.values()) + 1
    explored: list[int] = []
    for v in target:
        if explored and _in_explored_orbit(v, explored, target, prefix, autos):
            continue
        branched = dict(colors)
        branched[v] = n_colors  # individualize, then refine again
        _search(g, branched, prefix + (v,), best, autos)
        explored.append(v)


def _in_explored_orbit(v: int, explored: list[int], target: list[int],
                       prefix: tuple[int, ...], autos: list) -> bool:
    """Whether v shares an orbit with an explored sibling under the
    automorphisms found so far that fix the individualized prefix."""
    root = {x: x for x in target}

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for gamma in autos:
        if all(gamma[p] == p for p in prefix):
            for x in target:  # a prefix-fixing automorphism keeps the cell
                a, b = find(x), find(gamma[x])
                if a != b:
                    root[a] = b
    mine = find(v)
    return any(find(w) == mine for w in explored)


def _canonical(g: MultiGraph) -> tuple[bytes, dict[int, int]]:
    if g.vertex_count == 0:
        return b"0|0|", {}
    init = {v: 0 for v in g.vertices}
    best: list = [None, None]
    _search(g, init, (), best, [])
    return best[0], best[1]


def _cached(g: MultiGraph) -> Certificate:
    """Run the search once per graph; keep certificate and labeling."""
    if g._cert_cache is None:
        blob, position = _canonical(g)
        g._cert_cache = Certificate(blob)
        g._labeling_cache = tuple(position[v] for v in g.vertices)
    return g._cert_cache


def canonical_form(g: MultiGraph) -> Certificate:
    return _cached(g)


def canonical_labeling(g: MultiGraph) -> dict[int, int]:
    """Vertex -> position in the canonical ordering (one witness of it)."""
    _cached(g)
    return dict(zip(g.vertices, g._labeling_cache))


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
