"""Triangle/star exchange moves and exchange-closed graph families.

``delta_y`` replaces a triangle by a new degree-3 vertex, ``y_delta`` does
the reverse.  ``closure`` explores everything reachable from a seed graph
under a chosen move set, deduplicating by canonical form and remembering one
shortest discovery path per isomorphism class.  It is also the one place
that sets each member's two flags: whether the member is reachable from the
seed by triangle-to-star moves alone, read off that path, and whether it
has no three pairwise disjoint cycles.  Moves in one orbit of a member's
automorphisms give isomorphic children, so it builds and canonicalises one
child per orbit of triangles and of degree-3 vertices.

``phi_maps`` gives the cycle correspondence each triangle-to-star exchange
induces, on single cycles and on disjoint pairs.  A cycle that misses the
triangle maps to itself; one that uses one or two triangle edges trades
them for the star path between the corners where it leaves the triangle.
An automorphism carries one exchange and its map onto another, so the map
is built for one triangle per orbit.

Star-to-triangle needs a convention when two neighbors of the degree-3
vertex are already adjacent (the new triangle edge would collapse with the
old one): ``y_delta`` adds no edge between them, so the move loses edges.
``closure`` skips such exchanges and performs only the edge-count-preserving
ones, the convention the family censuses this library targets are stated
for.  Manifests record it as ``"collapse_convention": "skip"``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .canon import Certificate, _set_orbit, automorphisms, canonical_form, degree_sequence
from .cycles import Cycle, CycleTuple, all_cycles, disjoint_tuples_among, gamma3_empty
from .multigraph import GraphError, MultiGraph, format_edge_list


class ExchangeSiteError(GraphError):
    pass


def triangles(g: MultiGraph) -> tuple[tuple[int, int, int], ...]:
    """All triangles (u < v < w pairwise adjacent); ignores parallels/loops."""
    nbrs = {v: set(g.neighbors(v)) for v in g.vertices}
    return tuple(
        (u, v, w)
        for u in g.vertices
        for v in sorted(n for n in nbrs[u] if n > u)
        for w in sorted(n for n in nbrs[u] & nbrs[v] if n > v)
    )


def _triangle_edges(g: MultiGraph, t: tuple[int, int, int]) -> tuple[int, int, int]:
    if len(t) != 3 or len(set(t)) != 3:
        raise ExchangeSiteError(f"{t} is not three distinct corners")
    u, v, w = sorted(t)
    ids = []
    for a, b in ((u, v), (u, w), (v, w)):
        between = g.edges_between(a, b)
        if not between:
            raise ExchangeSiteError(f"{t} is not a triangle: no edge {a}-{b}")
        ids.append(min(between))
    return tuple(ids)


def delta_y(g: MultiGraph, t: tuple[int, int, int]) -> MultiGraph:
    """Triangle-to-star: delete the triangle edges, join a fresh vertex to
    the three corners.  Edge count is preserved."""
    tri = _triangle_edges(g, t)
    u, v, w = sorted(t)
    x = g.next_vertex_label()
    nid = g.next_edge_id()
    edges = [e for e in g.edges if e[0] not in tri]
    edges += [(nid, u, x), (nid + 1, v, x), (nid + 2, w, x)]
    return MultiGraph(g.vertices + (x,), edges)


def _star_neighbors(g: MultiGraph, x: int) -> tuple[int, int, int]:
    """The three neighbors of a star-to-triangle site x; ExchangeSiteError
    when x has another degree, a loop or a repeated neighbor."""
    if g.degree(x) != 3:
        raise ExchangeSiteError(f"vertex {x} has degree {g.degree(x)}, not 3")
    if g.loops_at(x):
        raise ExchangeSiteError(f"vertex {x} carries a loop")
    nbrs = g.neighbors(x)
    if len(nbrs) != 3:
        raise ExchangeSiteError(f"vertex {x} does not have three distinct neighbors")
    return nbrs


def y_delta(g: MultiGraph, x: int) -> MultiGraph:
    """Star-to-triangle at a degree-3 vertex with three distinct neighbors.

    The vertex and its star go away, and each pair of neighbors not already
    adjacent gets a new edge, with ids from g.next_edge_id() in the pair
    order (a, b), (a, c), (b, c); every other edge is kept as it is.
    """
    a, b, c = _star_neighbors(g, x)
    kept = [(e, p, q) for e, p, q in g.edges if p != x and q != x]
    nid = g.next_edge_id()
    kept += [(nid + i, p, q) for i, (p, q) in enumerate(((a, b), (a, c), (b, c)))
             if not g.has_edge_between(p, q)]
    return MultiGraph((v for v in g.vertices if v != x), kept)


def y_delta_preserves_edges(g: MultiGraph, x: int) -> bool:
    """Whether x is a star-to-triangle site whose exchange keeps the edge
    count (no neighbor pair already adjacent)."""
    try:
        a, b, c = _star_neighbors(g, x)
    except ExchangeSiteError:
        return False
    return not (
        g.has_edge_between(a, b) or g.has_edge_between(a, c) or g.has_edge_between(b, c)
    )


@dataclass(frozen=True)
class Move:
    kind: str  # "dy" or "yd"
    site: tuple[int, ...]  # triangle corners, or the degree-3 vertex


@dataclass(frozen=True)
class FamilyRecord:
    certificate: Certificate
    graph: MultiGraph
    provenance: tuple[Move, ...]
    dy_only_reachable: bool
    gamma3_empty: bool
    name: Optional[str] = None
    heuristic_name: bool = False

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    @property
    def degree_sequence(self) -> tuple[int, ...]:
        return degree_sequence(self.graph)


@dataclass(frozen=True)
class Transition:
    source: Certificate
    move: Move
    target: Certificate


@dataclass(frozen=True)
class ClosureResult:
    seed_certificate: Certificate
    moves: tuple[str, ...]
    records: tuple[FamilyRecord, ...]
    transitions: tuple[Transition, ...]

    def by_certificate(self) -> dict[str, FamilyRecord]:
        return {r.certificate.hex: r for r in self.records}


def closure(seed: MultiGraph, moves: Iterable[str] = ("dy", "yd")) -> ClosureResult:
    """Breadth-first exchange closure of a seed graph.

    moves: subset of {"dy", "yd"}; the result lists the distinct kinds in
    that order.  Star-to-triangle moves are made only where they keep the
    edge count (the skip convention); an exchange whose new triangle edge
    would collapse with an existing edge is skipped.

    Records are sorted by (vertex count, certificate); each carries the
    first discovery path from the seed.  Every attempted move is logged as a
    transition between certificates, including moves whose target was
    already known.  A member's moves are tried triangles first, then
    degree-3 vertices.  An automorphism of the member taking one move's site
    to another's carries the one child onto the other, so only the first
    move of each orbit of sites builds and canonicalises its child, and the
    rest of the orbit is logged with its certificate.  A later move of an
    orbit would only rediscover that child, so records and paths are the
    ones canonicalising every child gives.

    Each record is flagged dy_only_reachable when its discovery path is
    made of "dy" moves alone.  That path is a shortest one, and a "dy" move
    adds a vertex while a "yd" move removes one, so a path to a member with
    k more vertices than the seed has k moves plus two per "yd" move: the
    shortest is all "dy" exactly when the member is in closure(seed,
    moves=("dy",)).  Without "dy" only the seed is flagged.  gamma3_empty
    is set from the member's own graph.
    """
    given = tuple(moves)
    for m in given:
        if m not in ("dy", "yd"):
            raise GraphError(f"unknown move kind {m!r}")
    move_set = tuple(m for m in ("dy", "yd") if m in given)

    def record(cert, g, provenance):
        dy_only = all(m.kind == "dy" for m in provenance)
        return FamilyRecord(cert, g, provenance, dy_only, gamma3_empty(g))

    seed_cert = canonical_form(seed)
    known = {seed_cert.blob: record(seed_cert, seed, ())}
    queue = [known[seed_cert.blob]]
    transitions: list[Transition] = []

    while queue:
        rec = queue.pop(0)
        g = rec.graph
        generators = automorphisms(g)  # cached when g was canonicalised
        site_moves: list[Move] = []
        if "dy" in move_set:
            site_moves += [Move("dy", t) for t in triangles(g)]
        if "yd" in move_set:
            site_moves += [Move("yd", (x,)) for x in g.vertices if y_delta_preserves_edges(g, x)]
        orbit_cert: dict[frozenset[int], Certificate] = {}  # a site -> its orbit's child
        for move in site_moves:
            site = frozenset(move.site)
            cert = orbit_cert.get(site)
            if cert is None:
                child = _apply(g, move)
                cert = canonical_form(child)
                orbit_cert.update(dict.fromkeys(_set_orbit(site, generators), cert))
                if cert.blob not in known:
                    known[cert.blob] = record(cert, child, rec.provenance + (move,))
                    queue.append(known[cert.blob])
            transitions.append(Transition(rec.certificate, move, cert))

    records = tuple(sorted(
        known.values(), key=lambda r: (r.vertex_count, r.certificate.blob)
    ))
    return ClosureResult(seed_cert, move_set, records, tuple(transitions))


def _apply(g: MultiGraph, move: Move) -> MultiGraph:
    if move.kind == "dy":
        return delta_y(g, tuple(move.site))
    if move.kind == "yd":
        return y_delta(g, move.site[0])
    raise GraphError(f"unknown move kind {move.kind!r}")


def replay_provenance(seed: MultiGraph, provenance: Iterable[Move]) -> MultiGraph:
    """Re-run a discovery path from the seed."""
    g = seed
    for move in provenance:
        g = _apply(g, move)
    return g


# -- manifest ----------------------------------------------------------------


def write_manifest(result: ClosureResult, out_dir) -> Path:
    """Write manifest.json plus one .edges file per member.

    Unnamed records fall back to G<vertices>_<cert digest prefix>.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for rec in result.records:
        # digest, not a prefix of the cert itself: the cert starts with the
        # vertex and edge counts, which coincide across closure members
        digest = hashlib.sha256(rec.certificate.hex.encode()).hexdigest()[:8]
        name = rec.name or f"G{rec.vertex_count}_{digest}"
        entries.append(
            {
                "name": name,
                "certificate": rec.certificate.hex,
                "vertices": rec.vertex_count,
                "edges": rec.edge_count,
                "degree_sequence": list(rec.degree_sequence),
                "dy_only_reachable": rec.dy_only_reachable,
                "gamma3_empty": rec.gamma3_empty,
                "heuristic_name": rec.heuristic_name,
                "provenance": [
                    {"move": m.kind, "site": list(m.site)} for m in rec.provenance
                ],
            }
        )
        (out / f"{name}.edges").write_text(
            format_edge_list(rec.graph, comment=name)
        )
    manifest = {
        "seed_certificate": result.seed_certificate.hex,
        "moves": list(result.moves),
        "collapse_convention": "skip",
        "members": entries,
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


# -- cycle correspondence ------------------------------------------------------


@dataclass
class PhiResult:
    exchanged: MultiGraph          # the triangle-to-star exchange of the input
    mapping: dict[CycleTuple, frozenset[Cycle]]
    fibers: dict[frozenset[Cycle], tuple[CycleTuple, ...]]
    surjective: bool
    max_fiber: int
    orbit: tuple[tuple[int, int, int], ...]  # the triangles it stands for


def phi_maps(g: MultiGraph) -> Iterator[tuple[tuple[tuple[int, int, int], int], PhiResult]]:
    """Cycle correspondence along the triangle-to-star exchanges of g, one
    triangle per orbit of g's automorphisms, for n = 1 and 2: ((triangle, n),
    result) pairs, each triangle the first of its orbit in ``triangles``
    order.  An automorphism taking triangle t to t' carries the exchange at t
    onto the one at t' and each map onto the other, so both are surjective or
    neither, with equal fibers.  A result's ``orbit`` lists the triangles it
    stands for, in ``triangles`` order; the orbits partition the triangles.

    Domain: the n-tuples of disjoint cycles of g less those with the
    triangle as a component, which are the tuples holding all three
    triangle edges, as any two of them share a corner.  A tuple maps to
    the set of its cycles' images.  Every image must be a tuple of the
    codomain, the n-tuples of disjoint cycles of the exchanged graph; a
    miss raises ``GraphError``.  Each graph's cycles are enumerated once,
    and the results are yielded one orbit at a time, so a caller that drops
    them holds one triangle's maps (K7's one orbit covers 1,172 cycles at
    n = 1); ``dict(phi_maps(g))`` holds them all.
    """
    cycles = all_cycles(g)
    domains = {n: disjoint_tuples_among(g, cycles, n) for n in (1, 2)}
    generators = automorphisms(g)
    tris = triangles(g)
    covered: set[frozenset[int]] = set()
    for tri in tris:
        if frozenset(tri) in covered:
            continue
        images = _set_orbit(frozenset(tri), generators)
        covered |= images
        orbit = tuple(t for t in tris if frozenset(t) in images)
        gy = delta_y(g, tri)
        tri_set = frozenset(_triangle_edges(g, tri))
        star = {w: eid for eid, w in gy.incident(max(gy.vertices))}  # the fresh center
        phi = {}
        for c in cycles:
            # delta_y keeps every other edge with its id and endpoints
            ends: set[int] = set()
            for eid in c & tri_set:
                ends ^= set(g.endpoints(eid))
            phi[c] = (c - tri_set) | {star[v] for v in ends} if ends else c
        gy_cycles = all_cycles(gy)
        for n in (1, 2):
            codomain = set(map(frozenset, disjoint_tuples_among(gy, gy_cycles, n)))
            mapping = {t: frozenset(map(phi.get, t)) for t in domains[n] if tri_set not in t}
            if not codomain.issuperset(mapping.values()):
                raise GraphError("triangle exchange image is not a tuple of disjoint cycles")
            fibers: dict[frozenset[Cycle], list[CycleTuple]] = {}
            for t, img in mapping.items():
                fibers.setdefault(img, []).append(t)
            fib = {k: tuple(v) for k, v in fibers.items()}
            max_fiber = max(map(len, fib.values()), default=0)
            surjective = len(fib) == len(codomain)
            yield (tri, n), PhiResult(gy, mapping, fib, surjective, max_fiber, orbit)
