"""Minor containment with explicit witnesses.

``has_minor`` runs a memoized reduction search (edge deletions and edge
contractions, isolated vertices dropped along the way) from the host toward
the pattern's vertex/edge counts, as one depth-first loop over an explicit
stack.  Each edge in turn gives two children, its contraction and then its
deletion.  States are deduplicated by canonical form, and at most
``_MAX_STATES`` are expanded; intermediate graphs are trimmed so parallel
multiplicities never exceed what the pattern could use, which keeps the
state space finite for multigraph patterns such as the doubled square.
With loops in the pattern, parallel classes keep one copy more than the
largest loop class: a branch set spends at most one edge of a class on
holding together, and the others can become its loops.

``verify_minor_script`` replays a hand-written reduction script instead of
searching.  Both routines reach a model by one path: the reduced graph is
built from an edge list by ``multigraph._trimmed``, the one trimmer of
derived graphs, with no isolated vertex, then matched to the pattern by
isomorphism, and ``_model`` hands out the pattern edges, assembles the
``MinorModel`` and validates it, so callers can lift cycles through it.
"""

from __future__ import annotations

from typing import Optional

from .canon import canonical_form, degree_sequence, edge_orbits, is_isomorphic, vertex_orbits
from .cycles import MinorModel
from .multigraph import (
    GraphError,
    MultiGraph,
    ReductionScript,
    _contraction,
    _trimmed,
    apply_script,
    delete_edge,
    delete_vertex,
    simplify,
)


def _multiplicity_caps(h: MultiGraph) -> tuple[int, int]:
    loop_cap = 0
    par_cap = 1
    for (u, v), ids in h.parallel_classes().items():
        if u == v:
            loop_cap = max(loop_cap, len(ids))
        else:
            par_cap = max(par_cap, len(ids))
    if loop_cap:
        par_cap = max(par_cap, loop_cap + 1)
    return par_cap, loop_cap


def _degree_dominates(g: MultiGraph, h: MultiGraph) -> bool:
    """Needed when only deletions remain: h's sorted degrees fit under g's."""
    dg = degree_sequence(g)
    dh = degree_sequence(h)
    if len(dh) > len(dg):
        return False
    return all(a >= b for a, b in zip(dg, dh))


_MAX_STATES = 2_000_000  # reduction states has_minor may expand


def has_minor(g: MultiGraph, h: MultiGraph) -> Optional[MinorModel]:
    """A MinorModel of h inside g, or None. Absence means the memoized
    search exhausted every reduction order.

    The stack holds (graph, merged) pairs, merged mapping each vertex to the
    host vertices contracted into it.  A graph is matched to h once it has
    h's size, else expanded if its canonical form is new: per edge in edge
    order, the contraction onto the smaller end, then the deletion, each
    trimmed to h's caps and pushed in reverse so they pop in that order.
    Expanding more than _MAX_STATES graphs raises GraphError.
    """
    if h.vertex_count == 0:
        raise GraphError("empty pattern")
    if any(not h.incident(v) for v in h.vertices):
        raise GraphError("patterns with isolated vertices are not supported")
    par_cap, loop_cap = _multiplicity_caps(h)
    nh, mh = h.vertex_count, h.edge_count
    start = _trimmed(None, g.edges, par_cap, loop_cap)
    stack = [(start, {v: frozenset([v]) for v in start.vertices})]
    seen: set[bytes] = set()
    while stack:
        graph, merged = stack.pop()
        if graph.vertex_count < nh or graph.edge_count < mh:
            continue
        if graph.vertex_count == nh:
            if not _degree_dominates(graph, h):
                continue
            if graph.edge_count == mh:
                witness = is_isomorphic(h, graph)
                if witness is None:
                    continue
                model = _model(g, h, graph, witness, merged)
                if model is None:
                    raise GraphError("internal error: missing parallel copies in reduced graph")
                return model
        cert = canonical_form(graph).blob
        if cert in seen:
            continue
        if len(seen) >= _MAX_STATES:
            raise GraphError(
                f"minor search exceeded its state budget: {len(seen):,} of {_MAX_STATES:,} "
                f"states expanded, host {g.vertex_count} vertices and {g.edge_count} edges, "
                f"pattern {h.vertex_count} vertices and {h.edge_count} edges"
            )
        seen.add(cert)
        children = []
        for eid, u, v in graph.edges:
            # (edge list, vertex merged into u): contracting keeps u, as u < v
            moves = []
            if graph.vertex_count > nh and u != v:
                moves.append((_contraction(graph, eid, u)[1], v))
            if graph.edge_count > mh:
                moves.append(([e for e in graph.edges if e[0] != eid], None))
            for edges, drop in moves:
                child = _trimmed(None, edges, par_cap, loop_cap)
                kept = {w: s for w, s in merged.items() if child.has_vertex(w)}
                if drop is not None and u in kept:
                    kept[u] = kept[u] | merged[drop]
                children.append((child, kept))
        stack.extend(reversed(children))
    return None


def _model(
    host: MultiGraph,
    pattern: MultiGraph,
    reduced: MultiGraph,
    witness: dict[int, int],
    merged: dict[int, frozenset[int]],
) -> Optional[MinorModel]:
    """The validated model of pattern in host read off a reduced minor of
    host; None when reduced has too few parallel copies for it.

    witness maps pattern vertices to vertices of reduced, and merged maps
    those to the host vertices merged into them.  The pattern edges of each
    endpoint pair take, in id order, the smallest edges of reduced between
    the pair's images (ids are the host's).
    """
    edge_map: dict[int, int] = {}
    for (pu, pv), ids in sorted(pattern.parallel_classes().items()):
        avail = reduced.edges_between(witness[pu], witness[pv])
        if len(avail) < len(ids):
            return None
        edge_map.update(zip(ids, avail))
    model = MinorModel(host, pattern, {p: merged[r] for p, r in witness.items()}, edge_map)
    model.validate()
    return model


def one_step_reductions(g: MultiGraph) -> list[tuple[str, int, str, MultiGraph]]:
    """All single-edge deletions, single-edge contractions (simplified) and
    single-vertex deletions, deduplicated by certificate, as (kind, removed
    edge id or vertex, label, graph); kind is "delete edge", "contract
    edge" or "delete vertex".

    Only the first edge or vertex of each automorphism orbit is reduced: the
    others give graphs isomorphic to its own, which come later and which
    the deduplication would drop.  So the labels are those of reducing
    every edge and vertex.
    """
    firsts = {ids[0] for ids in edge_orbits(g)}
    edges = [e for e in g.edges if e[0] in firsts]

    def candidates():
        for eid, u, v in edges:
            yield "delete edge", eid, f"delete edge {u}-{v} (id {eid})", delete_edge(g, eid)
        for eid, u, v in edges:
            if u != v:
                yield ("contract edge", eid, f"contract edge {u}-{v} (id {eid})",
                       _trimmed(*_contraction(g, eid)))
        for orbit in vertex_orbits(g):
            yield "delete vertex", orbit[0], f"delete vertex {orbit[0]}", delete_vertex(g, orbit[0])

    seen: set[bytes] = set()
    reductions = []
    for reduction in candidates():
        cert = canonical_form(reduction[3]).blob
        if cert not in seen:
            seen.add(cert)
            reductions.append(reduction)
    return reductions


def verify_minor_script(
    g: MultiGraph, script: ReductionScript, target: MultiGraph
) -> Optional[MinorModel]:
    """Run a reduction script and check the outcome against a target graph:
    returns the validated model, or None.

    The comparison simplifies the result and discards vertices the script
    left isolated (reading a script as a minor derivation allows dropping
    them).  The model maps the simplified target into the original graph,
    ready for cycle lifting.
    """
    sr = apply_script(g, script)
    reduced = _trimmed(None, sr.graph.edges)
    target_s = simplify(target)
    witness = is_isomorphic(target_s, reduced)
    if witness is None:
        return None
    return _model(g, target_s, reduced, witness, sr.branch_sets)
