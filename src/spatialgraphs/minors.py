"""Minor containment with explicit witnesses.

``has_minor`` runs a memoized reduction search (edge deletions and edge
contractions, isolated vertices dropped along the way) from the host toward
the pattern's vertex/edge counts.  States are deduplicated by canonical
form; intermediate graphs are normalized so parallel multiplicities never
exceed what the pattern could use, which keeps the state space finite for
multigraph patterns such as the doubled square.

A successful search returns a ``MinorModel`` assembled from the contraction
history, so callers can lift cycles through it or validate it independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .canon import canonical_form, degree_sequence, edge_orbits, is_isomorphic, vertex_orbits
from .cycles import MinorModel
from .multigraph import (
    GraphError,
    MultiGraph,
    ReductionScript,
    _contraction,
    _simple_graph,
    apply_script,
    contract_edge,
    delete_edge,
    delete_vertex,
    simplify,
    without_isolated,
)


def _multiplicity_caps(h: MultiGraph) -> tuple[int, int]:
    loop_cap = 0
    par_cap = 1
    for (u, v), ids in h.parallel_classes().items():
        if u == v:
            loop_cap = max(loop_cap, len(ids))
        else:
            par_cap = max(par_cap, len(ids))
    return par_cap, loop_cap


def _normalize(g: MultiGraph, par_cap: int, loop_cap: int) -> MultiGraph:
    """Trim parallel classes/loops beyond what the pattern can use, and drop
    isolated vertices."""
    kept = []
    for (u, v), ids in sorted(g.parallel_classes().items()):
        cap = loop_cap if u == v else par_cap
        for eid in sorted(ids)[:cap]:
            kept.append((eid, u, v))
    return without_isolated(MultiGraph(g.vertices, kept))


def _degree_dominates(g: MultiGraph, h: MultiGraph) -> bool:
    """Needed when only deletions remain: h's sorted degrees fit under g's."""
    dg = degree_sequence(g)
    dh = degree_sequence(h)
    if len(dh) > len(dg):
        return False
    return all(a >= b for a, b in zip(dg, dh))


@dataclass
class _State:
    graph: MultiGraph
    # current vertex -> original vertices merged into it
    merged: dict[int, frozenset[int]]


_MAX_STATES = 2_000_000  # reduction states has_minor may expand


class _OverBudget(Exception):
    """The search would expand more than _MAX_STATES states."""


def has_minor(g: MultiGraph, h: MultiGraph) -> Optional[MinorModel]:
    """A MinorModel of h inside g, or None. Absence means the memoized
    search exhausted every reduction order."""
    if h.vertex_count == 0:
        raise GraphError("empty pattern")
    if any(not h.incident(v) for v in h.vertices):
        raise GraphError("patterns with isolated vertices are not supported")
    par_cap, loop_cap = _multiplicity_caps(h)
    start = _normalize(g, par_cap, loop_cap)
    init = _State(start, {v: frozenset([v]) for v in start.vertices})
    seen: set[bytes] = set()
    budget = [_MAX_STATES]

    try:
        found = _search(init, h, par_cap, loop_cap, seen, budget)
    except _OverBudget:
        raise GraphError(
            f"minor search exceeded its state budget: {_MAX_STATES - budget[0]:,} "
            f"of {_MAX_STATES:,} states expanded, host {g.vertex_count} vertices "
            f"and {g.edge_count} edges, pattern {h.vertex_count} vertices and "
            f"{h.edge_count} edges"
        ) from None
    if found is None:
        return None
    model = _build_model(g, h, found)
    model.validate()
    return model


def _search(
    state: _State,
    h: MultiGraph,
    par_cap: int,
    loop_cap: int,
    seen: set[bytes],
    budget: list,
) -> Optional[tuple[_State, dict[int, int]]]:
    g = state.graph
    nh, mh = h.vertex_count, h.edge_count
    if g.vertex_count < nh or g.edge_count < mh:
        return None
    if g.vertex_count == nh:
        if not _degree_dominates(g, h):
            return None
        if g.edge_count == mh:
            witness = is_isomorphic(h, g)
            if witness is None:
                return None
            return (state, witness)
    cert = canonical_form(g).blob
    if cert in seen:
        return None
    seen.add(cert)
    if budget[0] <= 0:
        raise _OverBudget
    budget[0] -= 1

    children: list[_State] = []
    can_contract = g.vertex_count > nh
    for eid, u, v in g.edges:
        if can_contract and u != v:
            child = contract_edge(g, eid, keep=min(u, v))
            child = _normalize(child, par_cap, loop_cap)
            merged = dict(state.merged)
            keep, drop = min(u, v), max(u, v)
            merged[keep] = merged[keep] | merged[drop]
            del merged[drop]
            merged = {v2: s for v2, s in merged.items() if child.has_vertex(v2)}
            children.append(_State(child, merged))
        if g.edge_count > mh:
            child = _normalize(delete_edge(g, eid), par_cap, loop_cap)
            merged = {v2: s for v2, s in state.merged.items() if child.has_vertex(v2)}
            children.append(_State(child, merged))

    for child in children:
        hit = _search(child, h, par_cap, loop_cap, seen, budget)
        if hit is not None:
            return hit
    return None


def _hand_out_edges(
    h: MultiGraph, reduced: MultiGraph, witness: dict[int, int]
) -> Optional[dict[int, int]]:
    """Pattern edge -> surviving host edge (ids are original ids).

    The pattern edges of each endpoint pair take, in id order, the smallest
    edges of reduced between the pair's witnessed images; None when a pair
    has too few of them.
    """
    by_pair: dict[tuple[int, int], list[int]] = {}
    for eid, u, v in h.edges:
        by_pair.setdefault((min(u, v), max(u, v)), []).append(eid)
    edge_map: dict[int, int] = {}
    for (hu, hv), pattern_ids in sorted(by_pair.items()):
        avail = sorted(reduced.edges_between(witness[hu], witness[hv]))
        if len(avail) < len(pattern_ids):
            return None
        edge_map.update(zip(sorted(pattern_ids), avail))
    return edge_map


def _build_model(g: MultiGraph, h: MultiGraph, found) -> MinorModel:
    state, witness = found  # witness: h vertex -> reduced vertex
    branch_sets = {hv: state.merged[rv] for hv, rv in witness.items()}
    edge_map = _hand_out_edges(h, state.graph, witness)
    if edge_map is None:
        raise GraphError("internal error: missing parallel copies in reduced graph")
    return MinorModel(g, h, branch_sets, edge_map)


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
                       _simple_graph(*_contraction(g, eid)))
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


@dataclass
class ScriptCheck:
    ok: bool
    model: Optional[MinorModel]


def verify_minor_script(g: MultiGraph, script: ReductionScript, target: MultiGraph) -> ScriptCheck:
    """Run a reduction script and check the outcome against a target graph.

    The comparison simplifies the result and discards vertices the script
    left isolated (reading a script as a minor derivation allows dropping
    them).  On success the returned model maps the target into the original
    graph, ready for cycle lifting.
    """
    sr = apply_script(g, script)
    reduced = without_isolated(simplify(sr.graph))
    target_s = simplify(target)
    witness = is_isomorphic(target_s, reduced)
    if witness is None:
        return ScriptCheck(False, None)
    edge_map = _hand_out_edges(target_s, reduced, witness)
    if edge_map is None:
        return ScriptCheck(False, None)
    branch_all = sr.branch_sets()
    branch_sets = {tv: branch_all[rv] for tv, rv in witness.items()}
    model = MinorModel(g, target_s, branch_sets, edge_map)
    model.validate()
    return ScriptCheck(True, model)
