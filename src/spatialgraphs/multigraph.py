"""Multigraphs with stable vertex labels and unique edge ids.

Parallel edges and loops are first class.  Every edge carries an integer id
that derived graphs never reuse: deleting or contracting other edges leaves
the id attached to the same piece of the original graph, so cycle edge sets
and minor bookkeeping stay meaningful across a whole reduction sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union


class GraphError(ValueError):
    """Structural misuse of a graph operation."""


class UnknownVertexError(GraphError):
    pass


class UnknownEdgeError(GraphError):
    pass


class LoopContractionError(GraphError):
    pass


class ScriptError(GraphError):
    """A reduction script step does not apply to the current graph."""


# (edge id, u, v) with u <= v
Edge = tuple[int, int, int]


class MultiGraph:
    """Immutable multigraph over integer vertex labels.

    Construct directly from (id, u, v) triples, or via :func:`from_pairs`
    when ids do not matter.  All mutating operations return new graphs.
    """

    __slots__ = ("_vertices", "_edges", "_incidence", "_ends", "_between",
                 "_cert_cache", "_labeling_cache", "_automorphism_cache")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple]):
        # type(x) is int refuses floats, which int() would truncate, and bools
        labels = list(vertices)
        if any(type(v) is not int for v in labels):
            raise GraphError("vertex labels must be integers")
        vset = set(labels)
        vs = tuple(sorted(vset))
        triples = []
        seen_ids = set()
        for eid, u, v in edges:
            if not type(eid) is type(u) is type(v) is int:
                raise GraphError(f"edge {eid!r}: ids and endpoints must be integers")
            if eid in seen_ids:
                raise GraphError(f"duplicate edge id {eid}")
            seen_ids.add(eid)
            if u not in vset or v not in vset:
                raise UnknownVertexError(f"edge {eid} endpoint outside vertex set")
            if u > v:
                u, v = v, u
            triples.append((eid, u, v))
        triples.sort()
        self._vertices = vs
        self._edges = tuple(triples)
        inc: dict[int, list[tuple[int, int]]] = {v: [] for v in vs}
        for eid, u, v in triples:
            if u == v:
                inc[u].append((eid, u))  # loop listed once
            else:
                inc[u].append((eid, v))
                inc[v].append((eid, u))
        self._incidence = {v: tuple(sorted(pairs)) for v, pairs in inc.items()}
        self._ends = {eid: (u, v) for eid, u, v in triples}
        between: dict[tuple[int, int], list[int]] = {}
        for eid, u, v in triples:
            between.setdefault((u, v), []).append(eid)
        self._between = {pair: tuple(ids) for pair, ids in between.items()}
        self._cert_cache = None
        self._labeling_cache = None
        self._automorphism_cache = None

    # -- accessors ---------------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e[0] for e in self._edges)

    def has_vertex(self, v: int) -> bool:
        return v in self._incidence

    def endpoints(self, eid: int) -> tuple[int, int]:
        try:
            return self._ends[eid]
        except KeyError:
            raise UnknownEdgeError(f"no edge with id {eid}") from None

    def incident(self, v: int) -> tuple[tuple[int, int], ...]:
        """(edge id, other endpoint) pairs at v; a loop appears once with other == v."""
        try:
            return self._incidence[v]
        except KeyError:
            raise UnknownVertexError(f"no vertex {v}") from None

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted({w for _, w in self.incident(v) if w != v}))

    def loops_at(self, v: int) -> tuple[int, ...]:
        return tuple(eid for eid, w in self.incident(v) if w == v)

    def degree(self, v: int) -> int:
        # a loop contributes 2
        return sum(2 if w == v else 1 for _, w in self.incident(v))

    def edges_between(self, u: int, v: int) -> tuple[int, ...]:
        if u > v:
            u, v = v, u
        return self._between.get((u, v), ())

    def has_edge_between(self, u: int, v: int) -> bool:
        return bool(self.edges_between(u, v))

    def parallel_classes(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return dict(self._between)

    def is_simple(self) -> bool:
        return all(u != v for _, u, v in self._edges) and all(
            len(ids) == 1 for ids in self.parallel_classes().values()
        )

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in self._vertices if not self._incidence[v])

    def next_vertex_label(self) -> int:
        return (max(self._vertices) + 1) if self._vertices else 0

    def next_edge_id(self) -> int:
        return (max(e[0] for e in self._edges) + 1) if self._edges else 0

    def relabeled(self, mapping: dict[int, int]) -> "MultiGraph":
        """New graph with vertices renamed through a bijective mapping."""
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("relabeling is not injective")
        mv = [mapping[v] for v in self._vertices]
        return MultiGraph(mv, [(e, mapping[u], mapping[v]) for e, u, v in self._edges])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"MultiGraph({self.vertex_count} vertices, {self.edge_count} edges)"


def from_pairs(pairs: Iterable[tuple[int, int]], vertices: Iterable[int] = ()) -> MultiGraph:
    """Build a graph from (u, v) pairs; edge ids follow input order from 0."""
    pairs = list(pairs)
    vs = set(vertices)
    for u, v in pairs:
        vs.add(u)
        vs.add(v)
    return MultiGraph(vs, [(i, u, v) for i, (u, v) in enumerate(pairs)])


def complete_graph(n: int, labels: Optional[Iterable[int]] = None) -> MultiGraph:
    vs = list(labels) if labels is not None else list(range(1, n + 1))
    if len(vs) != n:
        raise GraphError("label count does not match n")
    if len(set(vs)) != n:
        raise GraphError("labels are not distinct")
    return from_pairs([(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)])


# -- elementary reductions --------------------------------------------------


def delete_edge(g: MultiGraph, eid: int) -> MultiGraph:
    if eid not in g._ends:
        raise UnknownEdgeError(f"no edge with id {eid}")
    return MultiGraph(g.vertices, [e for e in g.edges if e[0] != eid])


def delete_vertex(g: MultiGraph, v: int) -> MultiGraph:
    if not g.has_vertex(v):
        raise UnknownVertexError(f"no vertex {v}")
    return MultiGraph(
        (u for u in g.vertices if u != v),
        [e for e in g.edges if e[1] != v and e[2] != v],
    )


def contract_edge(g: MultiGraph, eid: int, keep: Optional[int] = None) -> MultiGraph:
    """Contract one edge; the merged vertex takes the ``keep`` label.

    Parallel copies of the contracted edge become loops and are retained.
    No implicit simplification happens here.
    """
    return MultiGraph(*_contraction(g, eid, keep))


def _contraction(g: MultiGraph, eid: int, keep: Optional[int] = None) -> tuple[list[int], list[Edge]]:
    """The vertices and edges of :func:`contract_edge`'s result."""
    u, v = g.endpoints(eid)
    if u == v:
        raise LoopContractionError(f"edge {eid} is a loop")
    if keep is None:
        keep = u
    if keep not in (u, v):
        raise GraphError(f"keep={keep} is not an endpoint of edge {eid}")
    drop = v if keep == u else u
    new_edges = []
    for e, a, b in g.edges:
        if e == eid:
            continue
        if a == drop:
            a = keep
        if b == drop:
            b = keep
        new_edges.append((e, a, b))
    return [w for w in g.vertices if w != drop], new_edges


def simplify(g: MultiGraph) -> MultiGraph:
    """Drop loops and collapse each parallel class to its smallest edge id.

    The vertex set is unchanged; a simple input comes back with the same
    edge id set.
    """
    return _trimmed(g.vertices, g.edges)


def _trimmed(vertices: Optional[Iterable[int]], edges: Iterable[Edge], par_cap=1, loop_cap=0):
    """The graph of an edge list keeping each parallel class's smallest ids,
    at most loop_cap loops and par_cap other edges, on the given vertices or,
    when vertices is None, on the kept edges' ends: one construction."""
    classes: dict[tuple[int, int], list[int]] = {}
    for eid, u, v in edges:
        classes.setdefault((u, v) if u < v else (v, u), []).append(eid)
    kept = [(eid, u, v) for (u, v), ids in classes.items()
            for eid in sorted(ids)[:loop_cap if u == v else par_cap]]
    if vertices is None:
        vertices = {x for _, u, v in kept for x in (u, v)}
    return MultiGraph(vertices, kept)


# -- reduction scripts -------------------------------------------------------


@dataclass(frozen=True)
class DeleteEdge:
    u: int
    v: int


@dataclass(frozen=True)
class ContractEdge:
    # the merged vertex keeps the label that u resolves to
    u: int
    v: int


@dataclass(frozen=True)
class DeleteVertex:
    v: int


Step = Union[DeleteEdge, ContractEdge, DeleteVertex]


@dataclass(frozen=True)
class ReductionScript:
    """Ordered deletions/contractions phrased against original vertex labels.

    Later steps may mention a label that has since been merged away; it
    resolves to the vertex whose branch set holds it, so scripts read the
    way they are usually written down: against the labels of the starting
    graph.
    """

    steps: tuple[Step, ...]

    def __init__(self, steps: Iterable[Step]):
        object.__setattr__(self, "steps", tuple(steps))


@dataclass
class ScriptResult:
    graph: MultiGraph
    # surviving label -> the original labels merged into it
    branch_sets: dict[int, frozenset[int]]


def apply_script(g: MultiGraph, script: ReductionScript) -> ScriptResult:
    cur = g
    merged = {v: frozenset([v]) for v in g.vertices}

    def resolve(orig: int, idx: int) -> int:
        for label, group in merged.items():
            if orig in group:
                return label
        if g.has_vertex(orig):
            raise ScriptError(f"step {idx}: vertex {orig} was deleted earlier")
        raise ScriptError(f"step {idx}: label {orig} was never a vertex")

    for idx, step in enumerate(script.steps):
        if isinstance(step, DeleteEdge):
            a, b = resolve(step.u, idx), resolve(step.v, idx)
            ids = cur.edges_between(a, b)
            if not ids:
                raise ScriptError(f"step {idx}: no edge between {step.u} and {step.v}")
            # with parallels present the smallest id goes first
            cur = delete_edge(cur, min(ids))
        elif isinstance(step, ContractEdge):
            a, b = resolve(step.u, idx), resolve(step.v, idx)
            if a == b:
                raise ScriptError(f"step {idx}: {step.u} and {step.v} already merged")
            ids = cur.edges_between(a, b)
            if not ids:
                raise ScriptError(f"step {idx}: no edge between {step.u} and {step.v}")
            cur = contract_edge(cur, min(ids), keep=a)
            merged[a] |= merged.pop(b)
        elif isinstance(step, DeleteVertex):
            a = resolve(step.v, idx)
            cur = delete_vertex(cur, a)
            del merged[a]
        else:
            raise ScriptError(f"step {idx}: unknown step {step!r}")
    return ScriptResult(cur, merged)


# -- edge list text format ---------------------------------------------------
#
#   vertices <n>
#   u v          one edge per line; a repeated line is a parallel edge
#   u u          loop
#   vertex u     declares an isolated vertex
#   # comment


def _label(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphError(f"line {lineno}: vertex label {token!r} is not an integer") from None


def parse_edge_list(text: str) -> MultiGraph:
    n_declared = None
    pairs: list[tuple[int, int]] = []
    extra: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if n_declared is not None:
                raise GraphError(f"line {lineno}: duplicate vertices header")
            if len(parts) != 2 or not parts[1].removeprefix("-").isdecimal():
                raise GraphError(f"line {lineno}: expected 'vertices <n>'")
            n_declared = int(parts[1])
            continue
        if n_declared is None:
            raise GraphError(f"line {lineno}: missing 'vertices <n>' header")
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise GraphError(f"line {lineno}: expected 'vertex <u>'")
            extra.append(_label(parts[1], lineno))
            continue
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v'")
        pairs.append((_label(parts[0], lineno), _label(parts[1], lineno)))
    if n_declared is None:
        raise GraphError("missing 'vertices <n>' header")
    g = from_pairs(pairs, vertices=extra)
    if g.vertex_count != n_declared:
        raise GraphError(
            f"header says {n_declared} vertices but {g.vertex_count} appear"
        )
    return g


def format_edge_list(g: MultiGraph, comment: str = "") -> str:
    lines = []
    if comment:
        for piece in comment.splitlines():
            lines.append(f"# {piece}")
    lines.append(f"vertices {g.vertex_count}")
    for v in g.isolated_vertices():
        lines.append(f"vertex {v}")
    for _, u, v in g.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
