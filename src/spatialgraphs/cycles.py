"""Cycle sets of multigraphs and cycle lifting through minor models.

A cycle is represented by its frozenset of edge ids.  That makes parallel
copies distinct cycles, lets loops (one edge) and doubled edges (two edges)
count as cycles, and keeps every representation stable under deletions and
contractions of other edges.

This module alone decides the order of cycles: ``all_cycles`` sorts them
by their sorted edge ids, and ``disjoint_cycle_tuples`` lists each tuple's
cycles, and the tuples, in that order.  Callers use both as given.

Whether cycles are disjoint depends only on their vertex sets, their
supports, held as ``vertex_masks`` bit masks.  One search over masks,
``_disjoint_indices``, serves both disjoint-cycle questions:

* ``disjoint_tuples_among`` searches the distinct supports of the cycles
  it is given, all of them for ``disjoint_cycle_tuples`` (K7 has 1,172
  cycles on 99 supports), and expands each disjoint tuple of supports into
  the cycle tuples on them;
* ``has_disjoint_cycles`` (and ``gamma3_empty``) searches only the
  inclusion-minimal supports (``minimal_supports``; 35 on K7), found
  without enumerating cycles.  That is exact: every cycle's support
  contains a minimal one, so n disjoint cycles give n disjoint minimal
  supports, and each minimal support is the support of a cycle.

Beyond these this module implements

* ``cycle_walk``: the one walk around a cycle, shared by cycle formatting,
  cycle lifting and Gauss code extraction, and the one cycle check: it
  raises ``GraphError`` on any other edge set,
* ``vertex_masks``: the one cycle-vertex helper, a bit mask per cycle,
  shared by the disjoint-cycle search and Gauss code extraction,
* ``lift_cycles``: pushing cycles of a minor through a ``MinorModel`` into
  the host graph (injective; branch set paths chosen shortest, ties to the
  smallest vertex id), a loop's by the same walk and check as any cycle.
  ``validate`` and lifting walk a branch set off the edge images, so a
  loop's image must close through its branch set, not hold it together.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Mapping, Optional

from .multigraph import MultiGraph, GraphError, UnknownVertexError

Cycle = frozenset[int]
CycleTuple = tuple[Cycle, ...]


def all_cycles(g: MultiGraph) -> tuple[Cycle, ...]:
    """Every cycle of g: loops, parallel pairs, and vertex cycles >= 3,
    sorted by their sorted edge ids."""
    found: set[Cycle] = set()
    for eid, u, v in g.edges:
        if u == v:
            found.add(frozenset([eid]))
    for (u, v), ids in g.parallel_classes().items():
        if u == v:
            continue
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                found.add(frozenset([ids[i], ids[j]]))

    # Vertex cycles of length >= 3, rooted at their smallest vertex.  Each
    # cycle is reached in both directions; the frozenset collapses the pair.
    vs = g.vertices
    for root in vs:
        stack = [(root, [], {root})]
        while stack:
            here, path_edges, on_path = stack.pop()
            for eid, w in g.incident(here):
                if w == here or w < root:
                    continue
                if w == root:
                    if len(path_edges) >= 2:
                        found.add(frozenset(path_edges + [eid]))
                    continue
                if w in on_path:
                    continue
                stack.append((w, path_edges + [eid], on_path | {w}))
    return tuple(sorted(found, key=sorted))


def cycle_walk(g: MultiGraph, cycle: Cycle) -> list[tuple[int, int]]:
    """(vertex, outgoing edge id) steps around a cycle.

    The walk starts at the smallest vertex and heads toward its smaller
    neighbour; a doubled edge goes out along its smaller id, and a loop is
    a single step.  The walk meets each vertex once, so an edge set that
    only closes up by revisiting a vertex is rejected.
    """
    ids = sorted(cycle)
    if not ids:
        raise GraphError("edge set is not a cycle")
    incid: dict[int, list[tuple[int, int]]] = {}
    for eid in ids:
        u, v = g.endpoints(eid)
        incid.setdefault(u, []).append((eid, v))
        if u != v:
            incid.setdefault(v, []).append((eid, u))
    start = min(incid)
    eid, here = min(incid[start], key=lambda step: (step[1], step[0]))
    walk = [(start, eid)]
    seen = {start}
    while here not in seen:
        seen.add(here)
        step = next(((e, w) for e, w in incid[here] if e != eid), None)
        if step is None:
            break
        walk.append((here, step[0]))
        eid, here = step
    if here != start or len(walk) != len(ids):
        raise GraphError("edge set is not a cycle")
    return walk


def cycle_order(g: MultiGraph, cycle: Cycle) -> list[int]:
    """Vertex order around the cycle, as walked by ``cycle_walk``."""
    return [v for v, _ in cycle_walk(g, cycle)]


def format_cycle(g: MultiGraph, cycle: Cycle) -> str:
    return "[" + " ".join(str(v) for v in cycle_order(g, cycle)) + "]"


def parse_cycle(g: MultiGraph, text: str) -> Cycle:
    """Bracket notation -> edge set.  Requires a unique edge between each
    consecutive vertex pair, so it only suits simple stretches of a graph."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise GraphError(f"not bracket notation: {text!r}")
    try:
        verts = [int(tok) for tok in body[1:-1].split()]
    except ValueError:
        raise GraphError(f"not bracket notation: {text!r}") from None
    if not verts:
        raise GraphError("empty cycle")
    if len(verts) == 1:
        ids = g.loops_at(verts[0])
        if len(ids) != 1:
            raise GraphError(f"no unique loop at {verts[0]}")
    elif len(verts) == 2:
        ids = g.edges_between(*verts)
        if len(ids) != 2:
            raise GraphError(f"no doubled edge between {verts[0]},{verts[1]}")
    else:
        ids = []
        for a, b in zip(verts, verts[1:] + verts[:1]):
            between = g.edges_between(a, b)
            if len(between) != 1:
                raise GraphError(f"no unique edge between {a},{b}")
            ids.append(between[0])
    cycle = frozenset(ids)
    cycle_walk(g, cycle)  # raises on a bowtie, a back-and-forth or two loops
    return cycle


def vertex_masks(g: MultiGraph, cycles: Iterable[Cycle]) -> list[int]:
    """One int per cycle, with bit i set when the cycle passes g.vertices[i].

    Bits follow vertex positions, not labels, so any integer labels work.
    """
    bit = {v: 1 << i for i, v in enumerate(g.vertices)}
    masks = []
    for c in cycles:
        m = 0
        for eid in c:
            u, v = g.endpoints(eid)
            m |= bit[u] | bit[v]
        masks.append(m)
    return masks


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def minimal_supports(g: MultiGraph) -> list[int]:
    """The inclusion-minimal vertex sets of cycles of g, as bit masks in the
    ``vertex_masks`` layout.

    In order: the loop vertices, the parallel pairs with no loop at either
    end, and the chordless cycles of the underlying simple graph that pass
    no loop and contain no parallel pair.  The chordless cycles are grown
    as induced paths over neighbour bit masks; ``all_cycles`` is not used.
    """
    pos = {v: i for i, v in enumerate(g.vertices)}
    nbr = [0] * len(pos)
    loops = 0
    pairs = []
    for (u, v), ids in g.parallel_classes().items():
        bu, bv = 1 << pos[u], 1 << pos[v]
        if u == v:
            loops |= bu
            continue
        nbr[pos[u]] |= bv
        nbr[pos[v]] |= bu
        if len(ids) > 1:
            pairs.append(bu | bv)
    pairs = [p for p in pairs if not p & loops]
    out = [1 << i for i in _bits(loops)] + pairs
    # Each chordless cycle is grown once from its smallest vertex s, along
    # induced paths s, first, ..., last through larger vertices off the
    # loops.  `blocked` holds those excluded vertices, the path and every
    # neighbour of the path's inner vertices, so a step to a neighbour of s
    # closes a chordless cycle and any other step extends the path.
    for s in range(len(pos)):
        if loops >> s & 1:
            continue
        low = (2 << s) - 1 | loops
        for first in _bits(nbr[s] & ~low):
            stack = [(first, 1 << s | 1 << first, low | 1 << first)]
            while stack:
                last, path, blocked = stack.pop()
                for w in _bits(nbr[last] & ~blocked):
                    if not nbr[s] >> w & 1:
                        stack.append((w, path | 1 << w, blocked | nbr[last] | 1 << w))
                    elif first < w:  # the reverse walk closes at first < w
                        cyc = path | 1 << w
                        if not any(p & cyc == p for p in pairs):
                            out.append(cyc)
    return out


def _disjoint_indices(
    masks: list[int], n: int, start: int, used: int
) -> Iterator[tuple[int, ...]]:
    """Increasing index n-tuples from start on, in lexicographic order, of
    masks disjoint from used and from each other."""
    # a module function, not a closure that calls itself: such a closure is
    # a reference cycle, which would keep the search's masks alive until
    # the garbage collector runs
    if n < 1:
        raise GraphError("n must be >= 1")
    for i in range(start, len(masks)):
        if masks[i] & used:
            continue
        if n == 1:
            yield (i,)
        else:
            for rest in _disjoint_indices(masks, n - 1, i + 1, used | masks[i]):
                yield (i, *rest)


def disjoint_tuples_among(
    g: MultiGraph, cycles: tuple[Cycle, ...], n: int
) -> tuple[CycleTuple, ...]:
    """The n-tuples of pairwise vertex-disjoint cycles among ``cycles``, a
    tuple of cycles of g.

    Each tuple lists its cycles in the order of ``cycles``, and the tuples
    are sorted lexicographically by their positions there.
    """
    groups: dict[int, list[int]] = {}
    for i, m in enumerate(vertex_masks(g, cycles)):
        groups.setdefault(m, []).append(i)
    members = list(groups.values())
    found = sorted(
        tuple(sorted(combo))
        for chosen in _disjoint_indices(list(groups), n, 0, 0)
        for combo in product(*(members[k] for k in chosen))
    )
    return tuple(tuple(cycles[i] for i in idx) for idx in found)


def disjoint_cycle_tuples(g: MultiGraph, n: int) -> tuple[CycleTuple, ...]:
    """The n-tuples of pairwise vertex-disjoint cycles of g, each listing
    its cycles in all_cycles order, sorted lexicographically by those
    lists."""
    return disjoint_tuples_among(g, all_cycles(g), n)


def has_disjoint_cycles(g: MultiGraph, n: int) -> bool:
    """Whether g has n pairwise vertex-disjoint cycles, searched over the
    minimal supports only: every cycle's vertex set contains one."""
    return next(_disjoint_indices(minimal_supports(g), n, 0, 0), None) is not None


def gamma3_empty(g: MultiGraph) -> bool:
    """True iff g has no three pairwise vertex-disjoint cycles."""
    return not has_disjoint_cycles(g, 3)


# -- minor models and cycle lifting ------------------------------------------


@dataclass(frozen=True)
class MinorModel:
    """Branch sets + edge injection witnessing ``pattern`` as a minor of
    ``host``.  ``branch_sets`` maps every pattern vertex to a host vertex
    set connected off the edge images, the sets disjoint; ``edge_map``
    injects every pattern edge id into a host edge joining the
    corresponding branch sets.  ``validate`` checks exactly this."""

    host: MultiGraph
    pattern: MultiGraph
    branch_sets: Mapping[int, frozenset[int]]
    edge_map: Mapping[int, int]

    def validate(self) -> None:
        if set(self.branch_sets) != set(self.pattern.vertices):
            raise GraphError("branch sets are not one per pattern vertex")
        if set(self.edge_map) != set(self.pattern.edge_ids()):
            raise GraphError("edge map is not one image per pattern edge")
        images = frozenset(self.edge_map.values())
        seen: set[int] = set()
        for pv, bs in self.branch_sets.items():
            if not bs:
                raise GraphError(f"empty branch set for {pv}")
            if seen & bs:
                raise GraphError("branch sets overlap")
            seen |= bs
            missing = bs.difference(self.host.vertices)
            if missing:
                raise UnknownVertexError(f"no vertex {min(missing)}")
            if len(_branch_tree(self.host, bs, images, min(bs))) != len(bs):
                raise GraphError(f"branch set of {pv} is not connected")
        if len(images) != len(self.edge_map):
            raise GraphError("edge map is not injective")
        for peid, heid in self.edge_map.items():
            pu, pv = self.pattern.endpoints(peid)
            hu, hv = self.host.endpoints(heid)
            bu, bv = self.branch_sets[pu], self.branch_sets[pv]
            if pu == pv:
                if not (hu in bu and hv in bu):
                    raise GraphError(f"loop image {heid} leaves its branch set")
            elif not (
                (hu in bu and hv in bv) or (hu in bv and hv in bu)
            ):
                raise GraphError(f"edge image {heid} joins the wrong branch sets")


def _branch_tree(
    g: MultiGraph, inside: frozenset[int], images: frozenset[int], a: int, b: Optional[int] = None
) -> dict[int, tuple[int, Optional[int]]]:
    """Shortest-path tree from a within the branch set ``inside``, off the
    model's edge ``images``: each reached vertex maps to its smallest
    neighbour one step closer to a and the smallest edge id joining them,
    and a to (a, None), so lifted cycles do not depend on dict ordering.
    The BFS stops at the layer that reaches b, or covers a's component.
    """
    tree: dict[int, tuple[int, Optional[int]]] = {a: (a, None)}
    frontier = [a]
    while frontier and b not in tree:
        nxt = []
        for x in sorted(frontier):
            for eid, w in g.incident(x):
                if w in inside and w not in tree and eid not in images:
                    tree[w] = (x, eid)
                    nxt.append(w)
        frontier = nxt
    return tree


def lift_cycle(model: MinorModel, pattern_cycle: Cycle) -> Cycle:
    """Image of one pattern cycle in the host graph: per step of the
    pattern's ``cycle_walk``, the ``_branch_tree`` path from where the image
    enters the vertex's branch set to where it leaves, and the image of the
    edge it leaves by.  An edge image has one end in the branch set, but a
    loop's may have both: it enters at the second and leaves at the first.
    """
    host = model.host
    images = frozenset(model.edge_map.values())
    walk = cycle_walk(model.pattern, pattern_cycle)
    out: set[int] = set()
    for i, (pv, e_out) in enumerate(walk):
        bs = model.branch_sets[pv]
        h_in, h_out = model.edge_map[walk[i - 1][1]], model.edge_map[e_out]
        a_in = [x for x in host.endpoints(h_in) if x in bs][-1]
        a_out = [x for x in host.endpoints(h_out) if x in bs][0]
        tree = _branch_tree(host, bs, images, a_in, a_out)
        if a_out not in tree:
            raise GraphError(f"branch set has no path {a_in} -> {a_out}")
        x = a_out
        while x != a_in:
            x, eid = tree[x]
            out.add(eid)
        out.add(h_out)
    lifted = frozenset(out)
    cycle_walk(host, lifted)  # raises GraphError unless the lift is a cycle
    return lifted


def lift_cycles(
    model: MinorModel, tuples: Iterable[CycleTuple]
) -> dict[CycleTuple, frozenset[Cycle]]:
    """Lift whole tuples to sets of host cycles; raises if two inputs
    collide (the map is injective)."""
    out: dict[CycleTuple, frozenset[Cycle]] = {}
    seen: dict[frozenset[Cycle], CycleTuple] = {}
    for t in tuples:
        image = frozenset(lift_cycle(model, c) for c in t)
        if len(image) != len(t):
            raise GraphError("components of a lifted tuple collided")
        if image in seen and seen[image] != t:
            raise GraphError("cycle lifting was not injective")
        seen[image] = t
        out[t] = image
    return out
