"""Planar diagrams of graphs with exact rational geometry.

A diagram places vertices at rational points and routes every edge as a
polyline.  All intersection tests run in exact arithmetic over fractions,
and construction certifies generic position in one sweep: each segment is
checked alone (it has length, and no vertex lies on it but at its ends),
then every pair of segments is tested once.  Two segments may meet only at
a shared end vertex, at the waypoint joining consecutive segments of one
edge, or in a transversal crossing of two different edges inside both;
no three strands meet at a point.  The crossing records hold geometry
only; the over/under state of a diagram is one integer mask, bit i set
when the ``edge_b`` strand of crossing i is on top.  Reassigning it is
cheap: a clone carries a new mask and shares the geometry, together with
what is derived from it once per projection: the mask ``neg`` of crossings
with negative cross(dir_a, dir_b), each cycle's ``CycleWalk`` and the a2
forms of ``invariants``.  Every crossing sign is one XOR of ``neg``, the
walks' ``rev`` masks and the over/under mask (``SpatialDiagram.negative``).
``extract_gauss`` writes out the Gauss code of one assignment; it serves
explicit codes and is the reference the compiled forms are tested against.

Randomly assigning over/under bits to a fixed projection samples honest
spatial embeddings: every assignment of a generic projection is realizable
by a polygonal embedding pushing strands above or below the page.
"""

from __future__ import annotations

import json
from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable, NamedTuple, Optional, Sequence

from .cycles import Cycle, cycle_walk, vertex_masks
from .invariants import GaussLink, Passage
from .multigraph import GraphError, MultiGraph, from_pairs

Point = tuple[Fraction, Fraction]


class GenericityError(GraphError):
    """The geometry violates generic position."""


def _sub(p: Point, q: Point) -> Point:
    return (p[0] - q[0], p[1] - q[1])


def _cross(a: Point, b: Point) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def _seg_intersection(p1: Point, p2: Point, q1: Point, q2: Point):
    """Classify the intersection of two closed segments.

    Returns one of
      ("none",), ("overlap",), or ("point", t, s, point)
    with t, s the exact parameters along each segment in [0, 1].
    """
    r = _sub(p2, p1)
    u = _sub(q2, q1)
    denom = _cross(r, u)
    w = _sub(q1, p1)
    if denom == 0:
        if _cross(w, r) != 0:
            return ("none",)
        # collinear: overlapping interiors are a genericity violation
        rr = r[0] * r[0] + r[1] * r[1]
        if rr == 0:
            raise GenericityError("zero-length segment")
        t0 = (w[0] * r[0] + w[1] * r[1]) / rr
        t1 = t0 + (u[0] * r[0] + u[1] * r[1]) / rr
        lo, hi = min(t0, t1), max(t0, t1)
        if hi < 0 or lo > 1:
            return ("none",)
        if hi == 0 or lo == 1:
            # touching at one shared endpoint only: t is p's end there, s
            # the end of q that lies on it
            t = 0 if hi == 0 else 1
            return ("point", t, 0 if t0 == t else 1, p1 if hi == 0 else p2)
        return ("overlap",)
    t = _cross(w, u) / denom
    s = _cross(w, r) / denom
    if 0 <= t <= 1 and 0 <= s <= 1:
        pt = (p1[0] + t * r[0], p1[1] + t * r[1])
        return ("point", t, s, pt)
    return ("none",)


def _point_on_segment(p: Point, a: Point, b: Point) -> bool:
    r = _sub(b, a)
    w = _sub(p, a)
    if _cross(r, w) != 0:
        return False
    dot = w[0] * r[0] + w[1] * r[1]
    rr = r[0] * r[0] + r[1] * r[1]
    return 0 <= dot <= rr


@dataclass(frozen=True)
class DiagramEdge:
    eid: int
    u: int
    v: int
    # polyline from position(u) to position(v); interior points are waypoints
    polyline: tuple[Point, ...]


@dataclass(frozen=True)
class Crossing:
    cid: int
    edge_a: int
    param_a: Fraction  # segment index + parameter within the segment
    edge_b: int
    param_b: Fraction
    point: Point
    dir_a: Point  # direction of edge_a's segment at the crossing (stored orientation)
    dir_b: Point


class CycleWalk(NamedTuple):
    """What a projection fixes about one cycle; masks are over crossing ids."""

    start: int  # the smallest vertex, where cycle_walk starts
    passages: tuple[tuple[int, int], ...]  # (crossing, side) in walk order
    vertices: int  # the cycle's vertex_masks entry
    touch: int  # crossings with a strand on the cycle
    own: int  # self-crossings: both strands on the cycle
    rev: int  # crossings where an odd number of the cycle's strands run v to u


class SpatialDiagram:
    """A certified-generic polyline diagram of a multigraph."""

    def __init__(
        self,
        graph: MultiGraph,
        positions: dict[int, Point],
        polylines: dict[int, tuple[Point, ...]],
    ):
        self.graph = graph
        self.positions = {v: (Fraction(p[0]), Fraction(p[1])) for v, p in positions.items()}
        if set(self.positions) != set(graph.vertices):
            raise GraphError("positions must cover exactly the vertex set")
        if len({p for p in self.positions.values()}) != len(self.positions):
            raise GenericityError("two vertices share a position")
        edges = {}
        for eid, u, v in graph.edges:
            pl = tuple((Fraction(x), Fraction(y)) for x, y in polylines.get(eid, ()))
            if len(pl) < 2:
                raise GraphError(f"polyline of edge {eid} has no segment")
            if pl[0] != self.positions[u] or pl[-1] != self.positions[v]:
                raise GraphError(f"polyline of edge {eid} does not join its endpoints")
            edges[eid] = DiagramEdge(eid, u, v, pl)
        self.edges = edges
        self.crossings = self._compute_crossings()
        self._per_edge = self._index_per_edge()
        # over/under: bit i set puts the edge_b strand of crossing i on top
        self.mask = 0
        # mask-independent data, shared by every over/under clone: the
        # crossings where cross(dir_a, dir_b) < 0, and one memo per
        # projection that holds each cycle's CycleWalk and the a2 forms of
        # invariants, immutable ints and tuples all
        self.neg = sum(1 << c.cid for c in self.crossings if _cross(c.dir_a, c.dir_b) < 0)
        self._memo: dict = {}

    # -- geometry ------------------------------------------------------------

    def _compute_crossings(self) -> tuple[Crossing, ...]:
        """Certify generic position; return the crossings sorted by
        (edge_a, param_a, edge_b, param_b), edge_a < edge_b.

        Each segment is checked alone first: it has length and no vertex
        lies on it but at its ends, so a polyline meets a vertex point only
        at its own end vertices.  Then every pair of segments is tested
        once.  Segments that meet at a vertex point both end there, and
        consecutive segments of one edge meet only at their shared waypoint
        unless they overlap; any other meeting must be a crossing of two
        edges inside both segments."""
        vertex_points = set(self.positions.values())
        segs = []  # (edge, index, start, end), ordered by edge id and index
        for eid in sorted(self.edges):
            pl = self.edges[eid].polyline
            if vertex_points.intersection(pl[1:-1]):
                raise GenericityError(f"edge {eid} passes through a vertex")
            for idx, (a, b) in enumerate(zip(pl, pl[1:])):
                if a == b:
                    raise GenericityError(f"edge {eid} has a zero-length segment")
                if any(vp not in (a, b) and _point_on_segment(vp, a, b) for vp in vertex_points):
                    raise GenericityError(f"a vertex lies on edge {eid}")
                segs.append((eid, idx, a, b))
        raw = []
        for i, (ea, ia, a1, a2) in enumerate(segs):
            for eb, ib, b1, b2 in segs[i + 1 :]:
                res = _seg_intersection(a1, a2, b1, b2)
                if res[0] == "none":
                    continue
                same = ea == eb
                if res[0] == "overlap":
                    raise GenericityError(
                        f"edge {ea} overlaps itself" if same else f"edges {ea} and {eb} overlap"
                    )
                _, t, s, pt = res
                if pt in vertex_points or (same and ib == ia + 1):
                    continue
                if same:
                    raise GenericityError(f"edge {ea} crosses itself")
                if t in (0, 1) or s in (0, 1):
                    raise GenericityError(f"edges {ea} and {eb} touch without crossing")
                raw.append((ea, ia + t, eb, ib + s, pt, _sub(a2, a1), _sub(b2, b1)))
        raw.sort(key=lambda c: c[:4])
        pts = {}
        out = []
        for cid, (ea, pa, eb, pb, pt, da, db) in enumerate(raw):
            if pt in pts:
                raise GenericityError(f"triple point at {pt}")
            pts[pt] = cid
            out.append(Crossing(cid, ea, pa, eb, pb, pt, da, db))
        return tuple(out)

    def _index_per_edge(self):
        # per edge: its (crossing, side) strands from u to v, side 1 being a
        # crossing's edge_b strand, and the mask of those crossings
        per: dict[int, list[tuple[Fraction, int, int]]] = {e: [] for e in self.edges}
        for c in self.crossings:
            per[c.edge_a].append((c.param_a, c.cid, 0))
            per[c.edge_b].append((c.param_b, c.cid, 1))
        return {e: (tuple(p[1:] for p in sorted(lst)), sum(1 << p[1] for p in lst))
                for e, lst in per.items()}

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def walk(self, cycle: Cycle) -> CycleWalk:
        """The cycle's CycleWalk, computed once per projection."""
        memo = self._memo.get(cycle)
        if memo is None:
            steps = cycle_walk(self.graph, cycle)
            passages: list[tuple[int, int]] = []
            touch = own = rev = 0
            for tail, eid in steps:
                # an edge never crosses itself, so its crossings are distinct
                strands, crossed = self._per_edge[eid]
                if self.graph.endpoints(eid)[0] == tail:
                    passages.extend(strands)
                else:
                    passages.extend(reversed(strands))
                    rev ^= crossed
                own |= touch & crossed
                touch |= crossed
            vertices = vertex_masks(self.graph, [cycle])[0]
            memo = CycleWalk(steps[0][0], tuple(passages), vertices, touch, own, rev)
            self._memo[cycle] = memo
        return memo

    def negative(self, mask: int, *walks: CycleWalk) -> int:
        """Bit c set when crossing c, both strands on the given disjoint
        cycles, is negative under over/under mask: a crossing is +1 when the
        walked under direction is a positive quarter turn of the over one."""
        for w in walks:
            mask ^= w.rev
        return mask ^ self.neg


def assign_over_under(
    d: SpatialDiagram, bits: Optional[int] = None, seed: Optional[int] = None
) -> SpatialDiagram:
    """Clone of d whose over/under mask is bits (bit i = crossing i) or is
    drawn by a seeded RNG.  Bit 0 puts the lexicographically first strand
    on top.  The clone shares d's geometry and per-projection memos."""
    n = d.crossing_count
    if bits is None:
        if seed is None:
            raise GraphError("need bits or a seed")
        bits = Random(seed).getrandbits(n)
    if not 0 <= bits < 1 << n:
        raise GraphError(f"bits out of range for {n} crossings")
    clone = copy(d)
    clone.mask = bits
    return clone


# -- Gauss code extraction ----------------------------------------------------


def extract_gauss(d: SpatialDiagram, components: Iterable[Cycle]) -> GaussLink:
    """Gauss code of the sub-diagram spanned by disjoint cycles of d's graph.

    Components that share a vertex, and so any that share an edge, raise
    GraphError.  Crossings where only one strand belongs to the chosen
    cycles are not passages.  Signs are those of SpatialDiagram.negative.
    """
    comps = [frozenset(c) for c in components]
    walks = {c: d.walk(c) for c in comps}
    comps = sorted(comps, key=lambda c: (walks[c].start, sorted(c)))
    seen = touched = inside = 0
    for c in comps:
        w = walks[c]
        if seen & w.vertices:
            raise GraphError("components share a vertex")
        seen |= w.vertices
        inside |= w.own | (w.touch & touched)
        touched |= w.touch
    negative = d.negative(d.mask, *walks.values())
    out_components = []
    for c in comps:
        passages = []
        for cid, side in walks[c].passages:
            if inside >> cid & 1:
                b_over = d.mask >> cid & 1
                passages.append(Passage(cid, side == b_over, -1 if negative >> cid & 1 else 1))
        out_components.append(tuple(passages))
    return GaussLink(tuple(out_components))


# -- convex position construction ---------------------------------------------


_MAX_ATTEMPTS = 40  # seeded jitters tried before giving up


def build_convex_diagram(
    g: MultiGraph,
    order: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> SpatialDiagram:
    """Vertices in convex position (on a parabola, in the given order),
    simple edges as straight chords, parallels and loops as jittered
    polylines.  Retries seeded jitters until the diagram certifies generic.
    """
    vs = list(order) if order is not None else list(g.vertices)
    if sorted(vs) != list(g.vertices):
        raise GraphError("order must enumerate the vertex set")
    last_err: Optional[Exception] = None
    for attempt in range(_MAX_ATTEMPTS):
        rng = Random(seed * 0x10001 + attempt)
        try:
            return _attempt_convex(g, vs, rng, attempt)
        except GenericityError as err:
            last_err = err
    raise GenericityError(f"no generic drawing found: {last_err}")


def _attempt_convex(g, vs, rng: Random, attempt: int) -> SpatialDiagram:
    positions: dict[int, Point] = {}
    for i, v in enumerate(vs):
        x = Fraction(i)
        if attempt > 0:
            x += Fraction(rng.randrange(-60, 61), 1024)
        positions[v] = (x, x * x)
    polylines: dict[int, tuple[Point, ...]] = {}
    for (u, v), ids in sorted(g.parallel_classes().items()):
        if u == v:
            base = positions[u]
            for k, eid in enumerate(sorted(ids)):
                r1 = Fraction(rng.randrange(200, 400) * (k + 1), 1024)
                r2 = Fraction(rng.randrange(100, 300) * (k + 1), 1024)
                w1 = (base[0] + r1, base[1] + r2)
                w2 = (base[0] + r1, base[1] - r2)
                polylines[eid] = (base, w1, w2, base)
            continue
        pu, pv = positions[u], positions[v]
        mid = ((pu[0] + pv[0]) / 2, (pu[1] + pv[1]) / 2)
        d = _sub(pv, pu)
        perp = (-d[1], d[0])
        for k, eid in enumerate(sorted(ids)):
            if k == 0:
                polylines[eid] = (pu, pv)
            else:
                scale = Fraction(rng.randrange(20, 60) * k, 4096)
                w = (mid[0] + perp[0] * scale, mid[1] + perp[1] * scale)
                polylines[eid] = (pu, w, pv)
    return SpatialDiagram(g, positions, polylines)


_KNOT_VERTICES = 7  # length of the cycle random_knot_diagram draws


def random_knot_diagram(seed: int, max_crossings: int = 16) -> tuple[SpatialDiagram, Cycle]:
    """A random knot: a 7-cycle drawn in convex position with the vertices
    in a shuffled circular order and uniformly random over/under bits.
    Orders yielding more than max_crossings crossings are rejected."""
    n = _KNOT_VERTICES
    g = from_pairs([(i, i % n + 1) for i in range(1, n + 1)])
    cycle = frozenset(g.edge_ids())
    rng = Random(seed * 0x10001 + 0xA2)
    for _ in range(200):
        order = list(g.vertices)
        rng.shuffle(order)
        d = build_convex_diagram(g, order=order, seed=rng.randrange(1 << 30))
        if 2 <= d.crossing_count <= max_crossings:
            return assign_over_under(d, seed=rng.randrange(1 << 30)), cycle
    raise GenericityError("no usable knot diagram found")


# -- JSON round trip -----------------------------------------------------------


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _frac(s: str) -> Fraction:
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError) as err:
        raise GraphError(f"not a fraction: {s!r}") from err


def diagram_to_json(d: SpatialDiagram) -> str:
    crossings = []
    for c in d.crossings:
        strands = [(c.edge_a, c.param_a), (c.edge_b, c.param_b)]
        if d.mask >> c.cid & 1:
            strands.reverse()
        (oe, op), (ue, up) = strands
        crossings.append({"id": c.cid, "over_edge": oe, "over_param": _frac_str(op),
                          "under_edge": ue, "under_param": _frac_str(up)})
    doc = {
        "vertices": {
            str(v): [_frac_str(p[0]), _frac_str(p[1])] for v, p in sorted(d.positions.items())
        },
        "edges": {
            str(e.eid): {
                "u": e.u,
                "v": e.v,
                "polyline": [[_frac_str(x), _frac_str(y)] for x, y in e.polyline],
            }
            for e in sorted(d.edges.values(), key=lambda e: e.eid)
        },
        "crossings": crossings,
    }
    return json.dumps(doc, indent=2) + "\n"


def diagram_from_json(text: str) -> SpatialDiagram:
    doc = json.loads(text)
    positions = {
        int(v): (_frac(p[0]), _frac(p[1])) for v, p in doc["vertices"].items()
    }
    polylines = {}
    pairs = []
    for eid_s, rec in doc["edges"].items():
        eid = int(eid_s)
        pairs.append((eid, rec["u"], rec["v"]))
        polylines[eid] = tuple((_frac(x), _frac(y)) for x, y in rec["polyline"])
    g = MultiGraph(positions.keys(), pairs)
    d = SpatialDiagram(g, positions, polylines)
    # replay the stored over/under onto the recomputed crossings
    by_key = {(c.edge_a, c.param_a, c.edge_b, c.param_b): c.cid for c in d.crossings}
    mask = 0
    matched: set[int] = set()
    for rec in doc["crossings"]:
        over = (rec["over_edge"], _frac(rec["over_param"]))
        under = (rec["under_edge"], _frac(rec["under_param"]))
        if over + under in by_key:
            cid = by_key[over + under]
        elif under + over in by_key:
            cid = by_key[under + over]
            mask |= 1 << cid
        else:
            raise GraphError("stored crossing does not match the geometry")
        if cid in matched:
            raise GraphError(f"crossing {cid} is stored twice")
        matched.add(cid)
    if len(matched) != d.crossing_count:
        raise GraphError("crossing list does not match the geometry")
    return assign_over_under(d, mask)
