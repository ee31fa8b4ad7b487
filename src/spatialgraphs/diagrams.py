"""Planar diagrams of graphs with exact rational geometry.

A diagram places vertices at rational points and routes every edge as a
polyline.  All intersection tests run in exact arithmetic over fractions,
and construction certifies generic position: transversal double points
only, no vertex on a foreign edge, no triple points, no overlapping or
self-intersecting polylines.  The crossing records hold geometry only; the
over/under state of a diagram is one integer mask, bit i set when the
``edge_b`` strand of crossing i is on top.  Reassigning it is cheap: a clone
carries a new mask and shares the geometry, together with what is derived
from it once per projection: each crossing's orientation, each cycle's walk
through its crossings, and the a2 and lk forms that ``invariants`` compiles
from those walks and evaluates against the mask.  ``extract_gauss`` writes
out the Gauss code of one assignment; it serves explicit codes and is the
reference the compiled forms are tested against.

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
from typing import Iterable, Optional, Sequence

from .cycles import Cycle, cycle_walk, vertex_masks
from .invariants import GaussLink, Passage
from .multigraph import GraphError, MultiGraph

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

    def segments(self):
        return list(zip(self.polyline, self.polyline[1:]))


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
            pl = tuple((Fraction(x), Fraction(y)) for x, y in polylines[eid])
            if pl[0] != self.positions[u] or pl[-1] != self.positions[v]:
                raise GraphError(f"polyline of edge {eid} does not join its endpoints")
            if len(pl) < 2:
                raise GraphError(f"polyline of edge {eid} has no segment")
            edges[eid] = DiagramEdge(eid, u, v, pl)
        self.edges = edges
        self.crossings = self._compute_crossings()
        self._per_edge = self._index_per_edge()
        # over/under: bit i set puts the edge_b strand of crossing i on top
        self.mask = 0
        # mask-independent data, shared by every over/under clone: the sign
        # of cross(dir_a, dir_b) per crossing, and one memo per projection
        # that holds _walk's entry per cycle and the compiled a2 and lk forms
        # of invariants, immutable ints and tuples all
        self._orient = tuple(1 if _cross(c.dir_a, c.dir_b) > 0 else -1 for c in self.crossings)
        self._memo: dict = {}

    # -- geometry ------------------------------------------------------------

    def _compute_crossings(self) -> tuple[Crossing, ...]:
        raw = []
        eids = sorted(self.edges)
        vertex_points = set(self.positions.values())
        for e in eids:
            self._check_polyline(self.edges[e], vertex_points)
        for i, ea in enumerate(eids):
            for eb in eids[i + 1 :]:
                raw.extend(self._pair_crossings(self.edges[ea], self.edges[eb]))
        raw.sort(key=lambda c: (c[0], c[1], c[2], c[3]))
        pts = {}
        out = []
        for cid, (ea, pa, eb, pb, pt, da, db) in enumerate(raw):
            if pt in pts:
                raise GenericityError(f"triple point at {pt}")
            pts[pt] = cid
            out.append(Crossing(cid, ea, pa, eb, pb, pt, da, db))
        return tuple(out)

    def _check_polyline(self, de: DiagramEdge, vertex_points: set) -> None:
        segs = de.segments()
        pu, pv = self.positions[de.u], self.positions[de.v]
        own_ends = {pu, pv}
        # interior waypoints must not sit on vertices
        for pt in de.polyline[1:-1]:
            if pt in vertex_points:
                raise GenericityError(f"edge {de.eid} passes through a vertex")
        for idx, (a, b) in enumerate(segs):
            if a == b:
                raise GenericityError(f"edge {de.eid} has a zero-length segment")
            # no vertex in a segment interior
            for vp in vertex_points:
                if vp in (a, b):
                    continue
                if _point_on_segment(vp, a, b):
                    raise GenericityError(f"a vertex lies on edge {de.eid}")
        # self-intersection check between non-adjacent segments
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                res = _seg_intersection(*segs[i], *segs[j])
                if res[0] == "overlap":
                    raise GenericityError(f"edge {de.eid} overlaps itself")
                if res[0] == "point":
                    if j == i + 1:
                        if res[3] == segs[i][1]:
                            continue  # shared waypoint
                        raise GenericityError(f"edge {de.eid} touches itself")
                    # a loop's first and last segments legitimately share the
                    # base vertex
                    if (
                        de.u == de.v
                        and i == 0
                        and j == len(segs) - 1
                        and res[3] == pu
                    ):
                        continue
                    raise GenericityError(f"edge {de.eid} crosses itself")

    def _pair_crossings(self, da: DiagramEdge, db: DiagramEdge):
        shared = ({self.positions[da.u], self.positions[da.v]}
                  & {self.positions[db.u], self.positions[db.v]})
        segs_a, segs_b = da.segments(), db.segments()
        found = []
        for i, (a1, a2) in enumerate(segs_a):
            for j, (b1, b2) in enumerate(segs_b):
                res = _seg_intersection(a1, a2, b1, b2)
                if res[0] == "none":
                    continue
                if res[0] == "overlap":
                    raise GenericityError(
                        f"edges {da.eid} and {db.eid} overlap"
                    )
                _, t, s, pt = res
                if pt in shared:
                    # meeting at a common endpoint vertex is not a crossing,
                    # but only terminal segment tips may do it
                    if self._is_terminal_tip(da, i, t, pt) and self._is_terminal_tip(db, j, s, pt):
                        continue
                    raise GenericityError(
                        f"edges {da.eid} and {db.eid} touch a shared vertex improperly"
                    )
                if t in (0, 1) or s in (0, 1):
                    raise GenericityError(
                        f"edges {da.eid} and {db.eid} touch without crossing"
                    )
                found.append(
                    (
                        da.eid,
                        Fraction(i) + t,
                        db.eid,
                        Fraction(j) + s,
                        pt,
                        _sub(a2, a1),
                        _sub(b2, b1),
                    )
                )
        return found

    @staticmethod
    def _is_terminal_tip(de: DiagramEdge, seg_idx: int, t, pt: Point) -> bool:
        segs = de.segments()
        if seg_idx == 0 and t == 0 and pt == de.polyline[0]:
            return True
        if seg_idx == len(segs) - 1 and t == 1 and pt == de.polyline[-1]:
            return True
        return False

    def _index_per_edge(self):
        # side 0 is a crossing's edge_a strand, side 1 its edge_b strand
        per: dict[int, list[tuple[Fraction, int, int]]] = {e: [] for e in self.edges}
        for c in self.crossings:
            per[c.edge_a].append((c.param_a, c.cid, 0))
            per[c.edge_b].append((c.param_b, c.cid, 1))
        return {e: tuple(sorted(lst)) for e, lst in per.items()}

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


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


def _walk(d: SpatialDiagram, cycle: Cycle) -> tuple:
    """(smallest vertex, passages, vertex mask) of a cycle, computed once per
    projection.

    The passages are (eid, walk_dir, cid, side, other_edge) in walk order,
    with walk_dir +1 when eid is walked from stored u to stored v and side
    1 when eid is the crossing's edge_b; none of it depends on the mask.
    The vertex mask is the cycle's vertex_masks entry.
    """
    memo = d._memo.get(cycle)
    if memo is None:
        walk = cycle_walk(d.graph, cycle)
        passages = []
        for tail, eid in walk:
            forward = d.graph.endpoints(eid)[0] == tail
            per = d._per_edge[eid]
            for _, cid, side in per if forward else reversed(per):
                c = d.crossings[cid]
                other = c.edge_a if side else c.edge_b
                passages.append((eid, 1 if forward else -1, cid, side, other))
        memo = d._memo[cycle] = (walk[0][0], tuple(passages), vertex_masks(d.graph, [cycle])[0])
    return memo


def extract_gauss(d: SpatialDiagram, components: Iterable[Cycle]) -> GaussLink:
    """Gauss code of the sub-diagram spanned by disjoint cycles of d's graph.

    Components that share a vertex, and so any that share an edge, raise
    GraphError.  Crossings where only one strand belongs to the chosen
    cycles are not passages.  Crossing signs follow the right-handed
    convention: +1 when the under direction is a positive quarter turn of
    the over direction.
    """
    comps = [frozenset(c) for c in components]
    walks = {c: _walk(d, c) for c in comps}
    comps = sorted(comps, key=lambda c: (walks[c][0], sorted(c)))
    seen = 0
    for c in comps:
        if seen & walks[c][2]:
            raise GraphError("components share a vertex")
        seen |= walks[c][2]
    all_eids = set().union(*comps)

    walk_dirs = {eid: w for c in comps for eid, w, _, _, _ in walks[c][1]}
    out_components = []
    for c in comps:
        passages = []
        for _, _, cid, side, other in walks[c][1]:
            if other in all_eids:
                x = d.crossings[cid]
                b_over = d.mask >> cid & 1
                # cross(d_over, d_under) of the walked directions, in integers
                sign = d._orient[cid] * walk_dirs[x.edge_a] * walk_dirs[x.edge_b]
                passages.append(Passage(cid, side == b_over, -sign if b_over else sign))
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
    from .multigraph import from_pairs

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
    return Fraction(int(num), int(den) if den else 1)


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
    matched = 0
    for rec in doc["crossings"]:
        over = (rec["over_edge"], _frac(rec["over_param"]))
        under = (rec["under_edge"], _frac(rec["under_param"]))
        if over + under in by_key:
            matched += 1
        elif under + over in by_key:
            mask |= 1 << by_key[under + over]
            matched += 1
        else:
            raise GraphError("stored crossing does not match the geometry")
    if matched != d.crossing_count:
        raise GraphError("crossing list does not match the geometry")
    return assign_over_under(d, mask)
