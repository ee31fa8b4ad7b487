"""Exact-rational diagrams and their genericity certification."""

import functools
import hashlib
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialgraphs.catalog import d4_reference_diagram, fixture
from spatialgraphs.cycles import all_cycles, cycle_order, cycle_walk, disjoint_cycle_tuples
from spatialgraphs.diagrams import (
    Crossing,
    DiagramEdge,
    GenericityError,
    SpatialDiagram,
    _cross,
    _point_on_segment,
    _seg_intersection,
    _sub,
    assign_over_under,
    build_convex_diagram,
    diagram_from_json,
    diagram_to_json,
    extract_gauss,
    random_knot_diagram,
)
from spatialgraphs.invariants import (
    GaussLink,
    Passage,
    a2,
    cycle_a2,
    linking_number,
    pair_lk,
)
from spatialgraphs.multigraph import GraphError, complete_graph, from_pairs


def straight(positions, pairs_by_eid):
    return {eid: (positions[u], positions[v]) for eid, (u, v) in pairs_by_eid.items()}


def test_convex_complete_graph_crossing_counts():
    # chords of a convex drawing cross once per 4-subset
    assert build_convex_diagram(complete_graph(6)).crossing_count == 15
    assert build_convex_diagram(complete_graph(7)).crossing_count == 35


def test_convex_sorted_cycle_has_no_crossings():
    cyc = from_pairs([(1, 2), (2, 3), (3, 4), (4, 1)])
    d = build_convex_diagram(cyc, order=[1, 2, 3, 4])
    assert d.crossing_count == 0


def test_convex_tree_has_no_crossings():
    star = from_pairs([(1, 2), (1, 3), (1, 4), (1, 5)])
    assert build_convex_diagram(star).crossing_count == 0


def test_convex_order_changes_crossings():
    cyc = from_pairs([(1, 2), (2, 3), (3, 4), (4, 1)])
    d = build_convex_diagram(cyc, order=[1, 3, 2, 4])
    assert d.crossing_count == 1


def test_reference_diagram_crossing_count():
    assert d4_reference_diagram().crossing_count == 9


def test_parallel_edges_get_distinct_routes():
    d = build_convex_diagram(fixture("D4"))
    routes = {de.polyline for de in d.edges.values()}
    assert len(routes) == d.graph.edge_count


def test_two_vertices_may_not_coincide():
    g = from_pairs([(1, 2)])
    pos = {1: (0, 0), 2: (0, 0)}
    with pytest.raises(GenericityError):
        SpatialDiagram(g, pos, {0: (pos[1], pos[2])})


def test_triple_point_rejected():
    g = from_pairs([(1, 2), (3, 4), (5, 6)])
    pos = {1: (-1, 0), 2: (1, 0), 3: (0, -1), 4: (0, 1), 5: (-1, -1), 6: (1, 1)}
    with pytest.raises(GenericityError, match="triple point"):
        SpatialDiagram(g, pos, straight(pos, {0: (1, 2), 1: (3, 4), 2: (5, 6)}))


def test_vertex_on_foreign_edge_rejected():
    g = from_pairs([(1, 2), (3, 4)])
    pos = {1: (-1, 0), 2: (1, 0), 3: (0, 0), 4: (0, 1)}
    with pytest.raises(GenericityError):
        SpatialDiagram(g, pos, straight(pos, {0: (1, 2), 1: (3, 4)}))


def test_overlapping_collinear_segments_rejected():
    g = from_pairs([(1, 2)])
    pos = {1: (0, 0), 2: (1, 0)}
    with pytest.raises(GenericityError):
        SpatialDiagram(g, pos, {0: ((0, 0), (2, 0), (1, 0))})


def test_collinear_edges_may_meet_at_their_shared_vertex():
    # the two edges of a straight path meet end to end at vertex 2
    g = from_pairs([(1, 2), (2, 3)])
    pos = {1: (0, 0), 2: (1, 0), 3: (2, 0)}
    d = SpatialDiagram(g, pos, {0: (pos[1], pos[2]), 1: (pos[2], pos[3])})
    assert d.crossing_count == 0
    # the same straight path with its second edge drawn toward the middle
    g = from_pairs([(1, 3), (2, 3)])
    pos = {1: (0, 0), 2: (2, 0), 3: (1, 0)}
    d = SpatialDiagram(g, pos, {0: (pos[1], pos[3]), 1: (pos[2], pos[3])})
    assert d.crossing_count == 0


@pytest.mark.parametrize("polylines", [{}, {0: ()}], ids=["missing", "empty"])
def test_polyline_without_segment_rejected(polylines):
    g = from_pairs([(1, 2)])
    with pytest.raises(GraphError, match="no segment"):
        SpatialDiagram(g, {1: (0, 0), 2: (1, 0)}, polylines)


def test_polyline_of_an_unknown_edge_rejected():
    # no polyline may be dropped silently: edge 5 is not an edge of the graph
    g = from_pairs([(1, 2)])
    polylines = {0: ((0, 0), (1, 0)), 5: ((9, 9), (3, 3), (0, 0))}
    with pytest.raises(GraphError, match="lacks"):
        SpatialDiagram(g, {1: (0, 0), 2: (1, 0)}, polylines)


# (pairs, positions, polylines by edge id, the reason a drawing is rejected)
_REJECTED = {
    "zero-length segment": (
        [(1, 2)], {1: (0, 0), 2: (2, 0)}, {0: ((0, 0), (1, 1), (1, 1), (2, 0))},
        "zero-length segment",
    ),
    "waypoint on a vertex": (
        [(1, 2), (3, 4)], {1: (0, 0), 2: (2, 0), 3: (1, 1), 4: (1, 3)},
        {0: ((0, 0), (1, 1), (2, 0)), 1: ((1, 1), (1, 3))},
        "passes through a vertex",
    ),
    "two edges overlap": (
        [(1, 2), (1, 2)], {1: (0, 0), 2: (2, 0)}, {0: ((0, 0), (2, 0)), 1: ((0, 0), (2, 0))},
        "edges 0 and 1 overlap",
    ),
    "one edge crosses itself": (
        [(1, 2)], {1: (0, 0), 2: (0, 2)}, {0: ((0, 0), (2, 2), (2, 0), (0, 2))},
        "edge 0 crosses itself",
    ),
    "waypoint on another edge": (
        [(1, 2), (3, 4)], {1: (0, 0), 2: (2, 0), 3: (1, -1), 4: (3, 1)},
        {0: ((0, 0), (2, 0)), 1: ((1, -1), (1, 0), (3, 1))},
        "touch without crossing",
    ),
}


@pytest.mark.parametrize("case", _REJECTED.values(), ids=list(_REJECTED))
def test_non_generic_drawing_rejected(case):
    pairs, pos, polylines, reason = case
    with pytest.raises(GenericityError, match=reason):
        SpatialDiagram(from_pairs(pairs), pos, polylines)


def test_loop_and_parallel_pair_accepted():
    # a loop at vertex 1 crossed once by the edge 2-3
    pos = {1: (0, 0), 2: (1, 0), 3: (3, 0)}
    loop = ((0, 0), (2, 1), (2, -1), (0, 0))
    d = SpatialDiagram(from_pairs([(1, 1), (2, 3)]), pos, {0: loop, 1: (pos[2], pos[3])})
    assert [(c.edge_a, c.param_a, c.edge_b, c.param_b, c.point) for c in d.crossings] == [
        (0, Fraction(3, 2), 1, Fraction(1, 2), (2, 0))
    ]
    # a straight edge and a bent one between the same two vertices
    pos = {1: (0, 0), 2: (2, 0)}
    d = SpatialDiagram(from_pairs([(1, 2), (1, 2)]), pos, {0: (pos[1], pos[2]), 1: (pos[1], (1, 1), pos[2])})
    assert d.crossing_count == 0


def test_convex_drawing_of_loops_and_parallels():
    # K4 with a loop at 1, a second 2-3 edge and two loops at 4
    g = from_pairs([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (1, 1), (2, 3), (4, 4), (4, 4)])
    d = build_convex_diagram(g, seed=3)
    assert d.crossing_count == 4
    assert diagram_to_json(diagram_from_json(diagram_to_json(d))) == diagram_to_json(d)
    for seed in range(20):
        clone = assign_over_under(d, seed=seed)
        for c in all_cycles(g):
            assert cycle_a2(clone, c) == a2(extract_gauss(clone, [c]))


class _PairwiseCertifier:
    """The certification the one segment-pair sweep replaced, kept as its
    oracle: each polyline checked alone, then every pair of edges."""

    def __init__(self, d_positions, edges):
        self.positions = d_positions
        self.edges = edges

    @staticmethod
    def _segments(de):
        return list(zip(de.polyline, de.polyline[1:]))

    def crossings(self):
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

    def _check_polyline(self, de, vertex_points):
        segs = self._segments(de)
        pu = self.positions[de.u]
        for pt in de.polyline[1:-1]:
            if pt in vertex_points:
                raise GenericityError(f"edge {de.eid} passes through a vertex")
        for a, b in segs:
            if a == b:
                raise GenericityError(f"edge {de.eid} has a zero-length segment")
            for vp in vertex_points:
                if vp not in (a, b) and _point_on_segment(vp, a, b):
                    raise GenericityError(f"a vertex lies on edge {de.eid}")
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                res = _seg_intersection(*segs[i], *segs[j])
                if res[0] == "overlap":
                    raise GenericityError(f"edge {de.eid} overlaps itself")
                if res[0] == "point":
                    if j == i + 1:
                        if res[3] == segs[i][1]:
                            continue
                        raise GenericityError(f"edge {de.eid} touches itself")
                    if de.u == de.v and i == 0 and j == len(segs) - 1 and res[3] == pu:
                        continue
                    raise GenericityError(f"edge {de.eid} crosses itself")

    def _pair_crossings(self, da, db):
        shared = ({self.positions[da.u], self.positions[da.v]}
                  & {self.positions[db.u], self.positions[db.v]})
        found = []
        for i, (a1, a2) in enumerate(self._segments(da)):
            for j, (b1, b2) in enumerate(self._segments(db)):
                res = _seg_intersection(a1, a2, b1, b2)
                if res[0] == "none":
                    continue
                if res[0] == "overlap":
                    raise GenericityError(f"edges {da.eid} and {db.eid} overlap")
                _, t, s, pt = res
                if pt in shared:
                    if self._is_terminal_tip(da, i, t, pt) and self._is_terminal_tip(db, j, s, pt):
                        continue
                    raise GenericityError(
                        f"edges {da.eid} and {db.eid} touch a shared vertex improperly"
                    )
                if t in (0, 1) or s in (0, 1):
                    raise GenericityError(f"edges {da.eid} and {db.eid} touch without crossing")
                found.append((da.eid, Fraction(i) + t, db.eid, Fraction(j) + s, pt,
                              _sub(a2, a1), _sub(b2, b1)))
        return found

    def _is_terminal_tip(self, de, seg_idx, t, pt):
        if seg_idx == 0 and t == 0 and pt == de.polyline[0]:
            return True
        n = len(self._segments(de))
        return seg_idx == n - 1 and t == 1 and pt == de.polyline[-1]


_GRID = st.tuples(st.integers(0, 4), st.integers(0, 4))
# waypoints on the half grid: a quarter of its points are vertex grid points
_HALF_GRID = st.tuples(st.integers(0, 8), st.integers(0, 8)).map(
    lambda p: (Fraction(p[0], 2), Fraction(p[1], 2)))


@st.composite
def _grid_drawings(draw):
    """Small-grid drawings with loops, parallel edges and waypoints; many
    are not generic."""
    n = draw(st.integers(3, 6))
    pos = dict(zip(range(1, n + 1), draw(st.lists(_GRID, min_size=n, max_size=n, unique=True))))
    ends = st.integers(1, n)
    g = from_pairs(draw(st.lists(st.tuples(ends, ends), min_size=2, max_size=7)), pos)
    polylines = {}
    for eid, u, v in g.edges:
        way = draw(st.lists(_HALF_GRID, min_size=2 if u == v else 0, max_size=3 if u == v else 2))
        polylines[eid] = (pos[u], *way, pos[v])
    return g, pos, polylines


@settings(deadline=None, max_examples=400)
@given(_grid_drawings())
def test_segment_sweep_matches_pairwise_certifier(drawing):
    g, pos, polylines = drawing
    frac = {v: (Fraction(x), Fraction(y)) for v, (x, y) in pos.items()}
    edges = {eid: DiagramEdge(eid, u, v, tuple((Fraction(x), Fraction(y)) for x, y in polylines[eid]))
             for eid, u, v in g.edges}
    try:
        expected = _PairwiseCertifier(frac, edges).crossings()
    except GenericityError:
        expected = None
    try:
        d = SpatialDiagram(g, pos, polylines)
    except GenericityError:
        assert expected is None
        return
    assert d.crossings == expected
    assert d.neg == sum(1 << c.cid for c in expected if _cross(c.dir_a, c.dir_b) < 0)


def _edges_on_top(d):
    """Per crossing, the edge that extract_gauss marks as the over strand,
    read off a link of two disjoint cycles, one through each strand."""
    g = d.graph
    # cycle_order starts at the cycle's smallest vertex
    pairs = [sorted(p, key=lambda c: cycle_order(g, c)[0]) for p in disjoint_cycle_tuples(g, 2)]
    tops = []
    for x in d.crossings:
        first, second = next(
            (f, s) for f, s in pairs
            if (x.edge_a in f and x.edge_b in s) or (x.edge_b in f and x.edge_a in s)
        )
        # components come out ordered by smallest vertex, so first is 0
        (p,) = [p for p in extract_gauss(d, [first, second]).components[0] if p.crossing == x.cid]
        strand, other = (x.edge_a, x.edge_b) if x.edge_a in first else (x.edge_b, x.edge_a)
        tops.append(strand if p.over else other)
    return tops


def test_assign_over_under_bits_convention():
    d = build_convex_diagram(complete_graph(6))
    edge_a = [c.edge_a for c in d.crossings]
    edge_b = [c.edge_b for c in d.crossings]
    assert _edges_on_top(assign_over_under(d, bits=0)) == edge_a
    assert _edges_on_top(assign_over_under(d, bits=(1 << 15) - 1)) == edge_b
    assert _edges_on_top(assign_over_under(d, bits=1)) == edge_b[:1] + edge_a[1:]


def test_assign_over_under_rejects_bad_input():
    d = build_convex_diagram(complete_graph(6))
    for bad in (-1, 1 << 15):
        with pytest.raises(GraphError, match="out of range"):
            assign_over_under(d, bits=bad)
    # 1.0 would be stored as the mask and True read as 1
    for bad in (1.0, True):
        with pytest.raises(GraphError, match="must be an integer"):
            assign_over_under(d, bits=bad)
    with pytest.raises(GraphError, match="need bits or a seed"):
        assign_over_under(d)


def test_assign_over_under_seeded_is_reproducible():
    d = build_convex_diagram(complete_graph(6))
    a = assign_over_under(d, seed=5)
    b = assign_over_under(d, seed=5)
    c = assign_over_under(d, seed=6)
    assert _edges_on_top(a) == _edges_on_top(b)
    assert _edges_on_top(a) != _edges_on_top(c)


def test_extract_gauss_needs_disjoint_components(n9):
    from spatialgraphs.cycles import parse_cycle

    d = assign_over_under(build_convex_diagram(n9), bits=0)
    tri1 = parse_cycle(n9, "[1 2 3]")
    tri2 = parse_cycle(n9, "[4 5 6]")
    shares_an_edge = parse_cycle(n9, "[1 2 6]")
    link = extract_gauss(d, [tri1, tri2])
    link.validate()
    with pytest.raises(GraphError):
        extract_gauss(d, [tri1, shares_an_edge])
    # two triangles through one vertex share no edge, and have no linking
    # number either
    k6 = complete_graph(6)
    d = assign_over_under(build_convex_diagram(k6), seed=1)
    with pytest.raises(GraphError):
        extract_gauss(d, [parse_cycle(k6, "[1 2 3]"), parse_cycle(k6, "[1 4 5]")])


@pytest.mark.parametrize("labels", [
    [-6, -5, -4, -3, -2, -1],
    [10**12 + i for i in range(6)],
], ids=["negative", "large"])
def test_extract_gauss_takes_any_vertex_labels(labels):
    # labels come from edge-list files; the drawing and the disjointness
    # check depend only on their order, so K6 labelled in the order of
    # 1..6 gives the same linking numbers
    from spatialgraphs.cycles import parse_cycle
    from spatialgraphs.invariants import linking_number

    def lk(g, names, *triangles):
        d = assign_over_under(build_convex_diagram(g), seed=1)
        cycles = [parse_cycle(g, "[%s]" % " ".join(str(names[v - 1]) for v in t))
                  for t in triangles]
        return linking_number(extract_gauss(d, cycles))

    k6 = complete_graph(6, labels)
    for pair in (((1, 2, 3), (4, 5, 6)), ((1, 3, 5), (2, 4, 6)), ((1, 2, 4), (3, 5, 6))):
        assert lk(k6, labels, *pair) == lk(complete_graph(6), range(1, 7), *pair)
    with pytest.raises(GraphError):
        lk(k6, labels, (1, 2, 3), (1, 4, 5))


def test_json_round_trip_preserves_crossings():
    d = assign_over_under(build_convex_diagram(complete_graph(6)), seed=3)
    back = diagram_from_json(diagram_to_json(d))
    assert back.crossing_count == d.crossing_count
    assert _edges_on_top(back) == _edges_on_top(d)
    assert back.positions == d.positions


def test_json_rejects_a_crossing_stored_twice():
    # naming one crossing twice, in its own or the other over/under order,
    # leaves another unnamed; that crossing must not silently load as bit 0
    doc = json.loads(diagram_to_json(build_convex_diagram(complete_graph(6), seed=0)))
    first = doc["crossings"][0]
    swapped = dict(first, over_edge=first["under_edge"], over_param=first["under_param"],
                   under_edge=first["over_edge"], under_param=first["over_param"])
    for repeat in (first, swapped):
        doc["crossings"][1] = repeat
        with pytest.raises(GraphError, match="stored twice"):
            diagram_from_json(json.dumps(doc))


def test_json_rejects_a_zero_denominator():
    doc = json.loads(diagram_to_json(build_convex_diagram(complete_graph(4))))
    doc["vertices"]["1"][0] = "1/0"
    with pytest.raises(GraphError, match="not a fraction"):
        diagram_from_json(json.dumps(doc))


def _coordinate_as_number(doc):
    doc["vertices"]["1"][0] = 0


def _drop(key):
    def edit(doc):
        del doc[key]
    return edit


def _edge_id_not_an_integer(doc):
    doc["edges"]["x"] = doc["edges"].pop("0")


def _endpoint_not_an_integer(doc):
    doc["edges"]["0"]["u"] = "one"


def _endpoint_fractional(doc):
    doc["edges"]["0"]["u"] = 1.9


def _endpoint_boolean(doc):
    doc["edges"]["0"]["u"] = True


def _under_edge_a_list(doc):
    doc["crossings"][0]["under_edge"] = [doc["crossings"][0]["under_edge"]]


def _over_edge_boolean(doc):
    # crossing 0 is over edge 1, so True would read as that edge
    assert doc["crossings"][0]["over_edge"] == 1
    doc["crossings"][0]["over_edge"] = True


def _one_element_point(doc):
    doc["edges"]["0"]["polyline"][1] = ["1/2"]


@pytest.mark.parametrize(
    "edit",
    [_coordinate_as_number, _drop("crossings"), _drop("edges"), _drop("vertices"),
     list, _edge_id_not_an_integer, _endpoint_not_an_integer, _one_element_point,
     _endpoint_fractional, _endpoint_boolean, _under_edge_a_list, _over_edge_boolean],
    ids=["coordinate number", "no crossings", "no edges", "no vertices", "top-level list",
         "edge id", "endpoint", "one-element point", "fractional endpoint", "boolean endpoint",
         "list under edge", "boolean over edge"],
)
def test_json_rejects_malformed_documents(edit):
    doc = json.loads(diagram_to_json(build_convex_diagram(complete_graph(6), seed=0)))
    doc = edit(doc) or doc  # an edit returns a new document or changes this one
    with pytest.raises(GraphError):
        diagram_from_json(json.dumps(doc))


# sha256 of diagram_to_json, recorded with the per-crossing over flags the
# mask replaced; the JSON records of a mask must stay byte-identical
JSON_PINS = {
    "K6 seed 3": "5769c28f91e37119e0600291282ed067b4b73e42afcc1499f3f629766301dd81",
    "D4ref mask 0b101100101": "43f9faf1291cdfd35f3f7fb0a3a3f7fc4e840ef43ca91b490a5cc245b217d918",
}


def test_json_matches_pins():
    diagrams = {
        "K6 seed 3": assign_over_under(build_convex_diagram(complete_graph(6)), seed=3),
        "D4ref mask 0b101100101": assign_over_under(d4_reference_diagram(), 0b101100101),
    }
    for name, d in diagrams.items():
        text = diagram_to_json(d)
        assert hashlib.sha256(text.encode()).hexdigest() == JSON_PINS[name], name
        assert diagram_to_json(diagram_from_json(text)) == text


def test_random_knot_diagram_is_deterministic():
    d1, cyc1 = random_knot_diagram(seed=11)
    d2, cyc2 = random_knot_diagram(seed=11)
    assert cyc1 == cyc2
    assert extract_gauss(d1, [cyc1]) == extract_gauss(d2, [cyc2])
    assert 2 <= d1.crossing_count <= 16


# -- compiled signs and walks against the geometry ----------------------------------


def _geometric_gauss(d, comps):
    """Gauss code read straight off the geometry: walk every cycle with
    cycle_walk and sign every crossing by the Fraction cross product of the
    walked over and under directions."""
    walks = {c: cycle_walk(d.graph, c) for c in map(frozenset, comps)}
    comps = sorted(walks, key=lambda c: (walks[c][0][0], sorted(c)))
    chosen = frozenset().union(*comps)
    per_edge = {e: [] for e in d.edges}
    for c in d.crossings:
        per_edge[c.edge_a].append((c.param_a, c.cid, "a"))
        per_edge[c.edge_b].append((c.param_b, c.cid, "b"))
    walk_dirs, sequences = {}, []
    for comp in comps:
        seq = []
        for tail, eid in walks[comp]:
            forward = d.graph.endpoints(eid)[0] == tail
            walk_dirs[eid] = 1 if forward else -1
            for _, cid, side in sorted(per_edge[eid], reverse=not forward):
                c = d.crossings[cid]
                if (c.edge_b if side == "a" else c.edge_a) in chosen:
                    seq.append((cid, side))
        sequences.append(seq)
    out = []
    for seq in sequences:
        passages = []
        for cid, side in seq:
            c = d.crossings[cid]
            over = "b" if d.mask >> cid & 1 else "a"
            da = (c.dir_a[0] * walk_dirs[c.edge_a], c.dir_a[1] * walk_dirs[c.edge_a])
            db = (c.dir_b[0] * walk_dirs[c.edge_b], c.dir_b[1] * walk_dirs[c.edge_b])
            d_over, d_under = (da, db) if over == "a" else (db, da)
            passages.append(Passage(cid, side == over, 1 if _cross(d_over, d_under) > 0 else -1))
        out.append(tuple(passages))
    return GaussLink(tuple(out))


def _scope_items(g):
    """Every cycle alone and every disjoint pair, in a fixed order."""
    return [[c] for c in all_cycles(g)] + [list(p) for p in disjoint_cycle_tuples(g, 2)]


@functools.cache
def _projection(name):
    d = d4_reference_diagram() if name == "D4ref" else build_convex_diagram(fixture(name), seed=0)
    return d, _scope_items(d.graph)


_SHAPES = ("K6", "K7", "N9", "D4ref")


@st.composite
def _masks(draw, names=_SHAPES):
    name = draw(st.sampled_from(names))
    base, _ = _projection(name)
    return name, draw(st.integers(0, (1 << base.crossing_count) - 1))


@st.composite
def _trials(draw):
    name, mask = draw(_masks())
    base, items = _projection(name)
    return base, mask, draw(st.sampled_from(items))


@settings(deadline=None, max_examples=80)
@given(_trials())
def test_compiled_gauss_matches_geometry(trial):
    base, mask, item = trial
    clone = assign_over_under(base, mask)
    link = extract_gauss(clone, item)
    assert link == _geometric_gauss(clone, item)
    # a freshly built diagram starts with an empty memo, so a memo filled
    # by earlier clones of base cannot hand this one their over/under state
    assert link == extract_gauss(diagram_from_json(diagram_to_json(clone)), item)


def test_pickled_half_filled_base_gives_identical_codes():
    base = build_convex_diagram(fixture("K6"))
    items = _scope_items(base.graph)
    for item in items[::2]:
        extract_gauss(assign_over_under(base, seed=1), item)
    assert base._memo  # clones fill the memo of the projection they share
    copy = pickle.loads(pickle.dumps(base))
    for seed in (2, 3):
        for item in items:
            expected = _geometric_gauss(assign_over_under(base, seed=seed), item)
            assert extract_gauss(assign_over_under(copy, seed=seed), item) == expected
            assert extract_gauss(assign_over_under(base, seed=seed), item) == expected


def _compiled(d, item):
    return cycle_a2(d, *item) if len(item) == 1 else pair_lk(d, *item)


def _from_gauss(d, item):
    link = extract_gauss(d, item)
    return a2(link) if len(item) == 1 else linking_number(link)


@functools.cache
def _half_filled_copy(name):
    """A pickled copy of name's projection, taken after its clones compiled
    the forms of every other scope item into the memo they share."""
    base, items = _projection(name)
    fresh = diagram_from_json(diagram_to_json(base))
    for item in items[::2]:
        _compiled(assign_over_under(fresh, seed=1), item)
    return pickle.loads(pickle.dumps(fresh))


@settings(deadline=None, max_examples=30)
@given(_masks(_SHAPES + ("N'10", "PetersenRef")))
def test_compiled_forms_match_gauss_codes(trial):
    name, mask = trial
    base, items = _projection(name)
    clone = assign_over_under(base, mask)
    # a freshly built diagram compiles every form anew; the pickled copy
    # reads half of them from its memo
    fresh = diagram_from_json(diagram_to_json(clone))
    copied = assign_over_under(_half_filled_copy(name), mask)
    for item in items:
        expected = _from_gauss(clone, item)
        assert _compiled(fresh, item) == expected, item
        assert _compiled(copied, item) == expected, item
